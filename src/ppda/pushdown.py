"""Stateless probabilistic pushdown processes (pBPA) and the Markov chain
each induces over its configurations.

A ``Bpa`` has no control states: a configuration is a finite stack word
with the top symbol leftmost, and rewriting the top symbol by a rule body
of length at most two induces a Markov chain over configurations. A
configuration with an empty stack is dead: it gets a probability-1
self-loop and satisfies no atomic proposition, which keeps the transition
relation total. ``induced_chain`` validates a model and returns that
chain as a ``ChainGenerator``, which unfolds it lazily from a start
configuration.

This module is the one place that knows how a configuration is encoded as
a chain state: its symbols joined by single spaces, top first, or ``~``
for the empty stack. ``step`` rewrites that string directly.

Every stack symbol is its own atomic proposition: ``(ap X)`` holds exactly
when the head of the stack is X. A head-based labelling, where p holds at
the heads in a set H, is the disjunction of ``(ap X)`` over X in H.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import PpdaInputError, bounded, quote
from .rationals import RationalFormatError, format_rational, parse_rational

ONE = Fraction(1)

EMPTY_MARK = "~"


class ModelSyntaxError(PpdaInputError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownSymbolError(PpdaInputError):
    """A configuration holds a symbol that is not in the model's stack alphabet."""

    def __init__(self, symbol: str) -> None:
        super().__init__(f"unknown stack symbol {quote(symbol)}: the model has no rule for it")


class InvalidModelError(PpdaInputError):
    """A model fails ``validate_model``."""


@dataclass(frozen=True)
class ModelViolation:
    subject: str
    reason: str


@dataclass(frozen=True)
class Configuration:
    """A stack word over the alphabet, top symbol first."""

    stack: tuple[str, ...]

    def encode(self) -> str:
        return " ".join(self.stack) if self.stack else EMPTY_MARK

    @classmethod
    def parse(cls, text: str) -> "Configuration":
        tokens = text.split()
        if tokens == [EMPTY_MARK]:
            tokens = []
        return cls(tuple(tokens))


@dataclass(frozen=True)
class BpaRule:
    head: str
    body: tuple[str, ...]
    probability: Fraction


@dataclass(frozen=True)
class Bpa:
    alphabet: tuple[str, ...]
    rules: tuple[BpaRule, ...]

    @staticmethod
    def make(rules: list[BpaRule]) -> "Bpa":
        symbols: set[str] = set()
        for rule in rules:
            symbols.add(rule.head)
            symbols.update(rule.body)
        ordered = tuple(sorted(rules, key=lambda r: (r.head, r.body)))
        return Bpa(tuple(sorted(symbols)), ordered)

    @cached_property
    def rules_by_head(self) -> dict[str, tuple[BpaRule, ...]]:
        grouped: dict[str, list[BpaRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.head, []).append(rule)
        return {head: tuple(rules) for head, rules in grouped.items()}

    @cached_property
    def bodies_by_head(self) -> dict[str, tuple[tuple[str, Fraction], ...]]:
        """``step``'s memo of each head's rules as ``(prefix, probability)``,
        in rule order: the prefix is the body's symbols, each followed by one
        space, so a successor is one concatenation. ``step`` fills it one head
        at a time, at the head's first step, so a model that is walked only
        a little joins only the bodies it uses."""
        return {}


def _subject(rule: BpaRule) -> str:
    """How a violation names its rule; built only when one is recorded."""
    return f"{rule.head} -> {' '.join(rule.body) or EMPTY_MARK}"


def validate_model(model: Bpa) -> list[ModelViolation]:
    """Rule totality per head, exact (``Fraction``) probabilities in (0, 1]
    and their sums, body lengths, and symbols the configuration encoding
    carries: not ``~``, not empty, no whitespace. A head with a flagged
    probability gets no sum violation on top. The checks run on the
    numerators and denominators: a head's sum is taken over the least
    common multiple of its denominators."""
    out: list[ModelViolation] = []
    if EMPTY_MARK in model.alphabet:
        out.append(ModelViolation(EMPTY_MARK, "'~' is the empty stack and cannot be a stack symbol"))
    for symbol in model.alphabet:
        if symbol.split() != [symbol]:
            out.append(ModelViolation(repr(symbol), "a stack symbol must be non-empty and hold no whitespace"))
    per_head: dict[str, list[Fraction]] = {}
    flagged: set[str] = set()  # heads whose sum is not checked: a rule's probability is flagged instead
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for rule in model.rules:
        p = rule.probability
        if len(rule.body) > 2:
            out.append(ModelViolation(_subject(rule), "body longer than 2 symbols"))
        if not isinstance(p, Fraction):
            out.append(ModelViolation(_subject(rule), f"probability must be an exact rational, got {type(p).__name__}"))
            flagged.add(rule.head)
        elif not 0 < p.numerator <= p.denominator:
            out.append(ModelViolation(_subject(rule), f"probability {bounded(format_rational(p))} outside (0,1]"))
            flagged.add(rule.head)
        key = (rule.head, rule.body)
        if key in seen:
            out.append(ModelViolation(_subject(rule), "duplicate rule"))
        seen.add(key)
        per_head.setdefault(rule.head, []).append(p)
    for symbol in model.alphabet:
        probabilities = per_head.get(symbol)
        if probabilities is None:
            out.append(ModelViolation(symbol, "no rule for this symbol"))
        elif symbol not in flagged:
            den = lcm(*[p.denominator for p in probabilities])
            num = sum([p.numerator * (den // p.denominator) for p in probabilities])
            if num != den:
                total = bounded(format_rational(Fraction(num, den)))
                out.append(ModelViolation(symbol, f"rule probabilities sum to {total}, not 1"))
    return out


def step(model: Bpa, state: str) -> list[tuple[str, Fraction]]:
    """All one-step successors of the encoded configuration ``state`` with
    their probabilities, sorted by successor.

    The empty stack ``~`` yields its probability-1 self-loop. Raises
    ``UnknownSymbolError`` if the head has no rule.
    """
    head, _, rest = state.partition(" ")
    if head == EMPTY_MARK:
        return [(state, ONE)]
    bodies = model.bodies_by_head.get(head)
    if bodies is None:
        rules = model.rules_by_head.get(head)
        if rules is None:
            raise UnknownSymbolError(head)
        bodies = model.bodies_by_head[head] = tuple(
            [(" ".join(rule.body) + " " if rule.body else "", rule.probability) for rule in rules])
    if rest:
        successors = [(prefix + rest, p) for prefix, p in bodies]
    else:
        successors = [(prefix[:-1] or EMPTY_MARK, p) for prefix, p in bodies]
    successors.sort()
    return successors


class ChainGenerator:
    """The Markov chain a pBPA induces over encoded configurations from ``start``.

    ``successors`` caches ``step``'s list as it is: sorted by successor,
    with ``Fraction`` probabilities. A state's label set is its head, or
    empty on the empty stack.
    """

    def __init__(self, bpa: Bpa, start: Configuration) -> None:
        self.bpa = bpa
        self.initial = start.encode()
        self._succ_cache: dict[str, list[tuple[str, Fraction]]] = {}

    def successors(self, state: str) -> list[tuple[str, Fraction]]:
        cached = self._succ_cache.get(state)
        if cached is None:
            cached = self._succ_cache[state] = step(self.bpa, state)
        return cached

    def labels(self, state: str) -> frozenset[str]:
        head = self.head(state)
        return frozenset() if head is None else frozenset({head})

    @staticmethod
    def head(state: str) -> str | None:
        """The top stack symbol of an encoded configuration; None for the empty stack."""
        top = state.partition(" ")[0]
        return None if top == EMPTY_MARK else top


def induced_chain(model: Bpa, start: Configuration) -> ChainGenerator:
    """The Markov chain over configurations from ``start``, labelled by the head.

    Raises ``InvalidModelError`` naming the first three violations of
    ``validate_model`` and how many more there are, and
    ``UnknownSymbolError`` if ``start`` holds a symbol outside the model's
    alphabet.
    """
    problems = validate_model(model)
    if problems:
        shown = [f"{bounded(v.subject)}: {v.reason}" for v in problems[:3]]
        if len(problems) > 3:
            shown.append(f"and {len(problems) - 3} more")
        raise InvalidModelError("invalid model: " + "; ".join(shown))
    known = set(model.alphabet)
    for symbol in start.stack:
        if symbol not in known:
            raise UnknownSymbolError(symbol)
    return ChainGenerator(model, start)


# ---------------------------------------------------------------------------
# Text format


def _parse_rule_line(tokens: list[str], line_no: int) -> BpaRule:
    try:
        arrow = tokens.index("->")
    except ValueError:
        raise ModelSyntaxError("missing '->'", line_no) from None
    lhs = tokens[:arrow]
    rhs = tokens[arrow + 1:]
    if not rhs or not rhs[-1].startswith("[") or not rhs[-1].endswith("]"):
        raise ModelSyntaxError("missing probability '[p/q]'", line_no)
    try:
        prob = parse_rational(rhs[-1][1:-1])
    except RationalFormatError as exc:
        raise ModelSyntaxError(str(exc), line_no) from None
    body = rhs[:-1]
    if len(lhs) != 1 or lhs == [EMPTY_MARK]:
        raise ModelSyntaxError("head must be a single symbol other than '~'", line_no)
    if body == [EMPTY_MARK]:
        body = []
    if len(body) > 2:
        raise ModelSyntaxError("rule body longer than 2 symbols", line_no)
    if EMPTY_MARK in body:
        raise ModelSyntaxError("'~' cannot be combined with symbols", line_no)
    return BpaRule(lhs[0], tuple(body), prob)


def parse_model(text: str) -> Bpa:
    rules: list[BpaRule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rules.append(_parse_rule_line(line.split(), line_no))
    if not rules:
        raise ModelSyntaxError("empty model", 1)
    return Bpa.make(rules)


def serialize_model(model: Bpa) -> str:
    lines = []
    for rule in model.rules:
        body = " ".join(rule.body) if rule.body else EMPTY_MARK
        lines.append(f"{rule.head} -> {body} [{format_rational(rule.probability)}]")
    return "\n".join(lines) + "\n"
