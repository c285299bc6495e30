"""Compiling word-matching (PCP) instances into stateless pushdown processes.

An instance is a list of word pairs over {A, B}. The compiled process first
guesses an index word by pushing letter pairs (padded with ``_`` to a common
block length m) onto the stack, then checks the guess by popping: each
popped pair flips a fair coin between exposing a checked marker and
vanishing, so the probability of the until-formulas phi1/phi2 below encodes
the guessed words as dyadic numbers. A guess is a solution exactly when the
two encodings are complementary, which the certification report checks with
exact arithmetic.

Stack symbols double as atomic propositions (each symbol its own head set).
Pair symbols are written ``P(x,y)``, checked symbols ``X(x,y)``, guessing
cursors ``G(i,j)``, and the padding letter is ``_``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping

from . import pctl
from .chain import FinitePath
from .errors import PpdaInputError, bounded, quote, read_text
from .pctl import (
    And,
    Atom,
    BoundPlaceholder,
    Comparison,
    Next,
    Not,
    PathFormula,
    Prob,
    StateFormula,
    TRUE_FORMULA,
    Until,
    conjunction,
    disjunction,
)
from .pushdown import Bpa, BpaRule, ChainGenerator, Configuration, induced_chain
from .rationals import format_rational

PAD = "_"
SIGMA = ("A", "B", PAD)
LETTERS = ("A", "B")

ONE = Fraction(1)
HALF = Fraction(1, 2)


class DegenerateInstanceError(PpdaInputError):
    """Every word of the instance is empty, so there is nothing to pad."""


class InstanceFormatError(PpdaInputError):
    pass


class IndexRangeError(PpdaInputError):
    """An index word uses an index outside 1..n or is empty."""


class MalformedWordError(PpdaInputError):
    pass


class DomainError(PpdaInputError):
    pass


class TRangeError(PpdaInputError):
    """The certification constant t must lie strictly between 0 and 1."""


class VariantFormatError(PpdaInputError):
    """A variant name that is not ``default``, ``cf-simple`` or ``n-chain K``."""


def pair_symbol(x: str, y: str) -> str:
    return f"P({x},{y})"


def checked_symbol(x: str, y: str) -> str:
    return f"X({x},{y})"


def guess_symbol(i: int, j: int) -> str:
    return f"G({i},{j})"


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class PcpInstance:
    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InstanceFormatError("an instance needs at least one pair")
        for u, v in self.pairs:
            for word in (u, v):
                bad = set(word) - set(LETTERS)
                if bad:
                    raise InstanceFormatError(f"words must use letters A/B, got {sorted(bad)}")
        if all(u == "" and v == "" for u, v in self.pairs):
            raise DegenerateInstanceError("all words are empty")

    @property
    def n(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PaddedInstance:
    pairs: tuple[tuple[str, str], ...]
    m: int


def pad(instance: PcpInstance) -> PaddedInstance:
    """Right-pad every word with the padding letter to the common length m."""
    m = max(max(len(u), len(v)) for u, v in instance.pairs)
    padded = tuple(
        (u + PAD * (m - len(u)), v + PAD * (m - len(v))) for u, v in instance.pairs
    )
    return PaddedInstance(padded, m)


def erase_pad(word: str) -> str:
    return word.replace(PAD, "")


def parse_index_word(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise IndexRangeError("empty index word")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise IndexRangeError(f"malformed index word: {quote(text)}") from None


def format_index_word(word) -> str:
    return ",".join(str(j) for j in word)


def _check_indices(instance: PcpInstance, word) -> tuple[int, ...]:
    word = tuple(word)
    if not word:
        raise IndexRangeError("index words are non-empty")
    for j in word:
        if not 1 <= j <= instance.n:
            raise IndexRangeError(f"index {j} outside 1..{instance.n}")
    return word


def check_solution(instance: PcpInstance, word) -> bool:
    """Do the selected u-words and v-words concatenate to the same string?"""
    return _solves(instance, _check_indices(instance, word))


def _solves(instance: PcpInstance, word: tuple[int, ...]) -> bool:
    u = "".join(instance.pairs[j - 1][0] for j in word)
    v = "".join(instance.pairs[j - 1][1] for j in word)
    return u == v


def parse_instance(text: str) -> PcpInstance:
    pairs: list[tuple[str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise InstanceFormatError(f"line {line_no}: expected 'u v', got {quote(raw.strip())}")
        u, v = tokens
        pairs.append(("" if u == "-" else u, "" if v == "-" else v))
    if not pairs:
        raise InstanceFormatError("no pairs in instance")
    return PcpInstance(tuple(pairs))


def serialize_instance(instance: PcpInstance) -> str:
    lines = [f"{u or '-'} {v or '-'}" for u, v in instance.pairs]
    return "\n".join(lines) + "\n"


def load_instance(path) -> PcpInstance:
    return parse_instance(read_text(path))


# ---------------------------------------------------------------------------
# Dyadic encodings


# The digit of each symbol under theta and theta_bar; they differ on A/B only.
_THETA = {"Z'": 1, "A": 1, "B": 0}
_THETA_BAR = {"Z'": 1, "A": 0, "B": 1}


def _digit(digits: Mapping[str, int], x: str) -> int:
    if x not in digits:
        raise DomainError(f"theta is defined on A, B, Z' only, got {quote(x)}")
    return digits[x]


def theta(x: str) -> int:
    return _digit(_THETA, x)


def theta_bar(x: str) -> int:
    return _digit(_THETA_BAR, x)


def _dyadic(digits: Mapping[str, int], word: str) -> Fraction:
    """Sum of digit(x_i) * 2^-i over the body, plus the final Z' term."""
    if not word.endswith("Z'"):
        raise MalformedWordError(f"word must end in Z': {quote(word)}")
    body = word[:-2]
    if not body:
        raise MalformedWordError("word body is empty")
    bad = set(body) - set(LETTERS)
    if bad:
        raise MalformedWordError(f"word body must be over A/B, got {sorted(bad)}")
    total = sum(
        (Fraction(digits[c], 2 ** (i + 1)) for i, c in enumerate(body)),
        Fraction(0),
    )
    return total + Fraction(1, 2 ** (len(body) + 1))


def rho(word: str) -> Fraction:
    """Dyadic weight: sum of theta(x_i) * 2^-i plus the final Z' term."""
    return _dyadic(_THETA, word)


def rho_bar(word: str) -> Fraction:
    """Dyadic weight: sum of theta_bar(x_i) * 2^-i plus the final Z' term."""
    return _dyadic(_THETA_BAR, word)


# ---------------------------------------------------------------------------
# Variants


class VariantKind(Enum):
    DEFAULT = "default"
    N_CHAIN = "n-chain"
    CF_SIMPLE = "cf-simple"


# The longest chain of `n-chain K`: compile_instance writes K link rules, so
# the cost grows linearly in K. On a 2-vCPU host `ppda certify` of 1,3 on
# three_pairs.pcp took 0.10 s and 35 MB at K = 10,000 and 1.8 s and 169 MB at
# K = 10^5 (in process), and a whole run at K = 10^6 took 28.9 s and 1.24 GB.
MAX_CHAIN_LENGTH = 10_000


@dataclass(frozen=True)
class Variant:
    kind: VariantKind = VariantKind.DEFAULT
    chain_length: int = 1

    def __post_init__(self) -> None:
        if self.kind is VariantKind.N_CHAIN and self.chain_length < 1:
            raise VariantFormatError("chain length must be at least 1")
        if self.kind is VariantKind.N_CHAIN and self.chain_length > MAX_CHAIN_LENGTH:
            raise VariantFormatError(f"chain length {self.chain_length} is over the limit of {MAX_CHAIN_LENGTH}")

    @classmethod
    def parse(cls, text: str) -> "Variant":
        tokens = text.replace(":", " ").split()
        if not tokens:
            raise VariantFormatError("empty variant")
        try:
            kind = VariantKind(tokens[0])
        except ValueError:
            raise VariantFormatError(
                f"unknown variant {quote(tokens[0])}: expected default, cf-simple or 'n-chain K'"
            ) from None
        if kind is VariantKind.N_CHAIN:
            if len(tokens) > 2:
                raise VariantFormatError(f"variant 'n-chain' takes one argument, got {quote(text)}")
            try:
                length = int(tokens[1]) if len(tokens) > 1 else 1
            except ValueError:
                if re.fullmatch(r"[+-]?\d+", tokens[1]):  # a numeral, so only the digit limit refuses it
                    raise VariantFormatError(
                        f"chain length of {len(tokens[1])} characters exceeds the interpreter's integer digit limit"
                    ) from None
                raise VariantFormatError(f"chain length must be an integer, got {quote(tokens[1])}") from None
            return cls(kind, length)
        if len(tokens) > 1:
            raise VariantFormatError(f"variant {quote(tokens[0])} takes no argument")
        return cls(kind)


DEFAULT_VARIANT = Variant()


# ---------------------------------------------------------------------------
# Formulas


def build_phi(stop: str, marker: Callable[[str, str], str], other: str, hit: str) -> PathFormula:
    """Popping passes neither the ``stop`` branch marker nor a checked pair
    whose letter on this side is ``other`` or ``hit``, until one whose
    letter is ``hit`` appears. ``marker(x, z)`` is the checked symbol with
    letter x on this side and z on the other."""
    guard = conjunction(
        [Not(Atom(stop))] + [And(Not(Atom(marker(other, z))), Not(Atom(marker(hit, z)))) for z in SIGMA]
    )
    return Until(guard, disjunction([Atom(marker(hit, z)) for z in SIGMA]))


# The bounds of the inner conjunction on phi1 and phi2, as placeholders.
_PLACEHOLDER_BOUNDS = (BoundPlaceholder.T_HALF, BoundPlaceholder.ONE_MINUS_T_HALF)


def _inner_conjunction(phi1: PathFormula, phi2: PathFormula, bounds=_PLACEHOLDER_BOUNDS) -> StateFormula:
    return And(Prob(Comparison.EQ, bounds[0], phi1), Prob(Comparison.EQ, bounds[1], phi2))


# The formulas do not depend on the instance, only on the fixed letter
# alphabet, so every artifact shares the same interned nodes; they are built
# once, at import. phi1 reads the u-side of each checked pair, phi2 the v-side.
PHI1 = build_phi("S", checked_symbol, "B", "A")
PHI2 = build_phi("F", lambda x, z: checked_symbol(z, x), "A", "B")


def build_top_formula(kind: VariantKind, bounds: tuple[pctl.Bound, pctl.Bound] = _PLACEHOLDER_BOUNDS) -> StateFormula:
    """The top formula of ``kind``; ``bounds`` are those of its inner
    conjunction, the placeholders t/2 and (1-t)/2 or their values."""
    inner = _inner_conjunction(PHI1, PHI2, bounds)
    if kind is VariantKind.CF_SIMPLE:
        reached = And(Atom("C"), inner)
    elif kind is VariantKind.N_CHAIN:
        reached = And(
            Atom("C"),
            Prob(
                Comparison.EQ,
                ONE,
                Until(TRUE_FORMULA, Prob(Comparison.EQ, ONE, Next(inner))),
            ),
        )
    else:
        reached = And(Atom("C"), Prob(Comparison.EQ, ONE, Next(inner)))
    return Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, reached))


_TOP_FORMULAS = {kind: build_top_formula(kind) for kind in VariantKind}


# ---------------------------------------------------------------------------
# Compilation


@dataclass(frozen=True)
class ReductionArtifact:
    instance: PcpInstance
    padded: PaddedInstance
    variant: Variant
    bpa: Bpa
    phi1: PathFormula
    phi2: PathFormula
    top_formula: StateFormula

    @property
    def m(self) -> int:
        return self.padded.m

    @property
    def check_head(self) -> str:
        """Head of the configuration at which certification values are read."""
        return "C" if self.variant.kind is VariantKind.CF_SIMPLE else "N"

    @cached_property
    def chain(self) -> ChainGenerator:
        return induced_chain(self.bpa, Configuration(("Z",)))


def compile_instance(instance: PcpInstance, variant: Variant = DEFAULT_VARIANT) -> ReductionArtifact:
    padded = pad(instance)
    n, m = instance.n, padded.m
    rules: list[BpaRule] = []

    # Guessing phase: push blocks of padded letter pairs, then either stop
    # at the checkpoint C or start another block.
    for i in range(1, n + 1):
        rules.append(BpaRule("Z", (guess_symbol(i, 1), "Z'"), Fraction(1, n)))
    for i, (u, v) in enumerate(padded.pairs, start=1):
        for j in range(1, m + 1):
            rules.append(
                BpaRule(
                    guess_symbol(i, j),
                    (guess_symbol(i, j + 1), pair_symbol(u[j - 1], v[j - 1])),
                    ONE,
                )
            )
        rules.append(BpaRule(guess_symbol(i, m + 1), ("C",), Fraction(1, n + 1)))
        for k in range(1, n + 1):
            rules.append(
                BpaRule(guess_symbol(i, m + 1), (guess_symbol(k, 1),), Fraction(1, n + 1))
            )

    # Checking phase: branch to the u-side (F) or v-side (S) and pop, at C
    # under `cf-simple`, and after the links C -> N1 -> ... -> Nk -> N under
    # `n-chain k`, of which `default` is the case k = 0.
    if variant.kind is VariantKind.CF_SIMPLE:
        rules.append(BpaRule("C", ("F",), HALF))
        rules.append(BpaRule("C", ("S",), HALF))
    else:
        length = variant.chain_length if variant.kind is VariantKind.N_CHAIN else 0
        links = ["C"] + [f"N{i}" for i in range(1, length + 1)] + ["N"]
        for src, dst in zip(links, links[1:]):
            rules.append(BpaRule(src, (dst,), ONE))
        rules.append(BpaRule("N", ("F",), HALF))
        rules.append(BpaRule("N", ("S",), HALF))
    rules.append(BpaRule("F", (), ONE))
    rules.append(BpaRule("S", (), ONE))
    for x in SIGMA:
        for y in SIGMA:
            rules.append(BpaRule(pair_symbol(x, y), (checked_symbol(x, y),), HALF))
            rules.append(BpaRule(pair_symbol(x, y), (), HALF))
            rules.append(BpaRule(checked_symbol(x, y), (), ONE))
    rules.append(BpaRule("Z'", (checked_symbol("A", "B"),), HALF))
    rules.append(BpaRule("Z'", (checked_symbol("B", "A"),), HALF))

    return ReductionArtifact(
        instance=instance,
        padded=padded,
        variant=variant,
        bpa=Bpa.make(rules),
        phi1=PHI1,
        phi2=PHI2,
        top_formula=_TOP_FORMULAS[variant.kind],
    )


# ---------------------------------------------------------------------------
# Guessed configurations


def _guess_stack(padded: PaddedInstance, word: tuple[int, ...]) -> tuple[str, ...]:
    symbols: list[str] = ["Z'"]
    for j in word:
        u, v = padded.pairs[j - 1]
        for a, b in zip(u, v):
            symbols.append(pair_symbol(a, b))
    symbols.reverse()
    return tuple(symbols)


def guess_config(instance: PcpInstance, word) -> Configuration:
    """The checkpoint configuration the process reaches after guessing ``word``.

    The letter pairs sit on the stack in reverse guess order (latest on
    top), followed by the bottom marker.
    """
    word = _check_indices(instance, word)
    return Configuration(("C",) + _guess_stack(pad(instance), word))


def guess_path(instance: PcpInstance, word) -> FinitePath:
    """The unique rule path from Z to ``guess_config(instance, word)``."""
    word = _check_indices(instance, word)
    padded = pad(instance)
    m = padded.m
    states = [Configuration(("Z",))]
    stack: list[str] = []

    def push_state() -> None:
        states.append(Configuration(tuple(stack)))

    stack = [guess_symbol(word[0], 1), "Z'"]
    push_state()
    for pos, j in enumerate(word):
        u, v = padded.pairs[j - 1]
        for col in range(1, m + 1):
            stack[0:1] = [guess_symbol(j, col + 1), pair_symbol(u[col - 1], v[col - 1])]
            push_state()
        if pos + 1 < len(word):
            stack[0:1] = [guess_symbol(word[pos + 1], 1)]
        else:
            stack[0:1] = ["C"]
        push_state()
    return FinitePath(tuple(c.encode() for c in states))


def guess_path_probability(instance: PcpInstance, word) -> Fraction:
    word = _check_indices(instance, word)
    n, k = instance.n, len(word)
    return Fraction(1, n) * Fraction(1, n + 1) ** k


# ---------------------------------------------------------------------------
# Certification


@dataclass(frozen=True)
class CertifyReport:
    word: tuple[int, ...]
    is_solution: bool
    t: Fraction
    p_phi1_at_N: Fraction
    p_phi2_at_N: Fraction
    formula_holds: bool

    def to_text(self) -> str:
        def flag(b: bool) -> str:
            return "true" if b else "false"

        return (
            f"word={format_index_word(self.word)}\n"
            f"is_solution={flag(self.is_solution)}\n"
            f"t={format_rational(self.t)}\n"
            f"p_phi1_at_N={format_rational(self.p_phi1_at_N)}\n"
            f"p_phi2_at_N={format_rational(self.p_phi2_at_N)}\n"
            f"formula_holds={flag(self.formula_holds)}\n"
        )


def sweep_session(artifact: ReductionArtifact, max_k: int) -> pctl.Evaluator:
    """A shared evaluation session without a budget, for every guess of any length.

    Pass it to ``certify`` for each word of one instance: sweeps over all
    words and ``oracle.search_via_reduction`` both certify through one
    session, whose memoized until-points let each word reuse the popping
    chains of the words already certified. ``max_k`` is unused; it stays
    for the callers that pass it.
    """
    return pctl.Evaluator(artifact.chain, None)


def check_config(artifact: ReductionArtifact, word) -> Configuration:
    word = _check_indices(artifact.instance, word)
    return Configuration((artifact.check_head,) + _guess_stack(artifact.padded, word))


def certify(
    instance: PcpInstance,
    word,
    *,
    artifact: ReductionArtifact | None = None,
    session: pctl.Evaluator | None = None,
) -> CertifyReport:
    """Exact certification of one guess against the until-formulas.

    Evaluates both until-probabilities at the post-checkpoint configuration
    on the induced chain, sets t to twice the phi1 value, and reports
    whether the pair of equalities characterizing a solution holds.
    ``is_solution`` is recomputed independently from the words themselves.
    The checking phase only pops the guessed stack, and the operands of
    phi1/phi2 are propositional, so a session without a budget gives both
    values exactly.

    Without an ``artifact`` the instance is compiled under
    ``DEFAULT_VARIANT``; another variant is certified on its own
    ``artifact``. A caller sweeping many words of one instance may also
    pass a shared ``session``, the artifact's ``sweep_session``; popping
    chains of different words share suffixes, so the session cache cuts
    most of the work.
    """
    if artifact is None:
        artifact = compile_instance(instance)
    elif artifact.instance != instance:
        raise ValueError("an artifact must be compiled from this instance")
    word = _check_indices(instance, word)
    if session is None:
        session = pctl.Evaluator(artifact.chain, None)
    elif session.gen is not artifact.chain or session.budget is not None:
        raise ValueError("a session must be this artifact's sweep_session, without a budget")
    state = check_config(artifact, word).encode()
    p1 = session.prob_until(state, artifact.phi1.left, artifact.phi1.right).lo
    p2 = session.prob_until(state, artifact.phi2.left, artifact.phi2.right).lo
    t = 2 * p1
    holds = p1 == t / 2 and p2 == (1 - t) / 2
    return CertifyReport(
        word=word,
        is_solution=_solves(instance, word),
        t=t,
        p_phi1_at_N=p1,
        p_phi2_at_N=p2,
        formula_holds=holds,
    )


def _check_t(t: Fraction) -> None:
    if not 0 < t < 1:
        raise TRangeError(f"t must lie strictly between 0 and 1, got {bounded(format_rational(t))}")


def instantiate_formula(formula: StateFormula, t: Fraction) -> StateFormula:
    """Replace the symbolic t/2 and (1-t)/2 bounds by concrete rationals."""
    _check_t(t)

    def swap(bound):
        if isinstance(bound, BoundPlaceholder):
            return bound.instantiate(t)
        return bound

    return pctl.replace_bounds(formula, swap)


def instantiate_top_formula(artifact: ReductionArtifact, t: Fraction) -> StateFormula:
    """``instantiate_formula(artifact.top_formula, t)``, built directly: only
    the nodes above the two bounds change, so no walk of the formula."""
    _check_t(t)
    return build_top_formula(artifact.variant.kind, tuple([bound.instantiate(t) for bound in _PLACEHOLDER_BOUNDS]))
