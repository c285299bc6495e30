"""PCTL formulas and a sound evaluator over the Markov chains of pBPAs.

State formulas: true, atomic proposition, negation, conjunction, and
probability bounds P>r / P=r over the path operators X (next) and U
(until). Evaluation is three-valued: True and False are only reported when
they hold in the exact semantics, otherwise Unknown. Whether an until with
propositional operands has positive probability is decided exactly, from
per-symbol Boolean summaries. In a budgeted session such an until also gets
its exact value from per-symbol numeric summaries wherever the symbols its
stack reaches form no cycle. The rest is decided from a walk that the
budget cuts. Probabilities of path formulas are returned as exact rational
intervals that are guaranteed to contain the true value and that nest as
the budget grows.
"""
from __future__ import annotations

import heapq
import re
import weakref
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import inf
from typing import Callable, Union

from .chain import Budget, ChainState
from .errors import PpdaInputError, bounded, quote
from .pushdown import EMPTY_MARK, ChainGenerator, Configuration, UnknownSymbolError
from .rationals import format_rational

ONE = Fraction(1)
ZERO = Fraction(0)


class FormulaSyntaxError(PpdaInputError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class BoundRangeError(PpdaInputError):
    """Probability bound outside [0, 1]."""


class PlaceholderError(PpdaInputError):
    """A formula still contains an uninstantiated bound placeholder."""


class Comparison(Enum):
    GT = ">"
    EQ = "="


class BoundPlaceholder(Enum):
    """Symbolic probability bounds for formula templates.

    ``T_HALF`` stands for t/2 and ``ONE_MINUS_T_HALF`` for (1-t)/2, where t
    is supplied later; the serialized tokens are ``?t/2`` and ``?(1-t)/2``.
    """

    T_HALF = "?t/2"
    ONE_MINUS_T_HALF = "?(1-t)/2"

    def instantiate(self, t: Fraction) -> Fraction:
        if self is BoundPlaceholder.T_HALF:
            return t / 2
        return (1 - t) / 2


Bound = Union[Fraction, BoundPlaceholder]


class ThreeValued(Enum):
    TRUE = "True"
    FALSE = "False"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


TRUE = ThreeValued.TRUE
FALSE = ThreeValued.FALSE
UNKNOWN = ThreeValued.UNKNOWN


def kleene_not(v: ThreeValued) -> ThreeValued:
    if v is TRUE:
        return FALSE
    if v is FALSE:
        return TRUE
    return UNKNOWN


def kleene_and(a: ThreeValued, b: ThreeValued) -> ThreeValued:
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE and b is TRUE:
        return TRUE
    return UNKNOWN


# ---------------------------------------------------------------------------
# Abstract syntax


_INTERNED: "weakref.WeakValueDictionary[tuple, _Node]" = weakref.WeakValueDictionary()


class _Node:
    """A formula node, hash-consed (Filliâtre and Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006): building a node from the fields of a
    live one returns that node, so equal formulas are one object and ``==``
    and ``hash`` are identity. Children are interned already, so a table key
    compares in constant time, and the table keeps no node alive. A class
    names its fields in ``__slots__``; ``kids`` holds those that are nodes."""

    __slots__ = ("kids", "__weakref__")

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _INTERNED.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "kids", tuple([f for f in fields if isinstance(f, _Node)]))
            _INTERNED[key] = node
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: formula nodes are immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # pickle rebuilds through __new__, which returns the interned node. It
        # walks the fields by recursion, so a formula deeper than the
        # interpreter's recursion limit cannot be pickled; no caller pickles one.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        ropes: dict = {}
        for node in postorder(self, ropes):
            fields = []
            for name in node.__slots__:
                value = getattr(node, name)
                text = ropes[value] if isinstance(value, _Node) else repr(value)
                fields += [", " if fields else "", f"{name}=", text]
            ropes[node] = (f"{type(node).__name__}(", *fields, ")")
        return _flatten(ropes[self])


class TrueFormula(_Node):
    __slots__ = ()


class Atom(_Node):
    """Holds exactly when the head of the stack is the stack symbol ``name``."""

    __slots__ = ("name",)


class Not(_Node):
    __slots__ = ("operand",)


class And(_Node):
    __slots__ = ("left", "right")


class Next(_Node):
    __slots__ = ("operand",)


class Until(_Node):
    __slots__ = ("left", "right")


PathFormula = Union[Next, Until]


class Prob(_Node):
    __slots__ = ("comparison", "bound", "path")

    def __new__(cls, comparison: Comparison, bound: Bound, path: PathFormula) -> "Prob":
        if isinstance(bound, Fraction) and not 0 <= bound <= 1:
            raise BoundRangeError(f"probability bound {bounded(format_rational(bound))} outside [0,1]")
        return super().__new__(cls, comparison, bound, path)


StateFormula = Union[TrueFormula, Atom, Not, And, Prob]

TRUE_FORMULA = TrueFormula()

# The keyword of each operator, read by the parser and the serializer; an
# operator's operands are its fields, in order.
_OPERATORS = {Not: "not", And: "and", Next: "X", Until: "U"}


def conjunction(parts: list["StateFormula"]) -> "StateFormula":
    """Right-folded conjunction; empty input means true."""
    out = parts[-1] if parts else TRUE_FORMULA
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def disjunction(parts: list["StateFormula"]) -> "StateFormula":
    """Disjunction encoded as the negation of a conjunction of negations."""
    return Not(conjunction([Not(p) for p in parts]))


def postorder(formula, done):
    """Yield each node of ``formula`` not in ``done``, children first, from an
    explicit stack, so depth costs no recursion. The caller puts each node
    into ``done`` before it takes the next, so a shared node is yielded once."""
    stack = [formula]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        missing = [kid for kid in node.kids if kid not in done]
        if missing:
            stack.extend(missing)
        else:
            stack.pop()
            yield node


def replace_bounds(formula, replace: Callable[[Bound], Bound]):
    """Rebuild a formula, mapping every probability bound. Nodes are interned,
    so a subtree in which ``replace`` returns every bound unchanged comes back
    as the same node."""
    new: dict = {}
    for node in postorder(formula, new):
        if isinstance(node, Prob):
            new[node] = Prob(node.comparison, replace(node.bound), new[node.path])
        elif node.kids:
            new[node] = type(node)(*(new[kid] for kid in node.kids))
        else:
            new[node] = node
    return new[formula]


def has_placeholder(formula) -> bool:
    seen: set = set()
    for node in postorder(formula, seen):
        if isinstance(node, Prob) and isinstance(node.bound, BoundPlaceholder):
            return True
        seen.add(node)
    return False


# ---------------------------------------------------------------------------
# Concrete syntax

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_():,'")
_KEYWORD_RE = re.compile(r"[A-Za-z>=]+")
_BOUND_RE = re.compile(r"\?t/2|\?\(1-t\)/2|-?\d+(?:/\d+)?")
_STATE_OPERATORS = {_OPERATORS[cls]: cls for cls in (Not, And)}
_PATH_OPERATORS = {_OPERATORS[cls]: cls for cls in (Next, Until)}


# Deepest operator nesting the parser accepts. Only the parser and the
# evaluator's descent through probability operators recurse on nesting (every
# other traversal is ``postorder``), so deeper input would exhaust the stack;
# the reduction's formulas stay below 20.
MAX_NESTING = 200


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def open(self) -> None:
        if self.depth == MAX_NESTING:
            raise self.error(f"formula nested deeper than {MAX_NESTING} operators")
        self.depth += 1
        self.pos += 1

    def expect_close(self) -> None:
        self.skip_ws()
        if self.peek() != ")":
            raise self.error("expected ')'")
        self.depth -= 1
        self.pos += 1

    def keyword(self) -> str:
        m = _KEYWORD_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("expected an operator keyword")
        self.pos = m.end()
        return m.group(0)

    def name(self) -> str:
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c not in _NAME_CHARS:
                break
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a proposition name")
        return self.text[start:self.pos]

    def bound(self) -> Bound:
        m = _BOUND_RE.match(self.text, self.pos)
        if m is None:
            raise self.error("expected a rational bound")
        token = m.group(0)
        self.pos = m.end()
        if token == "?t/2":
            return BoundPlaceholder.T_HALF
        if token == "?(1-t)/2":
            return BoundPlaceholder.ONE_MINUS_T_HALF
        try:
            value = Fraction(token)
        except ZeroDivisionError:
            raise self.error(f"zero denominator in bound {quote(token)}") from None
        except ValueError:
            raise self.error(f"bound of {len(token)} characters exceeds the interpreter's integer digit limit") from None
        return value

    def state_formula(self) -> StateFormula:
        self.skip_ws()
        if self.text.startswith("true", self.pos):
            end = self.pos + 4
            next_char = self.text[end] if end < len(self.text) else ""
            if not (next_char.isalnum() or next_char == "_"):
                self.pos = end
                return TRUE_FORMULA
        if self.peek() != "(":
            raise self.error("expected 'true' or '('")
        self.open()
        kw = self.keyword()
        if kw == "ap":
            self.skip_ws()
            atom = Atom(self.name())
            self.expect_close()
            return atom
        if kw in _STATE_OPERATORS:
            return self.operands(_STATE_OPERATORS[kw])
        if kw in ("P>", "P="):
            self.skip_ws()
            bound = self.bound()
            path = self.path_formula()
            self.expect_close()
            return Prob(Comparison(kw[1]), bound, path)
        raise self.error(f"unknown state operator {quote(kw)}")

    def path_formula(self) -> PathFormula:
        self.skip_ws()
        if self.peek() != "(":
            raise self.error("expected a path formula")
        self.open()
        kw = self.keyword()
        if kw in _PATH_OPERATORS:
            return self.operands(_PATH_OPERATORS[kw])
        raise self.error(f"unknown path operator {quote(kw)}")

    def operands(self, cls):
        """The state-formula operands of ``cls``, one per field, and the ')'."""
        operands = [self.state_formula() for _ in cls.__slots__]
        self.expect_close()
        return cls(*operands)

    def finish(self, formula):
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after formula")
        return formula


def parse_formula(text: str) -> StateFormula:
    scanner = _Scanner(text)
    return scanner.finish(scanner.state_formula())


def parse_path_formula(text: str) -> PathFormula:
    scanner = _Scanner(text)
    return scanner.finish(scanner.path_formula())


def _flatten(rope) -> str:
    """The text of a rope: a string, or a tuple of ropes. A formula's text is
    built as one rope per node holding its children's ropes, and flattened
    once from an explicit stack: a string per node would copy each subtree's
    text once per ancestor, which is quadratic in depth."""
    out: list[str] = []
    stack = [rope]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def serialize_formula(formula) -> str:
    ropes: dict = {}
    for node in postorder(formula, ropes):
        if isinstance(node, Atom):
            ropes[node] = f"(ap {node.name})"
        elif isinstance(node, Prob):
            bound = node.bound.value if isinstance(node.bound, BoundPlaceholder) else format_rational(node.bound)
            ropes[node] = (f"(P{node.comparison.value} {bound} ", ropes[node.path], ")")
        elif isinstance(node, TrueFormula):
            ropes[node] = "true"
        else:
            kids = [piece for kid in node.kids for piece in (" ", ropes[kid])]
            ropes[node] = ("(" + _OPERATORS[type(node)], *kids, ")")
    return _flatten(ropes[formula])


# ---------------------------------------------------------------------------
# Intervals and comparison


@dataclass(frozen=True)
class ProbInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def compare(interval: ProbInterval, comparison: Comparison, bound: Fraction) -> ThreeValued:
    """Decide ``P ⋈ bound`` from an enclosing interval, or report Unknown."""
    if comparison is Comparison.GT:
        if interval.lo > bound:
            return TRUE
        if interval.hi <= bound:
            return FALSE
        return UNKNOWN
    if interval.is_point and interval.lo == bound:
        return TRUE
    if bound < interval.lo or bound > interval.hi:
        return FALSE
    return UNKNOWN


# ---------------------------------------------------------------------------
# Bounded three-valued evaluation


# The (lo, hi) contributions of until-sinks that operand verdicts decide.
_TRUE_SINK = (ONE, ONE)
_FALSE_SINK = (ZERO, ZERO)
_OPEN_SINK = (ZERO, ONE)


class Evaluator:
    """One evaluation session: a pBPA chain, a budget, and session caches.

    Every stack symbol is its own proposition: ``(ap X)`` holds exactly
    where the head is X, and an atom naming no symbol holds nowhere. A
    head-based labelling, p holding at the heads in H, is written as the
    disjunction of ``(ap X)`` over X in H. So a formula without a
    probability operator is compiled once per session to
    ``head_sets[formula]``, the stack heads where it holds (None for the
    empty stack), and holds at a state exactly when ``gen.head`` is in it.

    Every verdict is sound and every interval contains the true value, and
    for one query history the intervals nest as the budget grows. They are
    not pure functions of (generator, budget): an exact point memoized by
    an earlier query is a sink of later ones, so it can tighten them. A
    session may be reused across formulas and query states.

    An until whose operands both compile to head sets has Boolean
    per-symbol summaries: ``support[(f1, f2)]`` maps each stack symbol
    solved so far to its ``(a, t)``. ``_solve_support`` finds them with a
    monotone worklist over the rules of the symbols a query's stack
    reaches, and ``_fold`` composes them over a stack word, so the until
    has positive probability at a state exactly when the fold of its stack
    says so (``_positive``), whatever the budget. So ``P>0`` and ``P=0``
    over it are always True or False.

    A budgeted session also solves the numeric summaries in the same call:
    ``summaries[(f1, f2)]`` maps each of those symbols to its exact
    ``(a_X, t_X)``, the probabilities of satisfying the until before X is
    popped and of popping X with f1 throughout and f2 never, or to None
    where the symbols its rules reach form a cycle. Then ``P(X·α) = a_X +
    t_X·P(α)``, so ``prob_until`` returns the point 0 where the Boolean
    fold says zero, and elsewhere the point ``_point`` folds from the stack
    without walking, unless the fold meets a None. An unbudgeted session
    solves no numeric summaries and skips both: its walk is exact anyway.

    Until-queries that remain walk breadth-first from the query state
    through until-variables, and classify and solve only the states that
    walk reaches. The budget limits the walk alone: a state that would be a
    variable is cut to an open sink once its depth in the walk reaches
    ``max_depth`` or ``max_states`` variables have been expanded.

    ``budget=None`` cuts nothing: every walked state that passes the operand
    tests and is not absorbing is a variable. Use it only on chains whose
    until-walks are finite, such as the reduction's popping chains; on any
    other chain a query does not return.

    Until results are memoized per formula pair: ``until_cache[(f1, f2)]``
    maps a state to its exact value as a bare ``Fraction``, for every
    state a query walked that resolved to a point and every stack suffix
    ``_point`` folded, or to the open ``ProbInterval`` a query at that
    state returned. A query looks its pair's table up once and then reads
    it by state.
    """

    def __init__(self, gen: ChainGenerator, budget: Budget | None) -> None:
        self.gen = gen
        self.budget = budget
        self.universe = frozenset(gen.bpa.alphabet) | {None}
        self.head_sets: dict[StateFormula, frozenset | None] = {}
        self.state_cache: dict[tuple, ThreeValued] = {}
        self.until_cache: dict[tuple, dict[ChainState, Fraction | ProbInterval]] = {}
        self.support: dict[tuple, dict[str, tuple[bool, bool]]] = {}
        self.summaries: dict[tuple, dict[str, tuple[Fraction, Fraction] | None]] = {}

    def eval_state(self, state: ChainState, formula: StateFormula) -> ThreeValued:
        # The hot path: the memo read is inlined, as a call to _compile on
        # every hit costs about 3% of a nested-operator evaluation.
        heads = self.head_sets.get(formula)
        if heads is None and formula not in self.head_sets:
            heads = self._compile(formula)
        if heads is not None:
            return TRUE if self.gen.head(state) in heads else FALSE
        key = (state, formula)
        cached = self.state_cache.get(key)
        if cached is not None:
            return cached
        value = self._eval_state(state, formula)
        self.state_cache[key] = value
        return value

    def _compile(self, formula: StateFormula) -> frozenset | None:
        """The head set of ``formula``, or None if it holds a probability operator.

        On first use, fills ``head_sets`` for ``formula`` and its subformulas
        through ``postorder``; a probability or path operator, and all above
        it, map to None."""
        sets = self.head_sets
        if formula in sets:
            return sets[formula]
        for f in postorder(formula, sets):
            compiled = [sets[kid] for kid in f.kids]
            if None in compiled or isinstance(f, (Prob, Next, Until)):
                sets[f] = None
            elif isinstance(f, Not):
                sets[f] = self.universe - compiled[0]
            elif isinstance(f, And):
                sets[f] = compiled[0] & compiled[1]
            elif isinstance(f, Atom):
                sets[f] = self.universe & {f.name}
            else:
                sets[f] = self.universe
        return sets[formula]

    def _eval_state(self, state: ChainState, formula: StateFormula) -> ThreeValued:
        if isinstance(formula, Not):
            return kleene_not(self.eval_state(state, formula.operand))
        if isinstance(formula, And):
            left = self.eval_state(state, formula.left)
            if left is FALSE:
                return FALSE
            return kleene_and(left, self.eval_state(state, formula.right))
        if isinstance(formula, Prob):
            if isinstance(formula.bound, BoundPlaceholder):
                raise PlaceholderError(
                    f"cannot evaluate formula with placeholder bound {formula.bound.value}"
                )
            path = formula.path
            if formula.bound == 0 and isinstance(path, Until):
                verdict = self._reaches(state, path.left, path.right)
                if formula.comparison is Comparison.GT:
                    return verdict
                return kleene_not(verdict)
            interval = self.prob_path(state, path)
            return compare(interval, formula.comparison, formula.bound)
        raise TypeError(f"not a state formula: {formula!r}")

    def prob_path(self, state: ChainState, path: PathFormula) -> ProbInterval:
        if isinstance(path, Next):
            return self.prob_next(state, path.operand)
        return self.prob_until(state, path.left, path.right)

    def prob_next(self, state: ChainState, formula: StateFormula) -> ProbInterval:
        lo = ZERO
        false_mass = ZERO
        for target, prob in self.gen.successors(state):
            verdict = self.eval_state(target, formula)
            if verdict is TRUE:
                lo += prob
            elif verdict is FALSE:
                false_mass += prob
        return ProbInterval(lo, ONE - false_mass)

    def prob_until(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> ProbInterval:
        table = self.until_cache.setdefault((f1, f2), {})
        known = table.get(state)
        if known is not None:
            return known if isinstance(known, ProbInterval) else ProbInterval(known, known)
        # Without a budget the walk is already exact, so only a budgeted
        # session needs the summaries to settle a value.
        if self.budget is not None:
            positive = self._positive(state, f1, f2)
            if positive is False:
                table[state] = ZERO
                return ProbInterval(ZERO, ZERO)
            if positive:
                value = self._point(state, f2, self.summaries.get((f1, f2), {}), table)
                if value is not None:
                    return ProbInterval(value, value)

        # Sinks carry fixed (lo, hi) contributions; the variables the walk
        # reaches become the unknowns of a linear system.
        sink_lo: dict[ChainState, Fraction] = {}
        sink_hi: dict[ChainState, Fraction] = {}
        variables: list[ChainState] = []
        visited: list[ChainState] = []
        sinks_are_points = True
        for d, sink in self._walk(state, f1, f2, table):
            visited.append(d)
            if sink is None:
                variables.append(d)
            else:
                sink_lo[d], sink_hi[d] = sink
                if sink is _OPEN_SINK:
                    sinks_are_points = False

        lo_values = _least_fixed_point(variables, self.gen.successors, sink_lo)
        if sinks_are_points:
            # Both bounds solve the same system.
            hi_values = lo_values
        else:
            hi_values = _least_fixed_point(variables, self.gen.successors, sink_hi)

        # Memoize every visited state that resolved to a point; popping
        # chains share suffixes heavily, so later queries reuse them as sinks.
        for d in visited:
            if d in table:
                continue
            if d in sink_lo:
                lo_d, hi_d = sink_lo[d], sink_hi[d]
            else:
                lo_d, hi_d = lo_values[d], hi_values[d]
            if lo_d == hi_d:
                table[d] = lo_d
        if state in sink_lo:
            interval = ProbInterval(sink_lo[state], sink_hi[state])
        else:
            interval = ProbInterval(lo_values[state], hi_values[state])
        if not interval.is_point:
            table[state] = interval
        return interval

    def _until_sink(
        self, d: ChainState, f1: StateFormula, f2: StateFormula, cut: bool, table: dict
    ) -> tuple[Fraction, Fraction] | None:
        """The fixed (lo, hi) of ``d`` in an until-system, or None for a variable.

        A variable satisfies f1 and not f2, is not ``cut`` by the budget, and
        is not absorbing. A state already resolved to a point in this
        session, a ``Fraction`` in ``table`` (the formula pair's memo), is an
        exact sink. The one sink that is not a point is ``_OPEN_SINK``: a
        state where an operand is Unknown, or a cut one. f1 is evaluated only
        where f2 is not True.
        """
        known = table.get(d)
        if isinstance(known, Fraction):
            return known, known
        right = self.eval_state(d, f2)
        if right is TRUE:
            return _TRUE_SINK
        left = self.eval_state(d, f1)
        if right is FALSE and left is FALSE:
            return _FALSE_SINK
        if right is not FALSE or left is not TRUE or cut:
            return _OPEN_SINK
        if self.gen.successors(d) == [(d, ONE)]:
            # Absorbing state where f2 is definitively false: the run
            # stays here forever, so the until is never satisfied.
            return _FALSE_SINK
        return None

    def _walk(self, state: ChainState, f1: StateFormula, f2: StateFormula, table: dict):
        """Yield ``(d, sink)`` for each state reachable from ``state`` through variables.

        Breadth-first from ``state``; ``sink`` is ``_until_sink`` of ``d``,
        classified when ``d`` is reached, and only a variable's successors
        are walked. The budget cuts the walk: a state that would be a
        variable is cut once its depth reaches ``max_depth`` or
        ``max_states`` variables have been expanded; without a budget
        nothing is cut. The least fixed point at ``state`` depends only on
        the states yielded.
        """
        budget = self.budget
        max_states, max_depth = (budget.max_states, budget.max_depth) if budget else (inf, inf)
        successors = self.gen.successors
        expanded = 0
        seen = {state}
        queue = deque([(state, 0)])
        while queue:
            d, depth = queue.popleft()
            sink = self._until_sink(d, f1, f2, depth >= max_depth or expanded >= max_states, table)
            yield d, sink
            if sink is None:
                expanded += 1
                for target, _ in successors(d):
                    if target not in seen:
                        seen.add(target)
                        queue.append((target, depth + 1))

    def _positive(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> bool | None:
        """Whether ``P(f1 U f2) > 0`` at ``state``, exactly; None unless both operands
        compile to head sets.

        ``support[(f1, f2)]`` maps a stack symbol X to its summary ``(a, t)``:
        whether the run of X can satisfy the until before X is popped, and
        whether X can be popped with f1 holding throughout and f2 never. The
        answer is the ``a`` of ``_fold`` of the query stack over the empty
        stack, whose ``a`` is whether f2 holds there. When the fold meets a
        symbol not solved yet, ``_solve_support`` solves the stack's symbols,
        and in a budgeted session their ``summaries`` too.
        """
        h1, h2 = self._compile(f1), self._compile(f2)
        if h1 is None or h2 is None:
            return None
        table = self.support.setdefault((f1, f2), {})
        stack = Configuration.parse(state).stack
        try:
            return _fold(stack, table, (None in h2, False))[0]
        except KeyError:
            numeric = None if self.budget is None else self.summaries.setdefault((f1, f2), {})
            _solve_support(self.gen.bpa.rules_by_head, h1, h2, table, stack, numeric)
            return _fold(stack, table, (None in h2, False))[0]

    def _point(self, state: ChainState, f2: StateFormula, summaries: dict, table: dict) -> Fraction | None:
        """The exact ``P(f1 U f2)`` at ``state`` from the numeric ``summaries``,
        or None if the fold meets a symbol whose summary is None.

        ``P(X·α) = a_X + t_X·P(α)``, and ``P`` of the empty stack is 1 if f2
        holds there and 0 otherwise. The stack is read top first down to the
        first suffix ``table`` holds as a point, the first symbol that cannot
        be popped, or the empty stack; then every suffix read is folded and
        memoized in ``table``, bottom up. A stack that extends a folded one
        by a block therefore costs one block.
        """
        value = ONE if None in self.head_sets[f2] else ZERO
        read, suffix = [], state
        while suffix != EMPTY_MARK:
            head, _, rest = suffix.partition(" ")
            summary = summaries[head]
            if summary is None:
                return None
            read.append((suffix, summary))
            if not summary[1]:
                break
            suffix = rest or EMPTY_MARK
            known = table.get(suffix)
            if isinstance(known, Fraction):
                value = known
                break
        for suffix, (a, t) in reversed(read):
            value = a + t * value
            table[suffix] = value
        return value

    def _reaches(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> ThreeValued:
        """Decide ``P>0 (f1 U f2)`` at ``state`` without solving.

        With propositional operands the per-symbol summaries decide it
        exactly. Otherwise it is decided by reachability: in the least fixed
        point that ``prob_until`` solves, a state's lower bound is positive
        exactly when a sink with a positive lower bound is reachable through
        variables, and likewise for the upper bound (Baier and Katoen,
        Principles of Model Checking, 2008, 10.3). So the same walk gives the
        verdict ``compare`` gives on the solved interval, and it stops at the
        first sink with a positive lower bound.
        """
        positive = self._positive(state, f1, f2)
        if positive is not None:
            return TRUE if positive else FALSE
        maybe = False
        table = self.until_cache.setdefault((f1, f2), {})
        for _, sink in self._walk(state, f1, f2, table):
            if sink is None:
                continue
            if sink[0] > 0:
                return TRUE
            if sink[1] > 0:
                maybe = True
        return UNKNOWN if maybe else FALSE


def _fold(word, table: dict, tail: tuple[bool, bool]) -> tuple[bool, bool]:
    """The summary ``(a, t)`` of the stack ``word`` on top of one summarized by
    ``tail``, from the summaries in ``table``: ``X·w`` is
    ``(a_X or (t_X and a_w), t_X and t_w)``. It reads ``word`` top first and
    stops at the first symbol that cannot be popped, as nothing below it
    matters; a symbol missing from ``table`` raises ``KeyError``."""
    a, t = False, True
    for x in word:
        a_x, t_x = table[x]
        a, t = a or a_x, t_x
        if not t:
            return a, False
    return a or tail[0], tail[1]


# The most bits a numeric summary's denominators may take. Over rule bodies
# of one symbol they grow by at most a probability's bits per level, but a
# body of two symbols multiplies their summaries: the chain of rules
# L_i -> L_{i+1} L_{i+1} doubles the bits at every link. A summary past this
# is left None, like one on a cycle, and the walk, bounded by the budget,
# answers instead.
SUMMARY_BITS = 1 << 16


def _solve_support(
    rules_by_head, h1: frozenset, h2: frozenset, table: dict, roots: tuple[str, ...], numeric: dict | None = None
) -> None:
    """Extend ``table``, symbol -> ``(a, t)`` for one until, to the unsolved
    ``roots`` and the unsolved symbols they reach, and ``numeric``, if given,
    to the same symbols.

    These are the least solution of the Boolean summary equations (Esparza,
    Kucera and Mayr, LICS 2004): a symbol in H_f2 is ``(True, False)``, one
    outside H_f1 and H_f2 is ``(False, False)``, and one in H_f1 and not in
    H_f2 is the OR over its rules of the ``_fold`` of the rule's body over
    the pop, ``(False, True)``. Only the rules of that last kind of symbol
    are read. Each new symbol starts at ``(x in H_f2, False)`` and every
    (symbol, body) pair is queued; folding a pair ORs its body's summary into
    its symbol's, and a rise queues again the pairs whose body holds the
    symbol. Summaries only rise, at most twice each, so a body is folded at
    most ``1 + 2·len(body)`` times. Symbols already in ``table`` are final,
    because every solve closes over the symbols its rules reach.

    ``numeric`` holds the exact summaries, the least solution of the same
    equations over the rationals: a symbol in H_f2 is ``(1, 0)``, one whose
    Boolean summary is ``(False, False)`` is ``(0, 0)``, and any other is
    the sum over its rules ``X -> body [p]`` of ``p·(a, t)`` of the body,
    where ``Y·W`` is ``(a_Y + t_Y·a_W, t_Y·t_W)`` and the pop ``(0, 1)``.
    They are solved in topological order over the readers graph: a symbol
    is ready once no symbol its bodies hold is None. A symbol on a cycle,
    or above one, never gets ready and stays None, and so does one whose
    denominators pass ``SUMMARY_BITS``, and every symbol above it.
    """
    new = {x: (x in h2, False) for x in roots if x not in table}
    pending, queue, readers = list(new), [], {}
    while pending:
        x = pending.pop()
        if x in h2 or x not in h1:
            continue
        rules = rules_by_head.get(x)
        if rules is None:
            raise UnknownSymbolError(x)
        for rule in rules:
            queue.append((x, rule.body))
            for y in rule.body:
                readers.setdefault(y, []).append(queue[-1])
                if y not in new and y not in table:
                    new[y] = (y in h2, False)
                    pending.append(y)
    table.update(new)
    while queue:
        x, body = queue.pop()
        (a, t), (body_a, body_t) = table[x], _fold(body, table, (False, True))
        if (body_a and not a) or (body_t and not t):
            table[x] = (a or body_a, t or body_t)
            queue.extend(readers.get(x, ()))
    if numeric is None:
        return
    for x in new:
        numeric[x] = (ONE, ZERO) if x in h2 else (ZERO, ZERO) if table[x] == (False, False) else None
    waiting = {x: sum(numeric[y] is None for rule in rules_by_head[x] for y in rule.body)
               for x in new if numeric[x] is None}
    ready = [x for x, count in waiting.items() if not count]
    while ready:
        x = ready.pop()
        a = t = ZERO
        for rule in rules_by_head[x]:
            body_a, body_t = ZERO, ONE
            for y in reversed(rule.body):
                a_y, t_y = numeric[y]
                body_a, body_t = a_y + t_y * body_a, t_y * body_t
            a += rule.probability * body_a
            t += rule.probability * body_t
        if max(a.denominator, t.denominator).bit_length() > SUMMARY_BITS:
            continue
        numeric[x] = (a, t)
        for reader, _ in readers.get(x, ()):
            if reader in waiting:
                waiting[reader] -= 1
                if not waiting[reader]:
                    ready.append(reader)


def _least_fixed_point(
    variables: list[ChainState],
    successors: Callable[[ChainState], list[tuple[ChainState, Fraction]]],
    sink_value: dict[ChainState, Fraction],
) -> dict[ChainState, Fraction]:
    """Least solution of x_s = sum_t P(s,t) * x_t with fixed sink values.

    Every successor of a variable is either a variable or a sink. On an
    acyclic variable graph the system is solved by back-substitution in
    topological order. Otherwise it is restricted to the variables that can
    reach positive mass and handed to ``_solve_linear`` (states that cannot
    reach positive mass have value 0 in the least fixed point). On that
    restriction the system has exactly one solution, which is the least one.
    """
    if not variables:
        return {}
    var_set = set(variables)
    base: dict[ChainState, Fraction] = {}
    edges: dict[ChainState, list[tuple[ChainState, Fraction]]] = {}
    for s in variables:
        b = ZERO
        outs: list[tuple[ChainState, Fraction]] = []
        for t, p in successors(s):
            if t in var_set:
                outs.append((t, p))
            else:
                b += p * sink_value[t]
        base[s] = b
        edges[s] = outs

    order = _topological_order(variables, edges)
    values: dict[ChainState, Fraction] = {}
    if order is not None:
        for s in reversed(order):
            values[s] = base[s] + sum((p * values[t] for t, p in edges[s]), ZERO)
        return values

    # Cyclic case: restrict to variables with a path to positive base mass.
    reverse: dict[ChainState, list[ChainState]] = {s: [] for s in variables}
    for s in variables:
        for t, _ in edges[s]:
            reverse[t].append(s)
    reach = [s for s in variables if base[s] > 0]
    reachable = set(reach)
    while reach:
        current = reach.pop()
        for prev in reverse[current]:
            if prev not in reachable:
                reachable.add(prev)
                reach.append(prev)
    solved = _solve_linear(sorted(reachable), edges, base)
    for s in variables:
        values[s] = solved.get(s, ZERO)
    return values


def _topological_order(
    variables: list[ChainState],
    edges: dict[ChainState, list[tuple[ChainState, Fraction]]],
) -> list[ChainState] | None:
    indegree = {s: 0 for s in variables}
    for s in variables:
        for t, _ in edges[s]:
            indegree[t] += 1
    queue = [s for s in variables if indegree[s] == 0]
    order: list[ChainState] = []
    while queue:
        s = queue.pop()
        order.append(s)
        for t, _ in edges[s]:
            indegree[t] -= 1
            if indegree[t] == 0:
                queue.append(t)
    if len(order) != len(variables):
        return None
    return order


def _solve_linear(
    variables: list[ChainState],
    edges: dict[ChainState, list[tuple[ChainState, Fraction]]],
    base: dict[ChainState, Fraction],
) -> dict[ChainState, Fraction]:
    """Solve (I - P) x = b over exact rationals by sparse elimination.

    Each row is a dict from column to coefficient, and ``occurs`` maps
    each column to the uneliminated rows that hold it. Pivots are always
    on the diagonal: the caller keeps only variables that reach positive
    mass, so I - P is a nonsingular M-matrix and every Schur complement
    keeps a positive diagonal. The next pivot is the variable of least
    Markowitz count (row nonzeros - 1) * (column nonzeros - 1)
    (Markowitz, Management Science 1957), taken from a lazily updated
    heap with ties broken by state, so the order is deterministic. The
    normalized pivot rows are then back-substituted in reverse order.
    """
    rows: dict[ChainState, dict[ChainState, Fraction]] = {s: {s: ONE} for s in variables}
    for s in variables:
        row = rows[s]
        for t, p in edges[s]:
            if t in rows:
                row[t] = row.get(t, ZERO) - p
    rhs = {s: base[s] for s in variables}
    occurs: dict[ChainState, set[ChainState]] = {s: set() for s in variables}
    for s, row in rows.items():
        for c in row:
            occurs[c].add(s)

    def markowitz(s: ChainState) -> int:
        return (len(rows[s]) - 1) * (len(occurs[s]) - 1)

    heap = [(markowitz(s), s) for s in variables]
    heapq.heapify(heap)
    pivots: dict[ChainState, tuple[dict[ChainState, Fraction], Fraction]] = {}
    while heap:
        count, k = heapq.heappop(heap)
        if k in pivots or count != markowitz(k):
            continue
        row = rows.pop(k)
        pivot = row.pop(k)
        if not pivot:
            raise ArithmeticError("singular until-probability system")
        for c in row:
            row[c] /= pivot
            occurs[c].discard(k)
        b = rhs.pop(k) / pivot
        below = occurs.pop(k)
        below.discard(k)
        for r in below:
            target = rows[r]
            factor = target.pop(k)
            for c, v in row.items():
                if c in target:
                    target[c] -= factor * v
                else:
                    target[c] = -factor * v
                    occurs[c].add(r)
            rhs[r] -= factor * b
        pivots[k] = (row, b)
        for s in below | row.keys():
            heapq.heappush(heap, (markowitz(s), s))

    values: dict[ChainState, Fraction] = {}
    for k, (row, b) in reversed(pivots.items()):
        values[k] = b - sum((v * values[c] for c, v in row.items()), ZERO)
    return values
