"""PCTL formulas and a sound bounded evaluator over lazy Markov chains.

State formulas: true, atomic proposition, negation, conjunction, and
probability bounds P>r / P=r over the path operators X (next) and U
(until). Evaluation is three-valued: True and False are only reported when
the bounded exploration justifies them for the exact semantics, otherwise
Unknown. Probabilities of path formulas are returned as exact rational
intervals that are guaranteed to contain the true value and that nest as
the budget grows.
"""
from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Union

from .chain import Budget, ChainGenerator, ChainState, ExploreResult, explore
from .rationals import format_rational

ONE = Fraction(1)
ZERO = Fraction(0)


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class BoundRangeError(ValueError):
    """Probability bound outside [0, 1]."""


class PlaceholderError(ValueError):
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
#
# Formula nodes are evaluation cache keys, so each node memoizes its hash;
# the generated recursive hash would otherwise rewalk the subtree on every
# lookup.


def _memo_hash(node, parts: tuple) -> int:
    cached = node.__dict__.get("_hash")
    if cached is None:
        cached = hash(parts)
        object.__setattr__(node, "_hash", cached)
    return cached


@dataclass(frozen=True)
class TrueFormula:
    def __hash__(self) -> int:
        return 5381


@dataclass(frozen=True)
class Atom:
    name: str

    def __hash__(self) -> int:
        return _memo_hash(self, ("ap", self.name))


@dataclass(frozen=True)
class Not:
    operand: "StateFormula"

    def __hash__(self) -> int:
        return _memo_hash(self, ("not", self.operand))


@dataclass(frozen=True)
class And:
    left: "StateFormula"
    right: "StateFormula"

    def __hash__(self) -> int:
        return _memo_hash(self, ("and", self.left, self.right))


@dataclass(frozen=True)
class Next:
    operand: "StateFormula"

    def __hash__(self) -> int:
        return _memo_hash(self, ("X", self.operand))


@dataclass(frozen=True)
class Until:
    left: "StateFormula"
    right: "StateFormula"

    def __hash__(self) -> int:
        return _memo_hash(self, ("U", self.left, self.right))


PathFormula = Union[Next, Until]


@dataclass(frozen=True)
class Prob:
    comparison: Comparison
    bound: Bound
    path: PathFormula

    def __post_init__(self) -> None:
        if isinstance(self.bound, Fraction) and not 0 <= self.bound <= 1:
            raise BoundRangeError(f"probability bound {self.bound} outside [0,1]")

    def __hash__(self) -> int:
        return _memo_hash(self, ("P", self.comparison, self.bound, self.path))


StateFormula = Union[TrueFormula, Atom, Not, And, Prob]

TRUE_FORMULA = TrueFormula()


def conjunction(parts: list["StateFormula"]) -> "StateFormula":
    """Right-folded conjunction; empty input means true."""
    if not parts:
        return TRUE_FORMULA
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = And(part, out)
    return out


def disjunction(parts: list["StateFormula"]) -> "StateFormula":
    """Disjunction encoded as the negation of a conjunction of negations."""
    return Not(conjunction([Not(p) for p in parts]))


def replace_bounds(formula, replace: Callable[[Bound], Bound]):
    """Structurally rebuild a formula, mapping every probability bound."""
    if isinstance(formula, (TrueFormula, Atom)):
        return formula
    if isinstance(formula, Not):
        return Not(replace_bounds(formula.operand, replace))
    if isinstance(formula, And):
        return And(replace_bounds(formula.left, replace), replace_bounds(formula.right, replace))
    if isinstance(formula, Prob):
        return Prob(formula.comparison, replace(formula.bound), replace_bounds(formula.path, replace))
    if isinstance(formula, Next):
        return Next(replace_bounds(formula.operand, replace))
    if isinstance(formula, Until):
        return Until(replace_bounds(formula.left, replace), replace_bounds(formula.right, replace))
    raise TypeError(f"not a formula: {formula!r}")


def has_placeholder(formula) -> bool:
    found = False

    def check(bound: Bound) -> Bound:
        nonlocal found
        if isinstance(bound, BoundPlaceholder):
            found = True
        return bound

    replace_bounds(formula, check)
    return found


# ---------------------------------------------------------------------------
# Concrete syntax

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_():,'")
_KEYWORD_RE = re.compile(r"[A-Za-z>=]+")
_BOUND_RE = re.compile(r"\?t/2|\?\(1-t\)/2|-?\d+(?:/\d+)?")


# Deepest operator nesting the parser accepts. The parser, the formula
# hashes and the evaluator all recurse on nesting, so deeper input would
# exhaust the interpreter stack; the reduction's formulas stay below 20.
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
        value = Fraction(token)
        if not 0 <= value <= 1:
            raise BoundRangeError(f"probability bound {token} outside [0,1]")
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
        if kw == "not":
            inner = self.state_formula()
            self.expect_close()
            return Not(inner)
        if kw == "and":
            left = self.state_formula()
            right = self.state_formula()
            self.expect_close()
            return And(left, right)
        if kw in ("P>", "P="):
            self.skip_ws()
            bound = self.bound()
            path = self.path_formula()
            self.expect_close()
            cmp = Comparison.GT if kw == "P>" else Comparison.EQ
            return Prob(cmp, bound, path)
        raise self.error(f"unknown state operator {kw!r}")

    def path_formula(self) -> PathFormula:
        self.skip_ws()
        if self.peek() != "(":
            raise self.error("expected a path formula")
        self.open()
        kw = self.keyword()
        if kw == "X":
            inner = self.state_formula()
            self.expect_close()
            return Next(inner)
        if kw == "U":
            left = self.state_formula()
            right = self.state_formula()
            self.expect_close()
            return Until(left, right)
        raise self.error(f"unknown path operator {kw!r}")

    def finish(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after formula")


def parse_formula(text: str) -> StateFormula:
    scanner = _Scanner(text)
    formula = scanner.state_formula()
    scanner.finish()
    return formula


def parse_path_formula(text: str) -> PathFormula:
    scanner = _Scanner(text)
    formula = scanner.path_formula()
    scanner.finish()
    return formula


def serialize_formula(formula) -> str:
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, Atom):
        return f"(ap {formula.name})"
    if isinstance(formula, Not):
        return f"(not {serialize_formula(formula.operand)})"
    if isinstance(formula, And):
        return f"(and {serialize_formula(formula.left)} {serialize_formula(formula.right)})"
    if isinstance(formula, Prob):
        op = "P>" if formula.comparison is Comparison.GT else "P="
        if isinstance(formula.bound, BoundPlaceholder):
            bound = formula.bound.value
        else:
            bound = format_rational(formula.bound)
        return f"({op} {bound} {serialize_formula(formula.path)})"
    if isinstance(formula, Next):
        return f"(X {serialize_formula(formula.operand)})"
    if isinstance(formula, Until):
        return f"(U {serialize_formula(formula.left)} {serialize_formula(formula.right)})"
    raise TypeError(f"not a formula: {formula!r}")


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


def _is_propositional(formula) -> bool:
    """No probability operator inside: the verdict depends only on labels."""
    cached = _PROPOSITIONAL.get(formula)
    if cached is None:
        if isinstance(formula, (TrueFormula, Atom)):
            cached = True
        elif isinstance(formula, Not):
            cached = _is_propositional(formula.operand)
        elif isinstance(formula, And):
            cached = _is_propositional(formula.left) and _is_propositional(formula.right)
        else:
            cached = False
        _PROPOSITIONAL[formula] = cached
    return cached


_PROPOSITIONAL: dict = {}


def _eval_propositional(formula, labels: frozenset) -> ThreeValued:
    key = (formula, labels)
    cached = _PROPOSITIONAL_VERDICTS.get(key)
    if cached is None:
        if isinstance(formula, TrueFormula):
            cached = TRUE
        elif isinstance(formula, Atom):
            cached = TRUE if formula.name in labels else FALSE
        elif isinstance(formula, Not):
            cached = kleene_not(_eval_propositional(formula.operand, labels))
        else:
            cached = kleene_and(
                _eval_propositional(formula.left, labels),
                _eval_propositional(formula.right, labels),
            )
        _PROPOSITIONAL_VERDICTS[key] = cached
    return cached


_PROPOSITIONAL_VERDICTS: dict = {}


class Evaluator:
    """One evaluation session: a generator, a budget, and shared caches.

    Verdicts and intervals are pure functions of (generator, budget), so a
    session may be reused across formulas and query states.
    """

    def __init__(self, gen: ChainGenerator, budget: Budget) -> None:
        self.gen = gen
        self.budget = budget
        self.state_cache: dict[tuple, ThreeValued] = {}
        self.next_cache: dict[tuple, ProbInterval] = {}
        self.until_cache: dict[tuple, ProbInterval] = {}
        self.region_cache: dict[ChainState, ExploreResult] = {}

    def eval_state(self, state: ChainState, formula: StateFormula) -> ThreeValued:
        if _is_propositional(formula):
            return _eval_propositional(formula, self.gen.labels(state))
        key = (state, formula)
        cached = self.state_cache.get(key)
        if cached is not None:
            return cached
        value = self._eval_state(state, formula)
        self.state_cache[key] = value
        return value

    def _eval_state(self, state: ChainState, formula: StateFormula) -> ThreeValued:
        if isinstance(formula, TrueFormula):
            return TRUE
        if isinstance(formula, Atom):
            return TRUE if formula.name in self.gen.labels(state) else FALSE
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
            interval = self.prob_path(state, formula.path)
            return compare(interval, formula.comparison, formula.bound)
        raise TypeError(f"not a state formula: {formula!r}")

    def prob_path(self, state: ChainState, path: PathFormula) -> ProbInterval:
        if isinstance(path, Next):
            return self.prob_next(state, path.operand)
        return self.prob_until(state, path.left, path.right)

    def prob_next(self, state: ChainState, formula: StateFormula) -> ProbInterval:
        key = (state, formula)
        cached = self.next_cache.get(key)
        if cached is not None:
            return cached
        lo = ZERO
        false_mass = ZERO
        for target, prob in self.gen.successors(state):
            verdict = self.eval_state(target, formula)
            if verdict is TRUE:
                lo += prob
            elif verdict is FALSE:
                false_mass += prob
        interval = ProbInterval(lo, ONE - false_mass)
        self.next_cache[key] = interval
        return interval

    def prob_until(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> ProbInterval:
        key = (state, f1, f2)
        cached = self.until_cache.get(key)
        if cached is not None:
            return cached
        region = self.region_cache.get(state)
        if region is None:
            region = explore(self.gen, state, self.budget)
            self.region_cache[state] = region
        discovered = sorted(region.settled | region.frontier)

        # Sinks carry fixed (lo, hi) contributions; settled continue-states
        # with a genuine choice become variables of a linear system. A state
        # already resolved to a point in this session is an exact sink.
        sink_lo: dict[ChainState, Fraction] = {}
        sink_hi: dict[ChainState, Fraction] = {}
        variables: list[ChainState] = []
        for d in discovered:
            known = self.until_cache.get((d, f1, f2))
            if known is not None and known.is_point:
                sink_lo[d] = known.lo
                sink_hi[d] = known.hi
                continue
            right = self.eval_state(d, f2)
            if right is TRUE:
                sink_lo[d] = ONE
                sink_hi[d] = ONE
                continue
            left = self.eval_state(d, f1)
            if right is FALSE and left is FALSE:
                sink_lo[d] = ZERO
                sink_hi[d] = ZERO
            elif right is not FALSE or left is not TRUE:
                sink_lo[d] = ZERO
                sink_hi[d] = ONE
            elif d not in region.settled:
                sink_lo[d] = ZERO
                sink_hi[d] = ONE
            elif self.gen.successors(d) == [(d, ONE)]:
                # Absorbing state where f2 is definitively false: the run
                # stays here forever, so the until is never satisfied.
                sink_lo[d] = ZERO
                sink_hi[d] = ZERO
            else:
                variables.append(d)

        lo_values = _least_fixed_point(variables, self.gen.successors, sink_lo)
        if sink_hi == sink_lo:
            # Every sink is a point, so both bounds solve the same system.
            hi_values = lo_values
        else:
            hi_values = _least_fixed_point(variables, self.gen.successors, sink_hi)

        # Memoize every state the solve settled exactly; popping chains
        # share suffixes heavily, so later queries reuse them as sinks.
        cache = self.until_cache
        for d in discovered:
            if d in sink_lo:
                lo_d, hi_d = sink_lo[d], sink_hi[d]
            else:
                lo_d, hi_d = lo_values[d], hi_values[d]
            if lo_d == hi_d:
                dkey = (d, f1, f2)
                if dkey not in cache:
                    cache[dkey] = ProbInterval(lo_d, hi_d)
        if state in sink_lo:
            interval = ProbInterval(sink_lo[state], sink_hi[state])
        else:
            interval = ProbInterval(lo_values[state], hi_values[state])
        cache[key] = interval
        return interval


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


# ---------------------------------------------------------------------------
# Public entry points


def eval_state(gen: ChainGenerator, state: ChainState, formula: StateFormula, budget: Budget) -> ThreeValued:
    return Evaluator(gen, budget).eval_state(state, formula)


def prob_next(gen: ChainGenerator, state: ChainState, formula: StateFormula, budget: Budget) -> ProbInterval:
    return Evaluator(gen, budget).prob_next(state, formula)


def prob_until(
    gen: ChainGenerator,
    state: ChainState,
    f1: StateFormula,
    f2: StateFormula,
    budget: Budget,
) -> ProbInterval:
    return Evaluator(gen, budget).prob_until(state, f1, f2)
