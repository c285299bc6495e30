"""PCTL formulas and a sound evaluator over the Markov chains of pBPAs.

State formulas: true, atomic proposition, negation, conjunction, and
probability bounds P>r / P=r over the path operators X (next) and U
(until). Evaluation is three-valued: True and False are only reported when
they hold in the exact semantics, otherwise Unknown. An until with
propositional operands is answered by one fold of per-symbol summaries over
its stack: in a budgeted session its exact value wherever the symbols the
stack reaches form no cycle, and in every session whether it is positive,
which decides P>0 and P=0 over it at any budget. P=1, P>0 and P=0 over a
next are decided from the successors' verdicts alone, with no arithmetic.
The rest is decided from a walk that the budget cuts. A formula with a
probability operator is False outside its guard, the heads where it can
hold, so the walk passes a state by its head where the left operand holds
and the right one cannot, and, by the Boolean summaries over the operands'
head sets and guards, stops at a state from which the right operand's
guard cannot be reached; each such zero is memoized, so a stack that
extends a tested one costs its new block. Probabilities of path formulas
are exact rational intervals that contain the true value and nest as the
budget grows.
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
from .pushdown import EMPTY_MARK, ChainGenerator, UnknownSymbolError
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

    def __new__(cls, name: str) -> "Atom":
        if not isinstance(name, str):
            raise TypeError(f"an atom's name must be a str, got {type(name).__name__}")
        return super().__new__(cls, name)


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
        if not isinstance(comparison, Comparison):
            raise TypeError(f"a comparison must be a Comparison, got {type(comparison).__name__}")
        if not isinstance(path, (Next, Until)):
            raise TypeError(f"a probability operator's path must be Next or Until, got {type(path).__name__}")
        # A float or int equal to a Fraction would find that node in the
        # intern table, so only Fractions and placeholders are bounds.
        if not isinstance(bound, (Fraction, BoundPlaceholder)):
            raise BoundRangeError(f"probability bound must be a Fraction or a placeholder, got {type(bound).__name__}")
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
    """Rebuild a formula, mapping every probability bound. A node whose kids
    and bound come back unchanged is kept as it is, so a subtree in which
    ``replace`` returns every bound unchanged is the same node."""
    new: dict = {}
    for node in postorder(formula, new):
        kids = tuple([new[kid] for kid in node.kids])
        if isinstance(node, Prob):
            bound = replace(node.bound)
            same = bound is node.bound and kids == node.kids
            new[node] = node if same else Prob(node.comparison, bound, *kids)
        else:
            new[node] = node if kids == node.kids else type(node)(*kids)
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
        if not (isinstance(self.lo, Fraction) and isinstance(self.hi, Fraction)):
            raise TypeError(f"interval bounds must be Fractions, got {type(self.lo).__name__} "
                            f"and {type(self.hi).__name__}")
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _interval(lo: Fraction, hi: Fraction) -> ProbInterval:
    """An interval the evaluator computed, built without ``__post_init__``'s
    Fraction comparisons, which its bounds pass by construction."""
    interval = object.__new__(ProbInterval)
    object.__setattr__(interval, "lo", lo)
    object.__setattr__(interval, "hi", hi)
    return interval


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
# What the zero test reads for a head whose Boolean summary is not solved yet.
_UNSOLVED = (False, False)


class Evaluator:
    """One evaluation session: a pBPA chain, a budget, and session caches.

    Every stack symbol is its own proposition: ``(ap X)`` holds exactly
    where the head is X, and an atom naming no symbol holds nowhere. A
    head-based labelling, p holding at the heads in H, is written as the
    disjunction of ``(ap X)`` over X in H. So a formula without a
    probability operator is compiled once per session to
    ``head_sets[formula]``, the stack heads where it holds (None for the
    empty stack), and holds at a state exactly when ``gen.head`` is in it.
    Any other formula has a guard, ``guards[formula]``, the heads where it
    can hold: a conjunction's is the intersection of its conjuncts' head
    sets or guards, any other's the universe. Outside it the formula is
    False, with no evaluation and no ``state_cache`` entry.

    Every verdict is sound and every interval contains the true value, and
    for one query history the intervals nest as the budget grows. They are
    not pure functions of (generator, budget): an exact point memoized by
    an earlier query is a sink of later ones, so it can tighten them. A
    session may be reused across formulas and query states.

    An until whose operands both compile to head sets has per-symbol
    summaries (Esparza, Kučera and Mayr, LICS 2004): ``summaries[(f1, f2)]``
    maps each stack symbol solved so far to its exact ``(a_X, t_X)``, the
    probabilities of satisfying the until before X is popped and of popping
    X with f1 throughout and f2 never, or to None where the symbols its
    rules reach form a cycle, and ``support[(f1, f2)]`` maps it to the
    Boolean ``(a_X > 0, t_X > 0)``. ``_solve_support`` solves both with a
    monotone worklist over the rules of the symbols a query's stack
    reaches. Then ``P(X·α) = a_X + t_X·P(α)``, and ``_point``, the one fold
    of a query's stack, returns the exact value, or, past a symbol whose
    numeric summary is None, the exact sign from the Boolean ``_fold``. So ``P>0``
    and ``P=0`` over such an until are always True or False, in every
    session, and in a budgeted session ``prob_until`` returns the value,
    or the point 0, without walking, and ``P⋈r`` compares the value with r
    exactly. An unbudgeted session's ``prob_until`` does not fold and walks:
    its walk is exact.

    Until-queries that remain walk breadth-first from the query state
    through until-variables, and classify and solve only the states that
    walk reaches. The budget limits the walk alone: a state that would be a
    variable is cut to an open sink once its depth in the walk reaches
    ``max_depth`` or ``max_states`` variables have been expanded. A head in
    f1's head set and outside f2's guard passes the operand tests unasked.
    Where f1 or f2 has a probability operator, a walked state from whose
    stack no run can reach f2's guard through f1's head set or guard is an
    exact 0 sink, cut or not, and its successors are not walked: the zero
    test, ``_zero``, from the Boolean summaries over those head sets, which
    ``support[(f1, f2)]`` holds for such a pair. A walk over propositional
    operands does not take it, so certification pays nothing for it.

    ``P=1``, ``P>0`` and ``P=0`` over a next are qualitative: they are
    decided from the successors' verdicts, all True, some True or some
    False, and the scan stops at the first successor that decides, with no
    ``prob_next`` interval. Other bounds compare ``prob_next``'s interval.

    ``budget=None`` cuts nothing: every walked state that passes the operand
    tests and is not absorbing is a variable. Use it only on chains whose
    until-walks are finite, such as the reduction's popping chains; on any
    other chain a query does not return.

    Until results are memoized per formula pair: ``until_cache[(f1, f2)]``
    maps a state to its exact value as a bare ``Fraction``, for every
    state a query walked that resolved to a point, every stack suffix
    ``_point`` folded and every stack suffix the zero test proved 0, or to
    the open ``ProbInterval`` a query at that state returned. A query looks
    its pair's table up once and then reads it by state.
    """

    def __init__(self, gen: ChainGenerator, budget: Budget | None) -> None:
        self.gen = gen
        self.budget = budget
        self.universe = frozenset(gen.bpa.alphabet) | {None}
        self.head_sets: dict[StateFormula, frozenset | None] = {}
        self.guards: dict[StateFormula, frozenset] = {}
        self.state_cache: dict[tuple, ThreeValued] = {}
        self.until_cache: dict[tuple, dict[ChainState, Fraction | ProbInterval]] = {}
        self.variable_heads: dict[tuple, frozenset] = {}
        self.support: dict[tuple, dict[str, tuple[bool, bool]]] = {}
        self.summaries: dict[tuple, dict[str, tuple[Fraction, Fraction] | None]] = {}

    def eval_state(self, state: ChainState, formula: StateFormula) -> ThreeValued:
        # The hot path: the memo read is inlined, as a call to _compile on
        # every hit costs about 3% of a nested-operator evaluation.
        heads = self.head_sets.get(formula)
        if heads is None and formula not in self.head_sets:
            heads = self._compile(formula)
        head = self.gen.head(state)
        if heads is not None:
            return TRUE if head in heads else FALSE
        if head not in self.guards[formula]:
            return FALSE
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
        it, map to None and get a guard. A probability bound that is still a
        placeholder is refused here, wherever the formula is asked."""
        sets, guards = self.head_sets, self.guards
        if formula in sets:
            return sets[formula]
        for f in postorder(formula, sets):
            compiled = [sets[kid] for kid in f.kids]
            if isinstance(f, Prob) and isinstance(f.bound, BoundPlaceholder):
                raise PlaceholderError(f"cannot evaluate formula with placeholder bound {f.bound.value}")
            if None in compiled or isinstance(f, (Prob, Next, Until)):
                sets[f] = None
                if isinstance(f, And):
                    left, right = (guards.get(kid, heads) for kid, heads in zip(f.kids, compiled))
                    guards[f] = left & right
                else:
                    guards[f] = self.universe
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
            path, bound = formula.path, formula.bound
            if isinstance(path, Next):
                if bound == 0:
                    # P>0 holds where some successor does, P=0 where none
                    # does; Unknown only where none is True and one is Unknown.
                    verdict = self._some_successor(state, path.operand, TRUE)
                    return verdict if formula.comparison is Comparison.GT else kleene_not(verdict)
                if bound == 1 and formula.comparison is Comparison.EQ:
                    # P=1 holds where every successor does.
                    return kleene_not(self._some_successor(state, path.operand, FALSE))
                return compare(self.prob_next(state, path.operand), formula.comparison, bound)
            if bound == 0:
                verdict = self._reaches(state, path.left, path.right)
                if formula.comparison is Comparison.GT:
                    return verdict
                return kleene_not(verdict)
            value = self._until(state, path.left, path.right)
            if type(value) is not Fraction:
                return compare(value, formula.comparison, bound)
            if formula.comparison is Comparison.GT:
                return TRUE if value > bound else FALSE
            return TRUE if value == bound else FALSE
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
        return _interval(lo, ONE - false_mass)

    def _some_successor(self, state: ChainState, formula: StateFormula, verdict: ThreeValued) -> ThreeValued:
        """Whether some successor of ``state`` gets ``verdict`` on ``formula``:
        True at the first that does, with no later successor evaluated; False
        where every successor gets the other definite verdict; else Unknown.
        Successor probabilities are positive, so this is the qualitative
        reading of ``prob_next``'s interval at the bounds 0 and 1."""
        unknown = False
        for target, _ in self.gen.successors(state):
            found = self.eval_state(target, formula)
            if found is verdict:
                return TRUE
            if found is UNKNOWN:
                unknown = True
        return UNKNOWN if unknown else FALSE

    def prob_until(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> ProbInterval:
        value = self._until(state, f1, f2)
        return _interval(value, value) if type(value) is Fraction else value

    def _until(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> Fraction | ProbInterval:
        """``P(f1 U f2)`` at ``state``: an exact point as a bare ``Fraction``,
        else the open interval of the walk. ``prob_until`` and a ``P⋈r``
        over the until both read it, so they share its fold branch."""
        table = self.until_cache.setdefault((f1, f2), {})
        known = table.get(state)
        if known is not None:
            return known
        # Without a budget the walk is already exact, so only a budgeted
        # session needs the summaries to settle a value.
        if self.budget is not None and self._compile(f1) is not None and self._compile(f2) is not None:
            value = self._point(state, f1, f2, table)
            if value is False:
                value = table[state] = ZERO
            if value is not True:
                return value

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
            lo, hi = sink_lo[state], sink_hi[state]
        else:
            lo, hi = lo_values[state], hi_values[state]
        if lo == hi:
            return lo
        interval = table[state] = _interval(lo, hi)
        return interval

    def _until_sink(self, d: ChainState, f1: StateFormula, f2: StateFormula) -> tuple[Fraction, Fraction] | None:
        """The fixed (lo, hi) of ``d`` in an until-system from its operand
        verdicts, or None for a state that satisfies f1 and not f2. The one
        sink that is not a point is ``_OPEN_SINK``, a state where an operand
        is Unknown. f1 is evaluated only where f2 is not True.
        """
        right = self.eval_state(d, f2)
        if right is TRUE:
            return _TRUE_SINK
        left = self.eval_state(d, f1)
        if right is FALSE and left is FALSE:
            return _FALSE_SINK
        if right is not FALSE or left is not TRUE:
            return _OPEN_SINK
        return None

    def _walk(self, state: ChainState, f1: StateFormula, f2: StateFormula, table: dict):
        """Yield ``(d, sink)`` for each state reachable from ``state`` through variables.

        Breadth-first from ``state``; ``sink`` is the fixed (lo, hi) of
        ``d``, classified when ``d`` is reached, or None for a variable, and
        only a variable's successors are walked. A point in ``table`` (the
        pair's memo) is an exact sink. Where f1 or f2 has a probability
        operator, so that ``_point`` cannot fold the until, the zero test
        comes next: a state whose stack has Boolean summary ``a = False``
        over H1, f1's head set or guard, and H2, f2's guard, is an exact 0
        sink, as no run from it can reach a head where f2 may hold through
        heads where f1 may (Baier and Katoen, Principles of Model Checking,
        2008, 10.1). The summaries are ``support[(f1, f2)]``, solved by
        ``_solve_support`` without numeric ones, for the symbols of each
        stack they have not met yet. Only a head whose own ``a`` is False
        asks ``_zero``, which folds the stack down to the first point in
        ``table`` and memoizes there each suffix it proves 0. A head in
        ``variable_heads[(f1, f2)]``,
        f1's head set less f2's guard, passes the operand tests, and any
        other state is classified by ``_until_sink``. A state that passes is
        a variable unless it is absorbing. The budget cuts the walk: a state
        that would be a variable is cut to an open sink once its depth
        reaches ``max_depth`` or ``max_states`` variables have been
        expanded; without a budget nothing is cut. The least fixed point at
        ``state`` depends only on the states yielded.
        """
        budget = self.budget
        max_states, max_depth = (budget.max_states, budget.max_depth) if budget else (inf, inf)
        successors = self.gen.successors
        h1, h2 = self.guards.get(f1, self._compile(f1)), self.guards.get(f2, self._compile(f2))
        passing = self.variable_heads.get((f1, f2))
        if passing is None:
            passing = self.variable_heads[(f1, f2)] = (self.head_sets[f1] or frozenset()) - h2
        zeros = None
        if self.head_sets[f1] is None or self.head_sets[f2] is None:
            zeros = self.support.setdefault((f1, f2), {})
        expanded = 0
        seen = {state}
        queue = deque([(state, 0)])
        while queue:
            d, depth = queue.popleft()
            known = table.get(d)
            if type(known) is Fraction:
                yield d, (known, known)
                continue
            x = d.partition(" ")[0]
            if x == EMPTY_MARK:
                x = None
            if zeros is not None and not zeros.get(x, _UNSOLVED)[0] and self._zero(d, h1, h2, zeros, table):
                sink = _FALSE_SINK
            else:
                sink = None if x in passing else self._until_sink(d, f1, f2)
                if sink is None:
                    if depth >= max_depth or expanded >= max_states:
                        sink = _OPEN_SINK
                    else:
                        out = successors(d)
                        if len(out) == 1 and out[0][0] == d:
                            # f2 is False here and the run stays here forever.
                            sink = _FALSE_SINK
            yield d, sink
            if sink is None:
                expanded += 1
                for target, _ in out:
                    if target not in seen:
                        seen.add(target)
                        queue.append((target, depth + 1))

    def _zero(self, d: ChainState, h1: frozenset, h2: frozenset, zeros: dict, table: dict) -> bool:
        """Whether the Boolean fold of the stack of ``d`` over H1 and H2 has
        ``a = False``: then ``P(f1 U f2)`` is 0 at ``d``.

        The stack is read top first, as ``_point`` reads it, down to the first
        symbol that cannot be popped, the empty stack, whose ``a`` is
        ``None in h2``, or the first suffix that ``table``, the pair's
        ``until_cache`` table, holds as an exact point, whose sign is the
        tail's ``a``. A head with no summary yet has ``_solve_support`` solve
        the rest of the stack: its closure stops at H2, and a walk goes on
        past a head in H2 where f2 is False, so a stack below one can hold
        symbols that no solve has met. The suffixes read are folded bottom
        up, and each whose ``a`` is False is stored in ``table`` as the point
        ``ZERO``, so a stack that extends a tested one by a block reads and
        folds that block alone."""
        value = None in h2
        read, suffix = [], d
        while suffix != EMPTY_MARK:
            x, _, rest = suffix.partition(" ")
            summary = zeros.get(x)
            if summary is None:
                _solve_support(self.gen.bpa.rules_by_head, h1, h2, zeros, suffix.split(), None)
                summary = zeros[x]
            read.append((suffix, summary))
            if not summary[1]:
                break
            suffix = rest or EMPTY_MARK
            known = table.get(suffix)
            if type(known) is Fraction:
                value = known > 0
                break
        for suffix, (a, t) in reversed(read):
            value = a or (t and value)
            if value:
                return False
            table[suffix] = ZERO
        return not value

    def _point(self, state: ChainState, f1: StateFormula, f2: StateFormula, table: dict) -> Fraction | bool:
        """The exact ``P(f1 U f2)`` at ``state``, for operands that compile to
        head sets, from the per-symbol summaries; or, where the stack reaches
        a symbol whose numeric summary is None, whether it is positive.

        ``P(X·α) = a_X + t_X·P(α)``, and ``P`` of the empty stack is 1 if f2
        holds there and 0 otherwise. The stack is read top first down to the
        first suffix ``table`` holds as a point, the first symbol that cannot
        be popped, or the empty stack, and a symbol not solved yet has
        ``_solve_support`` solve the rest of the stack. Then every suffix
        read is folded and memoized in ``table``, bottom up, so a stack that
        extends a folded one by a block costs one block. Where the value is
        0, every suffix read is 0 as well, and only ``state`` is memoized.

        At a symbol whose numeric summary is None, the rest of the stack is
        solved as well, as the symbols below it may not be yet, and the
        result is the exact sign: True if a symbol read above it has
        ``a > 0``, otherwise the ``a`` of the Boolean ``_fold`` of the rest
        over the empty stack. Nothing is memoized then.
        """
        numeric = self.summaries.setdefault((f1, f2), {})
        support = self.support.setdefault((f1, f2), {})
        h2 = self.head_sets[f2]
        value = ONE if None in h2 else ZERO
        read, suffix = [], state
        while suffix != EMPTY_MARK:
            head, _, rest = suffix.partition(" ")
            summary = numeric.get(head)
            if summary is None:
                stack = suffix.split()
                _solve_support(self.gen.bpa.rules_by_head, self.head_sets[f1], h2, support, stack, numeric)
                summary = numeric[head]
                if summary is None:
                    return any(a for _, (a, _) in read) or _fold(stack, support, (None in h2, False))[0]
            read.append((suffix, summary))
            if not summary[1]:
                break
            suffix = rest or EMPTY_MARK
            known = table.get(suffix)
            if type(known) is Fraction:
                value = known
                break
        folded = []
        for suffix, (a, t) in reversed(read):
            # a + t·value over one common denominator, normalized once.
            a_den, t_den, v_den = a.denominator, t.denominator, value.denominator
            value = Fraction(a.numerator * t_den * v_den + t.numerator * value.numerator * a_den,
                             a_den * t_den * v_den)
            folded.append((suffix, value))
        table.update(folded if value else [(state, ZERO)])
        return value

    def _reaches(self, state: ChainState, f1: StateFormula, f2: StateFormula) -> ThreeValued:
        """Decide ``P>0 (f1 U f2)`` at ``state`` without solving.

        With propositional operands ``_point`` decides it exactly, from its
        value or its sign, in every session, and memoizes the points it
        folds. Otherwise it is decided by reachability: in the least fixed
        point that ``prob_until`` solves, a state's lower bound is positive
        exactly when a sink with a positive lower bound is reachable through
        variables, and likewise for the upper bound (Baier and Katoen,
        Principles of Model Checking, 2008, 10.3). So the same walk gives the
        verdict ``compare`` gives on the solved interval, and it stops at the
        first sink with a positive lower bound (bounds are never negative,
        so a nonzero one is positive). The walk's zero sinks are exact, so
        where a cut state is one, the verdict is False where an open sink
        would have left it Unknown.
        """
        table = self.until_cache.setdefault((f1, f2), {})
        if self._compile(f1) is not None and self._compile(f2) is not None:
            return TRUE if self._point(state, f1, f2, table) else FALSE
        maybe = False
        for _, sink in self._walk(state, f1, f2, table):
            if sink is None:
                continue
            if sink[0]:
                return TRUE
            if sink[1]:
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
    rules_by_head, h1: frozenset, h2: frozenset, table: dict, roots: tuple[str, ...], numeric: dict | None
) -> None:
    """Extend ``table``, symbol -> ``(a, t)`` for one until, to the unsolved
    ``roots`` and the unsolved symbols they reach, and ``numeric`` to the
    same symbols.

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

    ``numeric``, unless it is None, gets the exact summaries, the least
    solution of the same equations over the rationals: a symbol in H_f2 is
    ``(1, 0)``, one whose Boolean summary is ``(False, False)`` is
    ``(0, 0)``, and any other is the sum over its rules ``X -> body [p]``
    of ``p·(a, t)`` of the body, where ``Y·W`` is ``(a_Y + t_Y·a_W,
    t_Y·t_W)`` and the pop ``(0, 1)``.
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
