import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import SYMBOLS, gen_from, small_bpas
from ppda import pctl, reduction
from ppda.chain import Budget, explore
from ppda.cli import main
from ppda.pctl import (
    MAX_NESTING,
    And,
    Atom,
    BoundPlaceholder,
    BoundRangeError,
    Comparison,
    Evaluator,
    FALSE,
    FormulaSyntaxError,
    Next,
    Not,
    PlaceholderError,
    Prob,
    ProbInterval,
    TRUE,
    TRUE_FORMULA,
    UNKNOWN,
    Until,
    _least_fixed_point,
    compare,
    disjunction,
    has_placeholder,
    kleene_not,
    parse_formula,
    serialize_formula,
)
from ppda.pushdown import Bpa, BpaRule, ChainGenerator, Configuration, induced_chain, parse_model

H = Fraction(1, 2)
BUDGET = Budget(200, 50)


class TestParsing:
    def test_true(self):
        assert parse_formula("true") == TRUE_FORMULA

    def test_prob_next_atom(self):
        assert parse_formula("(P= 1/2 (X (ap F)))") == Prob(
            Comparison.EQ, H, Next(Atom("F"))
        )

    def test_outer_reachability_shape(self):
        formula = parse_formula("(P> 0 (U true (ap C)))")
        assert formula == Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, Atom("C")))

    def test_structured_names(self):
        formula = parse_formula("(and (ap X(A,B)) (not (ap G(1,1))))")
        assert formula == And(Atom("X(A,B)"), Not(Atom("G(1,1)")))

    def test_apostrophe_name(self):
        assert parse_formula("(ap Z')") == Atom("Z'")

    def test_placeholder_bounds(self):
        formula = parse_formula("(P= ?t/2 (X true))")
        assert formula == Prob(Comparison.EQ, BoundPlaceholder.T_HALF, Next(TRUE_FORMULA))
        formula = parse_formula("(P= ?(1-t)/2 (X true))")
        assert formula.bound is BoundPlaceholder.ONE_MINUS_T_HALF

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("(and true")
        assert info.value.position == 9

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("true true")

    def test_bound_out_of_range(self):
        with pytest.raises(BoundRangeError):
            parse_formula("(P> 3/2 (X true))")

    @pytest.mark.parametrize("bound", ["1/" + "7" * 4401, "0" * 4401], ids=["denominator", "zeros"])
    def test_bound_over_the_digit_limit_refused(self, digit_limit, bound):
        with pytest.raises(FormulaSyntaxError, match="integer digit limit"):
            parse_formula(f"(P> {bound} (X true))")

    def test_constructed_bound_past_the_digit_limit_refused(self, digit_limit):
        # The value prints through errors.bounded: its first 40 characters and its length.
        with pytest.raises(BoundRangeError, match=r"^probability bound '10{39}'\.\.\. \(8803 characters\) outside"):
            Prob(Comparison.GT, Fraction(10**4400 + 1, 10**4400), Next(TRUE_FORMULA))

    @pytest.mark.parametrize("bound", [0.5, 1, True, "1/2"], ids=["float", "int", "bool", "str"])
    def test_bound_must_be_a_fraction_or_a_placeholder(self, bound):
        with pytest.raises(BoundRangeError, match="must be a Fraction or a placeholder, got"):
            Prob(Comparison.GT, bound, Next(TRUE_FORMULA))

    @pytest.mark.parametrize("comparison", [">", "=", None])
    def test_comparison_must_be_a_comparison(self, comparison):
        with pytest.raises(TypeError, match="must be a Comparison, got"):
            Prob(comparison, Fraction(1, 2), Next(TRUE_FORMULA))

    @pytest.mark.parametrize("path", [TRUE_FORMULA, Atom("C"), "X true", None])
    def test_path_must_be_next_or_until(self, path):
        with pytest.raises(TypeError, match="must be Next or Until, got"):
            Prob(Comparison.GT, Fraction(1, 2), path)

    @pytest.mark.parametrize("name", [5, None, ("C",)])
    def test_atom_name_must_be_a_str(self, name):
        with pytest.raises(TypeError, match="name must be a str, got"):
            Atom(name)

    def test_float_bound_does_not_alias_the_parsed_node(self):
        # 0.5 == Fraction(1, 2) with the same hash, so a node built with it
        # would be the one the interner hands the parser.
        try:
            kept = Prob(Comparison.GT, 0.5, Next(TRUE_FORMULA))
        except BoundRangeError:
            kept = None
        parsed = parse_formula("(P> 1/2 (X true))")
        assert parsed is not kept and type(parsed.bound) is Fraction
        assert serialize_formula(parsed) == "(P> 1/2 (X true))"

    def test_path_formula_parses(self):
        assert parse_formula("(P> 0 (U true (ap C)))").path == Until(TRUE_FORMULA, Atom("C"))

    def test_state_position_rejects_path_operator(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(X true)")

    def test_nesting_limit(self):
        def nested(depth: int) -> str:
            return "(not " * (depth - 1) + "(ap C)" + ")" * (depth - 1)

        assert parse_formula(nested(MAX_NESTING)) is not None
        with pytest.raises(FormulaSyntaxError, match="nested deeper"):
            parse_formula(nested(MAX_NESTING + 1))


_names = st.sampled_from(["C", "F", "S", "N", "Z'", "X(A,B)", "P(_,B)", "G(1,1)", "p0"])
_bounds = st.one_of(
    st.tuples(st.integers(0, 8), st.integers(1, 8)).map(
        lambda t: Fraction(min(t), max(t)) if max(t) else Fraction(0)
    ),
    st.sampled_from([BoundPlaceholder.T_HALF, BoundPlaceholder.ONE_MINUS_T_HALF]),
)


def _formulas():
    leaves = st.one_of(st.just(TRUE_FORMULA), st.builds(Atom, _names))

    def extend(kids):
        paths = st.one_of(st.builds(Next, kids), st.builds(Until, kids, kids))
        return st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Prob, st.sampled_from(list(Comparison)), _bounds, paths),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_formulas())
def test_serialize_parse_round_trip(formula):
    assert parse_formula(serialize_formula(formula)) is formula


def _negations(formula, depth: int):
    for _ in range(depth):
        formula = Not(formula)
    return formula


DEEP = 100_000


class TestInterning:
    """Formula nodes are hash-consed: equal formulas are one object."""

    def test_equal_nodes_are_one_object(self):
        assert Atom("C") is Atom("C")
        assert And(Atom("C"), TRUE_FORMULA) is parse_formula("(and (ap C) true)")
        assert Not(Atom("C")) is not Next(Atom("C"))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_return_the_interned_node(self, clone):
        formula = parse_formula("(P= ?t/2 (U (not (ap F)) (ap C)))")
        assert clone(formula) is formula

    def test_nodes_are_immutable(self):
        atom = Atom("C")
        with pytest.raises(AttributeError):
            atom.name = "F"
        with pytest.raises(AttributeError):
            del atom.name
        assert atom.name == "C" and repr(Not(atom)) == "Not(operand=Atom(name='C'))"

    def test_separately_built_deep_chain_evaluates_in_one_session(self):
        gen = gen_from({"a": [("a", Fraction(1))]})
        session = Evaluator(gen, BUDGET)
        assert session.eval_state("a", _negations(Atom("a"), DEEP)) is TRUE
        assert session.eval_state("a", _negations(Atom("a"), DEEP)) is TRUE

    def test_deep_chain_deepcopies_to_itself(self):
        deep = _negations(Atom("a"), DEEP)
        assert copy.deepcopy(deep) is deep

    def test_deep_chain_reprs(self):
        assert repr(_negations(Atom("a"), DEEP)) == "Not(operand=" * DEEP + "Atom(name='a')" + ")" * DEEP

    def test_deep_chain_serializes_and_its_text_is_refused(self):
        text = serialize_formula(_negations(Atom("a"), DEEP))
        assert text == "(not " * DEEP + "(ap a)" + ")" * DEEP
        with pytest.raises(FormulaSyntaxError, match="nested deeper"):
            parse_formula(text)

    def test_unchanged_nodes_are_kept_without_a_lookup(self, monkeypatch):
        # Only the nodes with a placeholder below them are rebuilt.
        template = reduction.build_top_formula(reduction.VariantKind.DEFAULT)
        nodes: set = set()
        for node in pctl.postorder(template, nodes):
            nodes.add(node)
        built, new = [], pctl._Node.__new__
        monkeypatch.setattr(pctl._Node, "__new__",
                            staticmethod(lambda cls, *fields: built.append(cls) or new(cls, *fields)))
        assert pctl.replace_bounds(template, lambda bound: bound) is template and built == []
        concrete = reduction.instantiate_formula(template, H)
        assert not has_placeholder(concrete)
        assert len(built) == sum(has_placeholder(node) for node in nodes) == 8

    def test_deep_template_instantiates(self):
        template = _negations(Prob(Comparison.EQ, BoundPlaceholder.T_HALF, Next(TRUE_FORMULA)), DEEP)
        assert has_placeholder(template)
        concrete = reduction.instantiate_formula(template, H)
        assert concrete is _negations(Prob(Comparison.EQ, Fraction(1, 4), Next(TRUE_FORMULA)), DEEP)
        assert not has_placeholder(concrete)


class TestCompare:
    def test_certain_strict(self):
        assert compare(ProbInterval(Fraction(1), Fraction(1)), Comparison.GT, Fraction(0)) is TRUE

    def test_eq_excluded(self):
        assert compare(ProbInterval(Fraction(0), Fraction(1, 4)), Comparison.EQ, H) is FALSE

    def test_gt_unresolved(self):
        assert compare(ProbInterval(Fraction(0), H), Comparison.GT, Fraction(0)) is UNKNOWN

    def test_eq_point(self):
        assert compare(ProbInterval(H, H), Comparison.EQ, H) is TRUE

    def test_eq_inside_wide_interval_unknown(self):
        assert compare(ProbInterval(Fraction(0), Fraction(1)), Comparison.EQ, H) is UNKNOWN

    def test_interval_invariant(self):
        # An interval built outside the evaluator is checked; the evaluator's
        # own skip the check and are otherwise the same value.
        for lo, hi in ((Fraction(2, 3), Fraction(1, 3)), (Fraction(-1, 3), Fraction(1, 3)),
                       (Fraction(1, 3), Fraction(4, 3))):
            with pytest.raises(ValueError, match="invalid interval"):
                ProbInterval(lo, hi)
        for lo, hi in ((0.5, Fraction(1)), (Fraction(0), 1)):
            with pytest.raises(TypeError, match="must be Fractions"):
                ProbInterval(lo, hi)
        ours = Evaluator(gen_from({"a": [("b", H), ("c", H)]}), BUDGET).prob_next("a", Atom("b"))
        assert ours == ProbInterval(H, H) and hash(ours) == hash(ProbInterval(H, H))
        assert str(ours) == "[1/2, 1/2]" and repr(ours) == repr(ProbInterval(H, H))


class TestEvalState:
    def test_atom_label_lookup(self):
        # An atom holds where it is the head; one naming no symbol holds nowhere.
        gen = gen_from({"a": [("a", Fraction(1))]})
        assert Evaluator(gen, BUDGET).eval_state("a", Atom("a")) is TRUE
        assert Evaluator(gen, BUDGET).eval_state("a", Atom("F")) is FALSE

    def test_double_negation(self):
        gen = gen_from({"a": [("a", Fraction(1))]})
        for f in (Atom("a"), Atom("F"), And(Atom("a"), Not(Atom("F")))):
            doubled = Evaluator(gen, BUDGET).eval_state("a", Not(Not(f)))
            assert doubled is Evaluator(gen, BUDGET).eval_state("a", f)

    def test_and_commutative(self):
        table = {"a": [("b", H), ("c", H)], "b": [("b", Fraction(1))], "c": [("c", Fraction(1))]}
        gen = gen_from(table)
        left = Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, Atom("b")))
        right = Atom("b")
        forward = Evaluator(gen, BUDGET).eval_state("a", And(left, right))
        assert forward is Evaluator(gen, BUDGET).eval_state("a", And(right, left))

    def test_deep_negation_chain_built_in_code(self):
        # Propositional formulas compile through postorder, which keeps an
        # explicit stack, so depth costs no recursion.
        formula = _negations(Atom("a"), DEEP)
        gen = gen_from({"a": [("a", Fraction(1))]})
        assert Evaluator(gen, BUDGET).eval_state("a", formula) is TRUE
        assert Evaluator(gen, BUDGET).eval_state("a", Not(formula)) is FALSE

    def test_placeholder_rejected(self):
        # A template is refused wherever it is asked, also where a conjunct
        # without a placeholder would decide it.
        gen = gen_from({"a": [("a", Fraction(1))]})
        formula = Prob(Comparison.EQ, BoundPlaceholder.T_HALF, Next(TRUE_FORMULA))
        for template in (formula, And(Atom("F"), formula), And(formula, Atom("F"))):
            with pytest.raises(PlaceholderError):
                Evaluator(gen, BUDGET).eval_state("a", template)

    def test_conjunction_outside_its_guard_is_false_and_not_memoized(self):
        # A conjunction with a probability operator can hold only where its
        # propositional conjuncts do: elsewhere it is False before the
        # operator is evaluated, and no state_cache entry is written.
        gen = gen_from({"a": [("b", H), ("c", H)]})
        reached = Prob(Comparison.GT, Fraction(0), Next(TRUE_FORMULA))
        for formula in (And(Atom("b"), reached), And(reached, Atom("b"))):
            session = Evaluator(gen, BUDGET)
            assert session.eval_state("a", formula) is FALSE
            assert session.state_cache == {}
            assert session.eval_state("b", formula) is TRUE and ("b", formula) in session.state_cache
        # A negation's guard is the universe; the conjunction below it is
        # still False at a without an entry. Conjuncts' guards intersect.
        session = Evaluator(gen, BUDGET)
        assert session.eval_state("a", Not(And(reached, Atom("b")))) is TRUE
        assert list(session.state_cache) == [("a", Not(And(reached, Atom("b"))))]
        nowhere = And(Atom("b"), And(reached, Atom("c")))
        assert session.eval_state("b", nowhere) is FALSE and session.guards[nowhere] == frozenset()
        assert ("b", nowhere) not in session.state_cache


class TestProbNext:
    def test_all_successors_satisfy(self):
        # p holds at the heads b and c: a head-based label is a disjunction of atoms.
        gen = gen_from({"a": [("b", H), ("c", H)]})
        interval = Evaluator(gen, BUDGET).prob_next("a", disjunction([Atom("b"), Atom("c")]))
        assert interval == ProbInterval(Fraction(1), Fraction(1))

    def test_equiprobable_split(self):
        gen = gen_from({"a": [("b", H), ("c", H)]})
        assert Evaluator(gen, BUDGET).prob_next("a", Atom("b")) == ProbInterval(H, H)

    def test_unknown_successor_widens(self):
        # A probability operator in the left operand keeps the inner until on
        # the bounded walk. c's verdict needs more depth than the budget
        # allows, so the interval keeps the unresolved mass; a larger budget
        # collapses it. With a propositional left operand the inner verdict
        # is exact at any budget.
        chain = {
            "a": [("b", H), ("c", H)],
            "b": [("b", Fraction(1))],
            "c": [("d", Fraction(1))],
            "d": [("e", Fraction(1))],
            "e": [("e", Fraction(1))],
        }
        gen = gen_from(chain)
        always = Prob(Comparison.GT, Fraction(0), Next(TRUE_FORMULA))
        inner = Prob(Comparison.GT, Fraction(0), Until(always, Atom("e")))
        interval = Evaluator(gen, Budget(1, 1)).prob_next("a", inner)
        assert interval.lo == Fraction(0) and interval.hi == H
        assert Evaluator(gen, Budget(50, 50)).prob_next("a", inner) == ProbInterval(H, H)
        propositional = Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, Atom("e")))
        assert Evaluator(gen, Budget(1, 1)).prob_next("a", propositional) == ProbInterval(H, H)


class TestProbUntil:
    def test_goal_at_start(self):
        gen = gen_from({"a": [("a", Fraction(1))]})
        assert Evaluator(gen, BUDGET).prob_until("a", TRUE_FORMULA, Atom("a")) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_dead_self_loop_is_exact_zero(self):
        gen = gen_from({"a": [("a", Fraction(1))]})
        assert Evaluator(gen, BUDGET).prob_until("a", TRUE_FORMULA, Atom("p")) == ProbInterval(
            Fraction(0), Fraction(0)
        )

    def test_escape_from_self_loop_solves_exactly(self):
        table = {"x": [("x", H), ("y", H)], "y": [("y", Fraction(1))]}
        gen = gen_from(table, initial="x")
        assert Evaluator(gen, BUDGET).prob_until("x", TRUE_FORMULA, Atom("y")) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_two_state_cycle_with_escape(self):
        table = {
            "a": [("b", Fraction(1))],
            "b": [("a", H), ("goal", H)],
            "goal": [("goal", Fraction(1))],
        }
        gen = gen_from(table)
        assert Evaluator(gen, BUDGET).prob_until("a", TRUE_FORMULA, Atom("goal")) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_guard_failure_blocks(self):
        table = {
            "a": [("bad", H), ("goal", H)],
            "bad": [("goal", Fraction(1))],
            "goal": [("goal", Fraction(1))],
        }
        gen = gen_from(table)
        interval = Evaluator(gen, BUDGET).prob_until("a", Not(Atom("blocked")), Atom("goal"))
        assert interval == ProbInterval(Fraction(1), Fraction(1))
        interval = Evaluator(gen, BUDGET).prob_until("a", Not(Atom("bad")), Atom("goal"))
        assert interval == ProbInterval(H, H)

    def test_frontier_keeps_interval_open(self):
        # f1 holds everywhere but is not a head set, so the until is walked,
        # and the budget cuts the walk. The propositional query folds from the
        # symbol summaries to the exact point at any budget.
        table = {str(i): [(str(i + 1), Fraction(1))] for i in range(10)}
        table["10"] = [("10", Fraction(1))]
        gen = gen_from(table, initial="0")
        always = Prob(Comparison.GT, Fraction(0), Next(TRUE_FORMULA))
        interval = Evaluator(gen, Budget(5, 5)).prob_until("0", always, Atom("10"))
        assert interval.lo == Fraction(0) and interval.hi == Fraction(1)
        exact = Evaluator(gen, Budget(50, 50)).prob_until("0", always, Atom("10"))
        assert exact == ProbInterval(Fraction(1), Fraction(1))
        folded = Evaluator(gen, Budget(5, 5)).prob_until("0", TRUE_FORMULA, Atom("10"))
        assert folded == ProbInterval(Fraction(1), Fraction(1))


class TestBudgetMonotonicity:
    def _intervals(self, gen, state, f1, f2, budgets):
        return [Evaluator(gen, b).prob_until(state, f1, f2) for b in budgets]

    def test_intervals_nest_on_growing_budget(self, unsolvable):
        from ppda import reduction

        artifact = reduction.compile_instance(unsolvable)
        gen = artifact.chain
        budgets = [Budget(10, 3), Budget(50, 6), Budget(200, 12), Budget(800, 24)]
        outer = self._intervals(gen, "Z", TRUE_FORMULA, Atom("C"), budgets)
        for tighter, wider in zip(outer[1:], outer):
            assert wider.lo <= tighter.lo <= tighter.hi <= wider.hi

    def test_verdict_never_flips(self, p1, p1_artifact):
        from ppda import reduction

        report = reduction.certify(p1, (1, 2), artifact=p1_artifact)
        top = reduction.instantiate_top_formula(p1_artifact, report.t)
        verdicts = [
            Evaluator(p1_artifact.chain, b).eval_state("Z", top)
            for b in (Budget(5, 2), Budget(60, 6), Budget(400, 10), Budget(4000, 16))
        ]
        seen_definite = None
        for verdict in verdicts:
            if verdict is not UNKNOWN:
                if seen_definite is None:
                    seen_definite = verdict
                assert verdict is seen_definite
        assert seen_definite is TRUE


def _propositional():
    leaves = st.one_of(st.just(TRUE_FORMULA), st.builds(Atom, st.sampled_from(SYMBOLS)))
    return st.recursive(leaves, lambda kids: st.one_of(st.builds(Not, kids), st.builds(And, kids, kids)),
                        max_leaves=4)


def _label_verdict(formula, labels: frozenset) -> bool:
    """Reference semantics of a propositional formula on a label set."""
    if isinstance(formula, Atom):
        return formula.name in labels
    if isinstance(formula, Not):
        return not _label_verdict(formula.operand, labels)
    if isinstance(formula, And):
        return _label_verdict(formula.left, labels) and _label_verdict(formula.right, labels)
    return True


def _as_head_disjunctions(formula, heads: dict):
    """``formula`` with each atom p replaced by the disjunction of the atoms of
    the stack symbols in ``heads[p]`` (false where p has none)."""
    if isinstance(formula, Atom):
        return disjunction([Atom(x) for x in sorted(heads.get(formula.name, ()))])
    if isinstance(formula, Not):
        return Not(_as_head_disjunctions(formula.operand, heads))
    if isinstance(formula, And):
        return And(_as_head_disjunctions(formula.left, heads), _as_head_disjunctions(formula.right, heads))
    return formula


_PROPS = ("p", "q", "r")


class TestHeadSets:
    """Propositional operands are compiled to head sets; labels are not read."""

    @settings(max_examples=300)
    @given(small_bpas(),
           st.dictionaries(st.sampled_from(_PROPS), st.frozensets(st.sampled_from(SYMBOLS)), min_size=1),
           st.recursive(st.one_of(st.just(TRUE_FORMULA), st.builds(Atom, st.sampled_from(_PROPS + ("W",)))),
                        lambda kids: st.one_of(st.builds(Not, kids), st.builds(And, kids, kids)),
                        max_leaves=6),
           st.lists(st.sampled_from(SYMBOLS), max_size=3))
    def test_matches_label_semantics(self, model, heads, formula, stack):
        # A head-based labelling, p holding at the heads in heads[p], written
        # with identity atoms: each p becomes the disjunction of its heads.
        gen = induced_chain(model, Configuration(tuple(stack)))
        session = Evaluator(gen, BUDGET)
        for state in (gen.initial, "~"):
            labels = frozenset(p for p, hs in heads.items() if gen.head(state) in hs)
            expected = TRUE if _label_verdict(formula, labels) else FALSE
            assert session.eval_state(state, _as_head_disjunctions(formula, heads)) is expected

    def test_negated_atom_holds_on_the_empty_stack(self):
        gen = _cyclic_chain()
        assert Evaluator(gen, BUDGET).eval_state("~", parse_formula("(not (ap X))")) is TRUE
        assert Evaluator(gen, BUDGET).eval_state("~", parse_formula("(ap X)")) is FALSE

    def test_session_and_chain_are_freed_without_the_cycle_collector(self):
        # A reference cycle through the chain would keep its successor cache,
        # and the session's caches, alive until a full collection.
        gen = _cyclic_chain()
        session = Evaluator(gen, Budget(100, 1000))
        until = REACH_EMPTY
        assert session.prob_until("X", until.left, until.right).lo > 0
        assert session.until_cache and gen._succ_cache
        refs = [weakref.ref(gen), weakref.ref(session)]
        gc.disable()
        try:
            del gen, session
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_labels_are_never_read(self):
        def refuse(state):
            raise AssertionError(f"labels read at {state!r}")

        gen = _cyclic_chain()
        gen.labels = refuse
        until = REACH_EMPTY
        expected = Evaluator(_cyclic_chain(), Budget(100, 1000)).prob_until("X", until.left, until.right)
        session = Evaluator(gen, Budget(100, 1000))
        assert session.prob_until("X", until.left, until.right) == expected
        # The value is 1, so an open interval shows that the walk ran and was cut.
        assert 0 < expected.lo < expected.hi
        assert session.eval_state("X", parse_formula(CYCLIC_QUERY)) is FALSE


# Holds at every state, by a next-operator: an until whose left operand is
# conjoined with it has the same value but is always walked, never folded.
_EVERYWHERE = Prob(Comparison.GT, Fraction(0), Next(TRUE_FORMULA))


class TestQualitativeNext:
    """P=1, P>0 and P=0 over a next are decided from the successors' verdicts,
    and must give what ``compare`` gives on ``prob_next``'s interval."""

    @settings(max_examples=200)
    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), max_size=3), _propositional())
    def test_matches_the_interval(self, model, stack, f):
        gen = induced_chain(model, Configuration(tuple(stack)))
        # The until is walked, so at the small budget it can be Unknown.
        walked = Prob(Comparison.GT, H, Until(_EVERYWHERE, f))
        for budget in (Budget(1, 1), Budget(50, 50)):
            for operand in (f, And(_EVERYWHERE, f), walked):
                interval = Evaluator(gen, budget).prob_next(gen.initial, operand)
                for comparison, bound in ((Comparison.EQ, Fraction(1)), (Comparison.GT, Fraction(0)),
                                          (Comparison.EQ, Fraction(0))):
                    formula = Prob(comparison, bound, Next(operand))
                    verdict = Evaluator(gen, budget).eval_state(gen.initial, formula)
                    assert verdict is compare(interval, comparison, bound)

    def test_first_deciding_successor_ends_the_scan(self):
        # a's successors are b, then c. reached holds at c and not at b, so
        # P=1 stops at b and P>0 at c: each scan stops at the first
        # successor whose verdict decides and evaluates no later one.
        gen = gen_from({"a": [("b", H), ("c", H)], "b": [("e", Fraction(1))], "c": [("d", Fraction(1))]})
        reached = Prob(Comparison.EQ, Fraction(1), Next(Atom("d")))
        session = Evaluator(gen, BUDGET)
        assert session.eval_state("a", Prob(Comparison.EQ, Fraction(1), Next(reached))) is FALSE
        assert ("b", reached) in session.state_cache and ("c", reached) not in session.state_cache
        assert session.eval_state("a", Prob(Comparison.GT, Fraction(0), Next(reached))) is TRUE
        assert session.state_cache[("c", reached)] is TRUE
        # A P=1 whose first successor is Unknown goes on to a False one.
        unknown = Prob(Comparison.GT, Fraction(0), Until(_EVERYWHERE, Atom("d")))
        gen = gen_from({"a": [("b", H), ("c", H)], "b": [("f", Fraction(1))], "f": [("d", Fraction(1))]})
        session = Evaluator(gen, Budget(1, 1))
        assert session.eval_state("a", Prob(Comparison.EQ, Fraction(1), Next(unknown))) is FALSE
        assert session.state_cache[("b", unknown)] is UNKNOWN and session.state_cache[("c", unknown)] is FALSE


class TestQualitativeUntil:
    """Bound-0 untils over propositional operands are decided exactly; the
    verdicts must agree with the solve wherever the solved interval decides."""

    @settings(max_examples=300)
    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3),
           _propositional(), _propositional(), st.integers(1, 40), st.integers(1, 8))
    def test_matches_solved_interval(self, model, stack, f1, f2, max_states, max_depth):
        # The always-walked forms are decided by the walk, which sees exactly
        # the states the solve sees, so their verdict is the solved one.
        gen = induced_chain(model, Configuration(tuple(stack)))
        budget = Budget(max_states, max_depth)
        for left, right in ((f1, f2), (And(_EVERYWHERE, f1), f2), (f1, And(_EVERYWHERE, f2))):
            interval = Evaluator(gen, budget).prob_until(gen.initial, left, right)
            for comparison in Comparison:
                formula = Prob(comparison, Fraction(0), Until(left, right))
                verdict = Evaluator(gen, budget).eval_state(gen.initial, formula)
                solved = compare(interval, comparison, Fraction(0))
                if (left, right) == (f1, f2):
                    assert verdict is not UNKNOWN
                    assert solved is UNKNOWN or verdict is solved
                else:
                    assert verdict is solved

    def test_top_formula_stops_at_the_witness(self, p1, p1_artifact, monkeypatch):
        from ppda import reduction

        t = reduction.certify(p1, (1, 2), artifact=p1_artifact).t
        top = reduction.instantiate_top_formula(p1_artifact, t)
        budget = Budget(100_000, 30)
        gen = p1_artifact.chain
        region = explore(gen, "Z", budget)
        checkpoints = [s for s in region.settled | region.frontier if "C" in gen.labels(s)]
        asked = set()
        successors = gen.successors
        monkeypatch.setattr(gen, "successors", lambda state: asked.add(state) or successors(state))
        assert Evaluator(gen, budget).eval_state("Z", top) is TRUE
        # Measured: the budget's reach from Z holds 1,022 C-configurations
        # and 9,967 expanded states. The search for a C-configuration where
        # the inner formula holds stops at the witness 1,2. The inner untils
        # fold from the numeric summaries, so the only walk is Z's, and it
        # stops after 31 variables; the 32nd state is the witness, whose
        # successors the inner next-operator reads.
        assert len(checkpoints) == 1022
        assert len(region.settled) == 9967
        assert len(asked) <= 32

    def test_hopeless_top_formula_builds_one_exploration(self, monkeypatch):
        # No word solves this instance, so the outer until is cut by the
        # budget and the verdict stays Unknown. The inner untils at its 1,022
        # C-configurations fold from the numeric summaries, so the one walk
        # is the outer until's, at Z, and the budget cuts it.
        walks, sinks = [], []
        walk = Evaluator._walk

        def recording_walk(self, state, f1, f2, table):
            walks.append(state)
            for d, sink in walk(self, state, f1, f2, table):
                sinks.append(sink)
                yield d, sink

        monkeypatch.setattr(Evaluator, "_walk", recording_walk)
        # The walk passes every other head by its head set and f2's guard,
        # so the operands are evaluated only at the C-configurations.
        classified = []
        until_sink = Evaluator._until_sink
        monkeypatch.setattr(Evaluator, "_until_sink", lambda self, d, *args: classified.append(d)
                            or until_sink(self, d, *args))
        artifact = reduction.compile_instance(reduction.PcpInstance((("AB", "BA"), ("BA", "AB"))))
        top = reduction.instantiate_top_formula(artifact, Fraction(5, 16))
        evaluator = Evaluator(artifact.chain, Budget(100_000, 30))
        assert evaluator.eval_state("Z", top) is UNKNOWN
        assert walks == ["Z"] and pctl._OPEN_SINK in sinks
        assert len(classified) == 1022 and {artifact.chain.head(d) for d in classified} == {"C"}
        reached = top.path.right
        assert {artifact.chain.head(d) for d, f in evaluator.state_cache if f is reached} == {"C"}

    def test_hopeless_walk_stops_behind_the_checkpoints(self, monkeypatch):
        # From a checking-phase state no run comes back to a C, the guard of
        # the outer until's right operand, so the zero test makes each state
        # behind a C an exact 0 sink. The walk expands guessing states only,
        # and the budget still cuts it to Unknown.
        # Each zero the test proves is memoized as the point 0, so a later
        # walk of the same until reads it as a sink, with the same answer.
        expanded, zeros = set(), set()
        walk = Evaluator._walk

        def recording_walk(self, state, f1, f2, table):
            for d, sink in walk(self, state, f1, f2, table):
                if sink is None:
                    expanded.add(ChainGenerator.head(d))
                elif sink == (0, 0):
                    zeros.add(d)
                yield d, sink

        monkeypatch.setattr(Evaluator, "_walk", recording_walk)
        artifact = reduction.compile_instance(reduction.PcpInstance((("AB", "BA"), ("BA", "AB"))))
        top = reduction.instantiate_top_formula(artifact, Fraction(5, 16))
        budget = Budget(100_000, 30)
        session = Evaluator(artifact.chain, budget)
        assert session.eval_state("Z", top) is UNKNOWN
        assert expanded and all(x in ("Z", "C") or x.startswith("G(") for x in expanded)
        assert {ChainGenerator.head(d) for d in zeros} == {"N"}
        table = session.until_cache[(TRUE_FORMULA, top.path.right)]
        assert all(type(table[d]) is Fraction and table[d] == 0 for d in zeros)
        again = session.prob_until("Z", TRUE_FORMULA, top.path.right)
        assert again == Evaluator(artifact.chain, budget).prob_until("Z", TRUE_FORMULA, top.path.right)

    def test_zero_test_memoizes_the_zeros_it_proves(self, monkeypatch):
        # N and K pop, and f2 may hold only where G is the head. The stack
        # N K is 0 at both of its suffixes, and both are memoized.
        model = parse_model("N -> ~ [1]\nK -> ~ [1]\nG -> G [1]\n")
        gen = induced_chain(model, Configuration(("N", "K")))
        zero, one = ProbInterval(Fraction(0), Fraction(0)), ProbInterval(Fraction(1), Fraction(1))
        f2 = And(_EVERYWHERE, Atom("G"))
        session = Evaluator(gen, BUDGET)
        table = session.until_cache.setdefault((TRUE_FORMULA, f2), {})
        assert session.prob_until("N K", TRUE_FORMULA, f2) == zero
        assert table == {"N K": 0, "K": 0}
        assert session.prob_until("N N K", TRUE_FORMULA, f2) == zero
        assert table == {"N K": 0, "K": 0, "N N K": 0}
        # Below N, G is positive, so nothing is memoized as 0: the walk goes
        # on to G, where f2 holds.
        assert session.prob_until("N G", TRUE_FORMULA, f2) == one
        assert table["N G"] == table["G"] == 1
        # A point the table holds ends the read, and its sign is the tail's:
        # never is False at G, so once the walk at G memoizes 0 there, N G
        # is a zero sink, though G is in never's guard.
        never = And(Prob(Comparison.EQ, Fraction(0), Next(TRUE_FORMULA)), Atom("G"))
        assert session.prob_until("G", TRUE_FORMULA, never) == zero
        asked = []
        successors = gen.successors
        monkeypatch.setattr(gen, "successors", lambda state: asked.append(state) or successors(state))
        assert session.prob_until("N G", TRUE_FORMULA, never) == zero and asked == []

    @pytest.mark.parametrize("variant", ["default", "cf-simple", "n-chain 2"])
    def test_certification_walks_build_no_zero_tables(self, p1, variant, monkeypatch):
        # The zero test is for untils _point cannot fold. Certification walks
        # propositional untils without a budget, and must not pay for it.
        solves = []
        solve = pctl._solve_support
        monkeypatch.setattr(pctl, "_solve_support", lambda *args: solves.append(args) or solve(*args))
        artifact = reduction.compile_instance(p1, reduction.Variant.parse(variant))
        sweep = reduction.sweep_session(artifact, 3)
        for word in ((1,), (2,), (1, 2), (2, 1, 1)):
            fresh = Evaluator(artifact.chain, None)
            reduction.certify(p1, word, artifact=artifact, session=fresh)
            reduction.certify(p1, word, artifact=artifact, session=sweep)
            assert fresh.support == {} and fresh.until_cache
        assert sweep.support == {} and solves == []


def _full_region_until(gen: ChainGenerator, budget: Budget, f1, f2) -> ProbInterval:
    """The until-interval at the start from the whole region: explore it, classify
    every discovered state, and solve for both bounds."""
    region = explore(gen, gen.initial, budget)
    operands = Evaluator(gen, budget)  # f1 and f2 are propositional: verdicts from head sets only
    sink_lo, sink_hi, variables = {}, {}, []
    for d in sorted(region.settled | region.frontier):
        right, left = operands.eval_state(d, f2), operands.eval_state(d, f1)
        if right is TRUE:
            sink = (Fraction(1), Fraction(1))
        elif right is FALSE and left is FALSE:
            sink = (Fraction(0), Fraction(0))
        elif right is not FALSE or left is not TRUE or d not in region.settled:
            sink = (Fraction(0), Fraction(1))
        elif gen.successors(d) == [(d, Fraction(1))]:
            sink = (Fraction(0), Fraction(0))
        else:
            variables.append(d)
            continue
        sink_lo[d], sink_hi[d] = sink
    if gen.initial in sink_lo:
        return ProbInterval(sink_lo[gen.initial], sink_hi[gen.initial])
    lo = _least_fixed_point(variables, gen.successors, sink_lo)[gen.initial]
    hi = _least_fixed_point(variables, gen.successors, sink_hi)[gen.initial]
    return ProbInterval(lo, hi)


def _walk_cut_until(gen: ChainGenerator, budget: Budget, f1, f2, zero_heads=None) -> ProbInterval:
    """The until-interval at the start from a walk through variables, level by
    level, that cuts a candidate variable at depth ``max_depth`` or once
    ``max_states`` variables are expanded; then solve for both bounds.

    With ``zero_heads``, a pair (H1, H2) of head sets, a state from whose
    stack no run can reach H2 through H1, by the Boolean summaries of
    ``_kleene_support``, is a 0 sink before its operands are asked."""
    operands = Evaluator(gen, budget)  # the operands' verdicts do not depend on the budget
    support = None if zero_heads is None else _kleene_support(gen.bpa, *zero_heads)
    sink_lo, sink_hi, variables = {}, {}, []
    seen, level, depth = {gen.initial}, [gen.initial], 0
    while level:
        below = []
        for d in level:
            right, left = operands.eval_state(d, f2), operands.eval_state(d, f1)
            if support is not None and not _stack_reaches(support, d, zero_heads[1]):
                sink = (Fraction(0), Fraction(0))
            elif right is TRUE:
                sink = (Fraction(1), Fraction(1))
            elif right is FALSE and left is FALSE:
                sink = (Fraction(0), Fraction(0))
            elif (right is not FALSE or left is not TRUE or depth >= budget.max_depth
                  or len(variables) >= budget.max_states):
                sink = (Fraction(0), Fraction(1))
            elif gen.successors(d) == [(d, Fraction(1))]:
                sink = (Fraction(0), Fraction(0))
            else:
                variables.append(d)
                fresh = [t for t, _ in gen.successors(d) if t not in seen]
                seen.update(fresh)
                below += fresh
                continue
            sink_lo[d], sink_hi[d] = sink
        level, depth = below, depth + 1
    if gen.initial in sink_lo:
        return ProbInterval(sink_lo[gen.initial], sink_hi[gen.initial])
    lo = _least_fixed_point(variables, gen.successors, sink_lo)[gen.initial]
    hi = _least_fixed_point(variables, gen.successors, sink_hi)[gen.initial]
    return ProbInterval(lo, hi)


def _stack_reaches(support: dict, state: str, h2: frozenset) -> bool:
    """Whether a run from ``state`` can reach H2 by the Boolean summaries in
    ``support``: some symbol of the stack that every symbol above it lets
    pop has ``a`` true, or every symbol pops and the empty stack is in H2."""
    for x in Configuration.parse(state).stack:
        reach, passes = support[x]
        if reach:
            return True
        if not passes:
            return False
    return None in h2


def _support_verdict(gen: ChainGenerator, f1, f2):
    """``P>0 (f1 U f2)`` at the start, from a session whose budget decides nothing."""
    formula = Prob(Comparison.GT, Fraction(0), Until(f1, f2))
    return Evaluator(gen, Budget(1, 1)).eval_state(gen.initial, formula)


def _kleene_support(model: Bpa, h1: frozenset, h2: frozenset) -> dict:
    """The Boolean summaries of every symbol by Kleene iteration over the whole
    alphabet: symbol -> (run can satisfy the until before the pop, pop possible)."""
    table = {x: (False, False) for x in model.alphabet}
    while True:
        step = {}
        for x in model.alphabet:
            reach, passes = x in h2, False
            if x in h1 and x not in h2:
                for rule in model.rules_by_head[x]:
                    if not rule.body:
                        passes = True
                    elif len(rule.body) == 1:
                        ay, ty = table[rule.body[0]]
                        reach, passes = reach or ay, passes or ty
                    else:
                        (ay, ty), (aw, tw) = table[rule.body[0]], table[rule.body[1]]
                        reach = reach or ay or (ty and aw)
                        passes = passes or (ty and tw)
            step[x] = (reach, passes)
        if step == table:
            return table
        table = step


def _kleene_summaries(model: Bpa, h1: frozenset, h2: frozenset) -> dict:
    """The numeric summaries of every symbol after as many rounds of Kleene
    iteration from (0, 0) as the alphabet has symbols, plus one, over the
    whole alphabet. That is exact for every symbol whose closure is acyclic."""
    zero = (Fraction(0), Fraction(0))
    table = {x: zero for x in model.alphabet}
    for _ in range(len(model.alphabet) + 1):
        step = {}
        for x in model.alphabet:
            if x in h2:
                step[x] = (Fraction(1), Fraction(0))
                continue
            a = t = Fraction(0)
            if x in h1:
                for rule in model.rules_by_head[x]:
                    p = rule.probability
                    if not rule.body:
                        t += p
                    elif len(rule.body) == 1:
                        ay, ty = table[rule.body[0]]
                        a, t = a + p * ay, t + p * ty
                    else:
                        (ay, ty), (aw, tw) = table[rule.body[0]], table[rule.body[1]]
                        a, t = a + p * (ay + ty * aw), t + p * ty * tw
            step[x] = (a, t)
        table = step
    return table


def _above_cycles(model: Bpa, h1: frozenset, h2: frozenset, leaves: set) -> set:
    """The symbols that reach a cycle of the graph that links each head in H_f1
    and not in H_f2, outside ``leaves``, to the symbols of its rule bodies:
    those with a path longer than the alphabet."""
    def targets(x):
        if x in h2 or x not in h1 or x in leaves:
            return set()
        return {y for rule in model.rules_by_head[x] for y in rule.body}

    out = set()
    for x in model.alphabet:
        layer = {x}
        for _ in range(len(model.alphabet) + 1):
            layer = set().union(*map(targets, layer))
        if layer:
            out.add(x)
    return out


def _folds(session: Evaluator, state: str, f1, f2) -> bool:
    """Whether every symbol of ``state`` down to the first that cannot be popped
    has a numeric summary in ``session``, so that ``prob_until`` folds it."""
    for x in Configuration.parse(state).stack:
        if session.summaries[(f1, f2)][x] is None:
            return False
        if not session.support[(f1, f2)][x][1]:
            break
    return True


_REFERENCE_BUDGETS = (Budget(40, 8), Budget(300, 20), Budget(3000, 60))


class TestUntilSupport:
    """``P>0`` over propositional operands is decided from per-symbol Boolean
    summaries; the full-region solve is the independent reference."""

    @settings(max_examples=300)
    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), max_size=3),
           _propositional(), _propositional(), st.integers(1, 40), st.integers(1, 8))
    def test_matches_bounded_reference(self, model, stack, f1, f2, max_states, max_depth):
        gen = induced_chain(model, Configuration(tuple(stack)))
        session = Evaluator(gen, Budget(max_states, max_depth))
        until = Until(f1, f2)
        verdict = session.eval_state(gen.initial, Prob(Comparison.GT, Fraction(0), until))
        assert session.eval_state(gen.initial, Prob(Comparison.EQ, Fraction(0), until)) is kleene_not(verdict)
        if verdict is FALSE:
            for budget in (Budget(max_states, max_depth), Budget(300, 20)):
                assert _full_region_until(gen, budget, f1, f2).lo == 0
        else:
            # Intervals nest as the budget grows, so a positive lower bound at
            # any of these budgets is one at the largest.
            assert verdict is TRUE
            assert any(_full_region_until(gen, budget, f1, f2).lo > 0 for budget in _REFERENCE_BUDGETS)
        reference = _kleene_support(model, session.head_sets[f1], session.head_sets[f2])
        solved = session.support[(f1, f2)]
        assert solved == {x: reference[x] for x in solved}

    @settings(max_examples=200)
    @given(small_bpas(), st.permutations(SYMBOLS), _propositional(), _propositional())
    def test_incremental_solves_match_kleene(self, model, order, f1, f2):
        # One query per symbol, so later solves build on the summaries of
        # earlier ones, which are final.
        gen = induced_chain(model, Configuration(()))
        session = Evaluator(gen, Budget(1, 1))
        for x in order:
            session.prob_until(x, f1, f2)
        reference = _kleene_support(model, session.head_sets[f1], session.head_sets[f2])
        assert session.support[(f1, f2)] == reference

    @staticmethod
    def _solve_counting_folds(monkeypatch, model: Bpa, top: str, f2) -> dict:
        """Decide ``P>0 (true U f2)`` at ``top``, check the summaries against
        Kleene iteration, and return how often the solve folded each body."""
        folds: dict = {}
        fold = pctl._fold

        def counting_fold(word, table, tail):
            if tail == (False, True):  # a rule body over the pop; a stack's fold never is
                folds[tuple(word)] = folds.get(tuple(word), 0) + 1
            return fold(word, table, tail)

        monkeypatch.setattr(pctl, "_fold", counting_fold)
        session = Evaluator(induced_chain(model, Configuration((top,))), Budget(1, 1))
        assert session.eval_state(top, Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, f2))) is TRUE
        reference = _kleene_support(model, session.head_sets[TRUE_FORMULA], session.head_sets[f2])
        assert session.support[(TRUE_FORMULA, f2)] == reference
        for body, count in folds.items():
            rules = sum(rule.body == body for rule in model.rules)
            assert count <= rules * (1 + 2 * len(body))
        return folds

    def test_long_chain_rises_bottom_up(self, monkeypatch):
        # f2 holds only at B, below the last link, so both summaries of every
        # link become true one link at a time, from the bottom up.
        links = 300
        rules = [BpaRule("B", ("B",), Fraction(1)),
                 BpaRule(f"L{links - 1}", (), H), BpaRule(f"L{links - 1}", ("B",), H)]
        for i in range(links - 1):
            rules += [BpaRule(f"L{i}", (f"L{i + 1}",), H), BpaRule(f"L{i}", (f"L{i + 1}", f"L{i + 1}"), H)]
        folds = self._solve_counting_folds(monkeypatch, Bpa.make(rules), "L0", Atom("B"))
        # Every link's rules are read, and B's, where f2 holds, are not.
        assert len(folds) == 2 * links

    def test_guessing_fan_in(self, monkeypatch):
        # Like the guessing phase: each of 40 heads moves to every head,
        # pushing a letter, or leaves; only the last leaves towards f2.
        heads = [f"G{i}" for i in range(40)]
        p = Fraction(1, 41)
        rules = [BpaRule("P", (), Fraction(1)), BpaRule("C", ("C",), Fraction(1))]
        for i, head in enumerate(heads):
            rules.append(BpaRule(head, ("C",) if i == len(heads) - 1 else ("P",), p))
            rules += [BpaRule(head, (other, "P"), p) for other in heads]
        self._solve_counting_folds(monkeypatch, Bpa.make(rules), "G0", Atom("C"))

    def test_cyclic_query_is_zero_at_any_budget(self):
        session = Evaluator(_cyclic_chain(), Budget(1, 1))
        assert session.prob_until("X", Not(Atom("Z")), Atom("Z")) == ProbInterval(Fraction(0), Fraction(0))
        assert session.eval_state("X", parse_formula(CYCLIC_QUERY)) is FALSE
        assert session.eval_state("X", parse_formula("(P= 0 (U (not (ap Z)) (ap Z)))")) is TRUE
        assert session.support[(Not(Atom("Z")), Atom("Z"))] == {"X": (False, True), "Y": (False, True)}

    def test_empty_stack_decides_when_every_symbol_pops(self):
        # Every symbol of the cyclic model can be popped under true, so
        # reaching the empty stack is positive, and f2 = false never is.
        session = Evaluator(_cyclic_chain(), Budget(1, 1))
        never = Not(TRUE_FORMULA)
        assert session.eval_state("X Y", parse_formula(REACH_EMPTY_QUERY)) is TRUE
        assert session.eval_state("X Y", Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, never))) is FALSE

    def test_check_configurations_never_solve_guessing_symbols(self, p1, p1_artifact):
        from ppda import reduction

        # An unbudgeted walk is exact, so certification reads no summaries;
        # a budgeted session solves them only for the popping phase.
        sweep = reduction.sweep_session(p1_artifact, 2)
        session = Evaluator(p1_artifact.chain, Budget(50, 20))
        for word in ((1,), (2,), (1, 2), (2, 1, 1)):
            reduction.certify(p1, word, artifact=p1_artifact, session=sweep)
            state = reduction.check_config(p1_artifact, word).encode()
            for phi in (p1_artifact.phi1, p1_artifact.phi2):
                assert session.eval_state(state, Prob(Comparison.GT, Fraction(0), phi)) is TRUE
        assert sweep.support == {} and sweep.summaries == {}
        solved = set().union(*session.support.values())
        assert solved and not any(x.startswith("G(") or x == "Z" for x in solved)
        # The budgeted session solves the numeric summaries of the same
        # symbols, and the checking phase is acyclic, so all of them.
        assert {pair: table.keys() for pair, table in session.summaries.items()} == {
            pair: table.keys() for pair, table in session.support.items()}
        assert all(None not in table.values() for table in session.summaries.values())


_LAYERS = ("L0", "L1", "L2", "L3")


@st.composite
def _layered_bpas(draw) -> Bpa:
    """pBPAs whose rule bodies hold only later layers or Y, where the rule
    Y -> Y Y makes the one cycle: a closure is acyclic unless it reaches Y."""
    rules = [BpaRule("Y", ("Y", "Y"), H), BpaRule("Y", (), H)]
    for i, head in enumerate(_LAYERS):
        bodies = st.lists(st.sampled_from(_LAYERS[i + 1:] + ("Y",)), max_size=2).map(tuple)
        chosen = draw(st.lists(bodies, min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
        rules += [BpaRule(head, body, Fraction(w, sum(weights))) for body, w in zip(chosen, weights)]
    return Bpa.make(rules)


# Until operands over the layered symbols: a guard holds everywhere but at a
# few heads, the empty stack included, and a goal at a few heads only, or
# it is a guard too.
_layer_atoms = st.builds(Atom, st.sampled_from(_LAYERS + ("Y",)))
_guards = st.lists(_layer_atoms, unique=True, max_size=2).map(lambda heads: Not(disjunction(heads)))
_goals = st.one_of(st.lists(_layer_atoms, unique=True, min_size=1, max_size=2).map(disjunction), _guards)


class TestNumericSummaries:
    """In a budgeted session an until over propositional operands gets its exact
    value from per-symbol numeric summaries where the symbols it reads are
    acyclic; Kleene iteration, the unbudgeted walk and the full-region solve
    are the independent references."""

    @settings(max_examples=300)
    @given(_layered_bpas(), st.lists(st.sampled_from(_LAYERS + ("Y",)), min_size=1, max_size=3), _guards, _goals)
    def test_match_the_references(self, model, stack, f1, f2):
        gen = induced_chain(model, Configuration(tuple(stack)))
        session = Evaluator(gen, Budget(1, 1))
        interval = session.prob_until(gen.initial, f1, f2)
        h1, h2 = session.head_sets[f1], session.head_sets[f2]
        zero = {x for x, summary in _kleene_support(model, h1, h2).items() if summary == (False, False)}
        cyclic = _above_cycles(model, h1, h2, zero)
        reference = _kleene_summaries(model, h1, h2)
        summaries = session.summaries.get((f1, f2), {})
        assert set(stack) <= summaries.keys()
        for x, summary in summaries.items():
            assert (summary is None) is (x in cyclic)
            assert summary is None or summary == reference[x]
        if not _folds(session, gen.initial, f1, f2):
            return
        assert interval.is_point
        for budget in _REFERENCE_BUDGETS:
            bounds = _full_region_until(gen, budget, f1, f2)
            assert bounds.lo <= interval.lo <= bounds.hi
        if not set(stack) & _above_cycles(model, h1, h2, set()):
            # Every walk from the stack is finite, so the unbudgeted one is exact.
            assert Evaluator(gen, None).prob_until(gen.initial, f1, f2) == interval

    @settings(max_examples=100)
    @given(_layered_bpas(), st.lists(st.lists(st.sampled_from(_LAYERS + ("Y",)), max_size=4), min_size=1, max_size=6),
           _guards, _goals)
    def test_memoized_suffixes_match_fresh_folds(self, model, stacks, f1, f2):
        # Each query reads the suffixes earlier ones memoized; a fresh session
        # folds the whole stack.
        gen = induced_chain(model, Configuration(()))
        session = Evaluator(gen, Budget(1, 1))
        for stack in stacks:
            state = Configuration(tuple(stack)).encode()
            got = session.prob_until(state, f1, f2)
            fresh = Evaluator(gen, Budget(1, 1))
            expected = fresh.prob_until(state, f1, f2)
            if _folds(fresh, state, f1, f2):
                assert got == expected
        for state, value in session.until_cache[(f1, f2)].items():
            if isinstance(value, Fraction):
                assert Evaluator(gen, Budget(1, 1)).prob_until(state, f1, f2) == ProbInterval(value, value)

    def test_budgeted_query_folds_once(self, monkeypatch):
        # An acyclic propositional until is one numeric fold of the encoded
        # stack: no Boolean fold of the stack and no configuration parse run.
        # The solve folds rule bodies over the pop, (False, True); a stack's
        # fold over the empty stack never has that tail.
        calls = []
        fold, parse = pctl._fold, Configuration.parse.__func__

        def stack_fold(word, table, tail):
            if tail != (False, True):
                calls.append("_fold")
            return fold(word, table, tail)

        monkeypatch.setattr(pctl, "_fold", stack_fold)
        monkeypatch.setattr(Configuration, "parse", classmethod(lambda *args: calls.append("parse") or parse(*args)))
        model = parse_model("X -> Y [1/2]\nX -> ~ [1/2]\nY -> ~ [1]\n")
        gen = induced_chain(model, Configuration(("X", "X")))
        session = Evaluator(gen, Budget(1, 1))
        assert session.prob_until("X X", TRUE_FORMULA, Atom("Y")) == ProbInterval(Fraction(3, 4), Fraction(3, 4))
        assert session.prob_until("X X X", TRUE_FORMULA, Atom("Y")) == ProbInterval(Fraction(7, 8), Fraction(7, 8))
        assert session.until_cache[(TRUE_FORMULA, Atom("Y"))] == {
            "X X X": Fraction(7, 8), "X X": Fraction(3, 4), "X": H}
        # A zero is memoized at the query state alone.
        assert session.prob_until("X X", TRUE_FORMULA, Atom("W")) == ProbInterval(Fraction(0), Fraction(0))
        assert session.until_cache[(TRUE_FORMULA, Atom("W"))] == {"X X": Fraction(0)}
        assert calls == []

    def test_sign_past_a_solved_prefix_and_a_cycle(self):
        # The first query solves P and the cyclic C, and not U or V. Later
        # stacks run past them into U or V, which the fold must solve for the
        # sign: C pops with probability 1, U reaches G, V never does. W's own
        # a is positive, so a stack it tops is positive whatever lies below.
        model = parse_model("P -> ~ [1]\nC -> C C [1/2]\nC -> ~ [1/2]\nU -> G [1/2]\nU -> D [1/2]\n"
                            "D -> D [1]\nG -> ~ [1]\nV -> D [1]\nW -> G [1/2]\nW -> ~ [1/2]\n")
        gen = induced_chain(model, Configuration(("P", "C")))
        reach = parse_formula("(P> 0 (U true (ap G)))")
        pair = (TRUE_FORMULA, Atom("G"))
        zero = ProbInterval(Fraction(0), Fraction(0))
        session = Evaluator(gen, Budget(20, 10))
        assert session.prob_until("P C", *pair) == zero
        assert session.summaries[pair] == {"P": (Fraction(0), Fraction(1)), "C": None}
        assert session.eval_state("P C U", reach) is TRUE
        assert session.eval_state("P C V", reach) is FALSE
        assert session.eval_state("W C V", reach) is TRUE
        # A sign is not memoized; only folded points are.
        assert session.until_cache[pair] == {"P C": Fraction(0)}
        assert session.prob_until("P C V", *pair) == zero
        walked = session.prob_until("P C U", *pair)
        assert walked.lo < H < walked.hi

    def test_two_symbol_body_reads_its_top_first(self):
        # Y and W each lose mass at B, where f1 fails, so the order of X's
        # body matters: a_X = a_Y + t_Y·a_W = 1/3 + 1/3·1/2, not a_W + t_W·a_Y.
        third = Fraction(1, 3)
        model = Bpa.make([BpaRule("X", ("Y", "W"), Fraction(1)),
                          BpaRule("Y", (), third), BpaRule("Y", ("G",), third), BpaRule("Y", ("B",), third),
                          BpaRule("W", (), H), BpaRule("W", ("G",), H),
                          BpaRule("G", ("G",), Fraction(1)), BpaRule("B", ("B",), Fraction(1))])
        gen = induced_chain(model, Configuration(("X", "Y")))
        f1, f2 = Not(Atom("B")), Atom("G")
        session = Evaluator(gen, Budget(1, 1))
        # P(X Y) = a_X + t_X·P(Y) = 1/2 + 1/6·1/3.
        assert session.prob_until("X Y", f1, f2) == ProbInterval(Fraction(5, 9), Fraction(5, 9))
        assert session.summaries[(f1, f2)] == {"X": (H, Fraction(1, 6)), "Y": (third, third), "W": (H, H),
                                               "G": (Fraction(1), Fraction(0)), "B": (Fraction(0), Fraction(0))}
        assert session.until_cache[(f1, f2)] == {"X Y": Fraction(5, 9), "Y": third}
        assert Evaluator(gen, None).prob_until("X Y", f1, f2) == ProbInterval(Fraction(5, 9), Fraction(5, 9))

    def test_check_configurations_fold_to_the_certified_values(self, p1, p1_artifact):
        session = Evaluator(p1_artifact.chain, Budget(50, 20))
        for word in ((1,), (2,), (1, 2), (2, 1, 1)):
            report = reduction.certify(p1, word, artifact=p1_artifact)
            state = reduction.check_config(p1_artifact, word).encode()
            for phi, p in ((p1_artifact.phi1, report.p_phi1_at_N), (p1_artifact.phi2, report.p_phi2_at_N)):
                assert session.prob_until(state, phi.left, phi.right) == ProbInterval(p, p)

    def test_unbudgeted_session_solves_both_tables_and_walks(self, p1, p1_artifact, monkeypatch):
        # Every session solves the numeric summaries with the Boolean ones,
        # and a P>0 query memoizes the points it folds, but only a budgeted
        # session folds in prob_until: an unbudgeted walk is exact.
        walks = []
        walk = Evaluator._walk

        def counting_walk(self, state, f1, f2, table):
            walks.append(state)
            return walk(self, state, f1, f2, table)

        monkeypatch.setattr(Evaluator, "_walk", counting_walk)
        session = reduction.sweep_session(p1_artifact, 2)
        state = reduction.check_config(p1_artifact, (1, 2)).encode()
        phi1 = p1_artifact.phi1
        pair = (phi1.left, phi1.right)
        assert session.eval_state(state, Prob(Comparison.GT, Fraction(0), phi1)) is TRUE
        assert session.support[pair] and session.summaries[pair].keys() == session.support[pair].keys()
        point = session.until_cache[pair][state]
        assert type(point) is Fraction
        assert session.prob_until(state, *pair) == ProbInterval(point, point)
        assert walks == []
        # The check configuration of (1,) is no suffix of that of (1, 2).
        unfolded = reduction.check_config(p1_artifact, (1,)).encode()
        assert unfolded not in session.until_cache[pair]
        assert session.prob_until(unfolded, *pair).is_point
        assert walks == [unfolded]

    def test_doubling_chain_stops_at_the_bit_limit(self):
        # L_i -> L_{i+1} L_{i+1} doubles the bits of the summaries at every
        # link: the lowest links are solved, the rest are left to the walk.
        links = 40
        rules = [BpaRule("B", ("B",), Fraction(1)),
                 BpaRule(f"L{links - 1}", (), H), BpaRule(f"L{links - 1}", ("B",), H)]
        for i in range(links - 1):
            rules += [BpaRule(f"L{i}", (f"L{i + 1}",), H), BpaRule(f"L{i}", (f"L{i + 1}", f"L{i + 1}"), H)]
        gen = induced_chain(Bpa.make(rules), Configuration(("L0",)))
        budget = Budget(50, 10)
        session = Evaluator(gen, budget)
        assert session.prob_until("L0", TRUE_FORMULA, Atom("B")) == _full_region_until(
            gen, budget, TRUE_FORMULA, Atom("B"))
        summaries = session.summaries[(TRUE_FORMULA, Atom("B"))]
        solved = [i for i in range(links) if summaries[f"L{i}"] is not None]
        assert 10 < len(solved) < 20 and solved == list(range(links - len(solved), links))
        a, t = summaries[f"L{solved[0]}"]
        assert max(a.denominator, t.denominator).bit_length() <= pctl.SUMMARY_BITS


class TestDemandDrivenUntil:
    """Until-queries walk only what they reach, and the budget cuts that walk."""

    def test_absorbing_state_is_no_expanded_variable(self):
        # X loops on itself, so its summary is None and the query walks. A
        # loops forever where f2 fails: it is a false sink, not a variable,
        # so the second variable the budget allows is B, which reaches G.
        # P = 1/4·P + 1/4, so 1/3.
        model = parse_model("X -> A [1/2]\nX -> X [1/4]\nX -> B [1/4]\nA -> A [1]\nB -> G [1]\nG -> ~ [1]\n")
        gen = induced_chain(model, Configuration(("X",)))
        assert [d for d, _ in gen.successors("X")] == ["A", "B", "X"]
        third = Fraction(1, 3)
        session = Evaluator(gen, Budget(2, 10))
        assert session.prob_until("X", TRUE_FORMULA, Atom("G")) == ProbInterval(third, third)
        assert session.summaries[(TRUE_FORMULA, Atom("G"))]["X"] is None

    @settings(max_examples=300)
    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3),
           _propositional(), _propositional(), st.integers(1, 40), st.integers(1, 8))
    def test_matches_full_region_solve(self, model, stack, f1, f2, max_states, max_depth):
        # Where the until's support is zero, the query returns the point 0
        # without walking, and the full-region solve cannot bound it away from
        # 0. Where the summaries the stack reads are acyclic, it returns the
        # exact point, which both references contain. Elsewhere it is the
        # walk-cut interval, and as both contain the true value, it meets the
        # full-region one. The walk is rare here, so the always-walked form of
        # the same until is checked on every example.
        gen = induced_chain(model, Configuration(tuple(stack)))
        budget = Budget(max_states, max_depth)
        session = Evaluator(gen, budget)
        interval = session.prob_until(gen.initial, f1, f2)
        reference = _full_region_until(gen, budget, f1, f2)
        walked = _walk_cut_until(gen, budget, f1, f2)
        if _support_verdict(gen, f1, f2) is not TRUE:
            assert interval == ProbInterval(Fraction(0), Fraction(0)) and reference.lo == 0
        elif _folds(session, gen.initial, f1, f2):
            assert interval.is_point
            for bounds in (reference, walked):
                assert bounds.lo <= interval.lo <= bounds.hi
        else:
            assert interval == walked
            assert max(interval.lo, reference.lo) <= min(interval.hi, reference.hi)
        # An operand with a probability operator makes the until walked, with
        # the zero test over f1's and f2's head sets: the interval is the
        # reference walk's with the same zero rule, which lies inside the
        # walk without it.
        zero_walked = _walk_cut_until(gen, budget, f1, f2, (session.head_sets[f1], session.head_sets[f2]))
        assert walked.lo <= zero_walked.lo <= zero_walked.hi <= walked.hi
        forced = Evaluator(gen, budget).prob_until(gen.initial, And(_EVERYWHERE, f1), f2)
        assert forced == zero_walked
        assert max(forced.lo, reference.lo) <= min(forced.hi, reference.hi)
        # A right operand with a probability operator passes the heads
        # outside its guard without evaluating it.
        assert Evaluator(gen, budget).prob_until(gen.initial, f1, And(_EVERYWHERE, f2)) == zero_walked

    @settings(max_examples=300)
    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3),
           _propositional(), _propositional(), st.integers(1, 40), st.integers(1, 8),
           st.integers(0, 40), st.integers(0, 8))
    def test_intervals_nest_as_the_budget_grows(self, model, stack, f1, f2, max_states, max_depth,
                                                more_states, more_depth):
        # Most of these untils fold from the summaries, so each is also asked
        # in the form that is always walked.
        gen = induced_chain(model, Configuration(tuple(stack)))
        for left in (f1, And(_EVERYWHERE, f1)):
            small = Evaluator(gen, Budget(max_states, max_depth)).prob_until(gen.initial, left, f2)
            large = Evaluator(gen, Budget(max_states + more_states, max_depth + more_depth)).prob_until(
                gen.initial, left, f2)
            assert small.lo <= large.lo <= large.hi <= small.hi

    def test_budget_cuts_variables_by_count_and_depth(self):
        # s_i moves on around a ring of 12 or to its goal g_i, each with 1/2.
        # The ring is a cycle, so the until is walked, not folded, and its
        # value is 1. A walk that expands k variables gives [1 - 2^-k, 1]; the
        # goals are sinks and count towards neither limit.
        n = 12
        gen = gen_from({f"s{i}": [(f"s{(i + 1) % n}", H), (f"g{i}", H)] for i in range(n)}, initial="s0")
        goal = disjunction([Atom(f"g{i}") for i in range(n)])
        for budget, k in ((Budget(5, 100), 5), (Budget(100, 5), 5), (Budget(3, 4), 3), (Budget(4, 3), 3)):
            assert Evaluator(gen, budget).prob_until("s0", TRUE_FORMULA, goal) == ProbInterval(1 - H**k, Fraction(1))
        assert Evaluator(gen, None).prob_until("s0", TRUE_FORMULA, goal) == ProbInterval(Fraction(1), Fraction(1))


class TestSessionUntilTables:
    """One session answers untils for several (f1, f2) pairs, each from its own table."""

    def test_open_states_are_not_memoized_as_points(self):
        # f1 is not a head set, so the untils are walked. At depth 1 the query
        # at b cuts c, so b is [1/2, 1] and c is an open sink of it. A later
        # query at c must not read c's lower bound back as its value: c's own
        # region also cuts, and its true value is 1.
        one = Fraction(1)
        table = {"b": [("c", H), ("win", H)], "c": [("d", one)], "d": [("win", one)],
                 "win": [("win", one)]}
        gen = gen_from(table, initial="b")
        session = Evaluator(gen, Budget(10, 1))
        always = Prob(Comparison.GT, Fraction(0), Next(TRUE_FORMULA))
        assert session.prob_until("b", always, Atom("win")) == ProbInterval(H, one)
        assert session.prob_until("c", always, Atom("win")) == ProbInterval(Fraction(0), one)
        assert session.until_cache[(always, Atom("win"))] == {
            "b": ProbInterval(H, one), "c": ProbInterval(Fraction(0), one), "win": one}
        # The propositional query folds both points from the symbol summaries.
        assert session.prob_until("b", TRUE_FORMULA, Atom("win")) == ProbInterval(one, one)
        assert session.prob_until("c", TRUE_FORMULA, Atom("win")) == ProbInterval(one, one)
        assert session.until_cache[(TRUE_FORMULA, Atom("win"))] == {"b": one, "c": one}

    def test_states_a_walk_cut_are_requeried_afresh(self):
        # X loops on itself, so the query walks; at one variable it expands X
        # and cuts A and B to open sinks. Neither may be read back as a point
        # of its lower bound: B's value is 1.
        model = parse_model("X -> A [1/2]\nX -> X [1/4]\nX -> B [1/4]\nA -> A [1]\nB -> G [1]\nG -> ~ [1]\n")
        gen = induced_chain(model, Configuration(("X",)))
        budget = Budget(1, 10)
        session = Evaluator(gen, budget)
        assert session.prob_until("X", TRUE_FORMULA, Atom("G")) == ProbInterval(Fraction(0), Fraction(1))
        assert session.until_cache[(TRUE_FORMULA, Atom("G"))] == {"X": ProbInterval(Fraction(0), Fraction(1))}
        for state, value in (("A", Fraction(0)), ("B", Fraction(1)), ("X", None)):
            got = session.prob_until(state, TRUE_FORMULA, Atom("G"))
            assert got == Evaluator(gen, budget).prob_until(state, TRUE_FORMULA, Atom("G"))
            assert value is None or got == ProbInterval(value, value)

    @settings(max_examples=200)
    @given(small_bpas(), _propositional(), _propositional(), _propositional(), _propositional(),
           st.lists(st.tuples(st.lists(st.sampled_from(SYMBOLS), max_size=4), st.booleans()),
                    min_size=2, max_size=8),
           st.integers(1, 40), st.integers(1, 8))
    def test_interleaved_pairs_match_fresh_sessions(self, model, f1a, f2a, f1b, f2b, queries,
                                                    max_states, max_depth):
        assume((f1a, f2a) != (f1b, f2b))
        gen = induced_chain(model, Configuration(tuple(queries[0][0])))
        budget = Budget(max_states, max_depth)
        session = Evaluator(gen, budget)
        # Each until is also asked in its always-walked forms, so the session
        # reuses points that earlier walks memoized.
        for stack, second in queries:
            f1, f2 = (f1b, f2b) if second else (f1a, f2a)
            state = Configuration(tuple(stack)).encode()
            for left, right in ((f1, f2), (And(_EVERYWHERE, f1), f2), (f1, And(_EVERYWHERE, f2))):
                got = session.prob_until(state, left, right)
                fresh = Evaluator(gen, budget).prob_until(state, left, right)
                # Exact points memoized by earlier queries can only tighten.
                assert fresh.lo <= got.lo <= got.hi <= fresh.hi
                if fresh.is_point:
                    assert got == fresh


# A cyclic model: X and Y call each other, so the until
# variables form cycles. CYCLIC_QUERY's true value is 0 at X, because Z is
# unreachable; reaching the empty stack has probability exactly 1.
CYCLIC_MODEL = """\
X -> X Y [1/2]
X -> ~ [1/2]
Y -> X [1/2]
Y -> Y Y [1/4]
Y -> ~ [1/4]
Z -> ~ [1]
"""
CYCLIC_QUERY = "(P> 0 (U (not (ap Z)) (ap Z)))"
REACH_EMPTY_QUERY = "(P> 0 (U true (and (not (ap X)) (and (not (ap Y)) (not (ap Z))))))"
REACH_EMPTY = parse_formula(REACH_EMPTY_QUERY).path


def _cyclic_chain() -> ChainGenerator:
    model = parse_model(CYCLIC_MODEL)
    return induced_chain(model, Configuration(("X",)))


class TestCyclicSolve:
    def test_gamblers_ruin_closed_form(self):
        # Up with p = 1/3, down with 2/3: the win probability from i is
        # (r^i - 1) / (r^N - 1) with r = (2/3) / (1/3) = 2.
        n = 30
        table = {str(i): [(str(i + 1), Fraction(1, 3)), (str(i - 1), Fraction(2, 3))]
                 for i in range(1, n)}
        table["0"] = [("0", Fraction(1))]
        table[str(n)] = [(str(n), Fraction(1))]
        gen = gen_from(table, initial="1")
        for i in range(n + 1):
            expected = Fraction(2**i - 1, 2**n - 1)
            interval = Evaluator(gen, Budget(100, 100)).prob_until(
                str(i), TRUE_FORMULA, Atom(str(n)))
            assert interval == ProbInterval(expected, expected)

    def test_random_chain_satisfies_its_equations(self):
        # Each state moves among the others and leaks to "win" or "lose",
        # so the system has one solution; elimination here needs fill-in.
        rng = random.Random(7)
        states = [f"s{i:02d}" for i in range(40)]
        table = {"win": [("win", Fraction(1))], "lose": [("lose", Fraction(1))]}
        for s in states:
            targets = rng.sample(states, 3) + ["win", "lose"]
            weights = [rng.randint(2, 9) for _ in range(3)] + [rng.randint(0, 1), 1]
            table[s] = [(t, Fraction(w, sum(weights))) for t, w in zip(targets, weights)]
        gen = gen_from(table, initial="s00")
        value = {"win": Fraction(1), "lose": Fraction(0)}
        for s in states:
            interval = Evaluator(gen, Budget(100, 100)).prob_until(s, TRUE_FORMULA, Atom("win"))
            assert interval.is_point
            value[s] = interval.lo
        for s in states:
            assert value[s] == sum(p * value[t] for t, p in table[s])

    def test_cyclic_model_intervals_nest(self):
        # The value is 1 and the system is critical, so the lower bounds
        # rise with the budget (0.980, 0.990, 0.995) and never reach it.
        gen = _cyclic_chain()
        until = REACH_EMPTY
        intervals = [Evaluator(gen, Budget(n, 1000)).prob_until("X", until.left, until.right)
                     for n in (100, 200, 400)]
        for wider, tighter in zip(intervals, intervals[1:]):
            assert wider.lo < tighter.lo <= tighter.hi <= wider.hi
        assert all(interval.hi == 1 for interval in intervals)

    def test_eval_prints_the_solved_interval(self, tmp_path, capsys):
        model = tmp_path / "cyclic.bpa"
        model.write_text(CYCLIC_MODEL)
        query = tmp_path / "query.pctl"
        query.write_text(REACH_EMPTY_QUERY)
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(query),
                     "--max-states", "200", "--max-depth", "1000"])
        until = REACH_EMPTY
        expected = Evaluator(_cyclic_chain(), Budget(200, 1000)).prob_until("X", until.left, until.right)
        assert code == 0 and expected.lo > 0
        assert capsys.readouterr().out == f"verdict=True\ninterval={expected}\n"

    def test_eval_decides_the_zero_query(self, tmp_path, capsys):
        model = tmp_path / "cyclic.bpa"
        model.write_text(CYCLIC_MODEL)
        query = tmp_path / "query.pctl"
        query.write_text(CYCLIC_QUERY)
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(query),
                     "--max-states", "200", "--max-depth", "1000"])
        assert code == 1
        assert capsys.readouterr().out == "verdict=False\ninterval=[0, 0]\n"
