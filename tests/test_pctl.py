import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ppda.chain import Budget, ChainGenerator
from ppda.cli import main
from ppda.pctl import (
    MAX_NESTING,
    And,
    Atom,
    BoundPlaceholder,
    BoundRangeError,
    Comparison,
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
    compare,
    eval_state,
    parse_formula,
    parse_path_formula,
    prob_next,
    prob_until,
    serialize_formula,
)
from ppda.pushdown import Configuration, SimpleAssignment, induced_chain, parse_model

H = Fraction(1, 2)
BUDGET = Budget(200, 50)


def gen_from(table: dict, labels: dict, initial: str = "a") -> ChainGenerator:
    return ChainGenerator(initial, lambda s: table[s], lambda s: labels.get(s, frozenset()))


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

    def test_path_formula_parses(self):
        assert parse_path_formula("(U true (ap C))") == Until(TRUE_FORMULA, Atom("C"))

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
    assert parse_formula(serialize_formula(formula)) == formula


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
        with pytest.raises(ValueError):
            ProbInterval(Fraction(2, 3), Fraction(1, 3))


class TestEvalState:
    def test_atom_label_lookup(self):
        gen = gen_from({"a": [("a", Fraction(1))]}, {"a": frozenset({"C"})})
        assert eval_state(gen, "a", Atom("C"), BUDGET) is TRUE
        assert eval_state(gen, "a", Atom("F"), BUDGET) is FALSE

    def test_double_negation(self):
        gen = gen_from({"a": [("a", Fraction(1))]}, {"a": frozenset({"C"})})
        for f in (Atom("C"), Atom("F"), And(Atom("C"), Not(Atom("F")))):
            assert eval_state(gen, "a", Not(Not(f)), BUDGET) is eval_state(gen, "a", f, BUDGET)

    def test_and_commutative(self):
        table = {"a": [("b", H), ("c", H)], "b": [("b", Fraction(1))], "c": [("c", Fraction(1))]}
        gen = gen_from(table, {"b": frozenset({"goal"})})
        left = Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, Atom("goal")))
        right = Atom("goal")
        assert eval_state(gen, "a", And(left, right), BUDGET) is eval_state(
            gen, "a", And(right, left), BUDGET
        )

    def test_placeholder_rejected(self):
        gen = gen_from({"a": [("a", Fraction(1))]}, {})
        formula = Prob(Comparison.EQ, BoundPlaceholder.T_HALF, Next(TRUE_FORMULA))
        with pytest.raises(PlaceholderError):
            eval_state(gen, "a", formula, BUDGET)


class TestProbNext:
    def test_all_successors_satisfy(self):
        gen = gen_from(
            {"a": [("b", H), ("c", H)]},
            {"b": frozenset({"p"}), "c": frozenset({"p"})},
        )
        assert prob_next(gen, "a", Atom("p"), BUDGET) == ProbInterval(Fraction(1), Fraction(1))

    def test_equiprobable_split(self):
        gen = gen_from({"a": [("b", H), ("c", H)]}, {"b": frozenset({"p"})})
        assert prob_next(gen, "a", Atom("p"), BUDGET) == ProbInterval(H, H)

    def test_unknown_successor_widens(self):
        # c's verdict needs more depth than the budget allows, so the
        # interval keeps the unresolved mass; a larger budget collapses it.
        chain = {
            "a": [("b", H), ("c", H)],
            "b": [("b", Fraction(1))],
            "c": [("d", Fraction(1))],
            "d": [("e", Fraction(1))],
            "e": [("e", Fraction(1))],
        }
        gen = gen_from(chain, {"e": frozenset({"q"})})
        inner = Prob(Comparison.GT, Fraction(0), Until(TRUE_FORMULA, Atom("q")))
        interval = prob_next(gen, "a", inner, Budget(1, 1))
        assert interval.lo == Fraction(0) and interval.hi == H
        assert prob_next(gen, "a", inner, Budget(50, 50)) == ProbInterval(H, H)


class TestProbUntil:
    def test_goal_at_start(self):
        gen = gen_from({"a": [("a", Fraction(1))]}, {"a": frozenset({"p"})})
        assert prob_until(gen, "a", TRUE_FORMULA, Atom("p"), BUDGET) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_dead_self_loop_is_exact_zero(self):
        gen = gen_from({"a": [("a", Fraction(1))]}, {})
        assert prob_until(gen, "a", TRUE_FORMULA, Atom("p"), BUDGET) == ProbInterval(
            Fraction(0), Fraction(0)
        )

    def test_escape_from_self_loop_solves_exactly(self):
        table = {"x": [("x", H), ("y", H)], "y": [("y", Fraction(1))]}
        gen = gen_from(table, {"y": frozenset({"goal"})}, initial="x")
        assert prob_until(gen, "x", TRUE_FORMULA, Atom("goal"), BUDGET) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_two_state_cycle_with_escape(self):
        table = {
            "a": [("b", Fraction(1))],
            "b": [("a", H), ("goal", H)],
            "goal": [("goal", Fraction(1))],
        }
        gen = gen_from(table, {"goal": frozenset({"goal"})})
        assert prob_until(gen, "a", TRUE_FORMULA, Atom("goal"), BUDGET) == ProbInterval(
            Fraction(1), Fraction(1)
        )

    def test_guard_failure_blocks(self):
        table = {
            "a": [("bad", H), ("goal", H)],
            "bad": [("goal", Fraction(1))],
            "goal": [("goal", Fraction(1))],
        }
        gen = gen_from(table, {"goal": frozenset({"goal"})})
        interval = prob_until(gen, "a", Not(Atom("blocked")), Atom("goal"), BUDGET)
        assert interval == ProbInterval(Fraction(1), Fraction(1))
        gen2 = gen_from(table, {"goal": frozenset({"goal"}), "bad": frozenset({"blocked"})})
        interval = prob_until(gen2, "a", Not(Atom("blocked")), Atom("goal"), BUDGET)
        assert interval == ProbInterval(H, H)

    def test_frontier_keeps_interval_open(self):
        table = {str(i): [(str(i + 1), Fraction(1))] for i in range(10)}
        table["10"] = [("10", Fraction(1))]
        gen = gen_from(table, {"10": frozenset({"goal"})}, initial="0")
        interval = prob_until(gen, "0", TRUE_FORMULA, Atom("goal"), Budget(5, 5))
        assert interval.lo == Fraction(0) and interval.hi == Fraction(1)
        exact = prob_until(gen, "0", TRUE_FORMULA, Atom("goal"), Budget(50, 50))
        assert exact == ProbInterval(Fraction(1), Fraction(1))


class TestBudgetMonotonicity:
    def _intervals(self, gen, state, f1, f2, budgets):
        return [prob_until(gen, state, f1, f2, b) for b in budgets]

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
            eval_state(p1_artifact.chain, "Z", top, b)
            for b in (Budget(5, 2), Budget(60, 6), Budget(400, 10), Budget(4000, 16))
        ]
        seen_definite = None
        for verdict in verdicts:
            if verdict is not UNKNOWN:
                if seen_definite is None:
                    seen_definite = verdict
                assert verdict is seen_definite
        assert seen_definite is TRUE


# A cyclic model: X and Y call each other, so the until
# variables form cycles; the query's true value is 0 at X.
CYCLIC_MODEL = """\
X -> X Y [1/2]
X -> ~ [1/2]
Y -> X [1/2]
Y -> Y Y [1/4]
Y -> ~ [1/4]
Z -> ~ [1]
"""
CYCLIC_QUERY = "(P> 0 (U (not (ap Z)) (ap Z)))"


def _cyclic_chain() -> ChainGenerator:
    model = parse_model(CYCLIC_MODEL)
    return induced_chain(model, SimpleAssignment.identity(model.alphabet), Configuration(("X",)))


class TestCyclicSolve:
    def test_gamblers_ruin_closed_form(self):
        # Up with p = 1/3, down with 2/3: the win probability from i is
        # (r^i - 1) / (r^N - 1) with r = (2/3) / (1/3) = 2.
        n = 30
        table = {str(i): [(str(i + 1), Fraction(1, 3)), (str(i - 1), Fraction(2, 3))]
                 for i in range(1, n)}
        table["0"] = [("0", Fraction(1))]
        table[str(n)] = [(str(n), Fraction(1))]
        gen = gen_from(table, {str(n): frozenset({"win"})}, initial="1")
        for i in range(n + 1):
            expected = Fraction(2**i - 1, 2**n - 1)
            interval = prob_until(gen, str(i), TRUE_FORMULA, Atom("win"), Budget(100, 100))
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
        gen = gen_from(table, {"win": frozenset({"win"})}, initial="s00")
        value = {"win": Fraction(1), "lose": Fraction(0)}
        for s in states:
            interval = prob_until(gen, s, TRUE_FORMULA, Atom("win"), Budget(100, 100))
            assert interval.is_point
            value[s] = interval.lo
        for s in states:
            assert value[s] == sum(p * value[t] for t, p in table[s])

    def test_cyclic_model_intervals_nest(self):
        gen = _cyclic_chain()
        left, right = Not(Atom("Z")), Atom("Z")
        intervals = [prob_until(gen, "X", left, right, Budget(n, 1000))
                     for n in (100, 200, 400, 800)]
        for wider, tighter in zip(intervals, intervals[1:]):
            assert wider.lo <= tighter.lo <= tighter.hi <= wider.hi
        assert all(interval.lo == 0 for interval in intervals)
        assert intervals[-1].hi < intervals[0].hi

    def test_eval_prints_the_solved_interval(self, tmp_path, capsys):
        model = tmp_path / "cyclic.bpa"
        model.write_text(CYCLIC_MODEL)
        query = tmp_path / "query.pctl"
        query.write_text(CYCLIC_QUERY)
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(query),
                     "--max-states", "200", "--max-depth", "1000"])
        expected = prob_until(_cyclic_chain(), "X", Not(Atom("Z")), Atom("Z"), Budget(200, 1000))
        assert code == 1
        assert capsys.readouterr().out == f"verdict=Unknown\ninterval={expected}\n"
