import random
from fractions import Fraction

import pytest

from conftest import gen_from
from ppda.chain import (
    Budget,
    FinitePath,
    InvalidPathError,
    explore,
    path_probability,
)

H = Fraction(1, 2)


class TestPathProbability:
    def test_single_state_is_one(self):
        gen = gen_from({"a": [("a", Fraction(1))]})
        assert path_probability(gen, FinitePath(("a",))) == 1

    def test_product_rule(self):
        gen = gen_from(
            {
                "a": [("b", H), ("c", H)],
                "b": [("d", Fraction(1, 3)), ("b", Fraction(2, 3))],
            }
        )
        assert path_probability(gen, FinitePath(("a", "b", "d"))) == Fraction(1, 6)

    def test_invalid_adjacent_pair(self):
        gen = gen_from({"a": [("b", Fraction(1))], "b": [("b", Fraction(1))]})
        with pytest.raises(InvalidPathError):
            path_probability(gen, FinitePath(("a", "a")))

    def test_multiplicative_under_concatenation(self):
        gen = gen_from(
            {
                "a": [("b", H), ("c", H)],
                "b": [("c", Fraction(1, 4)), ("a", Fraction(3, 4))],
                "c": [("c", Fraction(1))],
            }
        )
        first = FinitePath(("a", "b"))
        second = FinitePath(("b", "c", "c"))
        joined = FinitePath(("a", "b", "c", "c"))
        assert path_probability(gen, joined) == path_probability(gen, first) * path_probability(
            gen, second
        )

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            FinitePath(())


class TestExplore:
    def test_self_loop_settles(self):
        gen = gen_from({"s": [("s", Fraction(1))]}, initial="s")
        result = explore(gen, "s", Budget(max_states=10, max_depth=5))
        assert result.settled == {"s"}
        assert result.frontier == frozenset()

    def test_depth_cut_reports_frontier(self):
        gen = gen_from(
            {"a": [("b", Fraction(1))], "b": [("c", Fraction(1))], "c": [("c", Fraction(1))]}
        )
        result = explore(gen, "a", Budget(max_states=10, max_depth=1))
        assert result.settled == {"a"}
        assert result.frontier == {"b"}

    def test_state_budget_cut(self):
        gen = gen_from(
            {
                "a": [("b", H), ("c", H)],
                "b": [("d", Fraction(1))],
                "c": [("d", Fraction(1))],
                "d": [("d", Fraction(1))],
            }
        )
        result = explore(gen, "a", Budget(max_states=2, max_depth=10))
        assert len(result.settled) == 2
        assert result.settled | result.frontier >= {"a", "b", "c"}

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Budget(0, 1)
        with pytest.raises(ValueError):
            Budget(1, 0)


def _random_graph(seed: int, size: int = 24) -> dict:
    rng = random.Random(seed)
    table = {}
    for i in range(size):
        out_degree = rng.randint(1, 3)
        targets = sorted(rng.sample(range(size), out_degree))
        prob = Fraction(1, out_degree)
        table[str(i)] = [(str(t), prob) for t in targets]
    return table


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "small,big",
    [
        (Budget(4, 2), Budget(8, 4)),
        (Budget(6, 3), Budget(6, 9)),
        (Budget(3, 5), Budget(20, 5)),
        (Budget(2, 2), Budget(30, 30)),
    ],
)
def test_explore_monotone_in_budget(seed, small, big):
    gen = gen_from(_random_graph(seed), initial="0")
    first = explore(gen, "0", small)
    second = explore(gen, "0", big)
    assert first.settled <= second.settled


def test_explore_deterministic():
    gen1 = gen_from(_random_graph(7), initial="0")
    gen2 = gen_from(_random_graph(7), initial="0")
    budget = Budget(10, 6)
    assert explore(gen1, "0", budget) == explore(gen2, "0", budget)
