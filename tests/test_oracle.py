import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from ppda import pctl, reduction
from ppda.oracle import (
    UnresolvedPathError,
    brute_force_pcp,
    enumerate_until_probability,
    index_words,
    search_via_reduction,
)
from ppda.reduction import PcpInstance

F = Fraction


def _predicates(gen, left, right):
    return (lambda s: left(gen.labels(s))), (lambda s: right(gen.labels(s)))


class TestBruteForce:
    def test_identity_pair(self):
        assert brute_force_pcp(PcpInstance((("A", "A"),)), 1) == (1,)

    def test_worked_instance(self, p1):
        assert brute_force_pcp(p1, 2) == (1, 2)

    def test_hopeless_instance(self, unsolvable):
        assert brute_force_pcp(unsolvable, 4) is None

    def test_order_is_shortest_then_lexicographic(self):
        words = list(index_words(2, 2))
        assert words == [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_max_k_validation(self, p1):
        with pytest.raises(ValueError):
            brute_force_pcp(p1, 0)


class TestEnumeration:
    def test_goal_at_start(self, p1_artifact):
        gen = p1_artifact.chain
        state = "X(A,A) Z'"
        f1, f2 = _predicates(gen, conftest.phi1_left, conftest.phi1_right)
        assert enumerate_until_probability(gen, state, f1, f2, 10) == 1

    def test_branch_value(self, p1, p1_artifact):
        gen = p1_artifact.chain
        config = reduction.check_config(p1_artifact, (1, 2))
        f_state = reduction.Configuration(("F",) + config.stack[1:]).encode()
        f1, f2 = _predicates(gen, conftest.phi1_left, conftest.phi1_right)
        assert enumerate_until_probability(gen, f_state, f1, f2, 40) == F(3, 16)

    def test_nonterminating_chain_refused(self, p1_artifact):
        gen = p1_artifact.chain
        f1 = lambda s: True
        f2 = lambda s: False
        with pytest.raises(UnresolvedPathError):
            enumerate_until_probability(gen, "Z", f1, f2, 25)

    def test_agrees_with_bounded_evaluator(self, p1_artifact):
        rng = random.Random(17)
        gen = p1_artifact.chain
        symbols = [f"P({x},{y})" for x in "AB_" for y in "AB_"]
        for _ in range(25):
            head = rng.choice(["N", "F", "S"])
            stack = [head] + [rng.choice(symbols) for _ in range(rng.randint(1, 6))] + ["Z'"]
            state = " ".join(stack)
            for left, right, phi in (
                (conftest.phi1_left, conftest.phi1_right, p1_artifact.phi1),
                (conftest.phi2_left, conftest.phi2_right, p1_artifact.phi2),
            ):
                f1, f2 = _predicates(gen, left, right)
                expected = enumerate_until_probability(gen, state, f1, f2, 4 * len(stack) + 8)
                interval = pctl.Evaluator(gen, None).prob_until(state, phi.left, phi.right)
                assert interval.is_point and interval.lo == expected


class TestSearchViaReduction:
    def test_worked_instance(self, p1):
        assert search_via_reduction(p1, 2) == (1, 2)

    def test_hopeless_instance(self, unsolvable):
        assert search_via_reduction(unsolvable, 4) is None

    def test_identity_pair(self):
        assert search_via_reduction(PcpInstance((("A", "A"),)), 3) == (1,)

    def test_identical_witness_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 3)
            pairs = tuple(
                (
                    "".join(rng.choice("AB") for _ in range(rng.randint(0, 2))),
                    "".join(rng.choice("AB") for _ in range(rng.randint(0, 2))),
                )
                for _ in range(n)
            )
            if not any(u or v for u, v in pairs):
                continue
            instance = PcpInstance(pairs)
            assert brute_force_pcp(instance, 3) == search_via_reduction(instance, 3)


class TestSharedSession:
    """Search certifies every word of an instance in one session."""

    @settings(max_examples=60)
    @given(conftest.pcp_instances(), st.sampled_from(["default", "cf-simple", "n-chain 2"]))
    def test_session_reports_equal_cold_certify(self, instance, variant_text):
        variant = reduction.Variant.parse(variant_text)
        artifact = reduction.compile_instance(instance, variant)
        session = reduction.sweep_session(artifact, 3)
        for word in index_words(instance.n, 3):
            shared = reduction.certify(instance, word, artifact=artifact, session=session)
            assert shared == reduction.certify(instance, word, artifact=artifact)
            assert shared.formula_holds == shared.is_solution

    @settings(max_examples=60)
    @given(conftest.pcp_instances())
    def test_search_equals_brute_force(self, instance):
        assert search_via_reduction(instance, 3) == brute_force_pcp(instance, 3)

