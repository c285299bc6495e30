import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import conftest
from ppda import oracle, pctl, reduction
from ppda.chain import Budget, explore, path_probability
from ppda.pctl import Atom, Comparison, Next, Prob, serialize_formula
from ppda.pushdown import serialize_model
from ppda.reduction import (
    DegenerateInstanceError,
    DomainError,
    IndexRangeError,
    InstanceFormatError,
    MalformedWordError,
    PcpInstance,
    TRangeError,
    Variant,
    VariantKind,
    certify,
    check_solution,
    compile_instance,
    erase_pad,
    guess_config,
    guess_path,
    guess_path_probability,
    instantiate_top_formula,
    pad,
    parse_instance,
    rho,
    rho_bar,
    serialize_instance,
    theta,
    theta_bar,
)

F = Fraction
_words = st.text(alphabet="AB", min_size=1, max_size=20)


class TestPadding:
    def test_right_pad_single_pair(self):
        padded = pad(PcpInstance((("AB", "A"),)))
        assert padded.pairs == (("AB", "A_"),)
        assert padded.m == 2

    def test_no_padding_needed(self):
        padded = pad(PcpInstance((("A", "A"),)))
        assert padded.pairs == (("A", "A"),)
        assert padded.m == 1

    def test_two_pairs(self, p1):
        padded = pad(p1)
        assert padded.pairs == (("AB", "A_"), ("B_", "BB"))

    @pytest.mark.parametrize("word,expected", [("A_B", "AB"), ("__", ""), ("B_", "B")])
    def test_erase_pad(self, word, expected):
        assert erase_pad(word) == expected

    @given(st.lists(st.tuples(st.text(alphabet="AB", max_size=4), st.text(alphabet="AB", max_size=4)), min_size=1, max_size=3))
    def test_erasing_recovers_originals(self, pairs):
        try:
            instance = PcpInstance(tuple(pairs))
        except DegenerateInstanceError:
            return
        padded = pad(instance)
        for (u, v), (pu, pv) in zip(instance.pairs, padded.pairs):
            assert len(pu) == len(pv) == padded.m
            assert erase_pad(pu) == u and erase_pad(pv) == v

    def test_all_empty_rejected(self):
        with pytest.raises(DegenerateInstanceError):
            PcpInstance((("", ""),))

    def test_bad_letters_rejected(self):
        with pytest.raises(InstanceFormatError):
            PcpInstance((("AC", "A"),))


class TestCheckSolution:
    def test_worked_pair(self, p1):
        assert check_solution(p1, (1, 2))

    def test_mismatch(self):
        assert not check_solution(PcpInstance((("A", "B"),)), (1,))

    def test_identity(self):
        assert check_solution(PcpInstance((("A", "A"),)), (1,))

    def test_index_out_of_range(self, p1):
        with pytest.raises(IndexRangeError):
            check_solution(p1, (0,))
        with pytest.raises(IndexRangeError):
            check_solution(p1, (3,))
        with pytest.raises(IndexRangeError):
            check_solution(p1, ())


class TestInstanceText:
    def test_parse_with_comments_and_empty(self):
        instance = parse_instance("# demo\nA AB\nB -\n")
        assert instance.pairs == (("A", "AB"), ("B", ""))

    def test_round_trip(self, p1):
        assert parse_instance(serialize_instance(p1)) == p1

    @given(conftest.pcp_instances())
    def test_round_trip_property(self, instance):
        assert parse_instance(serialize_instance(instance)) == instance

    def test_arity_error(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("A B C\n")


class TestCompile:
    def test_checkpoint_rule_is_deterministic(self, p1_artifact):
        rules = p1_artifact.bpa.rules_by_head["C"]
        assert len(rules) == 1
        assert rules[0].body == ("N",) and rules[0].probability == 1

    def test_block_end_out_degree(self, p1_artifact):
        # each block ends with a uniform choice among C and the n restarts
        for i in (1, 2):
            rules = p1_artifact.bpa.rules_by_head[f"G({i},3)"]
            assert len(rules) == p1_artifact.instance.n + 1
            assert all(r.probability == F(1, 3) for r in rules)

    def test_initial_split_uniform(self, p1_artifact):
        rules = p1_artifact.bpa.rules_by_head["Z"]
        assert [r.body for r in rules] == [("G(1,1)", "Z'"), ("G(2,1)", "Z'")]
        assert all(r.probability == F(1, 2) for r in rules)

    def test_alphabet_size(self, p1_artifact):
        # 6 specials + 9 pair + 9 checked + n*(m+1) cursors
        n, m = p1_artifact.instance.n, p1_artifact.m
        assert len(p1_artifact.bpa.alphabet) == 24 + n * (m + 1)
        assert len(p1_artifact.bpa.alphabet) == 30

    def test_model_validates(self, p1_artifact):
        from ppda.pushdown import validate_model

        assert validate_model(p1_artifact.bpa) == []

    def test_phi1_avoids_v_side_markers(self, p1_artifact):
        text = serialize_formula(p1_artifact.phi1)
        assert "(ap F)" not in text
        assert "(ap S)" in text
        assert "(ap X(A,A))" in text

    def test_phi2_avoids_u_side_markers(self, p1_artifact):
        text = serialize_formula(p1_artifact.phi2)
        assert "(ap S)" not in text
        assert "(ap F)" in text
        assert "(ap X(_,B))" in text

    @pytest.mark.parametrize("variant", ["default", "cf-simple", "n-chain 2"])
    def test_compiled_text_is_pinned(self, p1, variant):
        # The files are what `ppda compile` wrote for p1 before the phi
        # builders and the variant branches were merged, minus gamma.txt.
        artifact = compile_instance(p1, Variant.parse(variant))
        expected = Path(__file__).parent / "data" / "p1" / variant.replace(" ", "-")
        assert serialize_model(artifact.bpa) == (expected / "model.bpa").read_text()
        for name, formula in (("phi1", artifact.phi1), ("phi2", artifact.phi2), ("top", artifact.top_formula)):
            assert serialize_formula(formula) + "\n" == (expected / f"{name}.pctl").read_text()

    def test_every_symbol_is_a_proposition(self, p1_artifact):
        # Each symbol labels exactly the configurations it heads.
        for symbol in p1_artifact.bpa.alphabet:
            assert p1_artifact.chain.labels(f"{symbol} Z'") == frozenset({symbol})


class TestDyadicEncoding:
    def test_theta_values(self):
        assert theta("Z'") == theta_bar("Z'") == 1
        assert theta("A") == 1 and theta("B") == 0
        assert theta_bar("A") == 0 and theta_bar("B") == 1

    def test_theta_complement_on_letters(self):
        for x in "AB":
            assert theta(x) + theta_bar(x) == 1

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            theta("C")

    def test_frozen_values(self):
        assert rho("AZ'") == F(3, 4)
        assert rho_bar("AZ'") == F(1, 4)
        assert rho("BBAZ'") == F(3, 16)
        assert rho_bar("BBAZ'") == F(13, 16)
        assert rho("BABAZ'") == F(11, 32)
        assert rho_bar("AAZ'") == F(1, 8)

    @pytest.mark.parametrize("bad", ["Z'", "AB", "ACZ'", ""])
    def test_malformed_words(self, bad):
        with pytest.raises(MalformedWordError):
            rho(bad)

    @given(_words)
    def test_complement_identity(self, word):
        assert rho(word + "Z'") + rho_bar(word + "Z'") == 1

    @given(_words, _words)
    def test_uniqueness(self, w, wbar):
        if w == wbar:
            return
        assert rho(w + "Z'") + rho_bar(wbar + "Z'") != 1


class TestGuessing:
    def test_worked_configuration(self, p1):
        config = guess_config(p1, (1, 2))
        assert config.encode() == "C P(_,B) P(B,B) P(B,_) P(A,A) Z'"

    def test_single_pair_configuration(self):
        config = guess_config(PcpInstance((("A", "A"),)), (1,))
        assert config.encode() == "C P(A,A) Z'"

    def test_path_reaches_configuration(self, p1, p1_artifact):
        path = guess_path(p1, (1, 2))
        assert path.states[0] == "Z"
        assert path.states[-1] == guess_config(p1, (1, 2)).encode()
        assert path_probability(p1_artifact.chain, path) == F(1, 18)

    def test_path_probability_formula(self, p1):
        assert guess_path_probability(p1, (1, 2)) == F(1, 18)
        assert guess_path_probability(PcpInstance((("A", "A"),)), (1,)) == F(1, 2)

    @pytest.mark.parametrize("word", [(0,), (3,), ()])
    def test_bad_words_rejected(self, p1, word):
        with pytest.raises(IndexRangeError):
            guess_config(p1, word)

    def test_popping_chain_terminates(self, p1, p1_artifact):
        config = reduction.check_config(p1_artifact, (1, 2))
        result = explore(
            p1_artifact.chain, config.encode(), Budget(max_states=10000, max_depth=200)
        )
        assert result.frontier == frozenset()

    def test_reachable_checkpoints_match_guesses(self, p1, p1_artifact):
        depth = 2 * (p1_artifact.m + 1) + 1
        region = explore(p1_artifact.chain, "Z", Budget(max_states=100000, max_depth=depth))
        found = {s for s in region.settled | region.frontier if s.startswith("C ")}
        expected = {
            guess_config(p1, w).encode()
            for w in oracle.index_words(p1.n, 2)
        }
        assert found == expected


class TestCertify:
    def test_worked_solution(self, p1, p1_artifact):
        report = certify(p1, (1, 2), artifact=p1_artifact)
        assert report.is_solution
        assert report.t == F(3, 16)
        assert report.p_phi1_at_N == F(3, 32)
        assert report.p_phi2_at_N == F(13, 32)
        assert report.formula_holds

    def test_worked_non_solution(self, p1, p1_artifact):
        report = certify(p1, (1, 1), artifact=p1_artifact)
        assert not report.is_solution
        assert not report.formula_holds
        assert report.p_phi1_at_N == F(11, 64)
        assert report.p_phi2_at_N == F(1, 16)
        assert report.p_phi1_at_N + report.p_phi2_at_N != F(1, 2)

    def test_single_identity_pair(self):
        report = certify(PcpInstance((("A", "A"),)), (1,))
        assert report.is_solution and report.formula_holds
        assert report.t == F(3, 4)
        assert report.p_phi1_at_N + report.p_phi2_at_N == F(1, 2)

    def test_values_match_enumeration_oracle(self, p1, p1_artifact):
        gen = p1_artifact.chain
        state = reduction.check_config(p1_artifact, (1, 2)).encode()
        p1_value = oracle.enumerate_until_probability(
            gen,
            state,
            lambda s: conftest.phi1_left(gen.labels(s)),
            lambda s: conftest.phi1_right(gen.labels(s)),
            max_depth=40,
        )
        assert p1_value == F(3, 32)

    def test_report_serialization(self, p1, p1_artifact):
        text = certify(p1, (1, 2), artifact=p1_artifact).to_text()
        assert "word=1,2" in text
        assert "t=3/16" in text
        assert "p_phi1_at_N=3/32" in text
        assert "formula_holds=true" in text

    def test_halving(self, p1, p1_artifact):
        report = certify(p1, (1, 2), artifact=p1_artifact)
        config = reduction.check_config(p1_artifact, (1, 2))
        for head, phi, at_n in (
            ("F", p1_artifact.phi1, report.p_phi1_at_N),
            ("S", p1_artifact.phi2, report.p_phi2_at_N),
        ):
            state = reduction.Configuration((head,) + config.stack[1:]).encode()
            iv = pctl.Evaluator(p1_artifact.chain, None).prob_until(state, phi.left, phi.right)
            assert iv.is_point and iv.lo == 2 * at_n

    def test_equality_formula_true_at_check_state(self, p1, p1_artifact):
        state = reduction.check_config(p1_artifact, (1, 2)).encode()
        formula = Prob(Comparison.EQ, F(3, 32), p1_artifact.phi1)
        assert pctl.Evaluator(p1_artifact.chain, None).eval_state(state, formula) is pctl.TRUE
        off = Prob(Comparison.EQ, F(1, 8), p1_artifact.phi1)
        assert pctl.Evaluator(p1_artifact.chain, None).eval_state(state, off) is pctl.FALSE

    def test_checkpoint_next_step_is_certain(self, p1, p1_artifact):
        # the checkpoint rewrites deterministically, so the instantiated
        # conjunction holds at its unique successor with probability one
        report = certify(p1, (1, 2), artifact=p1_artifact)
        inner = reduction.instantiate_formula(
            reduction._inner_conjunction(p1_artifact.phi1, p1_artifact.phi2), report.t
        )
        state = guess_config(p1, (1, 2)).encode()
        interval = pctl.Evaluator(p1_artifact.chain, None).prob_next(state, inner)
        assert interval == pctl.ProbInterval(F(1), F(1))

    def test_unbudgeted_session_certifies_a_long_word(self, p1, p1_artifact):
        # Twenty indices put 40 letter pairs on the stack; one session with
        # no budget settles the popping chain exactly and builds no region.
        word = (1, 2) * 10
        session = pctl.Evaluator(p1_artifact.chain, None)
        report = certify(p1, word, artifact=p1_artifact, session=session)
        assert report.is_solution and report.formula_holds
        config = reduction.check_config(p1_artifact, word)
        u = "".join(p1.pairs[j - 1][0] for j in word)
        v = "".join(p1.pairs[j - 1][1] for j in word)
        for head, phi, at_n, value in (
            ("F", p1_artifact.phi1, report.p_phi1_at_N, rho(u[::-1] + "Z'")),
            ("S", p1_artifact.phi2, report.p_phi2_at_N, rho_bar(v[::-1] + "Z'")),
        ):
            state = reduction.Configuration((head,) + config.stack[1:]).encode()
            iv = session.prob_until(state, phi.left, phi.right)
            assert iv == pctl.ProbInterval(value, value) and value == 2 * at_n

    @pytest.mark.parametrize("budget", [None, Budget(2, 2)])
    def test_session_must_be_the_artifacts_unbudgeted_one(self, p1, p1_artifact, budget):
        # A budget could leave the values open intervals; certify reads points.
        chain = p1_artifact.chain if budget else compile_instance(p1).chain
        with pytest.raises(ValueError, match="sweep_session, without a budget"):
            certify(p1, (1, 2), artifact=p1_artifact, session=pctl.Evaluator(chain, budget))

    def test_artifact_must_be_compiled_from_the_instance(self, p1_artifact):
        with pytest.raises(ValueError, match="compiled from this instance"):
            certify(PcpInstance((("AB", "A"),)), (1,), artifact=p1_artifact)

    def test_unsolvable_top_formula_unknown_at_any_budget(self, unsolvable):
        artifact = compile_instance(unsolvable)
        for t in (F(1, 2), F(3, 4)):
            top = instantiate_top_formula(artifact, t)
            for budget in (Budget(50, 5), Budget(500, 12), Budget(3000, 20)):
                assert pctl.Evaluator(artifact.chain, budget).eval_state("Z", top) is pctl.UNKNOWN

    def test_branch_values_match_encoding(self, p1, p1_artifact):
        # popping the guessed stack realizes the dyadic weights of the
        # reversed erased words
        config = reduction.check_config(p1_artifact, (1, 2))
        f_state = reduction.Configuration(("F",) + config.stack[1:]).encode()
        s_state = reduction.Configuration(("S",) + config.stack[1:]).encode()
        session = pctl.Evaluator(p1_artifact.chain, None)
        iv1 = session.prob_until(f_state, p1_artifact.phi1.left, p1_artifact.phi1.right)
        iv2 = session.prob_until(s_state, p1_artifact.phi2.left, p1_artifact.phi2.right)
        assert iv1 == pctl.ProbInterval(F(3, 16), F(3, 16))
        assert iv2 == pctl.ProbInterval(F(13, 16), F(13, 16))
        assert iv1.lo == rho("ABB"[::-1] + "Z'")
        assert iv2.lo == rho_bar("ABB"[::-1] + "Z'")


def _random_instance(rng, max_n, max_m):
    while True:
        n = rng.randint(1, max_n)
        pairs = tuple(
            (
                "".join(rng.choice("AB") for _ in range(rng.randint(0, max_m))),
                "".join(rng.choice("AB") for _ in range(rng.randint(0, max_m))),
            )
            for _ in range(n)
        )
        if any(u or v for u, v in pairs):
            return PcpInstance(pairs)


class TestChainFormulaAgreement:
    def test_sampled_words_match_encoding(self):
        rng = random.Random(41)
        for _ in range(60):
            instance = _random_instance(rng, 3, 3)
            artifact = compile_instance(instance)
            k = rng.randint(1, 4)
            word = tuple(rng.randint(1, instance.n) for _ in range(k))
            report = certify(instance, word, artifact=artifact)
            assert report.formula_holds == report.is_solution
            u = "".join(instance.pairs[j - 1][0] for j in word)
            v = "".join(instance.pairs[j - 1][1] for j in word)
            if u:
                assert 2 * report.p_phi1_at_N == rho(u[::-1] + "Z'")
            if v:
                assert 2 * report.p_phi2_at_N == rho_bar(v[::-1] + "Z'")


class TestVariants:
    def test_parse(self):
        assert Variant.parse("default") == Variant()
        assert Variant.parse("cf-simple").kind is VariantKind.CF_SIMPLE
        assert Variant.parse("n-chain 3") == Variant(VariantKind.N_CHAIN, 3)
        assert Variant.parse("n-chain:2") == Variant(VariantKind.N_CHAIN, 2)
        assert Variant.parse("n-chain 10000") == Variant(VariantKind.N_CHAIN, reduction.MAX_CHAIN_LENGTH)
        with pytest.raises(ValueError):
            Variant.parse("bogus")

    def test_collapsed_check_drops_intermediate_symbol(self, p1):
        artifact = compile_instance(p1, Variant.parse("cf-simple"))
        assert "N" not in artifact.bpa.alphabet
        rules = artifact.bpa.rules_by_head["C"]
        assert sorted(r.body for r in rules) == [("F",), ("S",)]

    def test_collapsed_top_formula_has_no_next(self, p1):
        artifact = compile_instance(p1, Variant.parse("cf-simple"))
        assert "(X " not in serialize_formula(artifact.top_formula)

    def test_chained_checkpoint_symbols(self, p1):
        artifact = compile_instance(p1, Variant.parse("n-chain 2"))
        assert {"N1", "N2", "N"} <= set(artifact.bpa.alphabet)
        assert artifact.bpa.rules_by_head["C"][0].body == ("N1",)
        assert artifact.bpa.rules_by_head["N1"][0].body == ("N2",)
        assert artifact.bpa.rules_by_head["N2"][0].body == ("N",)

    @pytest.mark.parametrize("text", ["cf-simple", "n-chain 2"])
    def test_variant_certification_matches_default(self, p1, text):
        variant = Variant.parse(text)
        artifact = compile_instance(p1, variant)
        for word in [(1, 2), (1, 1), (2,), (2, 1)]:
            got = certify(p1, word, artifact=artifact)
            want = certify(p1, word)
            assert got.formula_holds == want.formula_holds
            assert got.t == want.t


class TestTopFormula:
    def test_instantiation_produces_halved_bounds(self, p1_artifact):
        formula = instantiate_top_formula(p1_artifact, F(3, 16))
        text = serialize_formula(formula)
        assert "(P= 3/32 " in text
        assert "(P= 13/32 " in text
        assert "?t" not in text

    def test_template_keeps_placeholders(self, p1_artifact):
        text = serialize_formula(p1_artifact.top_formula)
        assert "?t/2" in text and "?(1-t)/2" in text
        assert pctl.parse_formula(text) == p1_artifact.top_formula

    @pytest.mark.parametrize("variant", ["default", "cf-simple", "n-chain 3"])
    @pytest.mark.parametrize("t", [F(3, 16), F(1, 2), F(1, 3)])
    def test_instantiation_is_the_template_instantiated(self, p1, variant, t):
        # The top formula is built with its bounds, not rewritten from the
        # template, and is the same interned node as the rewrite.
        artifact = compile_instance(p1, Variant.parse(variant))
        assert instantiate_top_formula(artifact, t) is reduction.instantiate_formula(artifact.top_formula, t)

    @pytest.mark.parametrize("t", [F(0), F(1), F(-1, 2), F(3, 2)])
    def test_t_range_enforced(self, p1_artifact, t):
        with pytest.raises(TRangeError):
            instantiate_top_formula(p1_artifact, t)

    def test_shape(self, p1_artifact):
        top = p1_artifact.top_formula
        assert isinstance(top, Prob) and top.comparison is Comparison.GT
        until = top.path
        assert until.left == pctl.TRUE_FORMULA
        assert isinstance(until.right, pctl.And)
        assert until.right.left == Atom("C")
        inner_prob = until.right.right
        assert isinstance(inner_prob, Prob) and isinstance(inner_prob.path, Next)
