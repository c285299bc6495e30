from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import SYMBOLS, small_bpas
from ppda import reduction
from ppda.chain import Budget, explore
from ppda.pctl import FALSE, TRUE, Atom, Evaluator
from ppda.rationals import format_rational
from ppda.pushdown import (
    Bpa,
    BpaRule,
    ChainGenerator,
    Configuration,
    InvalidModelError,
    ModelSyntaxError,
    UnknownSymbolError,
    induced_chain,
    parse_model,
    serialize_model,
    step,
    validate_model,
)

H = Fraction(1, 2)
ONE = Fraction(1)


class TestConfiguration:
    @pytest.mark.parametrize("text", ["X Y", "C P(_,B) P(B,B) Z'", "~"])
    def test_encode_parse_round_trip(self, text):
        assert Configuration.parse(text).encode() == text

    def test_head(self):
        assert ChainGenerator.head("X Y") == "X"
        assert ChainGenerator.head("~") is None


class TestValidateModel:
    def test_single_pop_rule_ok(self):
        assert validate_model(Bpa.make([BpaRule("X", (), ONE)])) == []

    def test_deficient_mass(self):
        problems = validate_model(Bpa.make([BpaRule("X", ("X", "X"), H)]))
        assert any("1/2" in p.reason for p in problems)

    def test_compiled_model_ok(self, p1_artifact):
        assert validate_model(p1_artifact.bpa) == []

    def test_symbol_without_rule(self):
        problems = validate_model(Bpa.make([BpaRule("X", ("Y",), ONE)]))
        assert any(p.subject == "Y" and "no rule" in p.reason for p in problems)

    def test_duplicate_rule(self):
        model = Bpa.make([BpaRule("X", (), H), BpaRule("X", (), H)])
        assert any("duplicate" in p.reason for p in validate_model(model))

    def test_long_body_flagged(self):
        model = Bpa.make([BpaRule("X", ("X", "X", "X"), ONE)])
        assert any("longer than 2" in p.reason for p in validate_model(model))

    @pytest.mark.parametrize("rules", [
        [BpaRule("X", ("~",), ONE), BpaRule("~", ("X",), ONE)],
        [BpaRule("X", ("~",), ONE)],
    ])
    def test_empty_mark_symbol_flagged(self, rules):
        # "~" encodes the empty stack, so a stack holding it would read back as empty.
        problems = validate_model(Bpa.make(rules))
        assert any(p.subject == "~" and "empty stack" in p.reason for p in problems)

    @pytest.mark.parametrize("symbol", ["X Y", "", "X\tY", " X", "X\n"])
    def test_symbol_the_encoding_cannot_carry_flagged(self, symbol):
        # The encoding joins symbols with spaces and splits on whitespace, so
        # a stack holding such a symbol would read back as other symbols.
        model = Bpa.make([BpaRule(symbol, (), ONE), BpaRule("X", ("X",), ONE), BpaRule("Y", ("Y",), ONE)])
        problems = validate_model(model)
        assert [p.subject for p in problems] == [repr(symbol)]
        assert "non-empty and hold no whitespace" in problems[0].reason


def _reference_violations(model: Bpa) -> list[tuple[str, str]]:
    """``validate_model``'s (subject, reason) pairs, with each check written
    on ``Fraction`` values: comparisons with 0 and 1, and sums of the
    probabilities themselves."""
    def subject(rule):
        return f"{rule.head} -> {' '.join(rule.body) or '~'}"

    out = []
    if "~" in model.alphabet:
        out.append(("~", "'~' is the empty stack and cannot be a stack symbol"))
    out += [(repr(x), "a stack symbol must be non-empty and hold no whitespace")
            for x in model.alphabet if x.split() != [x]]
    totals, flagged, seen = {}, set(), set()
    for rule in model.rules:
        p = rule.probability
        if len(rule.body) > 2:
            out.append((subject(rule), "body longer than 2 symbols"))
        if type(p) is not Fraction:
            out.append((subject(rule), f"probability must be an exact rational, got {type(p).__name__}"))
            flagged.add(rule.head)
        elif p <= 0 or p > 1:
            out.append((subject(rule), f"probability {format_rational(p)} outside (0,1]"))
            flagged.add(rule.head)
        if (rule.head, rule.body) in seen:
            out.append((subject(rule), "duplicate rule"))
        seen.add((rule.head, rule.body))
        totals[rule.head] = totals.get(rule.head, Fraction(0)) + (p if type(p) is Fraction else 0)
    for x in model.alphabet:
        if x not in totals:
            out.append((x, "no rule for this symbol"))
        elif x not in flagged and totals[x] != 1:
            out.append((x, f"rule probabilities sum to {format_rational(totals[x])}, not 1"))
    return out


_probabilities = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3), 0.5, 1.0, True, False, 1, 0]),
)
_rule_lists = st.lists(
    st.builds(BpaRule, st.sampled_from(SYMBOLS + ("Z",)),
              st.lists(st.sampled_from(SYMBOLS + ("Z",)), max_size=3).map(tuple), _probabilities),
    min_size=1, max_size=8)


class TestValidateModelReference:
    @given(_rule_lists)
    def test_matches_fraction_reference(self, rules):
        # Float, bool, int, 0, negative and >1 probabilities, sums other
        # than 1, long bodies, duplicates and symbols without rules, in the
        # same order and with the same messages.
        model = Bpa.make(rules)
        assert [(v.subject, v.reason) for v in validate_model(model)] == _reference_violations(model)

    def test_sum_over_mixed_denominators(self):
        rules = [BpaRule("X", (), Fraction(1, 3)), BpaRule("X", ("X",), Fraction(1, 4)),
                 BpaRule("X", ("X", "X"), Fraction(5, 12))]
        assert validate_model(Bpa.make(rules)) == []
        rules[2] = BpaRule("X", ("X", "X"), Fraction(1, 6))
        assert [v.reason for v in validate_model(Bpa.make(rules))] == ["rule probabilities sum to 3/4, not 1"]


class TestStep:
    def test_pop_rule(self):
        model = Bpa.make([BpaRule("X", (), ONE), BpaRule("Y", (), ONE)])
        assert step(model, "X Y") == [("Y", ONE)]
        assert step(model, "Y") == [("~", ONE)]

    def test_guess_split_at_start(self, p1_artifact):
        assert step(p1_artifact.bpa, "Z") == [("G(1,1) Z'", H), ("G(2,1) Z'", H)]

    def test_branch_after_checkpoint(self, p1, p1_artifact):
        config = reduction.check_config(p1_artifact, (1, 2))
        successors = step(p1_artifact.bpa, config.encode())
        assert [ChainGenerator.head(c) for c, _ in successors] == ["F", "S"]
        assert [p for _, p in successors] == [H, H]

    def test_empty_stack_self_loop(self, p1_artifact):
        assert step(p1_artifact.bpa, "~") == [("~", ONE)]

    def test_unknown_symbol(self, p1_artifact):
        with pytest.raises(UnknownSymbolError):
            step(p1_artifact.bpa, "BOGUS Z'")

    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS), max_size=4))
    def test_matches_tuple_semantics(self, model, stack):
        # The reference rewrites the stack as a tuple and encodes each result.
        state = Configuration(tuple(stack)).encode()
        if not stack:
            expected = [("~", ONE)]
        else:
            expected = sorted((Configuration(rule.body + tuple(stack[1:])).encode(), rule.probability)
                              for rule in model.rules_by_head[stack[0]])
        assert step(model, state) == expected

    @given(small_bpas(), st.lists(st.sampled_from(SYMBOLS + ("Q",)), max_size=3),
           st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=2))
    def test_matches_per_rule_join(self, model, stack, popped):
        # Every symbol in ``popped`` gets a pop rule, and stacks are drawn
        # down to one symbol and ~. The reference joins each rule's body
        # onto the rest of the stack; Q has no rule. The first call at a
        # head fills step's memo of joined bodies, and the second reads it.
        rules = [r for r in model.rules if r.head not in popped]
        for head in SYMBOLS:
            if head in popped:
                bodies = {r.body for r in model.rules if r.head == head} | {()}
                rules += [BpaRule(head, body, Fraction(1, len(bodies))) for body in bodies]
        model = Bpa.make(rules)
        state = " ".join(stack) or "~"
        head, _, rest = state.partition(" ")
        tail = (rest,) if rest else ()
        for _ in range(2):
            if head == "Q":
                with pytest.raises(UnknownSymbolError):
                    step(model, state)
                assert "Q" not in model.bodies_by_head
            elif head == "~":
                assert step(model, state) == [("~", ONE)]
            else:
                expected = sorted((" ".join(rule.body + tail) or "~", rule.probability)
                                  for rule in model.rules_by_head[head])
                assert step(model, state) == expected


class TestModelText:
    def test_epsilon_rule(self):
        model = parse_model("X -> ~ [1]\n")
        assert model == Bpa.make([BpaRule("X", (), ONE)])

    def test_push_rule(self):
        model = parse_model("Z -> G(1,1) Z' [1/2]\nZ -> G(2,1) Z' [1/2]\n")
        assert model.rules[0] == BpaRule("Z", ("G(1,1)", "Z'"), H)

    def test_comments_and_blanks(self):
        model = parse_model("# header\n\nX -> ~ [1]  # pop\n")
        assert len(model.rules) == 1

    def test_round_trip_on_compiled_model(self, p1_artifact):
        text = serialize_model(p1_artifact.bpa)
        assert parse_model(text) == p1_artifact.bpa
        assert serialize_model(parse_model(text)) == text

    @given(small_bpas())
    def test_round_trip_property(self, model):
        assert parse_model(serialize_model(model)) == model

    def test_syntax_error_line_number(self):
        with pytest.raises(ModelSyntaxError) as info:
            parse_model("X -> ~ [1]\nY -> oops\n")
        assert info.value.line == 2

    def test_bad_probability(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("X -> ~ [p]\n")

    def test_empty_mark_head_rejected(self):
        with pytest.raises(ModelSyntaxError, match="line 2: head must be a single symbol other than '~'"):
            parse_model("X -> ~ [1]\n~ -> Y [1]\nY -> Y [1]\n")

    def test_control_state_rejected(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("q: X -> q: ~ [1]\n")


class TestAssignments:
    def test_simple_head_membership(self, p1_artifact):
        # Every stack symbol is its own proposition, holding where it is the head.
        session = Evaluator(p1_artifact.chain, Budget(10, 10))
        assert session.eval_state("C P(A,A) Z'", Atom("C")) is TRUE
        assert session.eval_state("N P(A,A) Z'", Atom("C")) is FALSE
        assert p1_artifact.chain.labels("C P(A,A) Z'") == frozenset({"C"})


class TestInducedChain:
    def test_dead_configuration_labels_empty(self, p1_artifact):
        gen = p1_artifact.chain
        assert gen.labels("~") == frozenset()
        assert gen.successors("~") == [("~", ONE)]

    def test_depth_one_frontier_is_first_guess_layer(self, p1_artifact):
        result = explore(p1_artifact.chain, "Z", Budget(max_states=100, max_depth=1))
        assert result.settled == {"Z"}
        assert result.frontier == {"G(1,1) Z'", "G(2,1) Z'"}

    def test_checkpoint_label(self, p1, p1_artifact):
        state = reduction.guess_config(p1, (1, 2)).encode()
        assert p1_artifact.chain.labels(state) == frozenset({"C"})

    def test_invalid_model_rejected(self):
        bad = Bpa.make([BpaRule("X", ("X",), H)])
        with pytest.raises(InvalidModelError, match="invalid model: X: rule probabilities sum to 1/2"):
            induced_chain(bad, Configuration(("X",)))

    @pytest.mark.parametrize("rules,name", [
        ([BpaRule("X", ("X",), 0.5), BpaRule("X", (), 0.5)], "float"),
        ([BpaRule("X", (), True)], "bool"),
        ([BpaRule("X", ("X",), H), BpaRule("X", (), None)], "NoneType"),
    ], ids=["float", "bool", "none"])
    def test_inexact_probability_rejected(self, rules, name):
        # Each inexact rule is flagged once, with no sum violation on top.
        reason = f"probability must be an exact rational, got {name}"
        model = Bpa.make(rules)
        inexact = [rule for rule in rules if not isinstance(rule.probability, Fraction)]
        assert [p.reason for p in validate_model(model)] == [reason] * len(inexact)
        with pytest.raises(InvalidModelError, match=f"X -> ~: {reason}"):
            induced_chain(model, Configuration(("X",)))

    def test_out_of_range_probability_flagged_once(self):
        # The rule's probability is flagged, and its head's sum of 2 is not.
        model = Bpa.make([BpaRule("X", ("X",), Fraction(3, 2)), BpaRule("X", (), H)])
        assert [(p.subject, p.reason) for p in validate_model(model)] == [("X -> X", "probability 3/2 outside (0,1]")]

    def test_symbol_with_whitespace_rejected(self):
        # Before validation flagged it, the stack ("X Y",) stepped by the
        # rule of X instead of popping.
        model = Bpa.make([BpaRule("X Y", (), ONE), BpaRule("X", ("X",), ONE), BpaRule("Y", ("Y",), ONE)])
        with pytest.raises(InvalidModelError, match="'X Y': a stack symbol must be non-empty"):
            induced_chain(model, Configuration(("X Y",)))

    def test_unknown_start_symbol_rejected(self):
        model = parse_model("X -> ~ [1]\n")
        with pytest.raises(UnknownSymbolError, match="unknown stack symbol 'Y'"):
            induced_chain(model, Configuration(("X", "Y")))


class TestStackDiscipline:
    def test_stack_grows_by_at_most_one(self, p1_artifact):
        gen = p1_artifact.chain
        region = explore(gen, "Z", Budget(max_states=300, max_depth=12))
        for state in region.settled:
            size = len(Configuration.parse(state).stack)
            for target, _ in gen.successors(state):
                assert len(Configuration.parse(target).stack) <= size + 1

    def test_reachable_distributions_are_total(self, p1_artifact):
        gen = p1_artifact.chain
        region = explore(gen, "Z", Budget(max_states=300, max_depth=12))
        for state in region.settled | region.frontier:
            successors = gen.successors(state)
            targets = [target for target, _ in successors]
            assert len(set(targets)) == len(targets)
            assert all(0 < prob <= 1 for _, prob in successors)
            assert sum(prob for _, prob in successors) == 1

