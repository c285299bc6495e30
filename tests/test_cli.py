import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ppda import cli, oracle, pctl, properties, pushdown, reduction
from ppda.chain import InvalidPathError
from ppda.cli import main
from ppda.data import corpus_path
from ppda.errors import InputEncodingError, PpdaInputError
from ppda.pushdown import parse_model, validate_model
from ppda.rationals import RationalFormatError


@pytest.fixture()
def p1_file(tmp_path) -> str:
    path = tmp_path / "p1.pcp"
    path.write_text("AB A\nB BB\n")
    return str(path)


@pytest.fixture()
def unsolvable_file(tmp_path) -> str:
    path = tmp_path / "ab.pcp"
    path.write_text("A B\n")
    return str(path)


@pytest.fixture()
def compiled(tmp_path, p1_file) -> Path:
    out = tmp_path / "out"
    assert main(["compile", "--instance", p1_file, "--out", str(out)]) == 0
    return out


# 10^4400 and 10^4400 - 1 as text: 4,401 and 4,400 digits, over the
# interpreter's default int/str limit of 4,300.
_HUGE = "1" + "0" * 4400
_HUGE_LESS_ONE = "9" * 4400

class TestCompile:
    def test_writes_expected_files(self, compiled):
        names = sorted(p.name for p in compiled.iterdir())
        assert names == ["gamma.txt", "model.bpa", "phi1.pctl", "phi2.pctl", "top.pctl"]

    def test_model_validates(self, compiled):
        model = parse_model((compiled / "model.bpa").read_text())
        assert validate_model(model) == []

    def test_top_formula_has_placeholders(self, compiled):
        text = (compiled / "top.pctl").read_text()
        assert "?t/2" in text and "?(1-t)/2" in text

    def test_gamma_lists_every_symbol(self, compiled):
        model = parse_model((compiled / "model.bpa").read_text())
        assert (compiled / "gamma.txt").read_text().split() == list(model.alphabet)

    def test_collapsed_variant_formula_has_no_next(self, tmp_path, p1_file):
        out = tmp_path / "cf"
        assert main(["compile", "--instance", p1_file, "--variant", "cf-simple", "--out", str(out)]) == 0
        assert "(X " not in (out / "top.pctl").read_text()

    def test_chain_variant(self, tmp_path, p1_file):
        out = tmp_path / "nc"
        assert main(["compile", "--instance", p1_file, "--variant", "n-chain 2", "--out", str(out)]) == 0
        model = (out / "model.bpa").read_text()
        assert "N1 -> N2 [1]" in model

    def test_missing_instance_file(self, tmp_path):
        assert main(["compile", "--instance", str(tmp_path / "nope.pcp"), "--out", str(tmp_path / "o")]) == 2

    def test_degenerate_instance(self, tmp_path):
        path = tmp_path / "d.pcp"
        path.write_text("- -\n")
        assert main(["compile", "--instance", str(path), "--out", str(tmp_path / "o")]) == 2


class TestCertify:
    def test_solution_word(self, p1_file, capsys):
        assert main(["certify", "--instance", p1_file, "--word", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "t=3/16" in out
        assert "p_phi1_at_N=3/32" in out
        assert "p_phi2_at_N=13/32" in out
        assert "formula_holds=true" in out

    def test_non_solution_word(self, p1_file, capsys):
        assert main(["certify", "--instance", p1_file, "--word", "1,1"]) == 1
        assert "formula_holds=false" in capsys.readouterr().out

    def test_bad_index(self, p1_file):
        assert main(["certify", "--instance", p1_file, "--word", "0"]) == 2

    @pytest.mark.parametrize("word", ["1_0", "+1", "1,,2", "1,", ",1", "\u0661,\u0662"])
    def test_malformed_word_refused(self, p1_file, capsys, word):
        assert main(["certify", "--instance", p1_file, "--word", word]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_word_over_the_stack_limit_refused(self, capsys, monkeypatch):
        # 4,000 indices of pad length 2 are a stack of 8,000 letter pairs.
        def certify(*args, **kwargs):
            raise AssertionError("certify was called")

        monkeypatch.setattr(reduction, "certify", certify)
        instance = str(corpus_path().parent / "three_pairs.pcp")
        assert main(["certify", "--instance", instance, "--word", ",".join(["1"] * 4000)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --word of 4000 indices with pad length 2 means a stack of 8000 letter pairs, "
            "over the limit of 1024\n"
        )

    def test_stack_limit_boundary(self, capsys):
        # 512 indices of pad length 2 fill the 1,024-pair limit exactly.
        instance = str(corpus_path().parent / "three_pairs.pcp")
        assert main(["certify", "--instance", instance, "--word", ",".join(["1"] * 512)]) == 1
        assert "formula_holds=false" in capsys.readouterr().out
        assert main(["certify", "--instance", instance, "--word", ",".join(["1"] * 513)]) == 2

    def test_deterministic_output(self, p1_file, capsys):
        main(["certify", "--instance", p1_file, "--word", "1,2"])
        first = capsys.readouterr().out
        main(["certify", "--instance", p1_file, "--word", "1,2"])
        assert capsys.readouterr().out == first


class TestSearch:
    def test_both_engines_agree(self, p1_file, capsys):
        assert main(["search", "--instance", p1_file, "--max-k", "2", "--engine", "both"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["1,2", "agreement=ok"]

    def test_no_witness(self, unsolvable_file, capsys):
        assert main(["search", "--instance", unsolvable_file, "--max-k", "4"]) == 1
        assert capsys.readouterr().out.strip() == "none up to 4"

    def test_zero_bound_rejected(self, p1_file):
        assert main(["search", "--instance", p1_file, "--max-k", "0"]) == 2

    def test_brute_engine_finds_the_witness(self, p1_file, capsys):
        assert main(["search", "--instance", p1_file, "--max-k", "2", "--engine", "brute"]) == 0
        assert capsys.readouterr().out.strip() == "1,2"

    @pytest.mark.parametrize("command", [["search", "--engine", "both"], ["search", "--engine", "brute"]])
    def test_max_k_over_the_word_limit_refused(self, tmp_path, capsys, monkeypatch, command):
        # 3 pairs and --max-k 20 are about 5.2e9 index words: refused
        # before either engine starts.
        def engine(*args, **kwargs):
            raise AssertionError("a search engine was called")

        monkeypatch.setattr(oracle, "brute_force_pcp", engine)
        monkeypatch.setattr(oracle, "search_via_reduction", engine)
        path = tmp_path / "three.pcp"
        path.write_text("AB A\nB BB\nA AB\n")
        assert main([command[0], "--instance", str(path), "--max-k", "20", *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --max-k 20 with 3 pairs means more than 100000 index words to search; "
            "lower --max-k\n"
        )

    def test_word_limit_boundary(self):
        # 3 + 9 + ... + 3^10 = 88,572 words are allowed; 3^11 more are not.
        # One pair adds one word per step. The CLI refuses one pair long
        # before this limit, through check_stack (1,024 letter pairs).
        cli.check_search_cost(3, 10)
        with pytest.raises(PpdaInputError):
            cli.check_search_cost(3, 11)
        cli.check_search_cost(1, cli.MAX_SEARCH_WORDS)
        with pytest.raises(PpdaInputError):
            cli.check_search_cost(1, cli.MAX_SEARCH_WORDS + 1)
        with pytest.raises(PpdaInputError):
            cli.check_search_cost(2, 10**15)

    @pytest.mark.parametrize("engine", ["reduction", "brute", "both"])
    def test_max_k_over_the_stack_limit_refused(self, unsolvable_file, capsys, monkeypatch, engine):
        # One pair at --max-k 100,000 passes the word limit, but its
        # longest stack holds 100,000 letter pairs.
        def search(*args, **kwargs):
            raise AssertionError("a search engine was called")

        monkeypatch.setattr(oracle, "brute_force_pcp", search)
        monkeypatch.setattr(oracle, "search_via_reduction", search)
        assert main(["search", "--instance", unsolvable_file, "--max-k", "100000", "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --max-k 100000 with pad length 1 means a stack of 100000 letter pairs, "
            "over the limit of 1024\n"
        )

    @pytest.mark.parametrize("text, max_k", [("A B\n", 1024), ("AB A\n", 512)])
    def test_stack_limit_boundary(self, tmp_path, capsys, monkeypatch, text, max_k):
        calls = []
        monkeypatch.setattr(oracle, "search_via_reduction", lambda *args: calls.append(args[1]))
        path = tmp_path / "one.pcp"
        path.write_text(text)
        assert main(["search", "--instance", str(path), "--max-k", str(max_k)]) == 1
        assert main(["search", "--instance", str(path), "--max-k", str(max_k + 1)]) == 2
        assert calls == [max_k]
        assert capsys.readouterr().err.count("\n") == 1

    def test_word_limit_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "100000 words" in help_text and "over 1024 letter pairs" in help_text

    def test_non_utf8_instance_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.pcp"
        path.write_bytes(b"AB \xff\n")
        assert main(["search", "--instance", str(path), "--max-k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not UTF-8" in captured.err


class TestEval:
    def _inner_formula(self, compiled: Path) -> str:
        phi1 = (compiled / "phi1.pctl").read_text().strip()
        phi2 = (compiled / "phi2.pctl").read_text().strip()
        return f"(and (P= ?t/2 {phi1}) (P= ?(1-t)/2 {phi2}))"

    def test_inner_conjunction_true_at_check_state(self, compiled, tmp_path, capsys):
        formula = tmp_path / "inner.pctl"
        formula.write_text(self._inner_formula(compiled))
        code = main(
            [
                "eval",
                "--model", str(compiled / "model.bpa"),
                "--config", "N P(_,B) P(B,B) P(B,_) P(A,A) Z'",
                "--formula", str(formula),
                "--t", "3/16",
                "--max-states", "200",
                "--max-depth", "40",
            ]
        )
        assert code == 0
        assert "verdict=True" in capsys.readouterr().out

    def test_wrong_t_is_false(self, compiled, tmp_path, capsys):
        formula = tmp_path / "inner.pctl"
        formula.write_text(self._inner_formula(compiled))
        code = main(
            [
                "eval",
                "--model", str(compiled / "model.bpa"),
                "--config", "N P(_,B) P(B,B) P(B,_) P(A,A) Z'",
                "--formula", str(formula),
                "--t", "1/2",
            ]
        )
        assert code == 1
        assert "verdict=False" in capsys.readouterr().out

    def test_unsolvable_top_formula_unknown(self, tmp_path, unsolvable_file, capsys):
        out = tmp_path / "out"
        assert main(["compile", "--instance", unsolvable_file, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--model", str(out / "model.bpa"),
                "--config", "Z",
                "--formula", str(out / "top.pctl"),
                "--t", "1/2",
                "--max-states", "300",
                "--max-depth", "12",
            ]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "verdict=Unknown" in printed
        assert "interval=[0," in printed

    def test_top_formula_true_with_certified_t(self, compiled, capsys):
        code = main(
            [
                "eval",
                "--model", str(compiled / "model.bpa"),
                "--config", "Z",
                "--formula", str(compiled / "top.pctl"),
                "--t", "3/16",
                "--max-states", "2000",
                "--max-depth", "10",
            ]
        )
        assert code == 0
        assert "verdict=True" in capsys.readouterr().out

    def test_t_outside_open_interval(self, compiled):
        code = main(
            [
                "eval",
                "--model", str(compiled / "model.bpa"),
                "--config", "Z",
                "--formula", str(compiled / "top.pctl"),
                "--t", "1",
            ]
        )
        assert code == 2

    def test_missing_t_for_placeholder_formula(self, compiled):
        code = main(
            [
                "eval",
                "--model", str(compiled / "model.bpa"),
                "--config", "Z",
                "--formula", str(compiled / "top.pctl"),
            ]
        )
        assert code == 2

    def test_controlled_model_refused(self, tmp_path, capsys):
        model = tmp_path / "controlled.bpa"
        model.write_text("p: X -> q: X [1/2]\np: X -> p: X [1/2]\nq: X -> q: X [1]\n")
        formula = tmp_path / "reach.pctl"
        formula.write_text("(P> 0 (U true (ap X)))")
        code = main(["eval", "--model", str(model), "--config", "p: X", "--formula", str(formula)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_invalid_model_refused(self, tmp_path, capsys):
        model = tmp_path / "deficient.bpa"
        model.write_text("X -> X [1/2]\nX -> ~ [1/4]\n")
        formula = tmp_path / "reach.pctl"
        formula.write_text("(P> 0 (U true (ap X)))")
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid model: X: rule probabilities sum to 3/4, not 1\n"

    def test_deeply_nested_formula_refused(self, tmp_path, capsys):
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n")
        formula = tmp_path / "deep.pctl"
        formula.write_text("(not " * 3000 + "true" + ")" * 3000)
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("config, symbol", [("Q", "Q"), ("X Y", "Y"), ("X ~", "~")])
    def test_unknown_stack_symbol_refused(self, tmp_path, capsys, config, symbol):
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n")
        formula = tmp_path / "head.pctl"
        formula.write_text("(ap X)")
        code = main(["eval", "--model", str(model), "--config", config, "--formula", str(formula)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown stack symbol '{symbol}': the model has no rule for it\n"

    def test_empty_mark_head_refused(self, tmp_path, capsys):
        # Accepted, the head "~" made the stack "~" read back as empty: the
        # verdict was False where the true value is 1.
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n~ -> Y [1]\nY -> Y [1]\n")
        formula = tmp_path / "reach.pctl"
        formula.write_text("(P> 0 (U true (ap Y)))")
        code = main(["eval", "--model", str(model), "--config", "X ~", "--formula", str(formula)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: head must be a single symbol other than '~'\n"

    def test_invalid_interval_is_an_internal_fault(self, tmp_path, monkeypatch):
        # An invalid ProbInterval is a broken invariant, not bad input: its
        # ValueError must escape main instead of becoming exit 2.
        def broken(self, state, path):
            return pctl.ProbInterval(pctl.ONE, pctl.ZERO)

        monkeypatch.setattr(pctl.Evaluator, "prob_path", broken)
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n")
        formula = tmp_path / "next.pctl"
        formula.write_text("(P> 0 (X true))")
        with pytest.raises(ValueError, match="invalid interval") as info:
            main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert not isinstance(info.value, PpdaInputError)

    @pytest.mark.parametrize("model_text, formula_text, flags", [
        (f"X -> ~ [1/{_HUGE}]\nX -> X [{_HUGE_LESS_ONE}/{_HUGE}]\n", "(P> 0 (X true))", []),
        ("X -> ~ [1]\n", f"(P> 1/{_HUGE} (X true))", []),
        ("X -> ~ [1]\n", "(P= ?t/2 (X true))", ["--t", f"1/{_HUGE}"]),
    ], ids=["rule-probability", "formula-bound", "t"])
    def test_numeral_over_the_digit_limit_refused(self, tmp_path, capsys, digit_limit,
                                                  model_text, formula_text, flags):
        model = tmp_path / "m.bpa"
        model.write_text(model_text)
        formula = tmp_path / "f.pctl"
        formula.write_text(formula_text)
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "integer digit limit" in captured.err

    def test_invalid_model_message_past_the_digit_limit(self, tmp_path, capsys, digit_limit):
        # 1/D + 1/(D+1) with D = 10^2200 has a 4,401-digit denominator; the
        # sum's 6,603 characters print as their first 40 and their length.
        d, d_plus_one = "1" + "0" * 2200, "1" + "0" * 2199 + "1"
        model = tmp_path / "m.bpa"
        model.write_text(f"X -> ~ [1/{d}]\nX -> X [1/{d_plus_one}]\n")
        formula = tmp_path / "next.pctl"
        formula.write_text("(P> 0 (X true))")
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: invalid model: X: rule probabilities sum to '2{'0' * 39}'... (6603 characters), not 1\n"

    def test_bound_zero_verdict_is_exact_where_the_interval_is_not(self, tmp_path, capsys):
        # D returns to A, so the symbols form a cycle and the until is walked.
        # The budget cuts the walk before G, so the interval stays [0, 1]; the
        # verdict of a top-level P>0 is the one eval_state gives. On the line
        # without the return the symbol summaries give the exact point.
        formula = tmp_path / "reach.pctl"
        formula.write_text("(P> 0 (U true (ap G)))")
        line = "A -> B [1]\nB -> C [1]\nC -> D [1]\nG -> G [1]\n"
        for name, rules, interval in (("loop", "D -> G [1/2]\nD -> A [1/2]\n", "[0, 1]"),
                                      ("line", "D -> G [1]\n", "[1, 1]")):
            model = tmp_path / f"{name}.bpa"
            model.write_text(line + rules)
            code = main(["eval", "--model", str(model), "--config", "A", "--formula", str(formula),
                         "--max-states", "2", "--max-depth", "2"])
            assert code == 0
            assert capsys.readouterr().out == f"verdict=True\ninterval={interval}\n"

    def test_interval_past_the_digit_limit_printed_exactly(self, tmp_path, capsys, digit_limit):
        # D = 10^2200 parses, and the value 1/D^2 has a 4,401-digit denominator.
        d, d_less_one = "1" + "0" * 2200, "9" * 2200
        model = tmp_path / "m.bpa"
        model.write_text(f"X -> Y [1/{d}]\nX -> ~ [{d_less_one}/{d}]\n"
                         f"Y -> W [1/{d}]\nY -> ~ [{d_less_one}/{d}]\nW -> W [1]\n")
        formula = tmp_path / "reach.pctl"
        formula.write_text("(P> 0 (U true (ap W)))")
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert code == 0
        point = "1/1" + "0" * 4400
        assert capsys.readouterr().out == f"verdict=True\ninterval=[{point}, {point}]\n"

    def test_zero_denominator_bound_refused(self, tmp_path, capsys):
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n")
        formula = tmp_path / "bound.pctl"
        formula.write_text("(P> 1/0 (X true))")
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula)])
        assert code == 2
        assert capsys.readouterr().err == "error: zero denominator in bound '1/0' (at offset 7)\n"


# Formula tokens, joined at random, so that most texts get part of the way
# through the parser; arbitrary text, lone surrogates included, covers the rest.
_FORMULA_PIECES = ["(", ")", " ", "true", "ap ", "X", "Y", "not ", "and ", "P> ", "P= ", "U ",
                   "0", "1", "1/2", "2/1", "1/0", "-1", "?t/2", "?(1-t)/2"]
_formula_texts = st.one_of(st.text(), st.lists(st.sampled_from(_FORMULA_PIECES), max_size=40).map("".join))


class TestEvalFuzz:
    @settings(max_examples=300)
    @given(_formula_texts, st.sampled_from([None, "1/2"]))
    def test_any_formula_text_exits_cleanly(self, tmp_path_factory, text, t):
        base = tmp_path_factory.getbasetemp()
        (base / "pop.bpa").write_text("X -> ~ [1]\n")
        (base / "fuzz.pctl").write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = ["eval", "--model", str(base / "pop.bpa"), "--config", "X", "--formula", str(base / "fuzz.pctl")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ([] if t is None else ["--t", t]))
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "" and out.getvalue().startswith("verdict=")


# Inputs that each echo a 5,000-character token, a value computed from a
# 4,000-digit numeral, or 2,000 violations in their error; the files are
# written to the working directory.
_LONG = 5000
_SHORT_FILES = {"p.pcp": "AB A\nB BB\n", "m.bpa": "X -> ~ [1]\n", "f.pctl": "(ap X)"}
_EVAL = ["eval", "--model", "m.bpa", "--config", "X", "--formula", "f.pctl"]
_LONG_INPUTS = [
    pytest.param(["compile", "--instance", "p.pcp", "--variant", "n-chain " + "x" * _LONG, "--out", "o"], {},
                 id="variant"),
    pytest.param(["certify", "--instance", "p.pcp", "--word", "1," + "x" * _LONG], {}, id="word"),
    pytest.param(["eval", "--model", "m.bpa", "--config", "X " + "Q" * _LONG, "--formula", "f.pctl"], {},
                 id="config"),
    pytest.param(_EVAL, {"f.pctl": "(" + "a" * _LONG + " true)"}, id="operator"),
    pytest.param(["certify", "--instance", "p.pcp", "--word", "1"], {"p.pcp": "A B " + "C" * _LONG + "\n"},
                 id="instance line"),
    pytest.param(_EVAL, {"m.bpa": "X -> ~ [" + "y" * _LONG + "]\n"}, id="rule probability"),
    pytest.param(_EVAL + ["--t", "x" * _LONG], {"f.pctl": "(P> ?t/2 (X true))"}, id="t"),
    pytest.param(_EVAL, {"f.pctl": "(P> " + "9" * 4000 + " (X true))"}, id="bound value"),
    pytest.param(_EVAL, {"m.bpa": "X -> ~ [" + "9" * 4000 + "]\n"}, id="rule value"),
    pytest.param(_EVAL + ["--t", "9" * 4000], {"f.pctl": "(P> ?t/2 (X true))"}, id="t value"),
    pytest.param(_EVAL, {"m.bpa": "".join(f"S{i} -> ~ [1/2]\n" for i in range(2000)) + "X -> ~ [1]\n"},
                 id="model sums"),
]


class TestInputErrors:
    @pytest.mark.parametrize("error", [
        reduction.InstanceFormatError, reduction.DegenerateInstanceError, reduction.IndexRangeError,
        reduction.MalformedWordError, reduction.DomainError, reduction.TRangeError,
        reduction.VariantFormatError, pctl.FormulaSyntaxError, pctl.BoundRangeError,
        pctl.PlaceholderError, pushdown.ModelSyntaxError, pushdown.UnknownSymbolError,
        pushdown.InvalidModelError, RationalFormatError, InvalidPathError, InputEncodingError,
    ])
    def test_input_errors_share_one_base(self, error):
        assert issubclass(error, PpdaInputError) and issubclass(error, ValueError)

    def test_cli_catches_only_input_errors(self):
        assert cli._INPUT_ERRORS == (PpdaInputError, OSError)

    @pytest.mark.parametrize("text", ["bogus", "", "n-chain x", "n-chain 0", "n-chain 10001", "n-chain 2 3",
                                      "default 1", pytest.param("n-chain " + "9" * 5000, id="n-chain 5000 nines")])
    def test_bad_variant_refused(self, tmp_path, p1_file, capsys, text):
        code = main(["compile", "--instance", p1_file, "--variant", text, "--out", str(tmp_path / "o")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 200

    @pytest.mark.parametrize("argv, files", _LONG_INPUTS)
    def test_long_input_echo_is_bounded(self, tmp_path, monkeypatch, capsys, argv, files):
        monkeypatch.chdir(tmp_path)
        for name, text in {**_SHORT_FILES, **files}.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 200

    def test_invalid_model_names_three_violations(self, tmp_path, capsys):
        model = tmp_path / "m.bpa"
        model.write_text("".join(f"S{i} -> ~ [1/2]\n" for i in range(5)))
        formula = tmp_path / "f.pctl"
        formula.write_text("(ap S0)")
        assert main(["eval", "--model", str(model), "--config", "S0", "--formula", str(formula)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid model: S0: rule probabilities sum to 1/2, not 1; "
            "S1: rule probabilities sum to 1/2, not 1; S2: rule probabilities sum to 1/2, not 1; and 2 more\n")

    @pytest.mark.parametrize("flags", [["--max-states", "0"], ["--max-depth", "-1"]])
    def test_non_positive_budget_refused(self, tmp_path, capsys, flags):
        model = tmp_path / "m.bpa"
        model.write_text("X -> ~ [1]\n")
        formula = tmp_path / "head.pctl"
        formula.write_text("(ap X)")
        code = main(["eval", "--model", str(model), "--config", "X", "--formula", str(formula), *flags])
        assert code == 2
        assert capsys.readouterr().err == "error: budget limits must be positive\n"


class TestLemmas:
    def test_default_seed_passes(self, capsys):
        assert main(["lemmas"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_invalid_sizes(self):
        assert main(["lemmas", "--sizes", "3,3"]) == 2
        assert main(["lemmas", "--sizes", "a,b,c"]) == 2

    @pytest.mark.parametrize("sizes", ["1_0,1,1", "+1,1,1", "1,,1", "1,1,1,", ",1,1,1", "\u0661,1,1"])
    def test_sizes_are_ascii_numerals(self, capsys, sizes):
        assert main(["lemmas", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --sizes must be 'n,m,k'") and captured.err.count("\n") == 1

    def test_spaces_around_commas_accepted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(properties, "run_suite", lambda *args: calls.append(args) or [])
        assert main(["lemmas", "--sizes", " 2 , 2 ,3"]) == 0
        assert calls == [(0, 2, 2, 3)]

    @pytest.mark.parametrize("sizes", ["101,1,1", "1,33,32", "1,1,1025"])
    def test_oversized_sizes_refused(self, capsys, monkeypatch, sizes):
        def suite(*args):
            raise AssertionError("the suite was run")

        monkeypatch.setattr(properties, "run_suite", suite)
        assert main(["lemmas", "--sizes", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --sizes {sizes} is over the limits n <= 100 and m*k <= 1024\n"

    @pytest.mark.parametrize("sizes", ["100,32,32", "1,1024,1", "1,1,1024"])
    def test_largest_sizes_accepted(self, monkeypatch, sizes):
        calls = []
        monkeypatch.setattr(properties, "run_suite", lambda *args: calls.append(args) or [])
        assert main(["lemmas", "--seed", "3", "--sizes", sizes]) == 0
        assert calls == [(3, *(int(part) for part in sizes.split(",")))]

    def test_size_limits_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["lemmas", "--help"])
        assert "n > 100 or m*k > 1024" in " ".join(capsys.readouterr().out.split())
