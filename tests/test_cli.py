from pathlib import Path

import pytest

from ppda.cli import main
from ppda.pushdown import parse_model, validate_model


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

    def test_solve_is_brute_shorthand(self, p1_file, capsys):
        assert main(["solve", "--instance", p1_file, "--max-k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1,2"


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


class TestLemmas:
    def test_default_seed_passes(self, capsys):
        assert main(["lemmas"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PPDA_SEED", "7")
        assert main(["lemmas"]) == 0
        first = capsys.readouterr().out
        assert main(["lemmas", "--seed", "99"]) == 0
        assert capsys.readouterr().out == first

    def test_invalid_sizes(self):
        assert main(["lemmas", "--sizes", "3,3"]) == 2
        assert main(["lemmas", "--sizes", "a,b,c"]) == 2
