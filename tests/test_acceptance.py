"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its elapsed time
and asserts both the property and the stated time bound. Run with
``pytest tests/test_acceptance.py -s`` to see the lines.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import conftest
from ppda import properties, reduction
from ppda.chain import Budget
from ppda.data import corpus_path
from ppda.oracle import enumerate_until_probability, index_words
from ppda.pctl import TRUE, UNKNOWN, Evaluator
from ppda.reduction import (
    PcpInstance,
    Variant,
    certify,
    check_solution,
    compile_instance,
    guess_path_probability,
    instantiate_top_formula,
    sweep_session,
)

F = Fraction

P1 = PcpInstance((("AB", "A"), ("B", "BB")))


class _Timer:
    def __init__(self, name: str, bound: float) -> None:
        self.name = name
        self.bound = bound
        self.started = time.monotonic()

    def finish(self, ok: bool, detail: str = "") -> None:
        elapsed = time.monotonic() - self.started
        status = "PASS" if ok else "FAIL"
        suffix = f" {detail}" if detail else ""
        print(f"{status} {self.name}{suffix} ({elapsed:.2f}s, bound {self.bound:.0f}s)")
        assert ok, f"{self.name}{suffix}"
        assert elapsed < self.bound, f"{self.name} exceeded {self.bound}s ({elapsed:.2f}s)"


def test_criterion_1_complement_identity():
    timer = _Timer("criterion-1 complement-identity", 1.0)
    failure = properties.complement_identity(random.Random(1001))
    timer.finish(failure is None, failure or "1000 words")


def test_criterion_2_complement_uniqueness():
    timer = _Timer("criterion-2 complement-uniqueness", 1.0)
    failure = properties.complement_uniqueness(random.Random(1002))
    timer.finish(failure is None, failure or "1000 pairs")


def test_criterion_3_worked_certification():
    timer = _Timer("criterion-3 worked-certification", 1.0)
    artifact = compile_instance(P1)
    good = certify(P1, (1, 2), artifact=artifact)
    bad = certify(P1, (1, 1), artifact=artifact)
    ok = (
        good.t == F(3, 16)
        and good.p_phi1_at_N == F(3, 32)
        and good.p_phi2_at_N == F(13, 32)
        and good.formula_holds
        and good.is_solution
        and not bad.formula_holds
        and bad.p_phi1_at_N + bad.p_phi2_at_N != F(1, 2)
    )
    # cross-check the two probabilities against the path-enumeration oracle
    gen = artifact.chain
    state = reduction.check_config(artifact, (1, 2)).encode()
    for left, right, expected in (
        (conftest.phi1_left, conftest.phi1_right, F(3, 32)),
        (conftest.phi2_left, conftest.phi2_right, F(13, 32)),
    ):
        value = enumerate_until_probability(
            gen,
            state,
            lambda s: left(gen.labels(s)),
            lambda s: right(gen.labels(s)),
            max_depth=40,
        )
        ok = ok and value == expected
    timer.finish(ok)


def _sweep_corpus() -> list[PcpInstance]:
    words = [""] + ["".join(t) for k in (1, 2) for t in product("AB", repeat=k)]
    instances = [
        PcpInstance((pair,)) for pair in product(words, repeat=2) if pair != ("", "")
    ]
    for first in product(words, repeat=2):
        for second in product(words, repeat=2):
            if first == ("", "") and second == ("", ""):
                continue
            instances.append(PcpInstance((first, second)))
    return instances


def _biconditional_sweep(variant: Variant) -> tuple[int, int]:
    cases = mismatches = 0
    for instance in _sweep_corpus():
        artifact = compile_instance(instance, variant)
        session = sweep_session(artifact, 4)
        for word in index_words(instance.n, 4):
            report = certify(instance, word, artifact=artifact, session=session)
            cases += 1
            if report.formula_holds != check_solution(instance, word):
                mismatches += 1
    return cases, mismatches


def test_criterion_4_biconditional_sweep():
    timer = _Timer("criterion-4 biconditional-sweep", 120.0)
    cases, mismatches = _biconditional_sweep(Variant())
    timer.finish(mismatches == 0 and cases > 2000, f"{cases} cases, {mismatches} mismatches")


def test_criterion_5_bounded_reachability():
    timer = _Timer("criterion-5 bounded-reachability", 10.0)
    failure = properties.checkpoint_reachability(P1, (1, 2))
    ok = failure is None and guess_path_probability(P1, (1, 2)) == F(1, 18)
    checkpoints = len(list(index_words(P1.n, 2)))
    timer.finish(ok, failure or f"{checkpoints} checkpoint configurations")


def test_criterion_6_oracle_equivalence():
    timer = _Timer("criterion-6 oracle-equivalence", 30.0)
    artifact = compile_instance(P1)
    gen = artifact.chain
    rng = random.Random(1006)
    pair_symbols = [f"P({x},{y})" for x in "AB_" for y in "AB_"]
    ok = True
    for _ in range(100):
        head = rng.choice(["N", "F", "S"])
        stack = [head] + [rng.choice(pair_symbols) for _ in range(rng.randint(1, 8))] + ["Z'"]
        state = " ".join(stack)
        for left, right, phi in (
            (conftest.phi1_left, conftest.phi1_right, artifact.phi1),
            (conftest.phi2_left, conftest.phi2_right, artifact.phi2),
        ):
            expected = enumerate_until_probability(
                gen,
                state,
                lambda s: left(gen.labels(s)),
                lambda s: right(gen.labels(s)),
                max_depth=4 * len(stack) + 8,
            )
            interval = Evaluator(gen, None).prob_until(state, phi.left, phi.right)
            if not (interval.is_point and interval.lo == expected):
                ok = False
        if not ok:
            break
    timer.finish(ok, "100 configurations")


def _listed_corpus() -> list[tuple[Path, tuple[int, ...] | None]]:
    """Each bundled instance with its listed witness, or None where the
    listing records no solution up to length 4."""
    listing = corpus_path()
    entries = []
    for raw in listing.read_text().splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            name, status, arg = tokens
            witness = reduction.parse_index_word(arg) if status == "solvable" else None
            entries.append((listing.parent / name, witness))
    return entries


_VARIANTS = ("default", "cf-simple", "n-chain 2")


def test_criterion_7_end_to_end_search_and_eval(capsys):
    timer = _Timer("criterion-7 end-to-end", 120.0)
    corpus = _listed_corpus()
    ok = len(corpus) == 8

    # brute force and the reduction agree through the CLI, entry by entry
    from ppda.cli import main

    for path, witness in corpus:
        code = main(["search", "--instance", str(path), "--max-k", "4", "--engine", "both"])
        printed = capsys.readouterr().out.splitlines()
        ok = ok and printed[-1] == "agreement=ok"
        if witness is not None:
            ok = ok and code == 0 and printed[0] == reduction.format_index_word(witness)
        else:
            ok = ok and code == 1 and printed[0] == "none up to 4"

    # under every variant, the reachability formula holds at Z with the
    # certified t of the witness
    for path, witness in corpus:
        if witness is None:
            continue
        instance = reduction.load_instance(path)
        for variant in _VARIANTS:
            artifact = compile_instance(instance, Variant.parse(variant))
            certified = certify(instance, witness, artifact=artifact)
            top = instantiate_top_formula(artifact, certified.t)
            k, m = len(witness), artifact.m
            budget = Budget(20000, max((k + 1) * (m + 1) + 6, 2 * k * m + 16))
            ok = ok and Evaluator(artifact.chain, budget).eval_state("Z", top) is TRUE

    # and is never reported True on a hopeless instance, at any budget tried
    for pair in (("A", "B"), ("B", "A")):
        for variant in _VARIANTS:
            hopeless = compile_instance(PcpInstance((pair,)), Variant.parse(variant))
            for t in (F(1, 2), F(3, 16)):
                top = instantiate_top_formula(hopeless, t)
                for budget in (Budget(200, 8), Budget(2000, 16), Budget(6000, 24), Budget(20000, 24)):
                    verdict = Evaluator(hopeless.chain, budget).eval_state("Z", top)
                    ok = ok and verdict is UNKNOWN
    timer.finish(ok)


def test_criterion_8_variant_formulas():
    timer = _Timer("criterion-8 variant-formulas", 120.0)
    simple_cases, simple_bad = _biconditional_sweep(Variant.parse("cf-simple"))
    chain_cases, chain_bad = _biconditional_sweep(Variant.parse("n-chain 2"))
    ok = simple_bad == 0 and chain_bad == 0 and simple_cases == chain_cases
    timer.finish(ok, f"{simple_cases + chain_cases} cases, {simple_bad + chain_bad} mismatches")
