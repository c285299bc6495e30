"""Command-line front end.

Exit codes: 0 for a positive outcome, 1 for a negative finding (formula
does not hold, no witness found, verdict not True, a property check
fails), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from . import oracle, pctl, reduction
from .chain import Budget, explore
from .pctl import has_placeholder, parse_formula, serialize_formula
from .pushdown import Configuration, Ppds, UnknownSymbolError, induced_chain, parse_model, validate_model, serialize_model, SimpleAssignment
from .rationals import RationalFormatError, parse_rational

OK = 0
NEGATIVE = 1
USAGE = 2

_INPUT_ERRORS = (
    reduction.InstanceFormatError,
    reduction.DegenerateInstanceError,
    reduction.IndexRangeError,
    reduction.MalformedWordError,
    reduction.TRangeError,
    pctl.FormulaSyntaxError,
    pctl.BoundRangeError,
    pctl.PlaceholderError,
    RationalFormatError,
    UnknownSymbolError,
    OSError,
    ValueError,
)


def _cmd_compile(args) -> int:
    instance = reduction.load_instance(args.instance)
    variant = reduction.Variant.parse(args.variant)
    artifact = reduction.compile_instance(instance, variant)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.bpa").write_text(serialize_model(artifact.bpa), encoding="utf-8")
    (out / "phi1.pctl").write_text(serialize_formula(artifact.phi1) + "\n", encoding="utf-8")
    (out / "phi2.pctl").write_text(serialize_formula(artifact.phi2) + "\n", encoding="utf-8")
    (out / "top.pctl").write_text(serialize_formula(artifact.top_formula) + "\n", encoding="utf-8")
    (out / "gamma.txt").write_text("\n".join(artifact.gamma) + "\n", encoding="utf-8")
    print(f"wrote model.bpa phi1.pctl phi2.pctl top.pctl gamma.txt to {out}")
    return OK


def _cmd_certify(args) -> int:
    instance = reduction.load_instance(args.instance)
    word = reduction.parse_index_word(args.word)
    variant = reduction.Variant.parse(args.variant)
    report = reduction.certify(instance, word, variant=variant)
    sys.stdout.write(report.to_text())
    return OK if report.formula_holds else NEGATIVE


def _search_result_line(word, max_k: int) -> str:
    if word is None:
        return f"none up to {max_k}"
    return reduction.format_index_word(word)


def _cmd_search(args) -> int:
    instance = reduction.load_instance(args.instance)
    if args.max_k < 1:
        raise ValueError("--max-k must be at least 1")
    brute = reduced = None
    if args.engine in ("brute", "both"):
        brute = oracle.brute_force_pcp(instance, args.max_k)
    if args.engine in ("reduction", "both"):
        reduced = oracle.search_via_reduction(instance, args.max_k)
    if args.engine == "both":
        if brute != reduced:
            print("DISAGREEMENT")
            print(f"brute={_search_result_line(brute, args.max_k)}")
            print(f"reduction={_search_result_line(reduced, args.max_k)}")
            return NEGATIVE
        print(_search_result_line(brute, args.max_k))
        print("agreement=ok")
        return OK if brute is not None else NEGATIVE
    found = brute if args.engine == "brute" else reduced
    print(_search_result_line(found, args.max_k))
    return OK if found is not None else NEGATIVE


def _cmd_solve(args) -> int:
    args.engine = "brute"
    return _cmd_search(args)


def _cmd_eval(args) -> int:
    model = parse_model(Path(args.model).read_text(encoding="utf-8"))
    if isinstance(model, Ppds):
        raise ValueError("eval supports stateless models only; this model has control states")
    problems = validate_model(model)
    if problems:
        raise ValueError(
            "invalid model: " + "; ".join(f"{v.subject}: {v.reason}" for v in problems)
        )
    formula = parse_formula(Path(args.formula).read_text(encoding="utf-8").strip())
    if has_placeholder(formula):
        if args.t is None:
            raise ValueError("formula contains ?t placeholders: --t is required")
        t = parse_rational(args.t)
        formula = reduction.instantiate_formula(formula, t)
    elif args.t is not None:
        raise ValueError("formula has no ?t placeholder, but --t was given")
    config = Configuration.parse(args.config)
    assignment = SimpleAssignment.identity(model.alphabet)
    gen = induced_chain(model, assignment, config)
    evaluator = pctl.Evaluator(gen, Budget(args.max_states, args.max_depth))
    state = config.encode()
    interval = None
    if isinstance(formula, pctl.Prob):
        interval = evaluator.prob_path(state, formula.path)
        verdict = pctl.compare(interval, formula.comparison, formula.bound)
    else:
        verdict = evaluator.eval_state(state, formula)
    print(f"verdict={verdict}")
    if interval is not None:
        print(f"interval={interval}")
    return OK if verdict is pctl.TRUE else NEGATIVE


# ---------------------------------------------------------------------------
# Property suite ("lemmas")


def _random_word(rng: random.Random, max_len: int, min_len: int = 1) -> str:
    return "".join(rng.choice("AB") for _ in range(rng.randint(min_len, max_len)))


def _random_instance(rng: random.Random, max_n: int, max_m: int) -> reduction.PcpInstance:
    while True:
        n = rng.randint(1, max_n)
        pairs = tuple(
            (_random_word(rng, max_m, 0), _random_word(rng, max_m, 0)) for _ in range(n)
        )
        if any(u or v for u, v in pairs):
            return reduction.PcpInstance(pairs)


def _check_complement(rng: random.Random, count: int = 1000) -> str | None:
    for _ in range(count):
        w = _random_word(rng, 20)
        if reduction.rho(w + "Z'") + reduction.rho_bar(w + "Z'") != 1:
            return f"complement identity fails for {w}"
    return None


def _check_uniqueness(rng: random.Random, count: int = 1000) -> str | None:
    for _ in range(count):
        w = _random_word(rng, 10)
        wbar = _random_word(rng, 10)
        while wbar == w:
            wbar = _random_word(rng, 10)
        if reduction.rho(w + "Z'") + reduction.rho_bar(wbar + "Z'") == 1:
            return f"distinct words {w} / {wbar} sum to 1"
    return None


def _check_reachability(rng: random.Random, max_n: int, max_m: int, rounds: int = 3) -> str | None:
    from .chain import path_probability

    for _ in range(rounds):
        instance = _random_instance(rng, min(max_n, 3), min(max_m, 3))
        artifact = reduction.compile_instance(instance)
        gen = artifact.chain
        depth = 2 * (artifact.m + 1) + 1
        result = explore(gen, Configuration(("Z",)).encode(), Budget(100000, depth))
        found = {
            s for s in result.settled | result.frontier if s.startswith("C ") or s == "C"
        }
        expected = set()
        for word in oracle.index_words(instance.n, 2):
            expected.add(reduction.guess_config(instance, word).encode())
        if found != expected:
            return f"reachable checkpoint set mismatch for {instance.pairs}"
        word = next(oracle.index_words(instance.n, 2))
        path = reduction.guess_path(instance, word)
        if path_probability(gen, path) != reduction.guess_path_probability(instance, word):
            return f"witness path probability mismatch for {instance.pairs}"
    return None


def _check_certification(
    rng: random.Random, max_n: int, max_m: int, max_k: int, draws: int = 40
) -> str | None:
    for _ in range(draws):
        instance = _random_instance(rng, max_n, max_m)
        artifact = reduction.compile_instance(instance)
        k = rng.randint(1, max_k)
        word = tuple(rng.randint(1, instance.n) for _ in range(k))
        report = reduction.certify(instance, word, artifact=artifact)
        if report.formula_holds != report.is_solution:
            return f"biconditional fails for {instance.pairs} word {word}"
        # halving: the value at the branch states is twice the value at N
        config = reduction.check_config(artifact, word)
        budget = reduction.verification_budget(len(config.stack))
        f_state = Configuration(("F",) + config.stack[1:]).encode()
        s_state = Configuration(("S",) + config.stack[1:]).encode()
        p1f = pctl.prob_until(
            artifact.chain, f_state, artifact.phi1.left, artifact.phi1.right, budget
        )
        p2s = pctl.prob_until(
            artifact.chain, s_state, artifact.phi2.left, artifact.phi2.right, budget
        )
        if report.p_phi1_at_N * 2 != p1f.lo or report.p_phi2_at_N * 2 != p2s.lo:
            return f"halving fails for {instance.pairs} word {word}"
        # agreement with the dyadic encoding when the erased words are nonempty
        u = "".join(instance.pairs[j - 1][0] for j in word)
        v = "".join(instance.pairs[j - 1][1] for j in word)
        if u and p1f.lo != reduction.rho(u[::-1] + "Z'"):
            return f"phi1 probability does not match encoding for {instance.pairs} {word}"
        if v and p2s.lo != reduction.rho_bar(v[::-1] + "Z'"):
            return f"phi2 probability does not match encoding for {instance.pairs} {word}"
    return None


def _cmd_lemmas(args) -> int:
    seed_env = os.environ.get("PPDA_SEED")
    seed = int(seed_env) if seed_env is not None else args.seed
    try:
        max_n, max_m, max_k = (int(p) for p in args.sizes.split(","))
        if max_n < 1 or max_m < 1 or max_k < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"--sizes must be 'n,m,k' with positive integers, got {args.sizes!r}")
    checks = [
        ("complement-identity", lambda rng: _check_complement(rng)),
        ("complement-uniqueness", lambda rng: _check_uniqueness(rng)),
        ("checkpoint-reachability", lambda rng: _check_reachability(rng, max_n, max_m)),
        ("certification-biconditional", lambda rng: _check_certification(rng, max_n, max_m, max_k)),
    ]
    failures = 0
    for name, check in checks:
        failure = check(random.Random(seed))
        if failure is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {failure}")
    return NEGATIVE if failures else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppda",
        description="Exact analysis of stateless probabilistic pushdown processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an instance to a pushdown model")
    p_compile.add_argument("--instance", required=True)
    p_compile.add_argument("--variant", default="default",
                           help="default | cf-simple | 'n-chain K'")
    p_compile.add_argument("--out", required=True)
    p_compile.set_defaults(func=_cmd_compile)

    p_certify = sub.add_parser("certify", help="certify one index word")
    p_certify.add_argument("--instance", required=True)
    p_certify.add_argument("--word", required=True, help="comma-separated indices, e.g. 1,2")
    p_certify.add_argument("--variant", default="default")
    p_certify.set_defaults(func=_cmd_certify)

    p_search = sub.add_parser("search", help="search for a solution word")
    p_search.add_argument("--instance", required=True)
    p_search.add_argument("--max-k", type=int, required=True)
    p_search.add_argument("--engine", choices=("reduction", "brute", "both"), default="reduction")
    p_search.set_defaults(func=_cmd_search)

    p_solve = sub.add_parser("solve", help="brute-force search (no pushdown model)")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--max-k", type=int, required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a model configuration")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--t", default=None, help="value for ?t placeholders, 0 < t < 1")
    p_eval.add_argument("--max-states", type=int, default=5000)
    p_eval.add_argument("--max-depth", type=int, default=64)
    p_eval.set_defaults(func=_cmd_eval)

    p_lemmas = sub.add_parser("lemmas", help="run the seeded property suite")
    p_lemmas.add_argument("--seed", type=int, default=0)
    p_lemmas.add_argument("--sizes", default="2,2,3", help="'n,m,k' size bounds")
    p_lemmas.set_defaults(func=_cmd_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
