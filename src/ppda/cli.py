"""Command-line front end.

Exit codes: 0 for a positive outcome, 1 for a negative finding (formula
does not hold, no witness found, verdict not True, a property check
fails), 2 for usage or input errors. Input errors are exactly the
``PpdaInputError``s and ``OSError``s; any other exception is an internal
fault and escapes with a traceback.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import oracle, pctl, properties, reduction
from .chain import Budget
from .errors import PpdaInputError, bounded, quote, read_text
from .pctl import has_placeholder, parse_formula, serialize_formula
from .pushdown import Configuration, induced_chain, parse_model, serialize_model
from .rationals import parse_rational

OK = 0
NEGATIVE = 1
USAGE = 2

_INPUT_ERRORS = (PpdaInputError, OSError)

# The most index words `search` and `solve` enumerate, counting every word
# up to --max-k (n + n^2 + ... + n^K for n pairs). A certification session
# holds about 5 KB per word on a 3-pair instance of pad length 3, so a
# reduction search at the limit needs about 0.5 GB.
MAX_SEARCH_WORDS = 100_000

# The largest `lemmas --sizes n,m,k`. Certification walks stacks of up to
# m*k letter pairs and compiling writes about n^2 rules; on a 2-vCPU host
# 100,32,32 took 8 s, while 3,64,128 took 131 s and 400,3,3 took 25 s.
MAX_LEMMA_PAIRS = 100
MAX_LEMMA_STACK = 1024


def check_search_cost(n: int, max_k: int) -> None:
    """Refuse a search over more than ``MAX_SEARCH_WORDS`` index words.

    Counts the words level by level and stops at the limit, so a huge
    ``max_k`` is refused at once.
    """
    if max_k < 1:
        raise PpdaInputError("--max-k must be at least 1")
    words, level = 0, 1
    for _ in range(max_k):
        level *= n
        words += level
        if words > MAX_SEARCH_WORDS:
            raise PpdaInputError(
                f"--max-k {max_k} with {n} pairs means more than {MAX_SEARCH_WORDS} "
                f"index words to search; lower --max-k"
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
    (out / "gamma.txt").write_text("\n".join(artifact.bpa.alphabet) + "\n", encoding="utf-8")
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
    check_search_cost(instance.n, args.max_k)
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
    model = parse_model(read_text(args.model))
    formula = parse_formula(read_text(args.formula).strip())
    if has_placeholder(formula):
        if args.t is None:
            raise PpdaInputError("formula contains ?t placeholders: --t is required")
        t = parse_rational(args.t)
        formula = reduction.instantiate_formula(formula, t)
    elif args.t is not None:
        raise PpdaInputError("formula has no ?t placeholder, but --t was given")
    config = Configuration.parse(args.config)
    gen = induced_chain(model, config)
    evaluator = pctl.Evaluator(gen, Budget(args.max_states, args.max_depth))
    state = config.encode()
    interval = None
    if isinstance(formula, pctl.Prob):
        interval = evaluator.prob_path(state, formula.path)
    # An until over propositional operands gets an exact point from the
    # symbol summaries where its symbols form no cycle. Where they do, the
    # verdict can be sharper than the interval: a bound-0 until over such
    # operands is decided exactly at any budget.
    verdict = evaluator.eval_state(state, formula)
    print(f"verdict={verdict}")
    if interval is not None:
        print(f"interval={interval}")
    return OK if verdict is pctl.TRUE else NEGATIVE


def _cmd_lemmas(args) -> int:
    try:
        max_n, max_m, max_k = (int(p) for p in args.sizes.split(","))
        if max_n < 1 or max_m < 1 or max_k < 1:
            raise ValueError
    except ValueError:
        raise PpdaInputError(f"--sizes must be 'n,m,k' with positive integers, got {quote(args.sizes)}") from None
    if max_n > MAX_LEMMA_PAIRS or max_m * max_k > MAX_LEMMA_STACK:
        raise PpdaInputError(f"--sizes {bounded(args.sizes)} is over the limits n <= {MAX_LEMMA_PAIRS} "
                             f"and m*k <= {MAX_LEMMA_STACK}")
    failures = 0
    for name, failure in properties.run_suite(args.seed, max_n, max_m, max_k):
        if failure is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {failure}")
    return NEGATIVE if failures else OK


_MAX_K_HELP = (f"longest index word to try; refused (exit 2) when the words up to this "
               f"length, n + n^2 + ... + n^K for n pairs, are more than {MAX_SEARCH_WORDS} words")
_VARIANT_HELP = (f"default | cf-simple | 'n-chain K'; refused (exit 2) when K > "
                 f"{reduction.MAX_CHAIN_LENGTH}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppda",
        description="Exact analysis of stateless probabilistic pushdown processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an instance to a pushdown model")
    p_compile.add_argument("--instance", required=True)
    p_compile.add_argument("--variant", default="default", help=_VARIANT_HELP)
    p_compile.add_argument("--out", required=True)
    p_compile.set_defaults(func=_cmd_compile)

    p_certify = sub.add_parser("certify", help="certify one index word")
    p_certify.add_argument("--instance", required=True)
    p_certify.add_argument("--word", required=True, help="comma-separated indices, e.g. 1,2")
    p_certify.add_argument("--variant", default="default", help=_VARIANT_HELP)
    p_certify.set_defaults(func=_cmd_certify)

    p_search = sub.add_parser("search", help="search for a solution word")
    p_search.add_argument("--instance", required=True)
    p_search.add_argument("--max-k", type=int, required=True, help=_MAX_K_HELP)
    p_search.add_argument("--engine", choices=("reduction", "brute", "both"), default="reduction")
    p_search.set_defaults(func=_cmd_search)

    p_solve = sub.add_parser("solve", help="brute-force search (no pushdown model)")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--max-k", type=int, required=True, help=_MAX_K_HELP)
    p_solve.set_defaults(func=_cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a model configuration")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--formula", required=True)
    p_eval.add_argument("--t", default=None, help="value for ?t placeholders, 0 < t < 1")
    p_eval.add_argument("--max-states", type=int, default=5000,
                        help="how many until-variables one query's walk may expand")
    p_eval.add_argument("--max-depth", type=int, default=64,
                        help="how deep in that walk an until-variable may lie")
    p_eval.set_defaults(func=_cmd_eval)

    p_lemmas = sub.add_parser("lemmas", help="run the seeded property suite")
    p_lemmas.add_argument("--seed", type=int, default=0)
    p_lemmas.add_argument("--sizes", default="2,2,3", help=(
        f"'n,m,k' size bounds; refused (exit 2) when n > {MAX_LEMMA_PAIRS} or m*k > {MAX_LEMMA_STACK}"))
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
