"""The seeded property suite of the reduction.

``ppda lemmas`` runs every check on seeded random draws, and the
acceptance tests call the same checks with their own seeds and instances.
Each check returns ``None`` when its property holds and a one-line
description of the first counterexample otherwise.
"""
from __future__ import annotations

import random
from typing import Iterator

from . import oracle, reduction
from .chain import Budget, explore, path_probability
from .pctl import Evaluator
from .pushdown import ChainGenerator, Configuration


def _random_word(rng: random.Random, max_len: int, min_len: int = 1) -> str:
    return "".join(rng.choice("AB") for _ in range(rng.randint(min_len, max_len)))


def _random_instance(rng: random.Random, max_n: int, max_m: int) -> reduction.PcpInstance:
    while True:
        n = rng.randint(1, max_n)
        pairs = tuple((_random_word(rng, max_m, 0), _random_word(rng, max_m, 0)) for _ in range(n))
        if any(u or v for u, v in pairs):
            return reduction.PcpInstance(pairs)


def complement_identity(rng: random.Random) -> str | None:
    """rho(w Z') + rho_bar(w Z') = 1 for 1000 random words w of length 1..20."""
    for _ in range(1000):
        w = _random_word(rng, 20)
        if reduction.rho(w + "Z'") + reduction.rho_bar(w + "Z'") != 1:
            return f"complement identity fails for {w}"
    return None


def complement_uniqueness(rng: random.Random) -> str | None:
    """rho(w Z') + rho_bar(w' Z') != 1 for 1000 random pairs of distinct words w, w' of length 1..10."""
    for _ in range(1000):
        w = _random_word(rng, 10)
        wbar = _random_word(rng, 10)
        while wbar == w:
            wbar = _random_word(rng, 10)
        if reduction.rho(w + "Z'") + reduction.rho_bar(wbar + "Z'") == 1:
            return f"distinct words {w} / {wbar} sum to 1"
    return None


def checkpoint_reachability(instance: reduction.PcpInstance, word) -> str | None:
    """The checkpoints reachable from Z within depth 2(m+1)+1 are exactly the
    guesses of the index words of length at most 2, and the chain gives the
    guess path of ``word`` the probability ``guess_path_probability`` states."""
    artifact = reduction.compile_instance(instance)
    gen = artifact.chain
    depth = 2 * (artifact.m + 1) + 1
    result = explore(gen, "Z", Budget(100000, depth))
    found = {s for s in result.settled | result.frontier if ChainGenerator.head(s) == "C"}
    expected = {reduction.guess_config(instance, w).encode() for w in oracle.index_words(instance.n, 2)}
    if found != expected:
        return f"reachable checkpoint set mismatch for {instance.pairs}"
    path = reduction.guess_path(instance, word)
    if path_probability(gen, path) != reduction.guess_path_probability(instance, word):
        return f"witness path probability mismatch for {instance.pairs}"
    return None


def certification_biconditional(instance: reduction.PcpInstance, word) -> str | None:
    """The certification formula holds exactly for solutions; the values at the
    branch states F and S are twice those at N and, when the erased words are
    nonempty, equal the dyadic encodings of the reversed words."""
    artifact = reduction.compile_instance(instance)
    session = Evaluator(artifact.chain, None)
    report = reduction.certify(instance, word, artifact=artifact, session=session)
    if report.formula_holds != report.is_solution:
        return f"biconditional fails for {instance.pairs} word {word}"
    config = reduction.check_config(artifact, word)
    f_state = Configuration(("F",) + config.stack[1:]).encode()
    s_state = Configuration(("S",) + config.stack[1:]).encode()
    p1f = session.prob_until(f_state, artifact.phi1.left, artifact.phi1.right)
    p2s = session.prob_until(s_state, artifact.phi2.left, artifact.phi2.right)
    if report.p_phi1_at_N * 2 != p1f.lo or report.p_phi2_at_N * 2 != p2s.lo:
        return f"halving fails for {instance.pairs} word {word}"
    u = "".join(instance.pairs[j - 1][0] for j in word)
    v = "".join(instance.pairs[j - 1][1] for j in word)
    if u and p1f.lo != reduction.rho(u[::-1] + "Z'"):
        return f"phi1 probability does not match encoding for {instance.pairs} {word}"
    if v and p2s.lo != reduction.rho_bar(v[::-1] + "Z'"):
        return f"phi2 probability does not match encoding for {instance.pairs} {word}"
    return None


def run_suite(seed: int, max_n: int, max_m: int, max_k: int) -> Iterator[tuple[str, str | None]]:
    """Each check's name and result, every check drawing from its own
    ``random.Random(seed)``; instances have at most ``max_n`` pairs of words
    of length at most ``max_m``, and index words length at most ``max_k``."""

    def reachability(rng: random.Random) -> str | None:
        for _ in range(3):
            instance = _random_instance(rng, min(max_n, 3), min(max_m, 3))
            failure = checkpoint_reachability(instance, next(oracle.index_words(instance.n, 2)))
            if failure is not None:
                return failure
        return None

    def certification(rng: random.Random) -> str | None:
        for _ in range(40):
            instance = _random_instance(rng, max_n, max_m)
            k = rng.randint(1, max_k)
            word = tuple(rng.randint(1, instance.n) for _ in range(k))
            failure = certification_biconditional(instance, word)
            if failure is not None:
                return failure
        return None

    checks = (
        ("complement-identity", complement_identity),
        ("complement-uniqueness", complement_uniqueness),
        ("checkpoint-reachability", reachability),
        ("certification-biconditional", certification),
    )
    for name, check in checks:
        yield name, check(random.Random(seed))
