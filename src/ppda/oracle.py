"""Independent brute-force ground truth for the rest of the package.

The enumeration here deliberately shares no traversal machinery with the
bounded evaluator: until-probabilities are summed path by path without
memoization, and the solution search concatenates words directly. Any
disagreement with the main pipeline is a bug, and ``ppda search --engine
both`` checks exactly that.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable

from .chain import ChainGenerator, ChainState
from .errors import PpdaInputError
from .reduction import (
    PcpInstance,
    certify,
    check_solution,
    compile_instance,
    sweep_session,
)

ONE = Fraction(1)

StatePredicate = Callable[[ChainState], bool]


class UnresolvedPathError(RuntimeError):
    """Some path did not resolve within the depth bound; the oracle refuses
    to guess."""


def index_words(n: int, max_k: int):
    """All index words up to length max_k, shortest first, lexicographic."""
    for k in range(1, max_k + 1):
        yield from product(range(1, n + 1), repeat=k)


def brute_force_pcp(instance: PcpInstance, max_k: int):
    """First solution in shortest-then-lexicographic order, or None."""
    if max_k < 1:
        raise PpdaInputError("max_k must be at least 1")
    for word in index_words(instance.n, max_k):
        if check_solution(instance, word):
            return word
    return None


def enumerate_until_probability(
    gen: ChainGenerator,
    state: ChainState,
    f1: StatePredicate,
    f2: StatePredicate,
    max_depth: int,
) -> Fraction:
    """Exact until-probability by depth-first path enumeration.

    Sums the probabilities of minimal accepting prefixes. Every path must
    resolve within ``max_depth`` steps: reach f2, reach a state where both
    predicates fail, or reach a dead self-loop (which can never satisfy the
    until once f2 is false there).
    """
    if f2(state):
        return ONE
    if not f1(state):
        return Fraction(0)
    successors = gen.successors(state)
    if successors == [(state, ONE)]:
        return Fraction(0)
    if max_depth <= 0:
        raise UnresolvedPathError(f"path through {state!r} unresolved at depth limit")
    total = Fraction(0)
    for target, prob in successors:
        total += prob * enumerate_until_probability(gen, target, f1, f2, max_depth - 1)
    return total


def search_via_reduction(instance: PcpInstance, max_k: int):
    """First index word whose certification report holds, or None.

    Enumerates in the same order as ``brute_force_pcp``, so the two
    searches must return identical witnesses, not merely agree on
    existence. The instance is compiled once, and every word is certified
    in one ``sweep_session``: the stack of a word is its last block of
    pairs on top of the stack of a shorter word, whose popping chain an
    earlier certification already resolved, so each word walks and solves
    little more than its own last block.
    """
    if max_k < 1:
        raise PpdaInputError("max_k must be at least 1")
    artifact = compile_instance(instance)
    session = sweep_session(artifact, max_k)
    for word in index_words(instance.n, max_k):
        if certify(instance, word, artifact=artifact, session=session).formula_holds:
            return word
    return None

