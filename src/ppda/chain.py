"""Exploration and path probabilities over the chain a pBPA induces.

The chain is ``pushdown.ChainGenerator``, which ``pushdown.induced_chain``
returns. Its states are encoded configurations: equal strings denote
equal states, and successor lists are sorted by successor, so every
traversal in the package is deterministic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import PpdaInputError, quote
from .pushdown import ChainGenerator

ChainState = str

ONE = Fraction(1)


class InvalidPathError(PpdaInputError):
    """A state sequence contains an adjacent pair that is not a transition."""


@dataclass(frozen=True)
class Budget:
    """Exploration limits: how many states may be expanded and how deep."""

    max_states: int
    max_depth: int

    def __post_init__(self) -> None:
        if self.max_states < 1 or self.max_depth < 1:
            raise PpdaInputError("budget limits must be positive")


@dataclass(frozen=True)
class FinitePath:
    states: tuple[ChainState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise PpdaInputError("a path has at least one state")


@dataclass(frozen=True)
class ExploreResult:
    settled: frozenset[ChainState]
    frontier: frozenset[ChainState]


def path_probability(gen: ChainGenerator, path: FinitePath) -> Fraction:
    """Probability of the cylinder of runs extending ``path``.

    The product of transition probabilities along the path; 1 for a
    single-state path.
    """
    prob = ONE
    for src, dst in zip(path.states, path.states[1:]):
        p = dict(gen.successors(src)).get(dst)
        if p is None:
            raise InvalidPathError(f"no transition {quote(src)} -> {quote(dst)}")
        prob *= p
    return prob


def explore(gen: ChainGenerator, start: ChainState, budget: Budget) -> ExploreResult:
    """Breadth-first closure from ``start`` under the given limits.

    A discovered state is expanded while fewer than ``max_states`` states
    have been expanded and its depth is below ``max_depth``; everything
    discovered but not expanded is frontier. Deterministic for fixed limits,
    and enlarging limits never removes settled states.
    """
    settled, frontier = [], []
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        state, level = queue.popleft()
        if level >= budget.max_depth or len(settled) >= budget.max_states:
            frontier.append(state)
            continue
        settled.append(state)
        for next_state, _ in gen.successors(state):
            if next_state not in seen:
                seen.add(next_state)
                queue.append((next_state, level + 1))
    return ExploreResult(frozenset(settled), frozenset(frontier))
