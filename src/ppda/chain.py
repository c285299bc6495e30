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


class Exploration:
    """A breadth-first closure from ``start`` that is run only as far as asked.

    A discovered state is expanded while fewer than ``max_states`` states
    have been expanded and its depth is below ``max_depth``; everything
    discovered but not expanded is frontier. States are classified in
    dequeue order, so any prefix of the search classifies each of its
    states as the whole search does. ``is_settled`` advances the search
    until the state asked about is classified; ``run`` finishes it. One
    map holds every discovered state, with True for settled, False for
    frontier and None while queued; the queue holds each state's depth and
    is dropped once it is empty.
    """

    def __init__(self, gen: ChainGenerator, start: ChainState, budget: Budget) -> None:
        self._successors = gen.successors
        self._max_states = budget.max_states
        self._max_depth = budget.max_depth
        self.settled_count = 0
        self._status: dict[ChainState, bool | None] = {start: None}
        self._queue: deque[tuple[ChainState, int]] | None = deque([(start, 0)])

    def is_settled(self, state: ChainState) -> bool:
        """Whether the whole search expands ``state``, which it must discover."""
        status = self._status.get(state)
        if status is None:
            self._advance(state)
            status = self._status.get(state)
            if status is None:
                raise ValueError(f"state {state!r} is not discovered from the start")
        return status

    def run(self) -> ExploreResult:
        self._advance(None)
        status = self._status
        return ExploreResult(frozenset(s for s in status if status[s]),
                             frozenset(s for s in status if not status[s]))

    def _advance(self, target: ChainState | None) -> None:
        """Classify queued states until ``target`` is classified, or all of them."""
        queue = self._queue
        if queue is None:
            return
        status, successors = self._status, self._successors
        max_states, max_depth, settled = self._max_states, self._max_depth, self.settled_count
        while queue:
            state, level = queue.popleft()
            if level >= max_depth or settled >= max_states:
                status[state] = False
            else:
                status[state] = True
                settled += 1
                for next_state, _ in successors(state):
                    if next_state not in status:
                        status[next_state] = None
                        queue.append((next_state, level + 1))
            if state == target:
                break
        self.settled_count = settled
        if not queue:
            self._queue = None


def explore(gen: ChainGenerator, start: ChainState, budget: Budget) -> ExploreResult:
    """Breadth-first closure from ``start`` under the given limits.

    The whole ``Exploration``: deterministic for fixed limits, and enlarging
    limits never removes settled states.
    """
    return Exploration(gen, start, budget).run()
