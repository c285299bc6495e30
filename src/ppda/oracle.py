"""Independent brute-force ground truth for the rest of the package.

The enumeration here deliberately shares no traversal machinery with the
bounded evaluator: until-probabilities are summed path by path without
memoization, and the solution search concatenates words directly. Any
disagreement with the main pipeline is a bug, and the corpus harness checks
exactly that.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

from .chain import ChainGenerator, ChainState
from .errors import PpdaInputError, read_text
from .reduction import (
    DEFAULT_VARIANT,
    PcpInstance,
    Variant,
    certify,
    check_solution,
    compile_instance,
    format_index_word,
    load_instance,
    parse_index_word,
    sweep_session,
)

ONE = Fraction(1)

StatePredicate = Callable[[ChainState], bool]


class UnresolvedPathError(RuntimeError):
    """Some path did not resolve within the depth bound; the oracle refuses
    to guess."""


class CorpusError(PpdaInputError):
    pass


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


def search_via_reduction(
    instance: PcpInstance,
    max_k: int,
    *,
    variant: Variant = DEFAULT_VARIANT,
):
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
    artifact = compile_instance(instance, variant)
    session = sweep_session(artifact, max_k)
    for word in index_words(instance.n, max_k):
        if certify(instance, word, artifact=artifact, session=session).formula_holds:
            return word
    return None


# ---------------------------------------------------------------------------
# Corpus harness


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    instance: PcpInstance
    solvable: bool
    witness: tuple[int, ...] | None
    unsolvable_bound: int | None


@dataclass(frozen=True)
class Corpus:
    entries: tuple[CorpusEntry, ...]


def load_corpus(path) -> Corpus:
    """Read a corpus listing: ``FILE solvable WORD`` or ``FILE unsolvable-up-to K``.

    Paths are resolved relative to the listing file; recorded witnesses are
    verified on the spot and a bad witness rejects the whole corpus.
    """
    base = Path(path).parent
    entries: list[CorpusEntry] = []
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise CorpusError(f"line {line_no}: expected 'FILE STATUS ARG'")
        name, status, arg = tokens
        instance = load_instance(base / name)
        if status == "solvable":
            witness = parse_index_word(arg)
            if not check_solution(instance, witness):
                raise CorpusError(
                    f"line {line_no}: recorded witness {arg} is not a solution of {name}"
                )
            entries.append(CorpusEntry(name, instance, True, witness, None))
        elif status == "unsolvable-up-to":
            try:
                bound = int(arg)
            except ValueError:
                raise CorpusError(f"line {line_no}: bound must be an integer, got {arg!r}") from None
            entries.append(CorpusEntry(name, instance, False, None, bound))
        else:
            raise CorpusError(f"line {line_no}: unknown status {status!r}")
    return Corpus(tuple(entries))


@dataclass(frozen=True)
class CorpusRow:
    name: str
    brute: tuple[int, ...] | None
    reduced: tuple[int, ...] | None
    agree: bool
    matches_status: bool
    elapsed: float


@dataclass(frozen=True)
class CorpusReport:
    rows: tuple[CorpusRow, ...]
    max_k: int

    @property
    def all_agree(self) -> bool:
        return all(row.agree and row.matches_status for row in self.rows)

    def render(self) -> str:
        def show(word) -> str:
            return format_index_word(word) if word else f"none up to {self.max_k}"

        lines = [f"{'instance':24} {'brute':>12} {'reduction':>12} {'agree':>6} {'time':>8}"]
        for row in self.rows:
            lines.append(
                f"{row.name:24} {show(row.brute):>12} {show(row.reduced):>12} "
                f"{'yes' if row.agree else 'NO':>6} {row.elapsed:7.3f}s"
            )
        return "\n".join(lines) + "\n"


def corpus_check(corpus: Corpus, max_k: int) -> CorpusReport:
    """Run both search procedures over every entry and compare."""
    rows = []
    for entry in corpus.entries:
        started = time.monotonic()
        brute = brute_force_pcp(entry.instance, max_k)
        reduced = search_via_reduction(entry.instance, max_k)
        agree = brute == reduced
        if entry.solvable and len(entry.witness or ()) <= max_k:
            matches = brute is not None and check_solution(entry.instance, brute)
        elif not entry.solvable and (entry.unsolvable_bound or 0) >= max_k:
            matches = brute is None
        else:
            matches = True
        rows.append(
            CorpusRow(entry.name, brute, reduced, agree, matches, time.monotonic() - started)
        )
    return CorpusReport(tuple(rows), max_k)
