"""Shared fixtures, a table-to-pBPA chain builder and independent label
predicates used across test modules."""
from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from ppda import reduction
from ppda.pushdown import Bpa, BpaRule, ChainGenerator, Configuration, induced_chain

settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")

SIGMA = ("A", "B", "_")
SYMBOLS = ("W", "X", "Y")


@st.composite
def small_bpas(draw) -> Bpa:
    """Random pBPAs over three symbols; Y always has the quadratic rule Y -> Y Y."""
    bodies = st.lists(st.sampled_from(SYMBOLS), max_size=2).map(tuple)
    rules = []
    for head in SYMBOLS:
        chosen = draw(st.lists(bodies, min_size=1, max_size=3, unique=True))
        if head == "Y" and ("Y", "Y") not in chosen:
            chosen.append(("Y", "Y"))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(chosen), max_size=len(chosen)))
        rules += [BpaRule(head, body, Fraction(w, sum(weights))) for body, w in zip(chosen, weights)]
    return Bpa.make(rules)


_pcp_words = st.text(alphabet="AB", max_size=3)


@st.composite
def pcp_instances(draw) -> reduction.PcpInstance:
    """Instances of 1-3 pairs over words of at most 3 letters, not all empty."""
    pairs = draw(st.lists(st.tuples(_pcp_words, _pcp_words), min_size=1, max_size=3)
                 .filter(lambda ps: any(u or v for u, v in ps)))
    return reduction.PcpInstance(tuple(pairs))


def gen_from(table: dict, initial: str = "a") -> ChainGenerator:
    """The chain of ``table`` as a pBPA: each state is a one-symbol stack with a
    rule ``s -> t [p]`` per positive entry, and a state without a row loops on
    itself. So ``(ap s)`` holds exactly at the state s."""
    rows = {initial: [(initial, Fraction(1))]}
    rows.update({t: [(t, Fraction(1))] for row in table.values() for t, _ in row})
    rows.update(table)
    rules = [BpaRule(s, (t,), p) for s, row in rows.items() for t, p in row if p]
    return induced_chain(Bpa.make(rules), Configuration((initial,)))


# Until-operand predicates over label sets, written directly against the
# proposition names so they stay independent of the formula evaluator.
def phi1_left(labels) -> bool:
    if "S" in labels:
        return False
    return not any(f"X({x},{z})" in labels for x in "AB" for z in SIGMA)


def phi1_right(labels) -> bool:
    return any(f"X(A,{z})" in labels for z in SIGMA)


def phi2_left(labels) -> bool:
    if "F" in labels:
        return False
    return not any(f"X({z},{y})" in labels for y in "AB" for z in SIGMA)


def phi2_right(labels) -> bool:
    return any(f"X({z},B)" in labels for z in SIGMA)


@pytest.fixture
def digit_limit():
    """The interpreter's int/str conversion limit, held at its default of
    4,300 digits for one test and restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.fixture(scope="session")
def p1() -> reduction.PcpInstance:
    return reduction.PcpInstance((("AB", "A"), ("B", "BB")))


@pytest.fixture(scope="session")
def p1_artifact(p1) -> reduction.ReductionArtifact:
    return reduction.compile_instance(p1)


@pytest.fixture(scope="session")
def unsolvable() -> reduction.PcpInstance:
    return reduction.PcpInstance((("A", "B"),))
