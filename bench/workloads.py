"""The four benchmark workloads: seeded inputs, timed rounds, reference checks.

Every workload runs in rounds: one instance for ``sweep`` and ``search``,
one query for ``cyclic`` and ``nested``. A run stops only after a whole
cycle of ``cycle`` rounds (the two budgets of ``cyclic``, the two instance
kinds of ``nested``), so a short run has the same op mix as a long one.

A round returns ``(ops, answer)``: ``ops`` is a list of ``(latency_s,
weight)`` samples and ``answer`` is whatever the program returned (an
exception raised inside an op is caught and becomes its answer, so it
counts as a failed op). The reference check, the canonical answer text for
the digest and the deliberate corruption used by the self-test all take
that answer, and all run outside the timed region.

The reference side never goes through the evaluator: solutions are checked
by concatenating words, and until-probabilities by the memoization-free
path enumeration of ``ppda.oracle``.
"""
from __future__ import annotations

import dataclasses
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

from ppda import cli, oracle, pctl, reduction
from ppda.chain import Budget
from ppda.reduction import CertifyReport, PcpInstance, Variant

LETTERS = "AB"
PAD_SIGMA = ("A", "B", "_")


def words_up_to(max_len: int) -> list[str]:
    return ["".join(t) for k in range(max_len + 1) for t in product(LETTERS, repeat=k)]


def index_words(n: int, max_k: int):
    """Index words shortest first, then lexicographic: the search order."""
    for k in range(1, max_k + 1):
        yield from product(range(1, n + 1), repeat=k)


def is_solution(pairs, word) -> bool:
    return "".join(pairs[j - 1][0] for j in word) == "".join(pairs[j - 1][1] for j in word)


def first_solution(pairs, max_k: int):
    for word in index_words(len(pairs), max_k):
        if is_solution(pairs, word):
            return word
    return None


def error_text(exc: BaseException) -> str:
    return f"error={type(exc).__name__}: {exc}"


# Until-operand predicates over label sets, written against the proposition
# names of the reduction so that they share nothing with the evaluator.
def phi1_operands(labels):
    left = "S" not in labels and not any(f"X({x},{z})" in labels for x in LETTERS for z in PAD_SIGMA)
    right = any(f"X(A,{z})" in labels for z in PAD_SIGMA)
    return left, right


def phi2_operands(labels):
    left = "F" not in labels and not any(f"X({z},{y})" in labels for y in LETTERS for z in PAD_SIGMA)
    right = any(f"X({z},B)" in labels for z in PAD_SIGMA)
    return left, right


class Workload:
    # Rounds always run, whatever the time limit; their answers make the
    # digest, so two runs of one seed hash the same answers.
    digest_rounds = 1
    cycle = 1

    def run_round(self, r: int, clock):
        """Run round ``r``, timing ops with ``clock`` (seconds)."""
        raise NotImplementedError

    def failures(self, r: int, answer) -> int:
        """How many of the round's ops disagree with the reference or raised."""
        raise NotImplementedError

    def decided(self, r: int, answer) -> int:
        """How many of the round's queries ended in a definite answer."""
        raise NotImplementedError

    def answer_text(self, r: int, answer) -> str:
        raise NotImplementedError

    def corrupt(self, r: int, answer):
        raise NotImplementedError

    def inputs_text(self) -> str:
        """Canonical text of the generated inputs (for the seed self-test)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Criterion-4/8 sweep: one warm session per instance, certify every word.

    Op: one ``certify`` of an index word. The instance space is every
    instance of at most 2 pairs over words of at most 2 letters, in a seeded
    order; the variant rotates with the round.
    """

    digest_rounds = 8
    MAX_K = 4
    VARIANTS = ("default", "cf-simple", "n-chain 2")
    ENUMERATE_EVERY = 64

    def __init__(self, seed: int, tiny: bool) -> None:
        words = words_up_to(2)
        pairs = [p for p in product(words, repeat=2) if p != ("", "")]
        space = [PcpInstance((p,)) for p in pairs]
        space += [PcpInstance((a, b)) for a in product(words, repeat=2) for b in product(words, repeat=2)
                  if (a, b) != (("", ""), ("", ""))]
        rng = random.Random(f"sweep:{seed}")
        rng.shuffle(space)
        self.instances = space
        self.variants = [Variant.parse(v) for v in self.VARIANTS]
        self.check_rng = random.Random(f"sweep-check:{seed}")

    def item(self, r: int):
        return self.instances[r % len(self.instances)], self.variants[r % len(self.variants)]

    def run_round(self, r: int, clock):
        instance, variant = self.item(r)
        ops, reports = [], []
        start = clock()
        try:
            artifact = reduction.compile_instance(instance, variant)
            session = reduction.sweep_session(artifact, self.MAX_K)
        except Exception as exc:
            return [(clock() - start, 1)], exc
        for word in index_words(instance.n, self.MAX_K):
            began = clock()
            try:
                report = reduction.certify(instance, word, artifact=artifact, session=session)
            except Exception as exc:
                report = exc
            ops.append((clock() - began, 1))
            reports.append(report)
        return ops, reports

    def failures(self, r: int, answer) -> int:
        if isinstance(answer, Exception):
            return 1
        instance, variant = self.item(r)
        failed = 0
        for word, report in zip(index_words(instance.n, self.MAX_K), answer):
            sampled = self.check_rng.randrange(self.ENUMERATE_EVERY) == 0
            if not (isinstance(report, CertifyReport) and report.word == word
                    and report.formula_holds == is_solution(instance.pairs, word)
                    and (not sampled or self._matches_enumeration(instance, variant, word, report))):
                failed += 1
        return failed

    @staticmethod
    def _matches_enumeration(instance, variant, word, report) -> bool:
        artifact = reduction.compile_instance(instance, variant)
        gen = artifact.chain
        state = reduction.check_config(artifact, word)
        depth = 4 * len(state.stack) + 8
        for operands, value in ((phi1_operands, report.p_phi1_at_N), (phi2_operands, report.p_phi2_at_N)):
            expected = oracle.enumerate_until_probability(
                gen,
                state.encode(),
                lambda s: operands(gen.labels(s))[0],
                lambda s: operands(gen.labels(s))[1],
                max_depth=depth,
            )
            if expected != value:
                return False
        return True

    def decided(self, r: int, answer) -> int:
        if isinstance(answer, Exception):
            return 0
        return sum(isinstance(rep, CertifyReport) for rep in answer)

    def answer_text(self, r: int, answer) -> str:
        if isinstance(answer, Exception):
            return error_text(answer)
        _, variant = self.item(r)
        head = f"variant={variant.kind.value}:{variant.chain_length}\n"
        return head + "".join(rep.to_text() if isinstance(rep, CertifyReport) else error_text(rep) + "\n"
                              for rep in answer)

    def corrupt(self, r: int, answer):
        first = dataclasses.replace(answer[0], formula_holds=not answer[0].formula_holds)
        return [first] + answer[1:]

    def inputs_text(self) -> str:
        return "\n".join(repr(i.pairs) for i in self.instances)


class Search(Workload):
    """``ppda search --engine both``: brute force, then certification search.

    Op: one ``certify`` of an index word. ``search_via_reduction`` compiles
    the instance and certifies words with a fresh evaluator each, in search
    order, until the first solution; the op count of a round is the number
    of words it had to certify, taken from the reference search. Per-op
    latency is the round time spread evenly over those words.

    Rounds go in cycles of twelve: each (pairs, pad length) shape once
    with an instance solvable within k=5 and once with one that is not, so
    every run has the same mix of sizes and search lengths; the words
    themselves are seeded.
    """

    MAX_K = 5
    SHAPES = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))
    digest_rounds = cycle = 2 * len(SHAPES)
    CYCLES = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(f"search:{seed}")
        self.instances, self.reference = [], []
        for i in range(self.CYCLES * self.cycle):
            n, m = self.SHAPES[i // 2 % len(self.SHAPES)]
            while True:
                pairs = tuple(("".join(rng.choice(LETTERS) for _ in range(rng.randint(0, m))),
                               "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, m))))
                              for _ in range(n))
                if max(len(w) for pair in pairs for w in pair) != m:
                    continue
                witness = first_solution(pairs, self.MAX_K)
                if (witness is None) == bool(i % 2):
                    break
            self.instances.append(PcpInstance(pairs))
            self.reference.append(witness)

    def item(self, r: int):
        """(instance, reference witness or None) for round r."""
        i = r % len(self.instances)
        return self.instances[i], self.reference[i]

    def words_examined(self, r: int) -> int:
        instance, witness = self.item(r)
        if witness is None:
            return sum(instance.n ** k for k in range(1, self.MAX_K + 1))
        return list(index_words(instance.n, len(witness))).index(witness) + 1

    def run_round(self, r: int, clock):
        instance, _ = self.item(r)
        start = clock()
        try:
            answer = (oracle.brute_force_pcp(instance, self.MAX_K),
                      oracle.search_via_reduction(instance, self.MAX_K))
        except Exception as exc:
            answer = exc
        elapsed = clock() - start
        words = self.words_examined(r)
        return [(elapsed / words, words)], answer

    def failures(self, r: int, answer) -> int:
        if isinstance(answer, Exception) or not answer[0] == answer[1] == self.item(r)[1]:
            return self.words_examined(r)
        return 0

    def decided(self, r: int, answer) -> int:
        return 0 if isinstance(answer, Exception) else self.words_examined(r)

    def answer_text(self, r: int, answer) -> str:
        if isinstance(answer, Exception):
            return error_text(answer)
        return f"brute={answer[0]}\nreduction={answer[1]}\n"

    def corrupt(self, r: int, answer):
        brute, reduced = answer
        return brute, ((1,) if reduced is None else None)

    def inputs_text(self) -> str:
        return "\n".join(repr(i.pairs) for i in self.instances)


class Cyclic(Workload):
    """``ppda eval`` on a model with a cyclic variable graph, in process.

    Op: one ``cli.main`` query. The model is the ROADMAP's cyclic model,
    ``X -> X Y [1/2] | ~ [1/2]``, ``Y -> X [1/2] | Y Y [1/4] | ~ [1/4]``,
    ``Z -> ~ [1]``, and the query ``(P> 0 (U (not (ap Z)) (ap Z)))`` at X,
    whose true value is 0. The seed renames the three symbols to other
    letters in the same order (so the sorted state order, and with it the
    elimination, is unchanged) and shuffles the rule lines.
    """

    digest_rounds = cycle = 2
    MAX_STATES = (100, 150)
    TINY_MAX_STATES = (20, 30)
    # Breadth-first exploration of N states never goes deeper than N.
    MAX_DEPTH = 1000

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        rng = random.Random(f"cyclic:{seed}")
        x, y, z = sorted(rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 3))
        rules = [f"{x} -> {x} {y} [1/2]", f"{x} -> ~ [1/2]", f"{y} -> {x} [1/2]",
                 f"{y} -> {y} {y} [1/4]", f"{y} -> ~ [1/4]", f"{z} -> ~ [1]"]
        rng.shuffle(rules)
        self.model_text = f"# cyclic model, seed {seed}\n" + "\n".join(rules) + "\n"
        self.formula_text = f"(P> 0 (U (not (ap {z})) (ap {z})))\n"
        self.config = x
        self.budgets = self.TINY_MAX_STATES if tiny else self.MAX_STATES
        workdir.mkdir(parents=True, exist_ok=True)
        self.model_path = workdir / "cyclic.bpa"
        self.formula_path = workdir / "query.pctl"
        self.model_path.write_text(self.model_text, encoding="utf-8")
        self.formula_path.write_text(self.formula_text, encoding="utf-8")

    def run_round(self, r: int, clock):
        argv = ["eval", "--model", str(self.model_path), "--config", self.config,
                "--formula", str(self.formula_path), "--max-states", str(self.budgets[r % 2]),
                "--max-depth", str(self.MAX_DEPTH)]
        out, err = io.StringIO(), io.StringIO()
        began = clock()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            answer = (code, out.getvalue())
        except Exception as exc:
            answer = exc
        return [(clock() - began, 1)], answer

    @staticmethod
    def parse(answer):
        """(exit code, verdict, lo, hi) from the printed lines, or None."""
        if isinstance(answer, Exception):
            return None
        code, text = answer
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        try:
            lo_text, hi_text = fields["interval"].strip("[]").split(",")
            return code, fields["verdict"], Fraction(lo_text.strip()), Fraction(hi_text.strip())
        except (KeyError, ValueError):
            return None

    def failures(self, r: int, answer) -> int:
        parsed = self.parse(answer)
        if parsed is None:
            return 1
        code, verdict, lo, hi = parsed
        return int(verdict == "True" or code != 1 or lo != 0 or not lo <= hi <= 1)

    def decided(self, r: int, answer) -> int:
        parsed = self.parse(answer)
        return int(parsed is not None and (parsed[1] in ("True", "False") or parsed[2] == parsed[3]))

    def answer_text(self, r: int, answer) -> str:
        if isinstance(answer, Exception):
            return error_text(answer) + "\n"
        return f"exit={answer[0]}\n{answer[1]}"

    def corrupt(self, r: int, answer):
        return 0, "verdict=True\ninterval=[0, 1]\n"

    def inputs_text(self) -> str:
        return f"{self.model_text}{self.formula_text}{self.config}\n{self.budgets}\n"

    def close(self) -> None:
        self.model_path.unlink(missing_ok=True)
        self.formula_path.unlink(missing_ok=True)


class Nested(Workload):
    """Criterion 7: the top formula with nested probability operators at Z.

    Op: compile one instance, instantiate its top formula with t, and
    evaluate it at Z in a fresh evaluator under a fixed budget. Rounds
    alternate between a solvable instance (t from ``certify`` of its
    brute-force witness; the verdict must be True) and a hopeless one
    (every pair's words start with different letters, so no word is a
    solution; t is seeded; the verdict must never be True). All instances
    have 2 distinct pairs and pad length 2, so every op explores a region of
    the same shape.
    """

    digest_rounds = cycle = 2
    # The depth limit cuts the guessing region (the state limit never binds):
    # a cut by states falls part-way through a breadth-first layer, at a
    # point that depends on the letters, and splits op costs into two groups.
    BUDGET = Budget(100_000, 30)
    TINY_BUDGET = Budget(100_000, 18)
    MAX_WITNESS = 3
    POOL = 16

    def __init__(self, seed: int, tiny: bool) -> None:
        rng = random.Random(f"nested:{seed}")
        words = words_up_to(2)
        # Two equal pairs push the same letters whichever index is guessed,
        # so the guessing region stays a thin line and the op is trivial.
        candidates = [(a, b) for a in product(words, repeat=2) for b in product(words, repeat=2)
                      if max(len(w) for w in a + b) == 2 and a != b]
        rng.shuffle(candidates)
        self.solvable, self.hopeless = [], []
        for pairs in candidates:
            if len(self.solvable) < self.POOL:
                witness = first_solution(pairs, self.MAX_WITNESS)
                if witness is not None:
                    instance = PcpInstance(pairs)
                    t = reduction.certify(instance, witness).t
                    self.solvable.append((instance, t))
                    continue
            if len(self.hopeless) < self.POOL and all(u and v and u[0] != v[0] for u, v in pairs):
                self.hopeless.append((PcpInstance(pairs), Fraction(rng.randint(1, 15), 16)))
        self.budget = self.TINY_BUDGET if tiny else self.BUDGET

    def item(self, r: int):
        """((instance, t), solvable) for round r: solvable and hopeless alternate."""
        pool = self.hopeless if r % 2 else self.solvable
        return pool[(r // 2) % self.POOL], not r % 2

    def run_round(self, r: int, clock):
        (instance, t), _ = self.item(r)
        began = clock()
        try:
            artifact = reduction.compile_instance(instance)
            top = reduction.instantiate_top_formula(artifact, t)
            verdict = pctl.Evaluator(artifact.chain, self.budget).eval_state("Z", top)
        except Exception as exc:
            verdict = exc
        return [(clock() - began, 1)], verdict

    def failures(self, r: int, answer) -> int:
        _, solvable = self.item(r)
        return int(isinstance(answer, Exception) or (answer is pctl.TRUE) != solvable)

    def decided(self, r: int, answer) -> int:
        return int(answer is pctl.TRUE or answer is pctl.FALSE)

    def answer_text(self, r: int, answer) -> str:
        return (error_text(answer) if isinstance(answer, Exception) else f"verdict={answer}") + "\n"

    def corrupt(self, r: int, answer):
        return pctl.UNKNOWN if answer is pctl.TRUE else pctl.TRUE

    def inputs_text(self) -> str:
        return "\n".join(f"{i.pairs!r} t={t}" for i, t in self.solvable + self.hopeless)


def make(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    if name == "sweep":
        return Sweep(seed, tiny)
    if name == "search":
        return Search(seed, tiny)
    if name == "cyclic":
        return Cyclic(seed, tiny, workdir)
    if name == "nested":
        return Nested(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
