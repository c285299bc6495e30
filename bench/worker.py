"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this file as a child process, so module-level caches of
the package (such as the propositional-verdict caches in ``ppda.pctl`` and
the memoized hashes on the shared certification formulas) never carry from
one run into the next. It imports ``ppda`` from the checkout's ``src``
directory and from nowhere else.

    python3 bench/worker.py --workload W --seed N --seconds S
        [--setup-only] [--trace] [--tiny] [--corrupt]

With ``--setup-only`` it generates the inputs and exits; the parent times
that as the set-up, scaled by the host speed sampled while the inputs were
generated. Otherwise it runs whole rounds until ``--seconds`` of
round time have passed (at least the digest rounds), checks every answer
against the reference outside the timed region, and prints one JSON line.
A traced run also writes its raw spans to ``bench/out/spans-<workload>.*``;
the latest traced run of a workload overwrites them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from array import array
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import ppda

    if SRC not in Path(ppda.__file__).resolve().parents:
        raise SystemExit(f"ppda was imported from {ppda.__file__}, not from {SRC}")


def percentile(latencies: array, weights: array, q: float) -> float:
    """Nearest-rank percentile of weighted samples."""
    need = q * sum(weights)
    seen = 0
    for i in sorted(range(len(latencies)), key=latencies.__getitem__):
        seen += weights[i]
        if seen >= need:
            return latencies[i]
    return max(latencies)


def measure(workload, sampler, seconds: float, corrupt: bool) -> dict:
    """Whole cycles of rounds until ``seconds`` of round time, host-calibrated.

    Each round's time and op latencies are scaled by the host speed sampled
    while it ran (see hostspeed).
    """
    # Compact arrays, so that the samples barely add to the peak memory.
    latencies, weights = array("d"), array("q")
    digest = hashlib.sha256()
    elapsed = calibrated = 0.0
    attempted = failed = decided = 0
    r = 0
    while r < workload.digest_rounds or elapsed < seconds or r % workload.cycle:
        mark = sampler.mark()
        began = sampler.clock()
        ops, answer = workload.run_round(r, sampler.clock)
        took = sampler.clock() - began
        # Everything below is outside the timed region.
        factor = sampler.factor(mark)
        elapsed += took
        calibrated += took * factor
        for latency, weight in ops:
            latencies.append(latency * factor)
            weights.append(weight)
        if corrupt and r == 0:
            answer = workload.corrupt(r, answer)
        attempted += sum(weight for _, weight in ops)
        failed += workload.failures(r, answer)
        decided += workload.decided(r, answer)
        if r < workload.digest_rounds:
            digest.update(workload.answer_text(r, answer).encode())
        r += 1
    return {
        "rounds": r,
        "attempted": attempted,
        "failed": failed,
        "measured_s": elapsed,
        "host_factor": calibrated / elapsed,
        "raw_ops_per_s": attempted / elapsed,
        "ops_per_s": attempted / calibrated,
        "op_p50_ms": 1000 * percentile(latencies, weights, 0.50),
        "op_p99_ms": 1000 * percentile(latencies, weights, 0.99),
        "op_samples": attempted,
        "decided_ratio": decided / attempted,
        "answer_digest": digest.hexdigest(),
        "answer_digest_rounds": workload.digest_rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    with hostspeed.Sampler() as sampler:
        workload = workloads.make(args.workload, args.seed, args.tiny, workdir)
    try:
        if args.setup_only:
            text = workload.inputs_text()
            print(json.dumps({"inputs_digest": hashlib.sha256(text.encode()).hexdigest(),
                              "kernel_s": sampler.kernel_s, "host_factor": sampler.factor(0)}))
            return 0
        sampler = hostspeed.Sampler()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.install(sampler.clock)
        with sampler:
            result = measure(workload, sampler, args.seconds, args.corrupt)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.summary(result["attempted"], result["host_factor"])
            result["spans"] = len(tracer.span_name)
            result["spans_by_name"] = tracer.per_name()
            (BENCH_DIR / "out").mkdir(exist_ok=True)
            tracer.write_spans(BENCH_DIR / "out" / f"spans-{args.workload}.json")
        print(json.dumps(result))
        return 0
    finally:
        workload.close()
        if workdir.exists():
            workdir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
