"""The ppda benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {sweep,search,cyclic,nested} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. The load is a closed loop with one
caller in one single-threaded process: ppda is a library and a CLI and
serves no traffic. This file never imports ``ppda``; every measurement
runs in a fresh interpreter (``worker.py``), one at a time.

``--trace 0`` times the set-up in several fresh interpreters (median),
then makes one untraced run, and prints the end-to-end metrics. Op times
are scaled to a reference host speed (``hostspeed.py``).
``--trace 1`` makes one untraced run and one traced run on the same
inputs, and prints the per-layer metrics, the traced throughput and the
tracing overhead against the untraced run.

Every answer is checked against an independent reference; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of the run, with the environment and
the answer digest, goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "search", "cyclic", "nested")
SETUP_PROBES = 7
# Each run must end within 180 s; the children share what is left of it.
DEADLINE_S = 170.0



class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without starting git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(ROOT),
    }


def run_worker(args, deadline: float, *extra: str) -> tuple[dict, float]:
    """Start one worker, wait for it, return its JSON line and wall time."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        argv.append("--tiny")
    began = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                              capture_output=True, text=True, timeout=max(deadline - began, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} did not finish within the run's deadline")
    wall = time.perf_counter() - began
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + DEADLINE_S
    corrupt = ("--corrupt",) if args.corrupt else ()
    plain, _ = run_worker(args, deadline, *corrupt)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "untraced": plain}
    runs = [plain]
    if args.trace:
        traced, _ = run_worker(args, deadline, "--trace", *corrupt)
        record["traced"] = traced
        runs.append(traced)
        layers = traced["layers"]
        metrics = {name: metric(layers[name], unit) for name, unit in LAYER_METRICS}
        metrics["decided_ratio"] = metric(plain["decided_ratio"], "ratio")
        metrics["trace.ops_per_s"] = metric(traced["ops_per_s"], "1/s")
        metrics["trace.overhead"] = metric(plain["ops_per_s"] / traced["ops_per_s"], "ratio")
    else:
        # The probe's own kernel calls are taken out of its wall time, and
        # the rest is scaled by the host speed they measured.
        walls, setups = [], []
        digests = set()
        for _ in range(SETUP_PROBES):
            probe, wall = run_worker(args, deadline, "--setup-only")
            walls.append(wall)
            setups.append((wall - probe["kernel_s"]) * probe["host_factor"])
            digests.add(probe["inputs_digest"])
        if len(digests) != 1:
            raise BenchError("the same seed generated different inputs")
        record["setup_wall_s"] = walls
        record["setup_s"] = setups
        record["inputs_digest"] = digests.pop()
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(plain["ops_per_s"], "1/s"),
            "op_p50_ms": metric(plain["op_p50_ms"], "ms"),
            "peak_rss_mb": metric(plain["peak_rss_mb"], "MB"),
        }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ppda benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size: small budgets")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt the first answer before it is checked")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ppda" / "__init__.py").is_file():
        print(f"error: no ppda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    run_info = record["traced" if args.trace else "untraced"]
    print(f"# {args.workload} seed={args.seed} rounds={run_info['rounds']} "
          f"op_samples={run_info['op_samples']} decided_ratio={run_info['decided_ratio']:.4f} "
          f"answer_digest={run_info['answer_digest'][:16]} env={json.dumps(record['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
