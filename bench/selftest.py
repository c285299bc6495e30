"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload with small budgets for one second and checks that

- every metric named in BENCHMARK.json is printed, with its unit, and
  nothing else (``--trace 0`` the end-to-end ones, ``--trace 1`` the
  per-layer ones);
- every answer passes its reference check, and the same seed gives the
  same answer digest in an untraced and a traced run;
- the seed changes the generated inputs, and the same seed reproduces them;
- the checker is not vacuous: a deliberately corrupted first answer
  (``--corrupt``) is counted as a failed op and makes the run incorrect;
- without the package sources, in a directory holding only BENCHMARK.json
  and the benchmark's files, the benchmark fails without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def inputs_digest(workload: str, seed: int) -> str:
    proc = subprocess.run([sys.executable, "bench/worker.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--setup-only", "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["inputs_digest"]


def check_metrics(result: dict, expected: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"units {[(n, got[n], want[n]) for n in got if n in want and got[n] != want[n]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} has no numeric value")


def check_workload(workload: str) -> None:
    seed = 7
    plain = result_of(bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0", "--tiny"))
    check_metrics(plain, SPEC["end_to_end"])
    if not (plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1):
        raise AssertionError(f"untraced run is not correct: {plain}")
    digest = record_of(workload, seed, 0)["untraced"]["answer_digest"]

    traced = result_of(bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1", "--tiny"))
    check_metrics(traced, SPEC["per_layer"])
    if not traced["correct"]:
        raise AssertionError(f"traced run is not correct: {traced}")
    record = record_of(workload, seed, 1)
    digests = {digest, record["untraced"]["answer_digest"], record["traced"]["answer_digest"]}
    if len(digests) != 1:
        raise AssertionError(f"one seed gave different answer digests: {digests}")

    corrupted = result_of(bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
                                "--tiny", "--corrupt"))
    if corrupted["correct"] or corrupted["failed"] < 1:
        raise AssertionError(f"a corrupted answer was not counted as failed: {corrupted}")

    first, again, other = inputs_digest(workload, 1), inputs_digest(workload, 1), inputs_digest(workload, 2)
    if first != again:
        raise AssertionError("the same seed generated different inputs")
    if first == other:
        raise AssertionError("seeds 1 and 2 generated the same inputs")


def check_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("the benchmark succeeded without the package sources")


def main() -> int:
    checks = [(f"workload {w}", lambda w=w: check_workload(w)) for w in WORKLOADS]
    checks.append(("fails without sources", check_without_sources))
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
