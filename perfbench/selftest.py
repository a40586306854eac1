"""Tiny-size self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, at ``--size tiny``:

* an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and no invocation fails;
* two traced runs with the same seed print every per-layer metric, and
  their counts (units ``count``, ``bytes`` and ``ratio``) agree exactly;
* a run with ``--corrupt`` damages one output per pass, and the checks
  count the failures.

Last, a directory holding only BENCHMARK.json and perfbench/ makes the
benchmark exit nonzero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
COUNT_UNITS = {"count", "bytes", "ratio"}


def bench(workload: str, trace: int, *extra: str, cwd: Path | None = None,
          seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, sorted(set(got) ^ {
        m["name"] for m in wanted})
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result_of(bench(workload, 0))
        assert_metrics(plain, spec["end_to_end"])
        assert plain["correct"] and plain["failed"] == 0, plain
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain

        first, second = (result_of(bench(workload, 1)) for _ in range(2))
        for traced in (first, second):
            assert_metrics(traced, spec["per_layer"])
            assert traced["correct"], traced
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs: {a} vs {b}"

        broken = result_of(bench(workload, 0, "--corrupt"))
        assert broken["failed"] > 0 and not broken["correct"], broken
        print(f"ok {workload}: {plain['attempted']} calls checked; corrupted run "
              f"failed {broken['failed']}/{broken['attempted']}", flush=True)

    bare = Path(".perfbench_work") / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2("BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(spec["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    print("ok: without src/cylgalton the benchmark exits "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
