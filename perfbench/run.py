"""Benchmark of the cylgalton CLI on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones, from a separate traced run.  The
program is imported from the checkout's ``src``; a workload runs in its
own child process (worker.py), after a few fresh interpreters have timed
the set-up.  Informational lines (environment, pass counts, problems)
come first; the last stdout line is the JSON result.  The run exits 2
without a result when the checkout holds no ``src/cylgalton``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Fresh interpreters that time import + build_parser; setup_s is their median.
SETUP_PROBES = 7
# Whole-run limit, kept under the 180 s a run may take.
DEADLINE_S = 170.0
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import cylgalton.cli\n"
    "cylgalton.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def environment(src: Path) -> dict:
    """Recorded fields describing the machine and the program under test."""
    cpu, caches = platform.processor() or "unknown", {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
        caches = {key.lower(): int(value) for key, value in
                  (line.split(None, 1) for line in conf.splitlines()
                   if "CACHE_SIZE" in line and len(line.split()) == 2)}
    except (OSError, subprocess.TimeoutExpired, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "cache_bytes": caches,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((src / "cylgalton").rglob("*.py"))),
    }


def measure_setup(env: dict, deadline: float) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cylgalton CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output per pass, for the self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "cylgalton" / "cli.py").is_file():
        print(f"error: no src/cylgalton under {root}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    print("env " + json.dumps(environment(src), sort_keys=True), flush=True)
    try:
        measured = {} if args.trace else {"setup_s": measure_setup(env, deadline)}
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size,
             "--workdir", str(workdir), "--src", str(src)]
            + (["--corrupt"] if args.corrupt else []),
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured.update(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}: {result['passes']} "
          f"{'traced' if args.trace else 'timed'} passes after one warm-up pass, "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
