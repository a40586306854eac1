"""One workload run in its own process: passes over the CLI, checks, metrics.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Prints one
JSON object as its last stdout line: invocations attempted and failed,
the first few problems found, and a flat ``metrics`` dict.  The closed
loop has one caller on one thread: each ``cylgalton.cli.main`` call
starts after the previous one returns.

Untraced (``--trace 0``): one warm-up pass, then passes until ``--seconds``
have elapsed (at least ``MIN_PASSES``); reports the median pass time,
per-invocation latency percentiles and peak RSS.

Traced (``--trace 1``): one warm-up pass, then alternating untraced and
traced passes; reports per-layer self times and counters as the median
over traced passes, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

MIN_PASSES = 3
MAX_PROBLEMS = 5


def run_pass(cli, invocations) -> tuple[float, list[float], list[bool]]:
    """Wall time of the pass, latency and success of each invocation."""
    latencies, ok = [], []
    start = time.perf_counter()
    for inv in invocations:
        t0 = time.perf_counter()
        try:
            code = cli.main(inv.argv)
        except (Exception, SystemExit):
            code = -1
        latencies.append(time.perf_counter() - t0)
        ok.append(code == 0)
    return time.perf_counter() - start, latencies, ok


class Runner:
    def __init__(self, cli, workload, workdir: Path, corrupt: bool):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def one_pass(self, warmup: bool = False, tracer=None) -> tuple[float, list[float], dict]:
        """Run, check and clean up one pass; returns wall, latencies, file stats.

        The pass runs and is checked inside its own directory, because the
        invocations name their files relative to it.
        """
        d = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        d.mkdir(parents=True)
        with contextlib.chdir(d):
            invocations = self.workload.invocations(warmup)
            if tracer is not None:
                tracer.install()
            try:
                wall, latencies, ok = run_pass(self.cli, invocations)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if self.corrupt and not warmup:
                self.workload.corrupt()
            for inv, success in zip(invocations, ok):
                problems = [] if success else [f"{inv.argv[0]} exited nonzero or raised"]
                if success:
                    try:
                        problems = inv.check()
                    except Exception as exc:  # a malformed file is a failed check
                        problems = [f"{inv.argv[0]}: check raised {type(exc).__name__}: {exc}"]
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])
        files = [f for f in d.rglob("*") if f.is_file()]
        stats = {"cli.files_written": len(files),
                 "cli.bytes_written": sum(f.stat().st_size for f in files)}
        shutil.rmtree(d)
        return wall, latencies, stats


def timed_metrics(runner: Runner, seconds: float) -> dict[str, float]:
    runner.one_pass(warmup=True)
    walls, latencies = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, lat, _ = runner.one_pass()
        walls.append(wall)
        latencies.extend(lat)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "call_s.p50": statistics.median(latencies),
        "call_s.p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": len(walls),
    }


def layer_metrics(tracer, stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    self_s, total_s, calls = tracer.self_times()
    out: dict[str, float] = {}
    for name in tracer.names:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    counts = tracer.counts
    for key in ("walk_sim.ball_rows", "wrapped_binomial.calls",
                "wrapped_binomial.terms_requested", "wrapped_normal.density.points",
                "geometry.pegs", "geometry.bytes_out", "svgplot.bytes_out"):
        out[key] = counts.get(key, 0)
    sim_s = total_s.get("walk_sim.simulate", 0.0)
    out["walk_sim.ball_rows_per_s"] = out["walk_sim.ball_rows"] / sim_s if sim_s else 0.0
    law_calls = out["wrapped_binomial.calls"]
    out["wrapped_binomial.unique_law_ratio"] = (len(tracer.laws) / law_calls
                                                if law_calls else 0.0)
    out.update(stats)
    return out


def traced_metrics(runner: Runner, seconds: float) -> dict[str, float]:
    runner.one_pass(warmup=True)
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES - 1 or time.perf_counter() - start < seconds:
        plain.append(runner.one_pass()[0])
        tracer.reset()
        wall, _, stats = runner.one_pass(tracer=tracer)
        traced.append(wall)
        per_pass.append(layer_metrics(tracer, stats))
    out = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    out["trace.wall_s"] = statistics.median(traced)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["passes"] = len(traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)

    import cylgalton.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: cylgalton was imported from {cli.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size)
    runner = Runner(cli, workload, args.workdir, args.corrupt)
    measure = traced_metrics if args.trace else timed_metrics
    metrics = measure(runner, args.seconds)
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "problems": runner.problems, "passes": metrics.pop("passes"),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
