"""Repeat the benchmark over seeds and record medians, spreads and predictions.

Run from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --first-seed 11 --no-trace   # a repeat set

For each workload it makes ``RUNS`` untraced runs, one per seed, and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound.  It
then makes one traced run per workload, evaluates the layer predictions
of perfbench/README.md on it, and times ``simulate`` (n = 96, 10^6 balls)
and ``full_pmf`` (n = 10^6) directly for comparison with earlier figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Untraced runs per workload, each with its own seed.
RUNS = 10

# Direct timings of the two hot calls, median of three, in a fresh interpreter.
DIRECT = """
import json, statistics, time
from cylgalton.walk_sim import WalkConfig, simulate
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf

def median_time(fn):
    times = []
    for _ in range(3):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)

print(json.dumps({
    "simulate_n96_balls1e6_s": median_time(
        lambda: simulate(WalkConfig(n=96, M=24, p=0.5, balls=10**6, seed=1))),
    "full_pmf_n1e6_s": median_time(
        lambda: full_pmf(WrappedBinomial(10**6, 24, 0.5))),
}))
"""
# Earlier timings of the same two calls on this 2-core box (ROADMAP.md, item 1).
EARLIER = {"simulate_n96_balls1e6_s": 2.52, "full_pmf_n1e6_s": 1.30}


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return env, json.loads(lines[-1])


def summary(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2, "bound": bound}


def predictions(traced: dict) -> dict:
    """The traced shares that perfbench/README.md predicts, per workload."""
    out = {}
    if "mc-deep" in traced:
        m = traced["mc-deep"]
        out["mc-deep: walk_sim.simulate.self_s / trace.wall_s >= 0.9"] = (
            m["walk_sim.simulate.self_s"] / m["trace.wall_s"])
    if "exact-ladder" in traced:
        m = traced["exact-ladder"]
        out["exact-ladder: wrapped_binomial.self_s / trace.wall_s >= 0.8"] = (
            m["wrapped_binomial.self_s"] / m["trace.wall_s"])
        out["exact-ladder: wrapped_binomial.unique_law_ratio < 1"] = (
            m["wrapped_binomial.unique_law_ratio"])
        out["exact-ladder: walk_sim.simulate.calls == 0"] = m["walk_sim.simulate.calls"]
    if "figures" in traced:
        m = traced["figures"]
        density = sum(m[f"wrapped_normal.{f}.self_s"]
                      for f in ("density", "density_fourier", "density_wrapped"))
        layers = sum(m[f"{layer}.self_s"] for layer in ("cli", "angular", "geometry", "svgplot"))
        out["figures: (cli + angular + geometry + svgplot + density) / trace.wall_s > 0.5"] = (
            (layers + density) / m["trace.wall_s"])
    return out


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    traced = {}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        results = []
        for seed in seeds:
            env, result = bench(workload, seed, seconds, 0)
            results.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  flush=True)
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                               for r in results], m["bound"])
                           for m in spec["end_to_end"]},
        }
        for m in spec["end_to_end"]:
            s = entry["end_to_end"][m["name"]]
            print(f"  {workload} {m['name']}: median {s['median']:.6g} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        if not args.no_trace:
            _, result = bench(workload, seeds[0], seconds, 1)
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer"] = traced[workload]
        doc["workloads"][workload] = entry
        doc["env"] = env
    if not args.no_trace:
        doc["predictions"] = predictions(traced)
        env_vars = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        direct = json.loads(subprocess.run(
            [sys.executable, "-c", DIRECT], env=env_vars, capture_output=True,
            text=True, check=True, timeout=200).stdout)
        doc["direct"] = {k: {"measured_s": v, "earlier_s": EARLIER[k],
                             "ratio": v / EARLIER[k]} for k, v in direct.items()}
        print(json.dumps({"predictions": doc["predictions"], "direct": doc["direct"]},
                         indent=2))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
