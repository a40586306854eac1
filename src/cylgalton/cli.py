"""Command-line front end.

Subcommands: lattice, pmf, wn, simulate, sweep, plot.  Each command only
computes: it returns its files as an ordered list of (path, payload)
pairs and does no I/O of its own.  main() then writes every payload and
a manifest (<out stem>.manifest.json) built from the same list, echoing
the command, parameters, seed, output paths, and tool version.  A
command that fails writes nothing.  Data files are UTF-8 with LF line
endings and full round-trip float precision, so identical invocations
produce byte-identical files.

Errors exit nonzero with a single line on stderr:
``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .angular import (TWO_PI, AngularPMF, ParseError, pmf_from_csv,
                      pmf_from_json, pmf_to_csv, pmf_to_json_dict)
from .diagnostics import (compare, normal_limit_pmf, sweep_to_csv,
                          sweep_uniformity)
from .geometry import (LatticeSpec, build_lattice, export_pegs, preset,
                       preset_names)
from .svgplot import cylinder_svg, ring_svg
from .walk_sim import (DEFAULT_CHUNK, WalkConfig, histogram_to_csv, simulate,
                       unwrapped_stats)
from .wrapped_binomial import (WrappedBinomial, centered_angle, full_pmf,
                               trig_moments)
from .wrapped_normal import WrappedNormal, bin_probs, density

DENSITY_CSV_HEADER = "theta,f"

# Largest --sigma whose square is a finite float.
_SIGMA_MAX = math.sqrt(sys.float_info.max)

# What a command returns: the files to write, in order.
Outputs = list[tuple[Path, str | bytes]]


def _json(doc, sort_keys: bool = True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def _sidecar(out: Path, tag: str, suffix: str | None = None) -> Path:
    ext = suffix if suffix is not None else out.suffix or ".csv"
    return out.with_suffix("").with_name(out.with_suffix("").name + f".{tag}{ext}")


def _manifest(args: argparse.Namespace, outputs: Outputs) -> tuple[Path, str]:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "command") and not k.startswith("_")}
    doc = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "outputs": [str(path) for path, _ in outputs],
        "tool_version": __version__,
    }
    return _sidecar(Path(args.out), "manifest", ".json"), _json(doc)


def _pmf_payload(pmf: AngularPMF, fmt: str, bounds=None) -> str:
    if fmt == "json":
        return _json(pmf_to_json_dict(pmf, bounds), sort_keys=False)
    return pmf_to_csv(pmf, bounds)


def cmd_lattice(args) -> Outputs:
    if args.preset:
        spec = preset(args.preset).spec
    elif args.M is None or args.n is None:
        raise ValueError("either --preset or both --M and --n are required")
    else:
        spec = LatticeSpec.from_angular(R=args.R, M=args.M, n=args.n, h=args.h,
                                        r_peg=args.r_peg, r_ball=args.r_ball)
    return [(Path(args.out), export_pegs(build_lattice(spec), args.format))]


def cmd_pmf(args) -> Outputs:
    wb = WrappedBinomial(n=args.n, M=args.M, p=args.p)
    pmf = full_pmf(wb)
    bounds = None
    if args.centered:
        # slot arcs around each landing atom, in the centered frame (-pi, pi]
        half = math.pi / wb.M
        bounds = [(atom - half, atom + half)
                  for atom in (centered_angle(wb, k) for k in range(wb.M))]
    out = Path(args.out)
    outputs = [(out, _pmf_payload(pmf, args.format, bounds))]
    if args.moments:
        outputs.append((_sidecar(out, "moments", ".json"),
                        _json(asdict(trig_moments(wb)))))
    return outputs


def cmd_wn(args) -> Outputs:
    # also rejects nan and inf, and a sigma whose square over- or underflows
    if not (0.0 < args.sigma < _SIGMA_MAX and args.sigma**2 > 0.0):
        raise ValueError(f"--sigma must be > 0 with a finite, nonzero square, "
                         f"got {args.sigma!r}")
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    wn = WrappedNormal(mu=args.mu, sigma2=args.sigma**2)
    thetas = [TWO_PI * i / args.samples for i in range(args.samples)]
    values = density(wn, np.array(thetas)).tolist()
    if args.format == "json":
        samples = [{"theta": t, "f": f} for t, f in zip(thetas, values)]
        text = _json({"samples": samples}, sort_keys=False)
    else:
        lines = [DENSITY_CSV_HEADER]
        lines.extend(f"{t!r},{f!r}" for t, f in zip(thetas, values))
        text = "\n".join(lines) + "\n"
    out = Path(args.out)
    return [(out, text),
            (_sidecar(out, "bins"), _pmf_payload(bin_probs(wn, args.M), args.format))]


def _comparison_target(args, config: WalkConfig) -> AngularPMF:
    if args.compare == "exact":
        m = config.n + 1 if config.planar else config.M
        return full_pmf(WrappedBinomial(n=config.n, M=m, p=config.p))
    if config.planar:
        raise ValueError("--compare wn needs a wrapped board (drop --planar)")
    return normal_limit_pmf(config.n, config.M, config.p)


def cmd_simulate(args) -> Outputs:
    config = WalkConfig(n=args.n, M=None if args.planar else args.M, p=args.p,
                        balls=args.balls, seed=args.seed)
    # built first, so a comparison that cannot be made fails before the walk
    target = None if args.compare is None else _comparison_target(args, config)
    result = simulate(config, chunk=args.chunk)
    hist = result.histogram
    out = Path(args.out)
    report = None if target is None else compare(hist, target)

    if args.format == "csv":
        outputs = [(out, histogram_to_csv(hist))]
        if report is not None:
            outputs.append((_sidecar(out, "compare", ".json"), _json(asdict(report))))
        return outputs
    stats = None
    if not config.planar:
        mean, var = unwrapped_stats(result.rights, config.M)
        stats = {"mean": mean, "variance": var}
    doc = {
        "command": "simulate",
        "config": {"n": config.n, "M": config.M, "p": config.p,
                   "balls": config.balls, "planar": config.planar},
        "seed": config.seed,
        "total": hist.total,
        "histogram": {"M": hist.M, "counts": list(hist.counts)},
        "unwrapped": stats,
        "comparison": asdict(report) if report else None,
    }
    return [(out, _json(doc))]


def cmd_sweep(args) -> Outputs:
    ns = []
    for part in filter(str.strip, args.n.split(",")):
        try:
            ns.append(int(part))
        except ValueError:
            raise ValueError(f"--n takes comma-separated integers, "
                             f"got {part.strip()!r}") from None
    return [(Path(args.out), sweep_to_csv(sweep_uniformity(args.M, args.p, ns)))]


def _load(path: Path, from_json, from_csv):
    """Parse a file with from_json if it is a JSON document, else from_csv."""
    text = path.read_text(encoding="utf-8")
    is_json = path.suffix == ".json" or text.lstrip().startswith("{")
    return (from_json if is_json else from_csv)(text)


def _density_sample(theta, f) -> tuple[float, float]:
    """One (theta, f) density sample: theta finite, f finite and >= 0."""
    theta, f = float(theta), float(f)
    if not (math.isfinite(theta) and 0.0 <= f < math.inf):
        raise ValueError(f"need a finite theta and a finite f >= 0, got {theta!r}, {f!r}")
    return theta, f


def _density_from_json(text: str) -> list[tuple[float, float]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    try:
        rows = [(s["theta"], s["f"]) for s in doc["samples"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"not a density document: {exc}", 1) from None
    samples = []
    for i, (theta, f) in enumerate(rows):
        try:
            samples.append(_density_sample(theta, f))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"sample {i}: {exc}", None) from None
    if not samples:
        raise ParseError("no samples", None)
    return samples


def _density_from_csv(text: str) -> list[tuple[float, float]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != DENSITY_CSV_HEADER:
        raise ParseError(f"expected header {DENSITY_CSV_HEADER!r}", 1)
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", i)
        try:
            samples.append(_density_sample(*fields))
        except ValueError as exc:
            raise ParseError(str(exc), i) from None
    if not samples:
        raise ParseError("no sample rows", max(2, len(lines)))
    return samples


def cmd_plot(args) -> Outputs:
    if args.style == "ring":
        svg = ring_svg([_load(Path(p), pmf_from_json, pmf_from_csv)
                        for p in args.inputs])
    else:
        if len(args.inputs) != 1:
            raise ValueError("cylinder style takes exactly one density file")
        svg = cylinder_svg(_load(Path(args.inputs[0]), _density_from_json,
                                 _density_from_csv))
    return [(Path(args.out), svg)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylgalton",
        description="Cylindrical Galton board: exact slot laws, lattice "
                    "geometry, seeded Monte Carlo, and figure output.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="emit peg coordinates for a board")
    lat.add_argument("--preset", choices=preset_names(),
                     help="documented board preset")
    lat.add_argument("--M", type=int, help="angular slots (custom board)")
    lat.add_argument("--n", type=int, help="peg rows (custom board)")
    lat.add_argument("--R", type=float, default=5.7, help="cylinder radius, cm")
    lat.add_argument("--h", type=float, default=1.02, help="row spacing, cm")
    lat.add_argument("--r-peg", dest="r_peg", type=float, default=0.1)
    lat.add_argument("--r-ball", dest="r_ball", type=float, default=0.4)
    lat.add_argument("--format", choices=("csv", "json"), default="csv")
    lat.add_argument("--out", required=True)
    lat.set_defaults(func=cmd_lattice)

    pm = sub.add_parser("pmf", help="exact slot distribution after n rows")
    pm.add_argument("--n", type=int, required=True, help="peg rows")
    pm.add_argument("--M", type=int, required=True, help="angular slots")
    pm.add_argument("--p", type=float, default=0.5, help="rightward probability")
    pm.add_argument("--moments", action="store_true",
                    help="also write first trigonometric moments")
    pm.add_argument("--centered", action="store_true",
                    help="label slots with centered angles in (-pi, pi]")
    pm.add_argument("--format", choices=("csv", "json"), default="csv")
    pm.add_argument("--out", required=True)
    pm.set_defaults(func=cmd_pmf)

    wn = sub.add_parser("wn", help="wrapped normal density samples and bin masses")
    wn.add_argument("--mu", type=float, required=True)
    wn.add_argument("--sigma", type=float, required=True)
    wn.add_argument("--M", type=int, default=24, help="slots for bin masses")
    wn.add_argument("--samples", type=int, default=720)
    wn.add_argument("--format", choices=("csv", "json"), default="csv")
    wn.add_argument("--out", required=True)
    wn.set_defaults(func=cmd_wn)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo of the ball walk")
    sim.add_argument("--n", type=int, required=True, help="peg rows")
    sim.add_argument("--M", type=int, default=24, help="angular slots")
    sim.add_argument("--planar", action="store_true",
                     help="flat board: bins 0..n, no wrapping")
    sim.add_argument("--p", type=float, default=0.5)
    sim.add_argument("--balls", type=int, default=2000,
                     help="ball count (default matches the demonstration run)")
    sim.add_argument("--seed", type=int, default=0, help="64-bit seed")
    sim.add_argument("--compare", choices=("exact", "wn"),
                     help="append a comparison against the stated law")
    sim.add_argument("--chunk", type=int, default=DEFAULT_CHUNK,
                     help="upper bound on balls per processing block "
                          "(result-invariant)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="convergence ladder over row counts")
    sw.add_argument("--M", type=int, required=True)
    sw.add_argument("--p", type=float, default=0.5)
    sw.add_argument("--n", required=True, help="comma-separated row counts")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)

    pl = sub.add_parser("plot", help="render distributions to SVG")
    pl.add_argument("--style", choices=("ring", "cylinder"), required=True)
    pl.add_argument("inputs", nargs="+",
                    help="PMF files (ring) or one density CSV (cylinder)")
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs = args.func(args)
        for path, payload in [*outputs, _manifest(args, outputs)]:
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(payload, str):
                payload = payload.encode("utf-8")
            path.write_bytes(payload)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 1
    except (ValueError, LookupError, ArithmeticError) as exc:
        kind = type(exc).__name__
        message = str(exc).splitlines()[0] if str(exc) else kind
        print(f"error: {kind}: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
