"""Command-line front end.

Subcommands: lattice, pmf, wn, simulate, sweep, plot.  Each command only
computes: it returns its files as an ordered list of (path, payload)
pairs and does no I/O of its own.  main() then writes every payload and
a manifest (<out stem>.manifest.json) built from the same list, echoing
the command, parameters, seed, output paths, and tool version.  A
command that fails writes nothing: one that raises has written no file
yet, and when a write fails main() removes every file this call already
wrote (a directory it made stays).  An --out that names no file ('.',
'', '..') is an error before anything is computed.  Data files are
UTF-8 with LF line endings and full round-trip float precision, so
identical invocations produce byte-identical files.  ``simulate
--planar`` is the cylinder walk with M = n + 1.  A board flag that
--preset or --planar fixes is an error; the manifest records it as
null, any other as the value used.

A leading ``--`` is dropped when a word follows it, because argparse on
Python 3.11 takes the ``--`` itself for the command name: so
``cylgalton -- bogus`` names ``bogus``, ``cylgalton -- --version`` is the
invalid-choice error naming ``'--version'``, and a bare ``--`` is a
missing command.

A process builds its one parser once (build_parser caches it), so a
later main() call only parses.  A one-shot process pays the whole build,
about 1 ms against 0.2-0.3 ms for one command's subparser, small beside
its interpreter start.  The parser is shared and must not be mutated:
argparse keeps no state of a parse on it and reads the help width
(COLUMNS) when it formats help, no default is mutable, and a command
changes only its own Namespace.  main() dispatches by name, to the
module's ``cmd_<command>`` as it reads at call time, so a replaced one
still runs.

Only the commands that compute a law load numpy: pmf, wn, simulate and
sweep.  Their first call binds the numeric layer, wrapped_binomial,
wrapped_normal, walk_sim and diagnostics, all four at once, so that after
any one computing command every module of the package is loaded (a
caller that wraps the package's functions once, as perfbench's tracer
does after its warm-up pass, finds them all).  lattice, plot, --help,
--version and every usage error run on the standard library alone.

Errors exit nonzero with a single line on stderr:
``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .angular import (TWO_PI, ParseError, check_head, check_number,
                      pmf_from_csv, pmf_from_json, pmf_to_csv, pmf_to_json_dict,
                      read_table, row_locator, table_csv, table_json)
from .geometry import (BOARD_DIMENSIONS, LatticeSpec, build_lattice,
                       export_pegs, preset, preset_names)
from .svgplot import cylinder_svg, ring_svg

DENSITY_COLUMNS = {"theta": float, "f": float}

# Largest --sigma whose square is a finite float.
_SIGMA_MAX = math.sqrt(sys.float_info.max)

COMMANDS = ("lattice", "pmf", "wn", "simulate", "sweep", "plot")

# main() encodes and writes a payload this many characters at a time, so a
# file is never held twice in memory, as text and as bytes.
_WRITE_CHUNK = 1 << 16

# What a command returns: the files to write, in order.
Outputs = list[tuple[Path, str]]


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sidecar(out: Path, tag: str, suffix: str | None = None) -> Path:
    ext = suffix if suffix is not None else out.suffix or ".csv"
    return out.with_suffix("").with_name(out.with_suffix("").name + f".{tag}{ext}")


def _manifest(args: argparse.Namespace, outputs: Outputs) -> tuple[Path, str]:
    config = {k: v for k, v in sorted(vars(args).items())
              if k != "command" and not k.startswith("_")}
    doc = {
        "command": args.command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "outputs": [str(path) for path, _ in outputs],
        "tool_version": __version__,
    }
    return _sidecar(Path(args.out), "manifest", ".json"), _json(doc)


def _numeric() -> None:
    """Bind the numeric layer, all four modules at once (see the module docstring)."""
    global diagnostics, walk_sim, wrapped_binomial, wrapped_normal
    from . import diagnostics, walk_sim, wrapped_binomial, wrapped_normal


def cmd_lattice(args) -> Outputs:
    if args.preset:
        if any(getattr(args, k) is not None for k in ("M", "n", *BOARD_DIMENSIONS)):
            raise ValueError("--preset fixes the board; drop --M and --n "
                             "and --R, --h, --r-peg, --r-ball")
        spec = preset(args.preset).spec
    elif args.M is None or args.n is None:
        raise ValueError("either --preset or both --M and --n are required")
    else:
        vars(args).update({k: v for k, v in BOARD_DIMENSIONS.items()
                           if getattr(args, k) is None})    # for the manifest
        spec = LatticeSpec.from_angular(R=args.R, M=args.M, n=args.n, h=args.h,
                                        r_peg=args.r_peg, r_ball=args.r_ball)
    return [(Path(args.out), export_pegs(build_lattice(spec), args.format))]


def cmd_pmf(args) -> Outputs:
    _numeric()
    wb = wrapped_binomial.WrappedBinomial(n=args.n, M=args.M, p=args.p)
    pmf = wrapped_binomial.full_pmf(wb)
    bounds = None
    if args.centered:
        # slot arcs around each landing atom, in the centered frame (-pi, pi]
        half = math.pi / wb.M
        atoms = (wrapped_binomial.centered_angle(wb, k) for k in range(wb.M))
        bounds = [(atom - half, atom + half) for atom in atoms]
    out = Path(args.out)
    write = pmf_to_json_dict if args.format == "json" else pmf_to_csv
    outputs = [(out, write(pmf, bounds))]
    if args.moments:
        outputs.append((_sidecar(out, "moments", ".json"),
                        _json(asdict(wrapped_binomial.trig_moments(wb)))))
    return outputs


def cmd_wn(args) -> Outputs:
    _numeric()
    import numpy as np      # loaded by the numeric layer; density takes an array
    # also rejects nan and inf, and a sigma whose square over- or underflows
    if not (0.0 < args.sigma < _SIGMA_MAX and args.sigma**2 > 0.0):
        raise ValueError(f"--sigma must be > 0 with a finite, nonzero square, "
                         f"got {args.sigma!r}")
    check_number("samples", args.samples, int, 1)
    wn = wrapped_normal.WrappedNormal(mu=args.mu, sigma2=args.sigma**2)
    thetas = [TWO_PI * i / args.samples for i in range(args.samples)]
    rows = zip(thetas, wrapped_normal.density(wn, np.array(thetas)).tolist())
    bins = wrapped_normal.bin_probs(wn, args.M)
    out = Path(args.out)
    if args.format == "json":
        return [(out, table_json({}, "samples", DENSITY_COLUMNS, rows)),
                (_sidecar(out, "bins"), pmf_to_json_dict(bins))]
    return [(out, table_csv(DENSITY_COLUMNS, rows)), (_sidecar(out, "bins"), pmf_to_csv(bins))]


def _comparison_target(args, config: walk_sim.WalkConfig) -> tuple[float, ...]:
    if args.compare == "exact":
        return wrapped_binomial.full_pmf(config.law)
    if args.planar:
        raise ValueError("--compare wn needs a wrapped board (drop --planar)")
    return diagnostics.normal_limit_pmf(config.law)


def cmd_simulate(args) -> Outputs:
    _numeric()
    if args.planar and args.M is not None:
        raise ValueError("--planar fixes the board at M = n + 1; drop --M")
    if not args.planar and args.M is None:
        args.M = 24     # for the manifest
    if args.chunk is None:
        args.chunk = walk_sim.DEFAULT_CHUNK     # for the manifest
    config = walk_sim.WalkConfig(n=args.n, M=args.n + 1 if args.planar else args.M,
                                 p=args.p, balls=args.balls, seed=args.seed)
    # built first, so a comparison that cannot be made fails before the walk
    target = None if args.compare is None else _comparison_target(args, config)
    rights = walk_sim.simulate(config, chunk=args.chunk)
    counts = walk_sim.slot_counts(rights, config.M)
    out = Path(args.out)
    report = None if target is None else diagnostics.compare(counts, target)

    if args.format == "csv":
        outputs = [(out, walk_sim.histogram_to_csv(counts))]
        if report is not None:
            outputs.append((_sidecar(out, "compare", ".json"), _json(asdict(report))))
        return outputs
    stats = None
    if not args.planar:
        mean, var = walk_sim.unwrapped_stats(rights, config.M)
        stats = {"mean": mean, "variance": var}
    doc = {
        "command": "simulate",
        "config": {"n": config.n, "M": args.M, "p": config.p,
                   "balls": config.balls, "planar": args.planar},
        "seed": config.seed,
        "total": config.balls,
        "histogram": {"M": config.M, "counts": list(counts)},
        "unwrapped": stats,
        "comparison": asdict(report) if report else None,
    }
    return [(out, _json(doc))]


def cmd_sweep(args) -> Outputs:
    _numeric()
    ns = []
    for part in filter(str.strip, args.n.split(",")):
        try:
            ns.append(int(part))
        except ValueError:
            raise ValueError(f"--n takes comma-separated integers, "
                             f"got {part.strip()!r}") from None
    rows = diagnostics.sweep_uniformity(args.M, args.p, ns)
    return [(Path(args.out), diagnostics.sweep_to_csv(rows))]


def _read_density(path: Path) -> list[tuple[float, float]]:
    """(theta, f) samples of a density table; no f is below 0."""
    text = path.read_text(encoding="utf-8")
    head, samples = read_table(text, DENSITY_COLUMNS, "samples")
    check_head(head, {})
    for row, (_, f) in enumerate(samples):
        if f < 0.0:
            raise ParseError(f"f must be >= 0, got {f!r}",
                             row_locator(text, "samples", row))
    return samples


def cmd_plot(args) -> Outputs:
    if args.style == "ring":
        texts = [Path(p).read_text(encoding="utf-8") for p in args.inputs]
        svg = ring_svg([(pmf_from_json if t.lstrip().startswith("{") else pmf_from_csv)(t)
                        for t in texts])
    else:
        if len(args.inputs) != 1:
            raise ValueError("cylinder style takes exactly one density file")
        svg = cylinder_svg(_read_density(Path(args.inputs[0])))
    return [(Path(args.out), svg)]


def build_parser() -> argparse.ArgumentParser:
    """The cylgalton parser: the same one every call (see the module
    docstring)."""
    # a function over the cache, not the cache itself, so that a caller
    # wrapping the module's functions (perfbench's tracer) still finds it
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    for name, what in (("R", "cylinder radius"), ("h", "row spacing"),
                       ("r_peg", "peg radius"), ("r_ball", "ball radius")):
        lat.add_argument("--" + name.replace("_", "-"), type=float,
                         help=f"{what}, cm (default {BOARD_DIMENSIONS[name]})")
    lat.add_argument("--format", choices=("csv", "json"), default="csv")
    lat.add_argument("--out", required=True)

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

    wn = sub.add_parser("wn", help="wrapped normal density samples and bin masses")
    wn.add_argument("--mu", type=float, required=True)
    wn.add_argument("--sigma", type=float, required=True)
    wn.add_argument("--M", type=int, default=24, help="slots for bin masses")
    wn.add_argument("--samples", type=int, default=720)
    wn.add_argument("--format", choices=("csv", "json"), default="csv")
    wn.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo of the ball walk")
    sim.add_argument("--n", type=int, required=True, help="peg rows")
    sim.add_argument("--M", type=int, help="angular slots (default 24)")
    sim.add_argument("--planar", action="store_true",
                     help="flat board: bins 0..n, no wrapping (M = n + 1)")
    sim.add_argument("--p", type=float, default=0.5)
    sim.add_argument("--balls", type=int, default=2000,
                     help="ball count (default matches the demonstration run)")
    sim.add_argument("--seed", type=int, default=0, help="64-bit seed")
    sim.add_argument("--compare", choices=("exact", "wn"),
                     help="append a comparison against the stated law")
    sim.add_argument("--chunk", type=int,
                     help="upper bound on balls per tile (result-invariant)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="convergence ladder over row counts")
    sw.add_argument("--M", type=int, required=True)
    sw.add_argument("--p", type=float, default=0.5)
    sw.add_argument("--n", required=True,
                    help="comma-separated row counts (a list that starts with - "
                         "needs --n=, as in --n=-3,5)")
    sw.add_argument("--out", required=True)

    pl = sub.add_parser("plot", help="render distributions to SVG")
    pl.add_argument("--style", choices=("ring", "cylinder"), required=True)
    pl.add_argument("inputs", nargs="+",
                    help="PMF tables (ring) or one density table (cylinder)")
    pl.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) > 1 and argv[0] == "--":
        del argv[0]
        if argv[0].startswith("-"):     # the command word, and no command starts with "-"
            build_parser().error(
                f"argument command: invalid choice: {argv[0]!r} "
                f"(choose from {', '.join(map(repr, COMMANDS))})")
    args = build_parser().parse_args(argv)
    written = []
    try:
        if Path(args.out).name in ("", ".."):
            raise ValueError(f"--out must name a file, got {args.out!r}")
        outputs = globals()["cmd_" + args.command](args)
        for path, payload in [*outputs, _manifest(args, outputs)]:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as fh:
                written.append(path)
                for i in range(0, len(payload), _WRITE_CHUNK):
                    fh.write(payload[i:i + _WRITE_CHUNK].encode("utf-8"))
    except ParseError as exc:
        error = f"parse: {exc}"
    except (ValueError, LookupError, ArithmeticError) as exc:
        kind = type(exc).__name__
        error = f"{kind}: {str(exc).splitlines()[0] if str(exc) else kind}"
    except OSError as exc:
        error = f"OSError: {exc}"
    else:
        return 0
    for path in written:
        path.unlink(missing_ok=True)
    print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
