"""The benchmark's workloads: CLI invocation lists plus their output checks.

A workload is a function ``(seed, size) -> Workload``.  Its
``invocations(warmup)`` returns the argv lists one pass hands to
``cylgalton.cli.main``, each paired with a check that reads the files the
invocation wrote and returns a list of problems.  File names are relative:
a pass runs, and is checked, inside its own directory, so the bytes the
program writes (manifests echo their paths) do not depend on where the
checkout is.  Checks compare against
references computed here, independently of the package:

* slot laws by a DFT of the characteristic function
  ``cf(t) = (1 - p + p e^{2 pi i t / M})^n``;
* wrapped-normal bin masses from the integrated cosine series;
* chi-square of Monte Carlo counts against the reference slot law.

The absolute tolerance ``ABS_TOL`` passes today's n*eps drift of the
log-space fold (about 1.8e-11 at n = 10^6) and an exact spectral result.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import chdtrc

ABS_TOL = 1e-9
# A chi-square p-value below this means the counts do not follow the law.
MIN_P_VALUE = 1e-6
MIN_EXPECTED = 5.0
TWO_PI = 2.0 * math.pi


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[], list[str]]


@dataclass
class Workload:
    invocations: Callable[[bool], list[Invocation]]
    # Damages one output of a finished pass; the self-test uses it to show
    # that the checks catch a wrong file.
    corrupt: Callable[[], None]


def derive_seed(workload: str, seed: int, tag: str) -> int:
    """Program seed for one use inside a workload, a pure function of --seed."""
    return random.Random(f"{workload}/{seed}/{tag}").getrandbits(63)


def ladder(top: int) -> list[int]:
    """Quarter-decade row counts 1, 2, 3, 6, 10, ..., top."""
    out = []
    k = 0
    while round(10 ** (k / 4)) <= top:
        out.append(round(10 ** (k / 4)))
        k += 1
    return out


# ----------------------------------------------------------------- references

class Reference:
    """Exact slot laws and normal-limit bin masses, cached per parameter set."""

    def __init__(self):
        self._pmf: dict[tuple, np.ndarray] = {}
        self._wn: dict[tuple, np.ndarray] = {}

    @staticmethod
    def cf(n: int, M: int, p: float, t) -> np.ndarray:
        """Characteristic function at integer frequencies t, in polar form."""
        w = 1.0 - p + p * np.exp(1j * TWO_PI * np.asarray(t, dtype=float) / M)
        r, phase = np.abs(w), np.angle(w)
        return r ** n * np.exp(1j * np.fmod(n * phase, TWO_PI))

    def pmf(self, n: int, M: int, p: float) -> np.ndarray:
        key = (n, M, p)
        if key not in self._pmf:
            q = np.fft.fft(self.cf(n, M, p, np.arange(M))).real / M
            self._pmf[key] = np.maximum(q, 0.0)
        return self._pmf[key]

    def wn_bins(self, mu: float, sigma2: float, M: int) -> np.ndarray:
        """Mass of each slot [2 pi k/M, 2 pi (k+1)/M) under WrappedNormal(mu, sigma2)."""
        key = (mu, sigma2, M)
        if key not in self._wn:
            sigma = math.sqrt(sigma2)
            m = np.arange(1, math.ceil(9.5 / sigma) + 2, dtype=float)
            coef = np.exp(-0.5 * m * m * sigma2) / (math.pi * m)
            edges = TWO_PI * np.arange(M + 1) / M
            prim = (coef * np.sin(np.multiply.outer(edges - mu, m))).sum(axis=1)
            self._wn[key] = np.diff(edges) / TWO_PI + np.diff(prim)
        return self._wn[key]

    def tv_uniform(self, n: int, M: int, p: float) -> float:
        return 0.5 * float(np.abs(self.pmf(n, M, p) - 1.0 / M).sum())

    def tv_wn(self, n: int, M: int, p: float) -> float:
        """TV to the normal limit integrated over atom-centered slots."""
        dtheta = TWO_PI / M
        mu = n * (2.0 * p - 1.0) * dtheta / 2.0 + (n + 1) * dtheta / 2.0
        bins = self.wn_bins(math.fmod(mu, TWO_PI), n * p * (1.0 - p) * dtheta ** 2, M)
        return 0.5 * float(np.abs(self.pmf(n, M, p) - bins).sum())


# ------------------------------------------------------------- file readers

def _csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:] if line]


def read_pmf(path: Path) -> np.ndarray:
    """Slot probabilities from a PMF file in the CSV or JSON format."""
    if path.suffix == ".json":
        slots = json.loads(path.read_text(encoding="utf-8"))["slots"]
        return np.array([s["prob"] for s in sorted(slots, key=lambda s: s["slot"])])
    rows = _csv_rows(path, "slot,theta_lo,theta_hi,prob")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path.name}: slots out of order")
    return np.array([float(r[3]) for r in rows])


def manifest_path(out: Path) -> Path:
    return out.with_name(out.with_suffix("").name + ".manifest.json")


# ------------------------------------------------------------------- checks

def check_manifest(out: Path) -> list[str]:
    outputs = json.loads(manifest_path(out).read_text(encoding="utf-8"))["outputs"]
    if str(out) not in outputs:
        return [f"{out.name}: manifest does not list it"]
    return [f"{out.name}: manifest lists missing {o}" for o in outputs
            if not Path(o).is_file()]


def check_close(name: str, got, want) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= ABS_TOL:
        return [f"{name}: off by {err:.3g} (tolerance {ABS_TOL:g})"]
    return []


def check_pmf(path: Path, want: np.ndarray) -> list[str]:
    return check_close(path.name, read_pmf(path), want)


def check_moments(path: Path, ref: Reference, n: int, M: int, p: float) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    cf1 = complex(ref.cf(n, M, p, 1))
    return check_close(path.name, [doc["alpha1"], doc["beta1"], doc["rho"]],
                       [cf1.real, cf1.imag, abs(cf1)])


def check_sweep(path: Path, ref: Reference, M: int, p: float, ns: list[int]) -> list[str]:
    rows = _csv_rows(path, "n,tv_uniform,tv_wn")
    if [int(r[0]) for r in rows] != ns:
        return [f"{path.name}: rows are not n = {ns[0]}..{ns[-1]}"]
    got = [(float(r[1]), float(r[2])) for r in rows]
    want = [(ref.tv_uniform(n, M, p), ref.tv_wn(n, M, p)) for n in ns]
    return check_close(path.name, got, want)


def chi2_p_value(counts: np.ndarray, probs: np.ndarray) -> float:
    """Pooled chi-square p-value; cells expecting < MIN_EXPECTED share one cell."""
    total = counts.sum()
    expected = total * probs
    if np.any(counts[probs == 0.0]):
        return 0.0
    big = expected >= MIN_EXPECTED
    obs, exp = list(counts[big]), list(expected[big])
    rest_o, rest_e = counts[~big].sum(), expected[~big].sum()
    if rest_e >= MIN_EXPECTED or not exp:
        obs.append(rest_o)
        exp.append(rest_e)
    elif rest_e > 0.0:
        obs[-1] += rest_o
        exp[-1] += rest_e
    obs, exp = np.array(obs, dtype=float), np.array(exp)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(chdtrc(max(1, len(exp) - 1), chi2))


def check_histogram(path: Path, balls: int, probs: np.ndarray) -> list[str]:
    rows = _csv_rows(path, "slot,count,frequency")
    counts = np.array([int(r[1]) for r in rows])
    if len(counts) != len(probs):
        return [f"{path.name}: {len(counts)} bins, expected {len(probs)}"]
    if counts.sum() != balls:
        return [f"{path.name}: counts sum to {counts.sum()}, expected {balls}"]
    p_value = chi2_p_value(counts, probs)
    if not p_value >= MIN_P_VALUE:
        return [f"{path.name}: chi-square p-value {p_value:.3g} against the exact law"]
    return []


def check_lattice(path: Path, n: int, M: int | None) -> list[str]:
    if path.suffix == ".json":
        rows = [p["row"] for p in json.loads(path.read_text(encoding="utf-8"))["pegs"]]
    else:
        rows = [int(r[0]) for r in _csv_rows(path, "row,col,theta,z,x,y")]
    want = [i for i in range(n) for _ in range(min(M, i + 1) if M else i + 1)]
    if rows != want:
        return [f"{path.name}: {len(rows)} pegs in the wrong rows, expected {len(want)}"]
    return []


def check_density(path: Path, samples: int) -> list[str]:
    f = np.array([float(r[1]) for r in _csv_rows(path, "theta,f")])
    if len(f) != samples or not np.all(f >= 0.0):
        return [f"{path.name}: expected {samples} nonnegative samples"]
    # The rectangle rule is spectrally accurate for a smooth periodic density.
    mass = TWO_PI * float(f.mean())
    if not abs(mass - 1.0) <= 1e-6:
        return [f"{path.name}: density integrates to {mass!r}"]
    return []


def check_svg(path: Path) -> list[str]:
    root = ET.fromstring(path.read_bytes())
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"{path.name}: root element is {root.tag}"]
    return []


def _with_manifest(out: Path, check: Callable[[], list[str]]) -> Callable[[], list[str]]:
    return lambda: check() + check_manifest(out)


# ---------------------------------------------------------------- workloads

def mc_deep(seed: int, size: str) -> Workload:
    """The 12-module board (n = 96, M = 24) at 10^6 balls, compared exactly."""
    balls, warmup_chunk = (1_000_000, 50_000) if size == "full" else (20_000, 7_000)
    n, M, p = 96, 24, 0.5
    program_seed = derive_seed("mc-deep", seed, "simulate")
    ref = Reference()
    warm: dict[str, bytes] = {}

    def invocations(warmup: bool) -> list[Invocation]:
        out = Path("mc.csv")
        argv = ["simulate", "--n", str(n), "--M", str(M), "--p", str(p),
                "--balls", str(balls), "--seed", str(program_seed),
                "--compare", "exact", "--out", str(out)]
        if warmup:
            argv += ["--chunk", str(warmup_chunk)]

        def check() -> list[str]:
            problems = check_histogram(out, balls, ref.pmf(n, M, p))
            problems += check_manifest(out)
            data = out.read_bytes()
            if warmup:
                warm["histogram"] = data
            elif data != warm.get("histogram"):
                problems.append("histogram differs from the warm-up pass run "
                                "at another --chunk")
            return problems

        return [Invocation(argv, check)]

    def corrupt() -> None:
        path = Path("mc.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        slot, count, freq = lines[1].split(",")
        lines[1] = f"{slot},{int(count) + 1},{freq}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return Workload(invocations, corrupt)


def exact_ladder(seed: int, size: str) -> Workload:
    """Convergence ladder out to n = 10^6 plus the n = 10^6 slot law."""
    top, low_p_top = (10 ** 6, 10 ** 4) if size == "full" else (10 ** 3, 10 ** 2)
    M = 24
    ref = Reference()

    def invocations(warmup: bool) -> list[Invocation]:
        out = []

        def sweep(name: str, p: float, ns: list[int]) -> None:
            path = Path(name)
            argv = ["sweep", "--M", str(M), "--p", str(p),
                    "--n", ",".join(map(str, ns)), "--out", str(path)]
            out.append(Invocation(argv, _with_manifest(
                path, lambda: check_sweep(path, ref, M, p, ns))))

        sweep("ladder.csv", 0.5, ladder(top))
        pmf_path = Path("pmf.csv")
        out.append(Invocation(
            ["pmf", "--n", str(top), "--M", str(M), "--moments", "--out", str(pmf_path)],
            _with_manifest(pmf_path, lambda: (
                check_pmf(pmf_path, ref.pmf(top, M, 0.5))
                + check_moments(Path("pmf.moments.json"), ref, top, M, 0.5)))))
        # Near-degenerate p: slot laws far from uniform at every rung.
        sweep("ladder-lowp.csv", 0.02, ladder(low_p_top))
        return out

    def corrupt() -> None:
        path = Path("pmf.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        *head, prob = lines[-1].split(",")
        lines[-1] = ",".join([*head, repr(float(prob) + 1e-6)])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return Workload(invocations, corrupt)


def figures(seed: int, size: str) -> Workload:
    """The figure pipeline over every board preset at demonstration sizes."""
    from cylgalton.geometry import preset, preset_names

    names = preset_names() if size == "full" else preset_names()[:1] + preset_names()[-1:]
    sweep_top = 200 if size == "full" else 30
    p, balls, samples = 0.5, 2000, 720
    boards = []
    for name in names:
        spec = preset(name).spec
        M = spec.M if spec.wrap else None
        boards.append((name, spec.n, M, M or spec.n + 1,
                       derive_seed("figures", seed, name)))
    ref = Reference()

    def board_invocations(name: str, n: int, M: int | None, m: int,
                          program_seed: int) -> list[Invocation]:
        def path(tag: str) -> Path:
            return Path(f"{name}.{tag}")

        dtheta = TWO_PI / m
        mu, sigma = n * (2.0 * p - 1.0) * dtheta / 2.0, math.sqrt(n * p * (1.0 - p)) * dtheta
        law = ref.pmf(n, m, p)
        lat_csv, lat_json = path("lattice.csv"), path("lattice-json.json")
        pmf_csv, centered = path("pmf.csv"), path("centered.json")
        wn_csv, sim_csv = path("wn.csv"), path("sim.csv")
        ring, cyl = path("ring.svg"), path("cylinder.svg")
        board = ["--planar"] if M is None else ["--M", str(M)]
        specs = [
            (["lattice", "--preset", name, "--out", str(lat_csv)], lat_csv,
             lambda: check_lattice(lat_csv, n, M)),
            (["lattice", "--preset", name, "--format", "json", "--out", str(lat_json)],
             lat_json, lambda: check_lattice(lat_json, n, M)),
            (["pmf", "--n", str(n), "--M", str(m), "--moments", "--out", str(pmf_csv)],
             pmf_csv, lambda: (check_pmf(pmf_csv, law) + check_moments(
                 path("pmf.moments.json"), ref, n, m, p))),
            (["pmf", "--n", str(n), "--M", str(m), "--centered", "--format", "json",
              "--out", str(centered)], centered, lambda: check_pmf(centered, law)),
            (["wn", "--mu", repr(mu), "--sigma", repr(sigma), "--M", str(m),
              "--samples", str(samples), "--out", str(wn_csv)], wn_csv,
             lambda: (check_density(wn_csv, samples) + check_pmf(
                 path("wn.bins.csv"), ref.wn_bins(mu, sigma * sigma, m)))),
            (["simulate", "--n", str(n), *board, "--p", str(p), "--balls", str(balls),
              "--seed", str(program_seed), "--compare", "exact", "--out", str(sim_csv)],
             sim_csv, lambda: check_histogram(sim_csv, balls, law)),
            (["plot", "--style", "ring", str(pmf_csv), str(path("wn.bins.csv")),
              "--out", str(ring)], ring, lambda: check_svg(ring)),
            (["plot", "--style", "cylinder", str(wn_csv), "--out", str(cyl)], cyl,
             lambda: check_svg(cyl)),
        ]
        return [Invocation(argv, _with_manifest(out, check)) for argv, out, check in specs]

    def invocations(warmup: bool) -> list[Invocation]:
        out = []
        for board in boards:
            out += board_invocations(*board)
        ns = list(range(1, sweep_top + 1))
        sweep_csv = Path("sweep.csv")
        out.append(Invocation(
            ["sweep", "--M", "24", "--n", ",".join(map(str, ns)), "--out", str(sweep_csv)],
            _with_manifest(sweep_csv, lambda: check_sweep(sweep_csv, ref, 24, 0.5, ns))))
        return out

    def corrupt() -> None:
        path = Path(f"{names[0]}.ring.svg")
        path.write_text(path.read_text(encoding="utf-8").replace("</svg>", ""),
                        encoding="utf-8")

    return Workload(invocations, corrupt)


WORKLOADS = {"mc-deep": mc_deep, "exact-ladder": exact_ladder, "figures": figures}
