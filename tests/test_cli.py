import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cylgalton
from cylgalton import __version__, cli, walk_sim
from cylgalton.angular import (ParseError, pmf_from_csv, pmf_from_json,
                               pmf_to_csv, pmf_to_json_dict)
from cylgalton.cli import main
from cylgalton.svgplot import cylinder_svg, ring_svg
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def assert_single_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1


# --- lattice ----------------------------------------------------------------

def test_lattice_five_module_preset(tmp_path):
    out = tmp_path / "pegs.csv"
    assert run(["lattice", "--preset", "modules-1-5", "--out", out]) == 0
    lines = read_lines(out)
    assert len(lines) == 685
    assert lines[0] == "row,col,theta,z,x,y"


def test_lattice_planar_preset(tmp_path):
    out = tmp_path / "flat.csv"
    assert run(["lattice", "--preset", "planar-a4", "--out", out]) == 0
    rows = [line.split(",") for line in read_lines(out)[1:]]
    assert len(rows) == 55                      # 1 + 2 + ... + 10
    assert all(float(r[5]) == 0.0 for r in rows)  # y stays in the plane


def test_lattice_custom_single_peg(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["lattice", "--M", 24, "--n", 1, "--out", out]) == 0
    assert len(read_lines(out)) == 2


@pytest.mark.parametrize("shape", [["--M", 7], ["--n", 3], ["--M", 7, "--n", 3],
                                   ["--R", 3], ["--h", 9], ["--r-peg", 0.2],
                                   ["--r-ball", 0.01]],
                         ids=["M", "n", "M-and-n", "R", "h", "r-peg", "r-ball"])
def test_lattice_preset_rejects_shape_flags(tmp_path, capsys, shape):
    # the preset fixes the whole board, so a custom value would be silently dropped
    assert run(["lattice", "--preset", "modules-1", *shape,
                "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: --preset fixes the board; drop --M and --n")
    assert list(tmp_path.iterdir()) == []


def test_lattice_manifest_records_the_geometry_used(tmp_path):
    def geometry(*flags):
        assert run(["lattice", *flags, "--out", tmp_path / "pegs.csv"]) == 0
        config = json.loads((tmp_path / "pegs.manifest.json").read_text())["config"]
        return [config[k] for k in ("M", "n", "R", "h", "r_peg", "r_ball")]

    assert geometry("--preset", "planar-a4") == [None] * 6
    assert geometry("--M", 24, "--n", 8) == [24, 8, 5.7, 1.02, 0.1, 0.4]
    assert geometry("--M", 24, "--n", 8, "--h", 2) == [24, 8, 5.7, 2.0, 0.1, 0.4]


def test_lattice_requires_shape_arguments(tmp_path, capsys):
    assert run(["lattice", "--out", tmp_path / "x.csv"]) != 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_lattice_rejects_bad_radius_by_name(tmp_path, capsys, value):
    # d is derived from R, so the message must name R, not d
    assert run(["lattice", "--M", 24, "--n", 8, "--R", value,
                "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(capsys, "error: LatticeError: R must be finite and > 0")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("M", [0, -3])
def test_lattice_rejects_a_bad_slot_count(tmp_path, capsys, M):
    # M is checked before 2*pi/M, so M = 0 is no ZeroDivisionError
    assert run(["lattice", "--M", M, "--n", 5, "--out", tmp_path / "a.csv"]) == 1
    assert_single_line_error(capsys, f"error: LatticeError: M must be >= 1, got {M}")
    assert list(tmp_path.iterdir()) == []


def test_lattice_json_and_manifest(tmp_path):
    out = tmp_path / "pegs.json"
    assert run(["lattice", "--preset", "modules-1", "--format", "json",
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["unit"] == "cm"
    assert len(doc["pegs"]) == 36
    manifest = json.loads((tmp_path / "pegs.manifest.json").read_text())
    assert manifest["command"] == "lattice"
    assert manifest["tool_version"] == __version__
    for path in manifest["outputs"]:
        assert (tmp_path / path).exists() or (tmp_path / path).is_absolute()


# --- pmf --------------------------------------------------------------------

def test_pmf_rows_sum_to_one(tmp_path):
    out = tmp_path / "pmf.csv"
    assert run(["pmf", "--n", 24, "--M", 24, "--out", out]) == 0
    pmf = pmf_from_csv(out.read_text())
    assert len(pmf) == 24
    assert abs(math.fsum(pmf) - 1.0) < 1e-12


def test_pmf_moments_sidecar(tmp_path):
    out = tmp_path / "pmf.csv"
    assert run(["pmf", "--n", 8, "--M", 24, "--moments", "--out", out]) == 0
    moments = json.loads((tmp_path / "pmf.moments.json").read_text())
    assert moments["mu"] == pytest.approx(math.pi / 3, abs=1e-12)
    assert moments["rho"] == pytest.approx(0.9335735299034723, abs=1e-12)


def test_pmf_deep_wrap_flattens(tmp_path):
    out = tmp_path / "deep.csv"
    assert run(["pmf", "--n", 400, "--M", 24, "--out", out]) == 0
    pmf = pmf_from_csv(out.read_text())
    spread = max(pmf) - min(pmf)
    assert spread == pytest.approx(0.005361363104654932, abs=1e-10)


def test_pmf_centered_labels(tmp_path):
    out = tmp_path / "centered.csv"
    assert run(["pmf", "--n", 8, "--M", 24, "--centered", "--out", out]) == 0
    rows = [line.split(",") for line in read_lines(out)[1:]]
    los = [float(r[1]) for r in rows]
    his = [float(r[2]) for r in rows]
    # centered labels live in (-pi - half, pi + half]
    assert all(-math.pi - 0.14 < lo < math.pi for lo in los)
    assert all(-math.pi < hi <= math.pi + 0.14 for hi in his)
    # slot 4 holds the drop line: atom angle 0
    assert los[4] == pytest.approx(-math.pi / 24)
    assert his[4] == pytest.approx(math.pi / 24)
    # the JSON format carries the same centered arcs and masses
    doc_path = tmp_path / "centered.json"
    assert run(["pmf", "--n", 8, "--M", 24, "--centered", "--format", "json",
                "--out", doc_path]) == 0
    slots = json.loads(doc_path.read_text())["slots"]
    assert [(s["slot"], s["theta_lo"], s["theta_hi"], s["prob"]) for s in slots] == [
        (int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in rows]


def test_pmf_serialisers_reject_mismatched_bounds():
    pmf = (0.5, 0.5)
    for serialise in (pmf_to_csv, pmf_to_json_dict):
        with pytest.raises(ValueError, match="expected 2 slot bounds"):
            serialise(pmf, [(0.0, 1.0)])


# --- wn ---------------------------------------------------------------------

def test_wn_outputs_density_and_bins(tmp_path):
    out = tmp_path / "wn.csv"
    assert run(["wn", "--mu", 0.0, "--sigma", 1.0, "--M", 24, "--out", out]) == 0
    lines = read_lines(out)
    assert lines[0] == "theta,f"
    assert len(lines) == 721
    bins = pmf_from_csv((tmp_path / "wn.bins.csv").read_text())
    assert abs(math.fsum(bins) - 1.0) < 1e-12


def test_wn_uniform_limit_bins(tmp_path):
    out = tmp_path / "wide.csv"
    assert run(["wn", "--mu", 0.0, "--sigma", 10.0, "--M", 24, "--out", out]) == 0
    bins = pmf_from_csv((tmp_path / "wide.bins.csv").read_text())
    assert all(q == pytest.approx(1 / 24, abs=1e-10) for q in bins)


def test_wn_density_peaks_at_mu(tmp_path):
    out = tmp_path / "peak.csv"
    assert run(["wn", "--mu", 0.0, "--sigma", 0.7, "--out", out]) == 0
    rows = [line.split(",") for line in read_lines(out)[1:]]
    best = max(range(len(rows)), key=lambda i: float(rows[i][1]))
    assert best == 0                            # theta = 0 sample


def test_wn_rejects_bad_sigma(tmp_path, capsys):
    assert run(["wn", "--mu", 0.0, "--sigma", 0.0,
                "--out", tmp_path / "x.csv"]) != 0
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("samples", [0, -3])
def test_wn_rejects_nonpositive_samples(tmp_path, capsys, samples):
    assert run(["wn", "--mu", 0.0, "--sigma", 1.0, "--samples", samples,
                "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(capsys, "error: ValueError: samples must be >= 1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option, value, prefix", [
    ("--mu", "nan", "error: ValueError: mu must be finite"),
    ("--mu", "inf", "error: ValueError: mu must be finite"),
    *(pytest.param("--sigma", value, "error: ValueError: --sigma must be > 0",
                   id=f"--sigma-{value}") for value in ("inf", "nan", "1e200")),
])
def test_wn_rejects_non_finite_parameters(tmp_path, capsys, option, value, prefix):
    # argparse keeps the last of a repeated option
    assert run(["wn", "--mu", 0.0, "--sigma", 1.0, option, value,
                "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(capsys, prefix)
    assert list(tmp_path.iterdir()) == []


# --- simulate ----------------------------------------------------------------

def test_simulate_demo_run_matches_exact_law(tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["simulate", "--n", 40, "--M", 24, "--p", 0.5, "--balls", 2000,
                "--seed", 1, "--compare", "exact", "--out", out]) == 0
    lines = read_lines(out)
    assert lines[0] == "slot,count,frequency"
    assert len(lines) == 25
    report = json.loads((tmp_path / "hist.compare.json").read_text())
    assert report["tv"] < 0.05
    assert report["p_value"] > 0.001


def test_simulate_planar_eleven_bins(tmp_path):
    out = tmp_path / "flat.csv"
    assert run(["simulate", "--planar", "--n", 10, "--balls", 10000,
                "--out", out]) == 0
    assert len(read_lines(out)) == 12


@pytest.mark.parametrize("n, p", [(10, 0.9), (0, 0.5)], ids=["n10", "n0"])
def test_simulate_planar_is_the_walk_with_one_slot_per_outcome(tmp_path, n, p):
    # a flat board of n rows is the cylinder walk with M = n + 1: X <= n never wraps
    common = ["simulate", "--n", n, "--p", p, "--balls", 3000, "--seed", 7,
              "--compare", "exact"]
    assert run([*common, "--planar", "--out", tmp_path / "flat.csv"]) == 0
    assert run([*common, "--M", n + 1, "--out", tmp_path / "wrap.csv"]) == 0
    for suffix in (".csv", ".compare.json"):
        assert ((tmp_path / f"flat{suffix}").read_bytes()
                == (tmp_path / f"wrap{suffix}").read_bytes())
    manifest = json.loads((tmp_path / "flat.manifest.json").read_text())
    assert manifest["config"]["M"] is None


def test_simulate_deterministic_walk(tmp_path):
    out = tmp_path / "det.csv"
    assert run(["simulate", "--n", 5, "--p", 1.0, "--balls", 10,
                "--out", out]) == 0
    rows = {int(r.split(",")[0]): int(r.split(",")[1])
            for r in read_lines(out)[1:]}
    assert rows[5] == 10
    assert sum(rows.values()) == 10


def test_simulate_byte_identical_reruns_across_chunking(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["simulate", "--n", 16, "--M", 24, "--p", 0.5, "--balls", 20000,
            "--seed", 99]
    assert run(base + ["--chunk", 1024, "--out", a]) == 0
    assert run(base + ["--chunk", 999999, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json_report(tmp_path):
    out = tmp_path / "run.json"
    assert run(["simulate", "--n", 8, "--M", 24, "--balls", 500, "--seed", 3,
                "--compare", "wn", "--format", "json", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 3
    assert doc["total"] == 500
    assert sum(doc["histogram"]["counts"]) == 500
    assert doc["unwrapped"] is not None
    assert 0.0 <= doc["comparison"]["tv"] <= 1.0


# sha256 of every file a seeded run writes, data, sidecar and manifest: a
# change to the walk, the fold, the comparison or a serialiser shows here.
SIMULATE_GOLDEN = {
    "csv-exact": (
        ["--n", 96, "--M", 24, "--balls", 5000, "--seed", 1, "--compare", "exact",
         "--out", "sim.csv"],
        {"sim.csv": "0f72a9244afca3ff4adba0f96240fd3823cbb11ebb3b4cbaa6b5890ae1f95bde",
         "sim.compare.json":
             "8546ec512dae1f95b26b385d343e666818dc9f7becd2ede3493eae05820232d1",
         "sim.manifest.json":
             "d02b706a83deb669e9055557b0b6901413e16e6711332751dd2a4c1d19625e2f"}),
    "json-wn": (
        ["--n", 96, "--M", 24, "--balls", 5000, "--seed", 1, "--compare", "wn",
         "--format", "json", "--out", "sim.json"],
        {"sim.json": "c83390eb10ab03a38ecfbb9a68a4776f0d9052ec3b8904232b9f27547c317d40",
         "sim.manifest.json":
             "b93e55ca8c4b3e858ddfa1ce5d69cd5dcd1a24a767de8b3403ba6f840ab4875a"}),
    "planar": (
        ["--planar", "--n", 10, "--out", "sim.csv"],
        {"sim.csv": "885b718fd774176999c698a2131bba826cb7954114d40dd2843f4ba5bec0ca54",
         "sim.manifest.json":
             "26e746ff31c78076f6c8527ae8bdb68a929efa68e45106ed7fc9c9a496c0bf17"}),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_GOLDEN))
def test_simulate_golden_bytes(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)     # the manifest records the relative --out
    argv, digests = SIMULATE_GOLDEN[case]
    assert run(["simulate", *argv]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == digests


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
def test_simulate_rejects_out_of_range_seed(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    assert run(["simulate", "--n", 4, "--balls", 10, "--seed", seed,
                "--out", out]) != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: seed must be in [0, 2**64)")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_simulate_wn_compare_needs_wrapping(tmp_path, capsys):
    assert run(["simulate", "--planar", "--n", 10, "--balls", 100,
                "--compare", "wn", "--out", tmp_path / "x.csv"]) != 0
    assert "wrapped" in capsys.readouterr().err


@pytest.mark.parametrize("board,message", [
    (["--planar"], "error: ValueError: --compare wn needs a wrapped board"),
    (["--p", 0], "error: ValueError: the normal limit needs 0 < p < 1, got p=0.0: "
                 "the limit is degenerate (zero variance)"),
    (["--planar", "--M", 7],
     "error: ValueError: --planar fixes the board at M = n + 1; drop --M"),
], ids=["planar", "p0", "planar-M"])
def test_simulate_rejects_a_bad_compare_before_the_walk(tmp_path, capsys,
                                                        monkeypatch, board, message):
    def walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(walk_sim, "simulate", walk)
    assert run(["simulate", "--n", 2000, "--balls", 200_000, *board,
                "--compare", "wn", "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(capsys, message)
    assert list(tmp_path.iterdir()) == []


def test_simulate_wn_compare_names_itself_on_a_board_with_no_rows(tmp_path, capsys):
    assert run(["simulate", "--n", 0, "--balls", 100, "--out", tmp_path / "ok.csv"]) == 0
    assert run(["simulate", "--n", 0, "--balls", 100, "--compare", "wn",
                "--out", tmp_path / "x.csv"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: the normal limit needs n >= 1, got n=0: "
                "a board with no rows has a degenerate limit")
    assert not (tmp_path / "x.csv").exists()


# --- sweep --------------------------------------------------------------------

def test_sweep_ladder(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--M", 24, "--p", 0.5, "--n", "8,16,24,40,100,400",
                "--out", out]) == 0
    lines = read_lines(out)
    assert lines[0] == "n,tv_uniform,tv_wn"
    assert len(lines) == 7
    tvs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(x > y for x, y in zip(tvs, tvs[1:]))


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["sweep", "--M", 24, "--p", 0.5, "--n", "24", "--out", out]) == 0
    assert len(read_lines(out)) == 2


def test_sweep_names_the_flag_of_a_bad_row_count(tmp_path, capsys):
    assert run(["sweep", "--M", 24, "--n", "5,abc", "--out", tmp_path / "s.csv"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: --n takes comma-separated integers, got 'abc'")
    assert list(tmp_path.iterdir()) == []


def test_sweep_row_list_starting_with_a_minus_reaches_the_row_check(tmp_path, capsys):
    # argparse takes a bare -3,5 for an option; --n= passes it as the value
    assert run(["sweep", "--M", 24, "--n=-3,5", "--out", tmp_path / "s.csv"]) == 1
    assert_single_line_error(capsys, "error: ValueError: n must be >= 0, got -3\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_help_says_how_to_pass_a_list_starting_with_a_minus(capsys):
    with pytest.raises(SystemExit):
        run(["sweep", "--help"])
    assert "--n=-3,5" in " ".join(capsys.readouterr().out.split())


def test_sweep_names_the_flag_of_an_empty_row_list(tmp_path, capsys):
    assert run(["sweep", "--M", 24, "--n", "", "--out", tmp_path / "s.csv"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: --n must be a nonempty list of row counts")
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_zero_rows(tmp_path, capsys):
    assert run(["sweep", "--M", 7, "--n", "0,1,5,50", "--out", tmp_path / "s.csv"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: the normal limit needs n >= 1, got n=0: "
                "a board with no rows has a degenerate limit")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("p", [0, 1])
def test_sweep_rejects_a_degenerate_p(tmp_path, capsys, p):
    assert run(["sweep", "--M", 24, "--p", p, "--n", "5,50",
                "--out", tmp_path / "s.csv"]) == 1
    assert_single_line_error(
        capsys, f"error: ValueError: the normal limit needs 0 < p < 1, got p={float(p)}: "
                "the limit is degenerate (zero variance)")
    assert list(tmp_path.iterdir()) == []


QUARTER_DECADES = [round(10 ** (k / 4)) for k in range(29)]     # 1, 2, 3, 6, ..., 10^7


def _quarter_decades(top):
    return ",".join(str(n) for n in QUARTER_DECADES if n <= top)


# sha256 of the data file and manifest of the convergence ladders: the
# exact-ladder benchmark's two, the figures sweep, and decades at M = 360
# across the direct/spectral switch at n = 10^5.
SWEEP_GOLDEN = {
    "ladder": (
        ["--M", 24, "--p", 0.5, "--n", _quarter_decades(10**6), "--out", "ladder.csv"],
        {"ladder.csv": "237ca722d6b14c3850ce377ef7c9a00f376f06977e473cf993bec0cbf2d9400f",
         "ladder.manifest.json":
             "1fd75346a76ed0e270ba9e1a562f4145ce3aaee61e564830695c28301ea99c82"}),
    "ladder-lowp": (
        ["--M", 24, "--p", 0.02, "--n", _quarter_decades(10**4), "--out", "ladder-lowp.csv"],
        {"ladder-lowp.csv":
             "2a03d07b74485e389eb5964ce50109bf7899c0215ca0a1452ef4bc938cb61d3b",
         "ladder-lowp.manifest.json":
             "5699e03d9bfe65c6ffa9ed17e0b5a37bdb5ece8f5a148ea8da678f95fc532b01"}),
    "figures": (
        ["--M", 24, "--n", ",".join(map(str, range(1, 201))), "--out", "sweep.csv"],
        {"sweep.csv": "177fdbffd89d57e68c86afa265a2bd808a3709d20cbb94ec05972537a046dee1",
         "sweep.manifest.json":
             "663b7039de9cb463a81336a036ca43713eede906e673824a1144e5e21c31a354"}),
    "decades-360": (
        ["--M", 360, "--n", ",".join(str(10**k) for k in range(8)), "--out", "sweep.csv"],
        {"sweep.csv": "d8567d69c1bb6f91823722a370be98276d2cc624ae3357c3f1535db2e843e208",
         "sweep.manifest.json":
             "6c790809dd4046202433cb65896128f9a0b90cf7f05e6bebbd8f73760c142934"}),
}


@pytest.mark.parametrize("case", sorted(SWEEP_GOLDEN))
def test_sweep_golden_bytes(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)     # the manifest records the relative --out
    argv, digests = SWEEP_GOLDEN[case]
    assert run(["sweep", *argv]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == digests


# --- plot ---------------------------------------------------------------------

def test_plot_ring_uniform_bars_equal(tmp_path):
    pmf_path = tmp_path / "u.csv"
    run(["pmf", "--n", 0, "--M", 12, "--out", pmf_path])
    # point mass is not uniform; build a uniform PMF by deep wrapping? no:
    # use the wn command's wide bins, which are uniform to 1e-10
    run(["wn", "--mu", 0.0, "--sigma", 12.0, "--M", 12, "--out", tmp_path / "w.csv"])
    out = tmp_path / "ring.svg"
    assert run(["plot", "--style", "ring", tmp_path / "w.bins.csv",
                "--out", out]) == 0
    svg = out.read_text()
    assert svg.count("<path") == 12
    # every bar extends to the same outer radius (same arc radius values)
    radii = {seg.split()[1] for seg in svg.split("A ")[1:]}
    assert len(radii) <= 2                      # inner and outer only


def test_plot_ring_counts_support_bars(tmp_path):
    pmf_path = tmp_path / "p8.csv"
    run(["pmf", "--n", 8, "--M", 24, "--out", pmf_path])
    out = tmp_path / "ring8.svg"
    assert run(["plot", "--style", "ring", pmf_path, "--out", out]) == 0
    assert out.read_text().count("<path") == 9


def test_plot_ring_multiple_inputs_concentric(tmp_path):
    for n in (8, 16):
        run(["pmf", "--n", n, "--M", 24, "--out", tmp_path / f"p{n}.csv"])
    out = tmp_path / "rings.svg"
    assert run(["plot", "--style", "ring", tmp_path / "p8.csv",
                tmp_path / "p16.csv", "--out", out]) == 0
    assert out.read_text().count("<circle") == 2
    assert out.read_text().count("<path") == 9 + 17


@pytest.mark.parametrize("kind", [tuple, list, np.array], ids=["tuple", "list", "numpy"])
def test_ring_svg_takes_any_sequence_of_masses(kind):
    laws = [full_pmf(WrappedBinomial(n, 24, 0.3)) for n in (8, 40)]
    assert ring_svg([kind(law) for law in laws]) == ring_svg(laws)


def test_plot_byte_identical_reruns(tmp_path):
    run(["pmf", "--n", 8, "--M", 24, "--out", tmp_path / "p.csv"])
    out1, out2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    assert run(["plot", "--style", "ring", tmp_path / "p.csv", "--out", out1]) == 0
    assert run(["plot", "--style", "ring", tmp_path / "p.csv", "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_plot_cylinder_from_density(tmp_path):
    run(["wn", "--mu", 0.0, "--sigma", 0.7, "--out", tmp_path / "d.csv"])
    out = tmp_path / "drum.svg"
    assert run(["plot", "--style", "cylinder", tmp_path / "d.csv",
                "--out", out]) == 0
    svg = out.read_text()
    assert svg.count("<line") == 720
    assert "<ellipse" in svg


def test_cylinder_lightens_the_rear_half():
    # a foot sits at base_y + ry*sin(theta) and screen y grows toward the
    # viewer, so theta = 3*pi/2 stands at the back and theta = pi/2 in front
    svg = cylinder_svg([(3 * math.pi / 2, 1.0), (math.pi / 2, 1.0)])
    back, front = (line.split('stroke="')[1].split('"')[0]
                   for line in svg.splitlines() if line.startswith("<line"))
    assert (back, front) == ("#b8cce0", "#4878a8")


def test_plot_cylinder_takes_one_density_file(tmp_path, capsys):
    run(["wn", "--mu", 0.0, "--sigma", 0.7, "--samples", 9, "--out", tmp_path / "d.csv"])
    assert run(["plot", "--style", "cylinder", tmp_path / "d.csv", tmp_path / "d.csv",
                "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(
        capsys, "error: ValueError: cylinder style takes exactly one density file\n")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("call, message", [
    (lambda: ring_svg([]), "ring_svg needs at least one distribution"),
    (lambda: cylinder_svg([]), "cylinder_svg needs at least one sample"),
    (lambda: cylinder_svg([(0.0, 0.0), (1.0, 0.0)]), "all density samples are zero"),
], ids=["no-law", "no-sample", "zero-density"])
def test_svg_writers_need_something_to_draw(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_plot_cylinder_reads_json_density(tmp_path, capsys):
    for fmt in ("csv", "json"):
        run(["wn", "--mu", 1.0, "--sigma", 0.7, "--samples", 90, "--format", fmt,
             "--out", tmp_path / f"d.{fmt}"])
        assert run(["plot", "--style", "cylinder", tmp_path / f"d.{fmt}",
                    "--out", tmp_path / f"{fmt}.svg"]) == 0
    assert (tmp_path / "json.svg").read_bytes() == (tmp_path / "csv.svg").read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text('{"slots": []}\n')
    assert run(["plot", "--style", "cylinder", bad, "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(capsys, "error: parse: line 1: expected a 'samples' list")


def test_plot_cylinder_takes_no_head_field(tmp_path, capsys):
    run(["wn", "--mu", 1.0, "--sigma", 0.7, "--samples", 9, "--format", "json",
         "--out", tmp_path / "d.json"])
    doc = json.loads((tmp_path / "d.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "angular_pmf", **doc}))
    assert run(["plot", "--style", "cylinder", bad, "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(capsys, "error: parse: unknown field 'kind'")
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("fmt,row,where", [
    ("csv", "{},{}", "line 3: "), ("json", '{{"theta": {}, "f": {}}}', "samples[1]: "),
], ids=["csv", "json"])
@pytest.mark.parametrize("theta,f,message", [
    ("0", "nan", "f must be finite"), ("0", "inf", "f must be finite"),
    ("nan", "1", "theta must be finite"), ("-inf", "1", "theta must be finite"),
    ("0", "-0.5", "f must be >= 0, got -0.5"),
    ('"0"', "1", "theta must be a number, got '"),
    ("0", "true", "f must be a number, got "),
], ids=["nan-f", "inf-f", "nan-theta", "inf-theta", "negative-f", "string-theta",
        "bool-f"])
def test_plot_rejects_a_bad_density_sample(tmp_path, capsys, fmt, row, where,
                                           theta, f, message):
    if fmt == "json":   # JSON spells the non-finite floats NaN and Infinity
        theta, f = (v.replace("nan", "NaN").replace("inf", "Infinity") for v in (theta, f))
    rows = [row.format(1, 1), row.format(theta, f)]
    text = ("theta,f\n" + "\n".join(rows) + "\n" if fmt == "csv"
            else '{"samples": [\n' + ",\n".join(rows) + "\n]}\n")
    bad = tmp_path / f"bad.{fmt}"
    bad.write_text(text)
    assert run(["plot", "--style", "cylinder", bad, "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(capsys, f"error: parse: {where}{message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad.name]


@pytest.mark.parametrize("fmt,text,message", [
    ("csv", "theta,f\n", "error: parse: line 2: no samples"),
    ("json", '{"samples": []}\n', "error: parse: no samples"),
], ids=["csv", "json"])
def test_plot_rejects_an_empty_density(tmp_path, capsys, fmt, text, message):
    bad = tmp_path / f"empty.{fmt}"
    bad.write_text(text)
    assert run(["plot", "--style", "cylinder", bad, "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(capsys, message)


def _pmf_doc(M=3, slots=(0, 1, 2), probs=(0.25, 0.5, 0.25), bounds=(0.0, 1.0)):
    """A valid PMF document by default; each argument spoils one field.

    A bound of None leaves that field out.
    """
    arc = {name: b for name, b in zip(("theta_lo", "theta_hi"), bounds) if b is not None}
    return json.dumps({"kind": "angular_pmf", "M": M, "slots": [
        {"slot": k, **arc, "prob": q} for k, q in zip(slots, probs)]})


@pytest.mark.parametrize("doc,message", [
    (_pmf_doc(slots=(0, 0, 9)), "needs slots 0..M-1, each exactly once"),
    (_pmf_doc(M=3.9), "M must be an integer, got 3.9"),
    (_pmf_doc(M=True), "M must be an integer, got True"),
    (_pmf_doc(slots=("0", "1", "2"), probs=("0.25", "0.5", "0.25")),
     "slot must be an integer, got '0'"),
    (_pmf_doc(probs=("0.25", "0.5", "0.25")), "prob must be a number, got '0.25'"),
    (_pmf_doc(M=4), "needs slots 0..M-1, each exactly once"),
    (_pmf_doc(bounds=("0.0", 1.0)), r"slots\[0\]: theta_lo must be a number, got '0.0'"),
    (_pmf_doc(bounds=(0.0, None)),
     r"slots\[0\]: expected the 4 fields slot, theta_lo, theta_hi, prob"),
], ids=["repeated-slot", "float-M", "bool-M", "string-slots", "string-probs",
        "missing-slot", "string-theta-lo", "missing-theta-hi"])
def test_pmf_from_json_rejects_what_it_used_to_coerce(doc, message):
    with pytest.raises(ParseError, match=message):
        pmf_from_json(doc)


@pytest.mark.parametrize("rows,message", [
    ("0,0.0,0.1,oops", "line 2: prob must be a number, got 'oops'"),
    ("0,abc,def,0.5\n1,,,0.5", "line 2: theta_lo must be a number, got 'abc'"),
    ("0,0.0,0.1,0.5\n1,,,0.5", "line 3: theta_lo must be a number, got ''"),
], ids=["bad-prob", "word-bounds", "empty-bounds"])
def test_plot_malformed_input_reports_line(tmp_path, capsys, rows, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"slot,theta_lo,theta_hi,prob\n{rows}\n")
    code = run(["plot", "--style", "ring", bad, "--out", tmp_path / "x.svg"])
    assert code != 0
    assert_single_line_error(capsys, f"error: parse: {message}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("probs,message", [
    ((0.75, -0.5, 0.75), "slot 1 has negative probability -0.5"),
    ((0.25, 0.5, 0.35), "slot probabilities sum to 1.1, not 1"),
    ((1e308, 1e308, 0.0), "slot probabilities sum to inf, not 1"),
], ids=["negative", "sum", "overflow"])
def test_plot_rejects_a_pmf_that_is_not_a_law(tmp_path, capsys, fmt, probs, message):
    bad = tmp_path / f"bad.{fmt}"
    if fmt == "json":
        bad.write_text(_pmf_doc(probs=probs))
    else:
        bad.write_text("slot,theta_lo,theta_hi,prob\n" + "".join(
            f"{k},0.0,1.0,{q!r}\n" for k, q in enumerate(probs)))
    assert run(["plot", "--style", "ring", bad, "--out", tmp_path / "x.svg"]) == 1
    assert_single_line_error(capsys, f"error: parse: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [bad.name]


def test_pmf_file_slot_count_is_checked_before_building_m_slots():
    doc = _pmf_doc(M=10**9, slots=(0,), probs=(1.0,))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^M=1000000000 needs slots 0\.\.M-1, "
                                             r"each exactly once$"):
            pmf_from_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_writing_a_file_holds_no_second_copy_of_it(tmp_path, monkeypatch):
    # the peak from the moment the command has returned its payload: main
    # encodes and writes it a chunk at a time, not as one bytes copy
    real = cli.cmd_lattice

    def computed(args):
        outputs = real(args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return outputs

    held = []
    monkeypatch.setattr(cli, "cmd_lattice", computed)
    out = tmp_path / "pegs.json"
    tracemalloc.start()
    try:
        assert run(["lattice", "--preset", "modules-1-12", "--format", "json",
                    "--out", out]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 300_000
    assert peak - held[0] < size // 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LATTICE_GOLDEN["modules-1-12-json"][0]


def test_plot_json_pmf_input(tmp_path):
    run(["pmf", "--n", 8, "--M", 24, "--format", "json",
         "--out", tmp_path / "p.json"])
    out = tmp_path / "ring.svg"
    assert run(["plot", "--style", "ring", tmp_path / "p.json",
                "--out", out]) == 0
    assert out.read_text().count("<path") == 9


# --- golden bytes of the figure files ------------------------------------------

# Custom boards, at an R and M no preset has: their spacings are derived.
CUSTOM_BOARDS = {
    "custom-M7-n20-R3.3-h0.9": ["--M", 7, "--n", 20, "--R", 3.3, "--h", 0.9],
    "custom-M360-n12-R60": ["--M", 360, "--n", 12, "--R", 60],
}

# sha256 of the peg file and manifest of each board and format: a change to
# the lattice or the table writers shows here.
LATTICE_GOLDEN = {
    "custom-M7-n20-R3.3-h0.9-csv": (
        "bb846d080bdebe862e2da5e9de4dbc4fcdea3e78df41b7d2d0d854a2bb447f12",
        "4c74704352dc36fc75fa02384f092a1c9e082ff5bbf266cf96d79ff6941ecd64"),
    "custom-M7-n20-R3.3-h0.9-json": (
        "0966943d1b88b7a5f3507e13bd20ebb602224b31ac01a42ef824c92aea2ab824",
        "1b297929ba3288bf8ea8e17f79a744dec301f11d828deb856a7cf51fe5c15bde"),
    "custom-M360-n12-R60-csv": (
        "fff5332f898731bcb106aa3e3cd306690c13878534ce914866c79339d4d051a7",
        "ee66670daf8f78df34381a783c7192b751a8edf743b9c9d92124a13e2107e075"),
    "custom-M360-n12-R60-json": (
        "a59752da27c9639e7954bc862baeeac3989658e5e4177affe425b5b89cdebf62",
        "1606645fbdbcf2c1851704b2795bba344f82d15291a6e00838576721d31cef33"),
    "modules-1-csv": (
        "88b25990ed114b29215e7d8d84d4649907546beb9e7e9ed87b409f8c600109b7",
        "28caef9dcd54dd8d4ca19a19bb9f755753fe67f7664635825c362b510bbda8f5"),
    "modules-1-json": (
        "5ec0c4153d0be583546fc96a3ba5a247d1d5ed171c74824ea1f34d03fad8620c",
        "bdca3cb2e1464a09e8f8fd58ff39e0a5feb0d2b5ffe7070a8d0dcf3165b81623"),
    "modules-1-2-csv": (
        "31901aea427d14f60837f40a1e6f0bf766354fff77c6c817d4c0a723d3fa07f6",
        "bce3777b93fbf003790194060c111e1edcb06720bedd9fb1db29f66942428899"),
    "modules-1-2-json": (
        "9708c45858a8351ad688ad6f195fd62b2f74e91d34a166e99c6368af48bd3400",
        "bffc87650ac682643e6a975bbe4749facf1ab36294a4bbb277d9d87ce1cc34dc"),
    "modules-1-3-csv": (
        "8bf39d02ec051c0807cc3ad3241eef4b4c83cfc663e4af6fa62a04c50da91ab0",
        "643f76b69078a8efc8826b969dee8d955e362a97b499223637ce35ddaab71483"),
    "modules-1-3-json": (
        "f268c6b8867fb3cb88043313c87602458f23652dabc1285da93999ae447733ec",
        "1f7df4057217a17200233a4956d36af54946b2d4eda6d7128c391bc94815c69a"),
    "modules-1-4-csv": (
        "37b182a3182410f5b276cf6d6a397e147714da4af78c411966053d7023a281ef",
        "690b8f5e9d12b507000d772276a3b37751faa915e8b197d01d63a91c7dc3e8ef"),
    "modules-1-4-json": (
        "3f66930dcf6e72c5ca453b3b06ccaf254d2dbdf373784196d5e1fd89f12227c3",
        "4f36e1fc595b28ba59f07c18183bfebda039a89a84665465d1ec97d4e0dc3198"),
    "modules-1-5-csv": (
        "d8444e85b4e1e67930e79e53d601d6b2296c6a92fba92ff1b00a6401caae2802",
        "5c944cab0af00abd2b0c3bd644f6455c613b671017c081f95b182c6a02abbe6e"),
    "modules-1-5-json": (
        "d77b8b12531c5d1025ed2f66cc2f2cc2228c793655e772c57ac05177ce247405",
        "40931ac9ec58c6e5a47534a7d864ea60625176717073c0c4aee988be04670e33"),
    "modules-1-6-csv": (
        "f11bf3d1395a421ce6237a64b6994911b5e5b1216e0064567d9ef54442cfffd9",
        "e5fee273f449c5cc12235906fac5b4c270d34eaacc516bae4594ff8092bf1006"),
    "modules-1-6-json": (
        "f88a3b4017db615b6572f948b9be0e9b886dab21f38cc282dbe2e4a0938e0242",
        "551f8c46b59a60739f7333faced9a1c8e30b32613edc3efa9647afa5a591459d"),
    "modules-1-9-csv": (
        "648b8c3d318eb44d00851348c80cc07f90ee77e5c68f8ead1f0c9ec14b199d14",
        "22fd331b6bb013e6edc56f666d768b6486beb272ec6183ed38791a964ffbff3c"),
    "modules-1-9-json": (
        "3502a1850d55e122671a9cd4adb5a22d878d8577921109d1b704a9813d99c8c4",
        "4c39e2a913b8bdc7a674ce2ee6283af5375e68179b12bbdfa62f32f7e5511637"),
    "modules-1-12-csv": (
        "a2cb20d6ab4a6c6db1ea7f0d78b6d770e6c8a0e2850c7f3ce0cc02f716e95241",
        "400e6f192c4be1c74532e8fbce17f272908b879bdce049caee8d95b0f7ab9bdc"),
    "modules-1-12-json": (
        "bf5352d85a754ef3659e51fde93975e221c78dd8d1a2b44b6e0eca64de388064",
        "f4b14f151d2afef042d535902853491b66c1c9ad57a6526ca922b1f6392784a3"),
    "planar-a4-csv": (
        "02a71a4bffd66f9b4b40d32c41ed3077896448e421c37dd93d2af5a0bd14d94f",
        "da0fa2d27de9cf735e116c57d7647c01bc77542d690eb5ac412e68bebdb83656"),
    "planar-a4-json": (
        "964db6d0a471d8fca99c21041471bfc02c228524a96384bc37761247466fcc1d",
        "c9b249df6e724c5ce76f23b61eaed7b287a2ddc686f43ee635e828f72e05f81e"),
}


@pytest.mark.parametrize("case", sorted(LATTICE_GOLDEN))
def test_lattice_golden_bytes(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)     # the manifest records the relative --out
    name, fmt = case.rsplit("-", 1)
    data, manifest = LATTICE_GOLDEN[case]
    board = CUSTOM_BOARDS.get(name, ["--preset", name])
    assert run(["lattice", *board, "--format", fmt, "--out", f"pegs.{fmt}"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == {f"pegs.{fmt}": data, "pegs.manifest.json": manifest}


# The commands of each case run in order, and every file they write at the
# top level, data, sidecars and manifest, is pinned; a plot reads its
# inputs from in/, written by the case's earlier commands.
_WN = ["wn", "--mu", 0.5, "--sigma", 0.7]
FIGURE_GOLDEN = {
    "wn-csv": (
        [[*_WN, "--out", "wn.csv"]],
        {"wn.bins.csv":
             "6ecab4b4d23d4b725c4b93460404b21a0e489d96f1819a52a635d1b0ecd0dcb4",
         "wn.csv":
             "0d3790ecf31eb5f849971035e226b087f030231b6b88cb75d1e6f8734e39e0fe",
         "wn.manifest.json":
             "9b40b0cfee3c085bed14265005d8c3952f34ae1376e225c8053bd2369dab9c69"}),
    "wn-json": (
        [["wn", "--mu", -2.0, "--sigma", 2.5, "--M", 36, "--format", "json",
          "--out", "wn.json"]],
        {"wn.bins.json":
             "1ab5dbde927da23a9682e16cdc5bdff4eca8d08a4d58ab6479ce01c11efa4c72",
         "wn.json":
             "9e548fa81802328892156e9dcf9b0923d0de6fb1398cfba841ea59b08c905193",
         "wn.manifest.json":
             "65d2f5da0833acfd57364d8627ce29125fcf0a1f2f1edd55a577bbe20985caba"}),
    "pmf-centered-json": (
        [["pmf", "--n", 96, "--M", 24, "--centered", "--format", "json",
          "--out", "pmf.json"]],
        {"pmf.json":
             "4ee3f0bb50acb1709cfaaec9e7c2c130e335129d0b9c9fa6491d43eeed619fde",
         "pmf.manifest.json":
             "8f4d8bf75910755ea94a0674a8aff8909651536465f29affe8fd57438dd8c301"}),
    "plot-ring": (
        [["pmf", "--n", 24, "--M", 24, "--out", "in/pmf.csv"],
         [*_WN, "--out", "in/wn.csv"],
         ["plot", "--style", "ring", "in/pmf.csv", "in/wn.bins.csv", "--out", "ring.svg"]],
        {"ring.manifest.json":
             "d5307bcb143095f2a9667993f55558ab843d20bade3fc7e2cc5f521c8052ce8f",
         "ring.svg":
             "611c7722fe5e804f08285a989ec11a0ecd1db4497057216f0710d86c388826a7"}),
    "plot-cylinder": (
        [[*_WN, "--out", "in/wn.csv"],
         ["plot", "--style", "cylinder", "in/wn.csv", "--out", "cylinder.svg"]],
        {"cylinder.manifest.json":
             "cfb47fa0c15b4290708d719b63b9355ff253ab4c3f1a825f526ac2aa8419e11e",
         "cylinder.svg":
             "b1bbeae5291820063d5c3b18a2a75682d51b8b068fda45008653584b4fa06695"}),
}


@pytest.mark.parametrize("case", sorted(FIGURE_GOLDEN))
def test_figure_golden_bytes(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)     # the manifest records the relative --out
    argvs, digests = FIGURE_GOLDEN[case]
    for argv in argvs:
        assert run(argv) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.is_file()}
    assert written == digests


# --- manifests and process-level behaviour ------------------------------------

def test_every_command_writes_a_manifest(tmp_path):
    run(["pmf", "--n", 4, "--M", 8, "--out", tmp_path / "a.csv"])
    run(["sweep", "--M", 8, "--p", 0.5, "--n", "4", "--out", tmp_path / "b.csv"])
    for stem in ("a", "b"):
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        for path in manifest["outputs"]:
            assert (tmp_path / path).exists() or (tmp_path / path).is_absolute()


WRITE_CASES = {
    "lattice": ["lattice", "--preset", "modules-1", "--format", "json"],
    "pmf": ["pmf", "--n", 8, "--M", 24, "--moments", "--centered"],
    "wn": ["wn", "--mu", 0.5, "--sigma", 0.7, "--samples", 36],
    "simulate": ["simulate", "--n", 8, "--balls", 200, "--seed", 5, "--compare", "exact"],
    "sweep": ["sweep", "--M", 24, "--n", "8,16"],
    "plot": ["plot", "--style", "ring", "in.csv"],
}


@pytest.mark.parametrize("command", sorted(WRITE_CASES))
def test_output_dir_holds_exactly_the_manifest_outputs(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run(["pmf", "--n", 8, "--M", 24, "--out", "in.csv"]) == 0  # plot's input
    assert run([*WRITE_CASES[command], "--out", "out/result.dat"]) == 0
    manifest = json.loads(Path("out/result.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"][0] == "out/result.dat"
    written = {str(p) for p in Path("out").iterdir()}
    assert written == {*manifest["outputs"], "out/result.manifest.json"}


@pytest.mark.parametrize("bad", [["--M", 0], ["--sigma", "inf"]])
def test_failed_command_leaves_output_dir_as_found(tmp_path, capsys, bad):
    before = tmp_path / "keep.txt"
    before.write_text("untouched\n")
    assert run(["wn", "--mu", 0.0, "--sigma", 1.0, *bad,
                "--out", tmp_path / "sub" / "wn.csv"]) == 1
    assert_single_line_error(capsys, "error: ValueError:")
    assert list(tmp_path.iterdir()) == [before]
    assert before.read_text() == "untouched\n"


def test_a_failed_write_removes_the_files_the_call_wrote(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("x.manifest.json").mkdir()     # the last write of the call fails
    assert run(["pmf", "--n", 5, "--M", 4, "--moments", "--out", "x.csv"]) == 1
    assert_single_line_error(capsys, "error: OSError: ")
    assert [p.name for p in tmp_path.iterdir()] == ["x.manifest.json"]


@pytest.mark.parametrize("out", [".", "", "..", "sub/.."])
def test_an_out_that_names_no_file_is_rejected_before_computing(tmp_path, monkeypatch,
                                                                capsys, out):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "cmd_pmf", lambda args: pytest.fail("pmf computed"))
    assert run(["pmf", "--n", 5, "--M", 4, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: ValueError: --out must name a file, got {out!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_file_the_package_writes_as_a_table_reads_back(tmp_path):
    files = {"pmf.csv": [], "centered.json": ["--centered", "--format", "json"]}
    for name, extra in files.items():
        assert run(["pmf", "--n", 30, "--M", 24, *extra, "--out", tmp_path / name]) == 0
    for fmt in ("csv", "json"):
        assert run(["wn", "--mu", 0.5, "--sigma", 0.7, "--samples", 36, "--format", fmt,
                    "--out", tmp_path / f"wn.{fmt}"]) == 0
    laws = [pmf_from_csv((tmp_path / name).read_text()) for name in ("pmf.csv", "wn.bins.csv")]
    assert [pmf_from_json((tmp_path / name).read_text())
            for name in ("centered.json", "wn.bins.json")] == laws
    assert (cli._read_density(tmp_path / "wn.json")
            == cli._read_density(tmp_path / "wn.csv"))
    assert len(cli._read_density(tmp_path / "wn.json")) == 36


def test_every_public_name_resolves_once():
    assert len(set(cylgalton.__all__)) == len(cylgalton.__all__)
    for name in cylgalton.__all__:
        assert hasattr(cylgalton, name), name


def run_module(args):
    """Run ``python -m cylgalton`` with this package's source root importable."""
    src = str(Path(cylgalton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cylgalton", *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point(tmp_path):
    out = tmp_path / "pmf.csv"
    proc = run_module(["pmf", "--n", 8, "--M", 24, "--out", out])
    assert proc.returncode == 0
    assert out.exists()


def test_module_entry_point_error_is_single_line(tmp_path):
    proc = run_module(["wn", "--mu", 0, "--sigma", -1, "--out", tmp_path / "x.csv"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1


# --- parsing: main parses every argv with the whole parser --------------------

PARSE_CASES = {
    **{command: [*argv, "--out", "o.dat"] for command, argv in WRITE_CASES.items()},
    "help": ["-h"],
    "version": ["--version"],
    "bad-command": ["bogus"],
    "no-command": [],
    "help-before-command": ["-h", "pmf"],
    "dashdash-command-help": ["--", "pmf", "-h"],
    "dashdash-bad-command": ["--", "bogus"],
    "dashdash-alone": ["--"],
    "dashdash-version": ["--", "--version"],
    "dashdash-help": ["--", "-h"],
    "dashdash-bad-option": ["--", "--bogus", "pmf"],
    "command-help": ["pmf", "-h"],
    "missing-required": ["pmf", "--n", 8, "--out", "o.csv"],
    "bad-choice": ["lattice", "--format", "xml", "--out", "o.csv"],
    "extra-positional": ["pmf", "--n", 8, "--M", 24, "--out", "o.csv", "extra"],
    "bad-type": ["simulate", "--n", "x", "--out", "o.csv"],
}


def parse_outcome(parse, argv, capsys):
    """What parse(argv) gives or exits with, and its stdout and stderr."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, capsys.readouterr()


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_main_parses_as_the_whole_parser(tmp_path, monkeypatch, capsys, case):
    argv = [str(a) for a in PARSE_CASES[case]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    parsed = []
    for command in cli.COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: parsed.append(args) or [])
    whole = cli._parser.__wrapped__

    got = parse_outcome(lambda a: main(a) == 0 and parsed.pop(), argv, capsys)
    # main drops a "--" that a word follows
    plain = argv[1:] if len(argv) > 1 and argv[0] == "--" else argv
    if plain is argv or not plain[0].startswith("-"):
        assert got == parse_outcome(whole().parse_args, plain, capsys)
    else:
        # an option after "--" is the command word: named as any unknown word is
        result, (out, err) = parse_outcome(whole().parse_args, ["unknown"], capsys)
        assert got == (result, (out, err.replace("'unknown'", repr(plain[0]))))
        assert len(err.splitlines()) == 2 and repr(plain[0]) in got[1].err


@pytest.mark.parametrize("command", sorted(WRITE_CASES))
def test_a_leading_dashdash_writes_the_same_bytes(tmp_path, monkeypatch, command):
    argv = [*WRITE_CASES[command], "--out", "result.dat"]
    written = []
    for where, args in (("plain", argv), ("dashdash", ["--", *argv])):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        assert run(["pmf", "--n", 8, "--M", 24, "--out", "in.csv"]) == 0  # plot's input
        assert run(args) == 0
        written.append({f.name: f.read_bytes() for f in Path().iterdir()})
    assert "result.manifest.json" in written[0]
    assert written[0] == written[1]


@pytest.mark.parametrize("case", ["help", "version", "bad-command", "command-help",
                                  "extra-positional"])
def test_console_script_reads_sys_argv(tmp_path, monkeypatch, capsys, case):
    argv = [str(a) for a in PARSE_CASES[case]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (_, code), (out, err) = parse_outcome(cli.build_parser().parse_args, argv, capsys)
    proc = run_module(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# --- one parser per process ----------------------------------------------------

def test_build_parser_returns_one_parser_per_command():
    assert cli.build_parser() is cli.build_parser()


MIXED_SEQUENCE = [
    ["lattice", "--preset", "modules-1", "--out", "lat.csv"],
    ["pmf", "--n", 24, "--M", 24, "--moments", "--out", "pmf.csv"],
    ["pmf", "--n", 5, "--M", 0, "--out", "bad.csv"],
    ["wn", "--mu", 0.5, "--sigma", 0.7, "--samples", 36, "--out", "wn.csv"],
    ["sweep", "--M", 24, "--n", "1,8,100", "--out", "sweep.csv"],
    ["simulate", "--n", 8, "--balls", 200, "--seed", 5, "--compare", "exact",
     "--out", "sim.csv"],
    ["plot", "--style", "ring", "pmf.csv", "wn.bins.csv", "--out", "ring.svg"],
]


def test_one_process_writes_what_a_process_per_command_writes(tmp_path, monkeypatch, capsys):
    outcomes = []
    for where in ("fresh", "first", "again"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        if where == "fresh":
            procs = [run_module(argv) for argv in MIXED_SEQUENCE]
            codes, errs = [p.returncode for p in procs], [p.stderr for p in procs]
        else:   # the second pass reuses every parser the first one built
            codes = [run(argv) for argv in MIXED_SEQUENCE]
            lines = iter(capsys.readouterr().err.splitlines(keepends=True))
            errs = [next(lines) if code else "" for code in codes]
        files = {f.name: f.read_bytes() for f in Path().iterdir()}
        outcomes.append((codes, errs, files))
    assert outcomes[0][0] == [0, 0, 1, 0, 0, 0, 0]
    assert outcomes[0][1][2] == "error: ValueError: M must be >= 1, got 0\n"
    assert len(outcomes[0][2]) == 15      # 6 manifests and 9 files they list
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_every_command_runs_on_one_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in MIXED_SEQUENCE:
        run(argv)
    capsys.readouterr()
    assert cli._parser.cache_info().currsize == 1


def test_a_shared_parser_reads_the_help_width_when_it_prints(monkeypatch, capsys):
    cli.build_parser()      # built before COLUMNS changes
    helps = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["pmf", "-h"])
        with pytest.raises(SystemExit):
            cli._parser.__wrapped__().parse_args(["pmf", "-h"])
        got, fresh = capsys.readouterr().out.split("usage: ")[1:]
        assert got == fresh
        helps.append(got)
    assert helps[0] != helps[1]
    assert max(map(len, helps[0].splitlines())) <= 80 < max(map(len, helps[1].splitlines()))


def _probe(code):
    """What the Python code prints in a fresh interpreter with this package importable."""
    src = str(Path(cylgalton.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return proc.stdout.strip()


LAYERS = ("angular", "cli", "diagnostics", "geometry", "svgplot", "walk_sim",
          "wrapped_binomial", "wrapped_normal")

NUMPY_FREE = {
    "parser": [],
    "version": ["--version"],
    "lattice": ["lattice", "--preset", "modules-1", "--out", "{d}/lat.csv"],
    "plot-ring": ["plot", "--style", "ring", "{d}/pmf.csv", "--out", "{d}/ring.svg"],
    "plot-cylinder": ["plot", "--style", "cylinder", "{d}/wn.csv", "--out", "{d}/cyl.svg"],
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_cold_start_imports_no_numpy(tmp_path, case):
    # numpy's import is most of a cold start; only a command that computes needs it
    assert run(["pmf", "--n", 8, "--M", 24, "--out", tmp_path / "pmf.csv"]) == 0
    assert run(["wn", "--mu", 0, "--sigma", 1, "--out", tmp_path / "wn.csv"]) == 0
    argv = [a.format(d=tmp_path) for a in NUMPY_FREE[case]]
    call = f"cylgalton.cli.main({argv!r})" if argv else "cylgalton.cli.build_parser()"
    probe = ("import contextlib, sys, cylgalton.cli\n"
             f"with contextlib.suppress(SystemExit): {call}\n"
             "print('numpy' in sys.modules)")
    assert _probe(probe).splitlines()[-1] == "False"


def test_one_computing_command_loads_every_layer(tmp_path):
    probe = ("import sys, cylgalton.cli\n"
             f"cylgalton.cli.main(['pmf', '--n', '8', '--M', '24', '--out', "
             f"{str(tmp_path / 'pmf.csv')!r}])\n"
             f"print(sorted(m for m in {LAYERS!r} if 'cylgalton.' + m in sys.modules))")
    assert _probe(probe) == repr(sorted(LAYERS))


def test_public_names_resolve_on_first_use():
    probe = ("import sys, cylgalton\n"
             "print('numpy' in sys.modules,\n"
             "      set(cylgalton.__all__) <= set(dir(cylgalton)))\n"
             "print(all(getattr(cylgalton, name).__name__ == name\n"
             "          for name in cylgalton.__all__))")
    assert _probe(probe).splitlines() == ["False True", "True"]
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        cylgalton.bogus


def test_cold_start_imports_no_scipy():
    # scipy.special alone took most of a cold start's 0.4 s
    probe = ("import sys, cylgalton.cli; cylgalton.cli.build_parser(); "
             "print([m for m in sys.modules if m.startswith('scipy')])")
    assert _probe(probe) == "[]"
