import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cylgalton
from cylgalton import __version__
from cylgalton.angular import (AngularPMF, pmf_from_csv, pmf_to_csv,
                               pmf_to_json_dict)
from cylgalton.cli import main


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


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


def test_lattice_rejects_inconsistent_spacing(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    code = run(["lattice", "--M", 24, "--n", 2, "--R", 5.7, "--d", 2.0,
                "--out", out])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    assert "delta_theta" in err
    assert not out.exists()


def test_lattice_requires_shape_arguments(tmp_path, capsys):
    assert run(["lattice", "--out", tmp_path / "x.csv"]) != 0
    assert "error:" in capsys.readouterr().err


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
    assert pmf.M == 24
    assert abs(math.fsum(pmf.probs) - 1.0) < 1e-12


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
    spread = max(pmf.probs) - min(pmf.probs)
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
    pmf = AngularPMF(2, (0.5, 0.5))
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
    assert abs(math.fsum(bins.probs) - 1.0) < 1e-12


def test_wn_uniform_limit_bins(tmp_path):
    out = tmp_path / "wide.csv"
    assert run(["wn", "--mu", 0.0, "--sigma", 10.0, "--M", 24, "--out", out]) == 0
    bins = pmf_from_csv((tmp_path / "wide.bins.csv").read_text())
    assert all(q == pytest.approx(1 / 24, abs=1e-10) for q in bins.probs)


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


def test_plot_malformed_input_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("slot,theta_lo,theta_hi,prob\n0,0.0,0.1,oops\n")
    code = run(["plot", "--style", "ring", bad, "--out", tmp_path / "x.svg"])
    assert code != 0
    err = capsys.readouterr().err
    assert "line 2" in err


def test_plot_json_pmf_input(tmp_path):
    run(["pmf", "--n", 8, "--M", 24, "--format", "json",
         "--out", tmp_path / "p.json"])
    out = tmp_path / "ring.svg"
    assert run(["plot", "--style", "ring", tmp_path / "p.json",
                "--out", out]) == 0
    assert out.read_text().count("<path") == 9


# --- manifests and process-level behaviour ------------------------------------

def test_every_command_writes_a_manifest(tmp_path):
    run(["pmf", "--n", 4, "--M", 8, "--out", tmp_path / "a.csv"])
    run(["sweep", "--M", 8, "--p", 0.5, "--n", "4", "--out", tmp_path / "b.csv"])
    for stem in ("a", "b"):
        manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        for path in manifest["outputs"]:
            assert (tmp_path / path).exists() or (tmp_path / path).is_absolute()


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
