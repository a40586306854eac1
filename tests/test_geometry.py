import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgalton.angular import TWO_PI
from cylgalton.geometry import (ClearanceWarning, LatticeError, LatticeSpec,
                                Peg, build_lattice, export_pegs, planar_board,
                                preset, preset_names)


def test_single_peg_board():
    spec = LatticeSpec.from_angular(R=5.7, M=24, n=1, h=1.02,
                                    r_peg=0.1, r_ball=0.4)
    pegs = build_lattice(spec)
    assert len(pegs) == 1
    peg = pegs[0]
    assert peg.row == 0 and peg.col == 0
    assert peg.theta == 0.0
    assert peg.z == spec.H


def test_third_row_middle_peg_sits_on_the_midline():
    spec = LatticeSpec.from_angular(R=5.7, M=24, n=3, h=1.02,
                                    r_peg=0.1, r_ball=0.4)
    pegs = {(p.row, p.col): p for p in build_lattice(spec)}
    # row 2, col 1: offset (1 - 2/2) = 0
    assert pegs[(2, 1)].theta == 0.0


def test_five_module_census():
    pegs = build_lattice(preset("modules-1-5").spec)
    assert len(pegs) == 684
    triangular = sum(1 for p in pegs if p.row < 24)
    assert triangular == 300
    assert len(pegs) - triangular == 384


def test_row_counts_follow_min_rule():
    spec = preset("modules-1-5").spec
    pegs = build_lattice(spec)
    by_row = {}
    for p in pegs:
        by_row[p.row] = by_row.get(p.row, 0) + 1
    for i in range(spec.n):
        assert by_row[i] == min(spec.M, i + 1)


def test_pegs_lie_on_the_cylinder():
    spec = preset("modules-1-3").spec
    for p in build_lattice(spec):
        assert abs(p.x**2 + p.y**2 - spec.R**2) / spec.R**2 < 1e-12


def test_successive_rows_stagger_by_half_spacing():
    spec = preset("modules-1-2").spec
    pegs = build_lattice(spec)
    residues = {}
    for p in pegs:
        r = math.fmod(p.theta, spec.delta_theta)
        residues.setdefault(p.row, []).append(r)
    def circ_dist(a, b):
        d = abs(a - b) % spec.delta_theta
        return min(d, spec.delta_theta - d)
    for row, vals in residues.items():
        assert all(circ_dist(v, vals[0]) < 1e-9 for v in vals)
    for i in range(spec.n - 1):
        shift = circ_dist(residues[i][0], residues[i + 1][0])
        assert abs(shift - spec.delta_theta / 2) < 1e-9


@pytest.mark.parametrize("name", preset_names())
def test_presets_validate_and_build(name):
    board = preset(name)
    pegs = build_lattice(board.spec)
    if board.spec.wrap:
        assert board.spec.M == 24
        assert board.spec.n == 8 * board.modules
        assert len(pegs) == sum(min(board.spec.M, i + 1)
                                for i in range(board.spec.n))
    else:
        assert len(pegs) == board.spec.n * (board.spec.n + 1) // 2


def test_preset_expected_distributions():
    # each module board realises the wrapped binomial of (spec.n, spec.M)
    assert preset("modules-1-5").spec.n == 40
    assert preset("modules-1-5").spec.M == 24
    assert preset("modules-1-3").spec.n == 24
    assert preset("modules-1-6").spec.n == 48
    assert preset("modules-1-12").spec.n == 96


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown preset"):
        preset("modules-7-9")


def test_planar_board_bins():
    board = planar_board()
    assert board.spec.n == 10
    assert board.spec.M == 11
    assert not board.spec.wrap
    assert planar_board(n=0).spec.M == 1
    pegs = build_lattice(board.spec)
    assert len(pegs) == sum(i + 1 for i in range(10))
    # flat board keeps pegs in the plane y = 0
    assert all(p.y == 0.0 for p in pegs)


def test_invalid_specs_name_the_violation():
    good = preset("modules-1").spec
    with pytest.raises(LatticeError, match="delta_theta"):
        LatticeSpec(R=good.R, M=good.M, delta_theta=good.delta_theta,
                    d=good.d * 1.01, h=good.h, n=good.n, H=good.H,
                    r_peg=good.r_peg, r_ball=good.r_ball).validate()
    with pytest.raises(LatticeError, match="n must be"):
        LatticeSpec.from_angular(R=5.7, M=24, n=0, h=1.0,
                                 r_peg=0.1, r_ball=0.3).validate()
    with pytest.raises(LatticeError, match="h must be"):
        LatticeSpec.from_angular(R=5.7, M=24, n=8, h=-1.0,
                                 r_peg=0.1, r_ball=0.3).validate()
    with pytest.raises(LatticeError, match="circle"):
        LatticeSpec(R=5.7, M=24, delta_theta=0.9 * TWO_PI / 24,
                    d=5.7 * 0.9 * TWO_PI / 24, h=1.0, n=8, H=8.0,
                    r_peg=0.1, r_ball=0.3).validate()


def test_clearance_warning_vs_error():
    # gap = d - 2*r_peg; ratio just above 1 warns, far above errors
    spec = LatticeSpec.from_angular(R=5.7, M=24, n=8, h=1.02,
                                    r_peg=0.1, r_ball=0.4)
    gap = spec.d - 2 * spec.r_peg
    with pytest.warns(ClearanceWarning):
        LatticeSpec.from_angular(R=5.7, M=24, n=8, h=1.02, r_peg=0.1,
                                 r_ball=0.51 * gap).validate()
    with pytest.raises(LatticeError, match="clearance"):
        LatticeSpec.from_angular(R=5.7, M=24, n=8, h=1.02, r_peg=0.1,
                                 r_ball=0.6 * gap).validate()


def test_csv_export_shapes():
    one = build_lattice(LatticeSpec.from_angular(R=5.7, M=24, n=1, h=1.02,
                                                 r_peg=0.1, r_ball=0.4))
    data = export_pegs(one, "csv")
    lines = data.splitlines()
    assert lines == ["row,col,theta,z,x,y",
                     f"0,0,{one[0].theta!r},{one[0].z!r},{one[0].x!r},{one[0].y!r}"]

    big = build_lattice(preset("modules-1-5").spec)
    assert len(export_pegs(big, "csv").splitlines()) == 685


def test_json_export_round_trip():
    pegs = build_lattice(preset("modules-1-2").spec)
    doc = json.loads(export_pegs(pegs, "json"))
    assert doc["unit"] == "cm"
    assert [Peg(**p) for p in doc["pegs"]] == pegs


def test_export_sorts_pegs_by_row_then_column():
    for name in ("modules-1-3", "planar-a4"):
        pegs = build_lattice(preset(name).spec)
        shuffled = random.Random(7).sample(pegs, len(pegs))
        for fmt in ("csv", "json"):
            assert export_pegs(shuffled, fmt) == export_pegs(pegs, fmt)


def test_a_peg_is_an_immutable_export_row():
    peg = build_lattice(preset("modules-1").spec)[4]
    line = export_pegs([peg], "csv").splitlines()[1]
    assert line == ",".join(map(repr, peg))
    assert Peg(**peg._asdict()) == peg
    with pytest.raises(AttributeError):
        peg.theta = 0.0


@pytest.mark.parametrize("name", preset_names())
def test_no_preset_writes_a_negative_zero(name):
    # a peg on an exact multiple of 2*pi once wrote theta and y as -0.0
    pegs = build_lattice(preset(name).spec)
    csv_fields = [field for line in export_pegs(pegs, "csv").splitlines()[1:]
                  for field in line.split(",")]
    json_fields = [repr(value) for peg in json.loads(export_pegs(pegs, "json"))["pegs"]
                   for value in peg.values()]
    assert "-0.0" not in csv_fields + json_fields


def test_unsupported_export_format():
    with pytest.raises(ValueError, match="format"):
        export_pegs([], "xml")


@settings(max_examples=40, deadline=None)
@given(R=st.floats(0.5, 50.0), M=st.integers(1, 96), n=st.integers(1, 30),
       h=st.floats(0.1, 5.0))
def test_random_specs_produce_valid_lattices(R, M, n, h):
    spec = LatticeSpec.from_angular(R=R, M=M, n=n, h=h,
                                    r_peg=1e-6, r_ball=1e-6)
    pegs = build_lattice(spec)
    assert len(pegs) == sum(min(M, i + 1) for i in range(n))
    for p in pegs:
        assert 0.0 <= p.theta < TWO_PI
        assert abs(p.x**2 + p.y**2 - R**2) / R**2 < 1e-12
        assert abs(p.z - (spec.H - p.row * h)) <= 1e-12 * abs(spec.H)
