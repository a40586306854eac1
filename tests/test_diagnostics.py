import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgalton.angular import TWO_PI, AngularPMF
from cylgalton.diagnostics import (MIN_EXPECTED, _pool_cyclic, compare,
                                   drift_check, sweep_to_csv,
                                   sweep_uniformity, tv_distance, wb_wn_tv)
from cylgalton.walk_sim import BinHistogram, WalkConfig, simulate
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf, tv_to_uniform
from oracles import binomial_fold_pmf, wn_interval_prob_ref


def _uniform(m):
    return AngularPMF(m, tuple(1.0 / m for _ in range(m)))


def test_tv_basics():
    a = (0.5, 0.5, 0.0)
    b = (0.0, 0.5, 0.5)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == pytest.approx(0.5)
    assert tv_distance(a, b) == tv_distance(b, a)
    with pytest.raises(ValueError, match="length"):
        tv_distance((1.0,), (0.5, 0.5))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40))
def test_tv_is_a_metric_on_the_simplex(xs, ys):
    size = min(len(xs), len(ys))
    xs, ys = xs[:size], ys[:size]
    sx, sy = sum(xs) or 1.0, sum(ys) or 1.0
    a = [x / sx for x in xs]
    b = [y / sy for y in ys]
    d = tv_distance(a, b)
    assert -1e-12 <= d <= 1.0 + 1e-12
    assert d == tv_distance(b, a)
    if a == b:
        assert d == 0.0


def test_compare_exact_match_is_zero():
    pmf = full_pmf(WrappedBinomial(6, 12, 0.5))
    counts = tuple(int(round(q * 64)) for q in pmf.probs)  # 64 * Bin(6,1/2)
    hist = BinHistogram(M=12, counts=counts, total=64)
    report = compare(hist, pmf)
    assert report.tv == 0.0
    assert report.chi2 == 0.0
    assert report.p_value == 1.0


def test_compare_point_mass_against_uniform():
    hist = BinHistogram(M=24, counts=(100,) + (0,) * 23, total=100)
    report = compare(hist, _uniform(24))
    assert report.tv == pytest.approx(1.0 - 1.0 / 24)
    assert report.p_value < 1e-12
    assert math.isfinite(report.kl)


def test_compare_dimension_mismatch():
    hist = BinHistogram(M=3, counts=(1, 1, 1), total=3)
    with pytest.raises(ValueError, match="mismatch"):
        compare(hist, _uniform(4))


def test_compare_seeded_run_against_own_law():
    config = WalkConfig(n=8, M=24, p=0.5, balls=100_000, seed=7)
    hist = simulate(config).histogram
    report = compare(hist, full_pmf(WrappedBinomial(8, 24, 0.5)))
    assert report.p_value > 0.001
    assert report.tv < 0.01
    assert report.kl >= 0.0


def test_compare_flags_impossible_cells():
    # mass observed where the law says zero
    pmf = AngularPMF(4, (0.5, 0.5, 0.0, 0.0))
    hist = BinHistogram(M=4, counts=(40, 40, 20, 0), total=100)
    assert compare(hist, pmf).kl == math.inf


def test_pooling_guarantees_minimum_expected_count():
    pmf = full_pmf(WrappedBinomial(8, 24, 0.5))
    expected = [200 * q for q in pmf.probs]      # many cells below 5
    observed = [200 / 24] * 24
    groups = _pool_cyclic(observed, expected)
    assert sum(e for _, e in groups) == pytest.approx(200.0)
    assert all(e >= MIN_EXPECTED for _, e in groups)


def test_pooling_collapses_tiny_samples_to_one_group():
    groups = _pool_cyclic([1, 0, 1], [0.6, 0.9, 0.5])
    assert len(groups) == 1
    report = compare(BinHistogram(M=3, counts=(1, 0, 1), total=2), _uniform(3))
    assert report.dof == 1
    assert report.chi2 == pytest.approx(0.0)
    assert report.p_value == pytest.approx(1.0)


def test_sweep_ladder_decreases_towards_uniform():
    result = sweep_uniformity(24, 0.5, [8, 16, 24, 40, 100, 400])
    assert [r.n for r in result.rows] == [8, 16, 24, 40, 100, 400]
    tvs = [r.tv_uniform for r in result.rows]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    # frozen endpoints from the exact rational fold
    assert tvs[0] == pytest.approx(0.7213541666666666, abs=1e-12)
    assert tvs[-1] == pytest.approx(0.020361877053947777, abs=1e-10)


def test_sweep_single_row():
    result = sweep_uniformity(24, 0.5, [24])
    assert len(result.rows) == 1
    assert result.rows[0].tv_uniform == pytest.approx(
        tv_to_uniform(WrappedBinomial(24, 24, 0.5)))
    assert result.rows[0].tv_wn < 0.02


def test_sweep_extended_module_ladder():
    result = sweep_uniformity(24, 0.5, [48, 72, 96])
    tvs = [r.tv_uniform for r in result.rows]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_sweep_rows_sorted_and_deduplicated():
    result = sweep_uniformity(24, 0.5, [40, 8, 40, 16])
    assert [r.n for r in result.rows] == [8, 16, 40]
    with pytest.raises(ValueError, match="nonempty"):
        sweep_uniformity(24, 0.5, [])


def test_sweep_csv_round_trip_precision():
    result = sweep_uniformity(24, 0.5, [8, 24])
    text = sweep_to_csv(result)
    lines = text.splitlines()
    assert lines[0] == "n,tv_uniform,tv_wn"
    n, tvu, tvw = lines[1].split(",")
    assert int(n) == 8
    assert float(tvu) == result.rows[0].tv_uniform
    assert float(tvw) == result.rows[0].tv_wn


def test_wb_wn_distance_against_reference():
    # independent check: rational slot law vs high-precision normal bins,
    # integrated over intervals centered on each slot's landing atom
    for n in (8, 16, 24):
        m = 24
        dtheta = TWO_PI / m
        sigma2 = n * 0.25 * dtheta**2
        wb = binomial_fold_pmf(n, m, 0.5)
        acc = 0.0
        for k in range(m):
            atom = (2 * k - n) * dtheta / 2.0
            ref = wn_interval_prob_ref(0.0, sigma2, atom - dtheta / 2,
                                       atom + dtheta / 2)
            acc += abs(wb[k] - ref)
        assert wb_wn_tv(n, m, 0.5) == pytest.approx(acc / 2.0, abs=1e-10)


def test_wb_wn_distance_shrinks_with_depth():
    vals = [wb_wn_tv(n, 24, 0.5) for n in (8, 16, 24)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.02


def test_drift_check_symmetric():
    config = WalkConfig(n=8, M=24, p=0.5, balls=100_000, seed=11)
    report = drift_check(config, simulate(config).rights)
    assert abs(report.z_mean) < 4.0
    assert abs(report.z_var) < 4.0
    assert report.expected_mean == 0.0


def test_drift_check_biased():
    config = WalkConfig(n=8, M=24, p=0.75, balls=100_000, seed=11)
    report = drift_check(config, simulate(config).rights)
    assert report.expected_mean == pytest.approx(math.pi / 6, rel=1e-14)
    assert report.expected_variance == pytest.approx(
        8 * 0.1875 * (TWO_PI / 24) ** 2, rel=1e-14)
    assert abs(report.z_mean) < 4.0
    assert abs(report.z_var) < 4.0
    assert report.variance == pytest.approx(report.expected_variance, rel=0.05)


def test_drift_check_requires_balls_and_wrapping():
    config = WalkConfig(n=8, M=24, p=0.5, balls=10, seed=0)
    with pytest.raises(ValueError, match="no balls"):
        drift_check(config, (0,) * 9)
    with pytest.raises(ValueError, match="expected 9 rightward counts"):
        drift_check(config, (10,))
    flat = WalkConfig(n=8, M=None, p=0.5, balls=10, seed=0)
    with pytest.raises(ValueError, match="wrapped"):
        drift_check(flat, simulate(flat).rights)
