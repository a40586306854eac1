import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgalton import diagnostics, wrapped_binomial
from cylgalton.angular import TWO_PI
from cylgalton.diagnostics import (MIN_EXPECTED, _pool_cyclic, chi2_tail,
                                   compare, sweep_to_csv, sweep_uniformity,
                                   tv_distance, wb_wn_tv)
from cylgalton.walk_sim import WalkConfig, simulate, slot_counts
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf, tv_to_uniform
from oracles import (binomial_fold_pmf, tv_to_uniform_ref, wb_wn_tv_ref,
                     wn_interval_prob_ref)


def _uniform(m):
    return tuple(1.0 / m for _ in range(m))


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
    counts = tuple(int(round(q * 64)) for q in pmf)  # 64 * Bin(6,1/2)
    report = compare(counts, pmf)
    assert report.tv == 0.0
    assert report.chi2 == 0.0
    assert report.p_value == 1.0


@pytest.mark.parametrize("kind", [tuple, list, np.array], ids=["tuple", "list", "numpy"])
def test_compare_takes_any_sequence_of_masses(kind):
    law = full_pmf(WrappedBinomial(8, 24, 0.3))     # 15 slots of mass 0
    counts = (3, 20, 45, 60, 50, 20, 2) + (0,) * 17
    assert compare(counts, kind(law)) == compare(counts, law)


def test_compare_point_mass_against_uniform():
    report = compare((100,) + (0,) * 23, _uniform(24))
    assert report.tv == pytest.approx(1.0 - 1.0 / 24)
    assert report.p_value < 1e-12
    assert math.isfinite(report.kl)


def test_compare_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        compare((1, 1, 1), _uniform(4))


def test_compare_rejects_counts_with_no_balls():
    with pytest.raises(ValueError, match="no balls to compare"):
        compare((0, 0, 0), _uniform(3))


def test_compare_rejects_a_negative_count():
    with pytest.raises(ValueError, match="counts must be >= 0, got -1"):
        compare((5, -1, 0), _uniform(3))


def test_compare_seeded_run_against_own_law():
    config = WalkConfig(n=8, M=24, p=0.5, balls=100_000, seed=7)
    report = compare(slot_counts(simulate(config), config.M), full_pmf(WrappedBinomial(8, 24, 0.5)))
    assert report.p_value > 0.001
    assert report.tv < 0.01
    assert report.kl >= 0.0


def test_compare_flags_impossible_cells():
    # mass observed where the law says zero
    pmf = (0.5, 0.5, 0.0, 0.0)
    report = compare((40, 40, 20, 0), pmf)
    assert report.kl == math.inf
    # pooled, the impossible cell would read as chi2 = 4.0, p = 0.046
    assert report.chi2 == math.inf
    assert report.p_value == 0.0


def test_pooling_guarantees_minimum_expected_count():
    pmf = full_pmf(WrappedBinomial(8, 24, 0.5))
    expected = [200 * q for q in pmf]     # many cells below 5
    observed = [200 / 24] * 24
    groups = _pool_cyclic(observed, expected)
    assert sum(e for _, e in groups) == pytest.approx(200.0)
    assert all(e >= MIN_EXPECTED for _, e in groups)


def test_pooling_collapses_tiny_samples_to_one_group():
    groups = _pool_cyclic([1, 0, 1], [0.6, 0.9, 0.5])
    assert len(groups) == 1
    report = compare((1, 0, 1), _uniform(3))
    assert report.dof == 1
    assert report.chi2 == pytest.approx(0.0)
    assert report.p_value == pytest.approx(1.0)


def test_sweep_ladder_decreases_towards_uniform():
    result = sweep_uniformity(24, 0.5, [8, 16, 24, 40, 100, 400])
    assert [r.n for r in result] == [8, 16, 24, 40, 100, 400]
    tvs = [r.tv_uniform for r in result]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))
    # frozen endpoints from the exact rational fold
    assert tvs[0] == pytest.approx(0.7213541666666666, abs=1e-12)
    assert tvs[-1] == pytest.approx(0.020361877053947777, abs=1e-10)


def test_sweep_single_row():
    result = sweep_uniformity(24, 0.5, [24])
    assert len(result) == 1
    assert result[0].tv_uniform == pytest.approx(
        tv_to_uniform(WrappedBinomial(24, 24, 0.5)))
    assert result[0].tv_wn < 0.02


def test_sweep_extended_module_ladder():
    result = sweep_uniformity(24, 0.5, [48, 72, 96])
    tvs = [r.tv_uniform for r in result]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_sweep_rows_sorted_and_deduplicated():
    result = sweep_uniformity(24, 0.5, [40, 8, 40, 16])
    assert [r.n for r in result] == [8, 16, 40]
    with pytest.raises(ValueError, match="nonempty"):
        sweep_uniformity(24, 0.5, [])


@pytest.mark.parametrize("bad", [2.7, True, "3"])
def test_sweep_rejects_a_row_count_that_is_not_an_int(bad):
    message = f"^--n row count must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        sweep_uniformity(24, 0.5, [8, bad])


def test_sweep_folds_each_law_once(monkeypatch):
    folds = []
    real = wrapped_binomial._binomial_terms
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms",
                        lambda n, p, *walk: folds.append(n) or real(n, p, *walk))
    sweep_uniformity(24, 0.5, [8, 24, 100])
    assert folds == [8, 24, 100]


def test_sweep_rejects_zero_rows_before_any_fold(monkeypatch):
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms", None)
    with pytest.raises(ValueError, match="^the normal limit needs n >= 1, got n=0: "
                                         "a board with no rows has a degenerate limit$"):
        sweep_uniformity(7, 0.5, [5, 1, 0, 50])


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sweep_rejects_a_degenerate_p_before_any_row(monkeypatch, p):
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms", None)
    monkeypatch.setattr(wrapped_binomial, "_cf_polar", None)
    with pytest.raises(ValueError, match=rf"^the normal limit needs 0 < p < 1, got p={p}: "
                                         r"the limit is degenerate \(zero variance\)$"):
        sweep_uniformity(24, p, [5, 500])


@pytest.mark.parametrize("bad", [np.float32(0.3), "0.3", True])
def test_sweep_p_must_be_an_int_or_a_float(monkeypatch, bad):
    # _spectral_rows reads p raw: np.float32 would put tv_wn 1.5e-5 off
    monkeypatch.setattr(wrapped_binomial, "_cf_polar", None)
    with pytest.raises(ValueError, match=f"^--p must be a number, got {re.escape(repr(bad))}"):
        sweep_uniformity(24, bad, [100, 1000])


# Across the n = 64 cut, both sides of the spectral test, and n up to 3*10^6.
GRID_NS = [1, 2, 7, 24, 63, 64, 65, 100, 163, 1000, 5623, 10**4, 10**5, 10**6,
           3 * 10**6 + 7]


@pytest.mark.parametrize("M", [1, 2, 3, 7, 24, 25, 360, 3600])
def test_sweep_rows_are_the_one_law_distances_bit_for_bit(M):
    for p in (0.5, 0.02, 0.3, 0.97, 1e-3):
        for row in sweep_uniformity(M, p, GRID_NS):
            wb = WrappedBinomial(row.n, M, p)
            assert (row.tv_uniform.hex(), row.tv_wn.hex()) == (
                tv_to_uniform(wb).hex(), wb_wn_tv(wb).hex())


@pytest.mark.parametrize("M", [2, 3, 5, 12])
def test_small_board_distances_against_the_oracles(M):
    # at n <= 64 a row with sum_{t>=1} |cf(t)| <= 1/2 takes the spectral
    # test too, so a distance far below 1/M keeps its relative accuracy
    for p in (0.5, 0.3, 0.02):
        for row in sweep_uniformity(M, p, [16, 32, 48, 64]):
            assert row.tv_uniform.hex() == tv_to_uniform(
                WrappedBinomial(row.n, M, p)).hex()
            for got, want in ((row.tv_uniform, tv_to_uniform_ref(row.n, M, p)),
                              (row.tv_wn, wb_wn_tv_ref(row.n, M, p))):
                assert abs(got - want) <= 1e-13 * want, (row, want)


@pytest.mark.parametrize("entries", [1, 3 * 24 + 40])
def test_sweep_rows_do_not_depend_on_the_batch_size(monkeypatch, entries):
    # one row per batch, and batches of a few rows (entries counts M = 24
    # cf values plus the normal-limit terms of each row)
    ns = [*range(60, 200, 7), 10**3, 10**4, 10**5]
    want = sweep_uniformity(24, 0.3, ns)
    monkeypatch.setattr(diagnostics, "_BATCH_ENTRIES", entries)
    assert sweep_uniformity(24, 0.3, ns) == want


def test_sweep_memory_does_not_grow_with_the_row_count():
    # 2000 spectral rows at M = 360 are 11.5 MB as one (rows, M) complex
    # array.  In batches of _BATCH_ENTRIES complex entries (1 MiB), the peak
    # is bounded by that of 20 rows plus four batch-sized arrays.
    def peak(rows):
        tracemalloc.start()
        try:
            sweep_uniformity(360, 0.5, range(10**6, 10**6 + rows))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch = 16 * diagnostics._BATCH_ENTRIES
    assert 2000 * 360 * 16 > 10 * batch
    peak(20)                    # warm-up: the FFT's plan cache
    few, many = peak(20), peak(2000)
    assert many < few + 4 * batch


def test_sweep_csv_round_trip_precision():
    result = sweep_uniformity(24, 0.5, [8, 24])
    text = sweep_to_csv(result)
    lines = text.splitlines()
    assert lines[0] == "n,tv_uniform,tv_wn"
    n, tvu, tvw = lines[1].split(",")
    assert int(n) == 8
    assert float(tvu) == result[0].tv_uniform
    assert float(tvw) == result[0].tv_wn


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
        assert wb_wn_tv(WrappedBinomial(n, m, 0.5)) == pytest.approx(acc / 2.0, abs=1e-10)


def test_wb_wn_distance_shrinks_with_depth():
    vals = [wb_wn_tv(WrappedBinomial(n, 24, 0.5)) for n in (8, 16, 24)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.02



# At n = 200 subtracting the two slot vectors would give the distance to 9
# digits too; from n = 5623 on they agree to roundoff, and only the
# difference of their DFT coefficients resolves it.
@pytest.mark.parametrize("n,pinned", [(200, 2.39651107e-4), (5623, 9.6e-23),
                                      (20_000, 9.4e-76)])
def test_wb_wn_distance_pinned_against_reference(n, pinned):
    want = wb_wn_tv_ref(n, 24, 0.5)
    assert want == pytest.approx(pinned, rel=0.01 if n > 200 else 1e-8)
    assert wb_wn_tv(WrappedBinomial(n, 24, 0.5)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dof", [*range(1, 41), 359, 3599])
def test_chi2_tail_against_mpmath(dof):
    for ratio in (0.05, 0.5, 1.0, 1.5, 3.0):
        x = ratio * dof
        want = mpmath.gammainc(dof / 2, x / 2, mpmath.inf, regularized=True)
        assert chi2_tail(x, dof) == pytest.approx(float(want), rel=1.5e-12, abs=0.0)
    assert chi2_tail(0.0, dof) == 1.0
    assert chi2_tail(math.inf, dof) == 0.0


def test_chi2_tail_rejects_a_dof_below_one():
    with pytest.raises(ValueError, match="dof must be >= 1"):
        chi2_tail(1.0, 0)
