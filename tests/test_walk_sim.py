import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgalton.angular import TWO_PI
from cylgalton.walk_sim import (BinHistogram, WalkConfig, simulate,
                                simulate_ball, unwrapped_stats)
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf
from oracles import tv


def test_all_right_walk_is_deterministic():
    trace = simulate_ball(WalkConfig(n=5, M=24, p=1.0, balls=1, seed=9), 0)
    assert trace.steps == (1, 1, 1, 1, 1)
    assert trace.final_s == 5
    assert trace.bin == 5
    assert trace.final_theta == pytest.approx(5 * (TWO_PI / 24) / 2)
    assert trace.final_z == -5.0


def test_all_left_walk_lands_in_slot_zero():
    trace = simulate_ball(WalkConfig(n=5, M=24, p=0.0, balls=1, seed=9), 0)
    assert trace.final_s == -5
    assert trace.bin == 0


def test_single_ball_replay_matches_full_run():
    config = WalkConfig(n=12, M=5, p=0.6, balls=50, seed=123)
    result = simulate(config, chunk=7)
    rights = [0] * 13
    counts = [0] * 5
    for i in range(config.balls):
        trace = simulate_ball(config, i)
        rights[trace.steps.count(1)] += 1
        counts[trace.bin] += 1
    assert tuple(rights) == result.rights
    assert tuple(counts) == result.histogram.counts


def test_identical_seed_identical_histogram():
    config = WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=42)
    assert simulate(config).histogram == simulate(config).histogram


def test_chunking_never_changes_the_result():
    config = WalkConfig(n=12, M=24, p=0.4, balls=2000, seed=5)
    reference = simulate(config).histogram
    for chunk in (1, 7, 997, 10**6):
        assert simulate(config, chunk=chunk).histogram == reference


def test_different_seeds_differ():
    a = simulate(WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=1)).histogram
    b = simulate(WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=2)).histogram
    assert a != b


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 24), p=st.floats(0.0, 1.0, allow_nan=False),
       seed=st.integers(0, 2**64 - 1))
def test_parity_invariant(n, p, seed):
    trace = simulate_ball(WalkConfig(n=n, M=12, p=p, balls=1, seed=seed), 0)
    assert trace.final_s == sum(trace.steps)
    assert abs(trace.final_s) <= n
    assert (trace.final_s - n) % 2 == 0


def test_histogram_accounts_for_every_ball():
    config = WalkConfig(n=9, M=24, p=0.3, balls=777, seed=8)
    hist = simulate(config).histogram
    assert sum(hist.counts) == hist.total == 777


def test_empirical_law_matches_exact_law_at_a_million_balls():
    config = WalkConfig(n=16, M=24, p=0.5, balls=1_000_000, seed=2)
    hist = simulate(config).histogram
    exact = full_pmf(WrappedBinomial(16, 24, 0.5))
    assert tv(hist.frequencies(), exact.probs) < 0.005


def test_mean_step_sum_within_monte_carlo_error():
    config = WalkConfig(n=8, M=24, p=0.5, balls=100_000, seed=11)
    rights = simulate(config).rights
    mean_s = sum(c * (2 * x - 8) for x, c in enumerate(rights)) / 100_000
    assert abs(mean_s) < 3.0 * math.sqrt(8) / math.sqrt(100_000)


def test_unwrapped_stats_symmetric_walk():
    config = WalkConfig(n=24, M=24, p=0.5, balls=100_000, seed=4)
    mean, var = unwrapped_stats(simulate(config).rights, 24)
    dtheta = TWO_PI / 24
    expected_var = 24 * 0.25 * dtheta**2
    se = math.sqrt(expected_var / 100_000)
    assert abs(mean) < 4 * se
    assert var == pytest.approx(expected_var, rel=0.05)


def test_unwrapped_stats_biased_walk():
    config = WalkConfig(n=8, M=24, p=0.75, balls=100_000, seed=11)
    mean, var = unwrapped_stats(simulate(config).rights, 24)
    dtheta = TWO_PI / 24
    expected_mean = 8 * 0.5 * dtheta / 2          # n(2p-1) dtheta / 2
    expected_var = 8 * 0.1875 * dtheta**2
    se = math.sqrt(expected_var / 100_000)
    assert mean == pytest.approx(math.pi / 6, abs=4 * se)
    assert abs(expected_mean - math.pi / 6) < 1e-14
    assert var == pytest.approx(expected_var, rel=0.05)


def test_unwrapped_stats_rejects_empty_input():
    with pytest.raises(ValueError, match="no balls"):
        unwrapped_stats([], 24)
    with pytest.raises(ValueError, match="no balls"):
        unwrapped_stats((0, 0, 0), 24)


@pytest.mark.parametrize("m_slots", [3, 24])
def test_unwrapped_stats_hand_computed(m_slots):
    # one ball at S = -2, one at S = +2: mean 0, ddof=1 variance 8 half-steps^2
    mean, var = unwrapped_stats((1, 0, 1), m_slots)
    assert mean == 0.0
    assert var == pytest.approx(8 * (math.pi / m_slots) ** 2, rel=1e-15)
    assert unwrapped_stats((0, 3), m_slots) == (math.pi / m_slots, 0.0)
    assert unwrapped_stats((0, 1, 0), m_slots) == (0.0, 0.0)


def test_unwrapped_stats_sums_stay_exact_beyond_int64():
    # 2**62 balls at S = +-n: the squared sums exceed 2**63
    n = 1000
    rights = (2**62,) + (0,) * (n - 1) + (2**62,)
    mean, var = unwrapped_stats(np.array(rights, dtype=np.int64), 1)
    assert mean == 0.0
    assert var == pytest.approx(n**2 * math.pi**2, rel=1e-15)


def test_wrap_through_events_beyond_one_turn():
    # once rows exceed slots, some balls pass the far side of the cylinder
    config = WalkConfig(n=40, M=24, p=0.5, balls=2000, seed=1)
    rights = simulate(config).rights
    assert any(rights[25:])
    assert sum(rights[25:]) > 50


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 40), m=st.integers(1, 50),
       p=st.floats(0.0, 1.0, allow_nan=False), balls=st.integers(1, 300),
       seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 400))
def test_rights_fold_to_the_histogram(n, m, p, balls, seed, chunk):
    result = simulate(WalkConfig(n=n, M=m, p=p, balls=balls, seed=seed),
                      chunk=chunk)
    assert len(result.rights) == n + 1
    assert sum(result.rights) == balls
    assert result.histogram.counts == tuple(
        sum(result.rights[k::m]) for k in range(m))
    flat = simulate(WalkConfig(n=n, M=None, p=p, balls=balls, seed=seed))
    assert flat.histogram.counts == result.rights == flat.rights


def test_planar_two_bins_even_split():
    hist = simulate(WalkConfig(n=1, M=None, p=0.5, balls=10_000, seed=6)).histogram
    assert hist.M == 2
    # 6 sigma around the even split
    assert abs(hist.counts[0] - 5000) < 300


def test_planar_histogram_shape_and_support():
    hist = simulate(WalkConfig(n=10, M=None, p=0.5, balls=10_000, seed=3)).histogram
    assert hist.M == 11
    assert sum(1 for c in hist.counts if c > 0) <= 11
    assert sum(hist.counts) == 10_000


def test_planar_matches_binomial_moments():
    hist = simulate(WalkConfig(n=10, M=None, p=0.5, balls=100_000,
                               seed=3)).histogram
    k = np.arange(11)
    counts = np.array(hist.counts, dtype=float)
    mean = (k * counts).sum() / counts.sum()
    var = ((k - mean) ** 2 * counts).sum() / (counts.sum() - 1)
    assert var == pytest.approx(2.5, rel=0.05)    # n p (1-p)


def test_planar_degenerate_board():
    hist = simulate(WalkConfig(n=0, M=None, p=0.5, balls=100, seed=0)).histogram
    assert hist.M == 1
    assert hist.counts == (100,)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(n=-1, M=24, p=0.5, balls=10)
    with pytest.raises(ValueError):
        WalkConfig(n=5, M=0, p=0.5, balls=10)
    with pytest.raises(ValueError):
        WalkConfig(n=5, M=24, p=1.5, balls=10)
    with pytest.raises(ValueError):
        WalkConfig(n=5, M=24, p=0.5, balls=0)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2**64), ("seed", -2**64), ("seed", 1.0),
    ("n", 2.5), ("n", True), ("M", 2.5), ("M", True),
    ("balls", 2.5), ("balls", True),
])
def test_config_rejects_non_int_and_out_of_range_fields(field, value):
    fields = {"n": 5, "M": 24, "p": 0.5, "balls": 10, "seed": 0}
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        WalkConfig(**fields)


def test_histogram_consistency_checks():
    with pytest.raises(ValueError, match="counts sum"):
        BinHistogram(M=2, counts=(1, 2), total=4)
    with pytest.raises(ValueError, match="expected 3 counts"):
        BinHistogram(M=3, counts=(1, 2), total=3)
