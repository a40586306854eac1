import concurrent.futures
import hashlib
import math
import os
import queue
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylgalton import walk_sim
from cylgalton.angular import TWO_PI
from cylgalton.walk_sim import (WalkConfig, _right_limit, _split, _step_bits,
                                simulate, simulate_ball, slot_counts,
                                unwrapped_stats)
from cylgalton.wrapped_binomial import WrappedBinomial, full_pmf
from oracles import tv


def _one_hot(slot, m):
    return tuple(int(k == slot) for k in range(m))


def test_all_right_walk_is_deterministic():
    config = WalkConfig(n=5, M=24, p=1.0, balls=1, seed=9)
    assert simulate_ball(config, 0) == (1, 1, 1, 1, 1)
    assert simulate(config) == (0, 0, 0, 0, 0, 1)
    assert slot_counts(simulate(config), config.M) == _one_hot(5, 24)


def test_all_left_walk_lands_in_slot_zero():
    config = WalkConfig(n=5, M=24, p=0.0, balls=1, seed=9)
    assert simulate_ball(config, 0) == (-1, -1, -1, -1, -1)
    assert slot_counts(simulate(config), config.M) == _one_hot(0, 24)


def test_single_ball_replay_matches_full_run():
    config = WalkConfig(n=12, M=5, p=0.6, balls=50, seed=123)
    rights = simulate(config, chunk=7)
    replayed = [0] * 13
    counts = [0] * 5
    for i in range(config.balls):
        x = simulate_ball(config, i).count(1)
        replayed[x] += 1
        counts[x % 5] += 1
    assert tuple(replayed) == rights
    assert tuple(counts) == slot_counts(rights, 5)


@pytest.mark.parametrize("ball_index", [10, -1])
def test_simulate_ball_replays_only_a_ball_of_the_run(ball_index):
    config = WalkConfig(n=4, M=24, p=0.5, balls=10)
    with pytest.raises(ValueError, match=rf"^ball_index {ball_index} out of range \[0, 10\)$"):
        simulate_ball(config, ball_index)


def test_identical_seed_identical_histogram():
    config = WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=42)
    assert simulate(config) == simulate(config)


def test_chunking_never_changes_the_result():
    config = WalkConfig(n=12, M=24, p=0.4, balls=2000, seed=5)
    reference = simulate(config)
    for chunk in (1, 7, 997, 10**6):
        assert simulate(config, chunk=chunk) == reference


def _affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _replayed_rights(config):
    rights = [0] * (config.n + 1)
    for b in range(config.balls):
        rights[simulate_ball(config, b).count(1)] += 1
    return tuple(rights)


def _digest(rights):
    return hashlib.sha256(",".join(map(str, rights)).encode()).hexdigest()


# Golden values of the stream: a change to the hash, the counters or the
# threshold rule changes them, and with them every seeded output file.
def test_stream_golden_rights():
    config = WalkConfig(n=13, M=5, p=0.37, balls=30001, seed=2**64 - 1)
    assert simulate(config) == (72, 547, 1942, 4349, 6305, 6537, 5303,
                                       3024, 1353, 437, 110, 20, 2, 0)


@pytest.mark.parametrize("cpus", [1, 3])
def test_stream_golden_digest(monkeypatch, cpus):
    _affinity(monkeypatch, cpus)
    rights = simulate(WalkConfig(n=96, M=24, p=0.5, balls=10**5, seed=12345))
    assert hashlib.sha256(",".join(map(str, rights)).encode()).hexdigest() == (
        "66065daf20e5990873c02bac3da41919757d9fce4c5f28afc8c8fa777653cf90")


# Boards deeper than one row tile, pinned from the ball-major kernel
# that came before the row tiles: the first is CI's deep run.
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("config, digest", [
    (WalkConfig(n=10**4, M=24, p=0.5, balls=2000, seed=0),
     "896e070933e38d34907c4b02459e74e5edc17dec340cc0cd3404c31b18b78c84"),
    (WalkConfig(n=10**5, M=24, p=0.3, balls=40, seed=2**64 - 1),
     "a535ec59a84116d54109e7258a7ca8fdb7677646f6600b7f3e3eb4540def53cc"),
], ids=["n10000", "n100000"])
def test_stream_golden_digest_of_deep_boards(monkeypatch, cpus, config, digest):
    _affinity(monkeypatch, cpus)
    assert _digest(simulate(config)) == digest


@pytest.mark.parametrize("config", [
    WalkConfig(n=96, M=24, p=0.37, balls=2001, seed=3),   # not a whole tile
    WalkConfig(n=30, M=31, p=0.9, balls=3000, seed=2**64 - 1),
    WalkConfig(n=5, M=3, p=0.0, balls=1000, seed=4),
    WalkConfig(n=5, M=3, p=1.0, balls=1000, seed=4),
    WalkConfig(n=0, M=1, p=0.5, balls=1000, seed=5),
    # Nearly every ball goes right at every row, so a row count reaches n:
    # 255 is the most a uint8 counter holds, 256 takes uint16 and 2**16
    # uint32.  1 - 2**-31 has a limit with 33 zero low bits, so the hash's
    # last step is left out; 1 - 2**-53 does not.
    WalkConfig(n=255, M=24, p=1 - 2**-31, balls=4, seed=6),
    WalkConfig(n=255, M=24, p=1 - 2**-53, balls=4, seed=6),
    WalkConfig(n=256, M=24, p=1 - 2**-31, balls=4, seed=7),
    WalkConfig(n=256, M=24, p=1 - 2**-53, balls=4, seed=7),
    WalkConfig(n=2**16, M=24, p=1 - 2**-31, balls=3, seed=8),
    WalkConfig(n=2**16, M=24, p=1 - 2**-53, balls=3, seed=8),
    # With 300 balls these boards run in tiles of fewer rows than n (256
    # rows at full width), so the keys of every later row tile are
    # shifted by k0 * GOLDEN.
    WalkConfig(n=1024, M=24, p=1 - 2**-53, balls=300, seed=9),
    WalkConfig(n=1025, M=24, p=0.37, balls=300, seed=10),
    WalkConfig(n=3 * 1024 + 1, M=24, p=0.37, balls=300, seed=2**64 - 1),
], ids=["n96", "planar", "p0", "p1", "n0", "n255-short-hash", "n255-full-hash",
        "n256-short-hash", "n256-full-hash", "n65536-short-hash",
        "n65536-full-hash", "n1024-row-tiles", "n1025-row-tiles",
        "n3073-row-tiles"])
def test_rights_do_not_depend_on_the_split(monkeypatch, config):
    # Let every range of tiles take a thread, however little work it holds.
    monkeypatch.setattr(walk_sim, "_THREAD_DRAWS", 1)
    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def counted_pool(workers):
        pools.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted_pool)
    seen = set()
    for cpus in (1, 2, 3):
        _affinity(monkeypatch, cpus)
        for chunk in (1, 7, 997, 10**6):
            seen.add(simulate(config, chunk=chunk))
    assert seen == {_replayed_rights(config)}
    # p = 1 draws nothing; every other board ran on 2 and on 3 threads.
    assert set(pools) == (set() if config.p == 1.0 else {2, 3})


def test_two_threads_share_the_buffer_pool():
    # Two boards of different shapes, each simulated over and over on its
    # own thread, take and give back the same pooled buffer sets; every
    # run still reads the pinned rights.
    configs = {
        WalkConfig(n=96, M=24, p=0.5, balls=2000, seed=3):
            "6245c86469e0d91dbeba4a7a28a0d39ae8a080f72dd2f97ba53a649c38575ae4",
        WalkConfig(n=50, M=31, p=0.37, balls=3001, seed=2**64 - 1):
            "ff01ec45f0afd032d5df565bccf8806fbb31a06b579d7684c84ffced38e9db64",
    }
    start = threading.Barrier(2, timeout=30)

    def runs(config):
        start.wait()
        return {_digest(simulate(config)) for _ in range(20)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter can
    try:
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            seen = list(pool.map(runs, configs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert seen == [{digest} for digest in configs.values()]


def test_threads_add_into_one_histogram_without_losing_a_count(monkeypatch):
    # Eight threads add their bins into the one rights under a lock, a
    # group per tile; with the interpreter switching threads as often as it
    # can, an add that raced another would lose counts.
    config = WalkConfig(n=12, M=24, p=0.37, balls=20000, seed=13)
    _affinity(monkeypatch, 1)
    reference = simulate(config)
    monkeypatch.setattr(walk_sim, "_THREAD_DRAWS", 1)
    monkeypatch.setattr(walk_sim, "_GROUP_BALLS", 1)
    _affinity(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter can
    try:
        runs = {simulate(config, chunk=7) for _ in range(3)}
    finally:
        sys.setswitchinterval(interval)
    assert runs == {reference}


def test_small_run_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    _affinity(monkeypatch, 4)
    assert sum(simulate(WalkConfig(n=96, M=24, p=0.5, balls=2000, seed=1))) == 2000


def test_working_memory_does_not_grow_with_chunk(monkeypatch):
    # Each thread's buffers fit in 2 MiB (module docstring); 256 KiB covers
    # the rest of the call.  A chunk above the tile width changes neither.
    # An empty pool before each call makes it map, and so count, its own
    # buffer sets.
    config = WalkConfig(96, 24, 0.5, 10**5, seed=1)
    bounds = []
    for chunk in (682, 10**6):
        monkeypatch.setattr(walk_sim, "_IDLE_BUFFERS", queue.LifoQueue(walk_sim._cpu_count()))
        threads = len(_split(config.balls, config.n, chunk)[1]) - 1
        bounds.append(threads * 2 * 2**20 + 2**18)
        tracemalloc.start()
        try:
            simulate(config, chunk=chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bounds[-1]
    assert bounds[0] == bounds[1]


def test_working_memory_does_not_grow_with_rows(monkeypatch):
    # A board deeper than one row tile runs its rows a tile at a time
    # through the same buffer set, so the bound above holds at any n once
    # the output is set aside: the int64 histogram, the list tolist makes
    # of it and the returned tuple, 8 bytes a slot each.  An empty pool
    # makes the call map, and so count, its own buffer sets.
    monkeypatch.setattr(walk_sim, "_IDLE_BUFFERS", queue.LifoQueue(walk_sim._cpu_count()))
    for n in (10**5, 10**6):
        config = WalkConfig(n, 24, 0.5, 2, seed=1)
        threads = len(_split(config.balls, config.n, walk_sim.DEFAULT_CHUNK)[1]) - 1
        tracemalloc.start()
        try:
            simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 3 * 8 * (n + 1) < threads * 2 * 2**20 + 2**18


@settings(max_examples=300, deadline=None)
@given(z=st.integers(0, 2**64 - 1), offset=st.integers(-4096, 4096),
       p=st.sampled_from([0.0, 5e-324, 2.0**-53, 0.37, 0.5, 1 - 2.0**-53, 1.0])
       | st.floats(0.0, 1.0))
def test_integer_threshold_is_the_float_test(z, offset, p):
    limit = _right_limit(p)
    for word in (z, limit + offset):
        if 0 <= word < 2**64:
            assert (word < limit) == ((word >> 11) * 2.0**-53 < p)


def test_a_draw_at_the_threshold_goes_left():
    # Find a draw whose low 11 bits are 0 and set p so the limit is that draw:
    # (z >> 11) * 2**-53 == p, so the float test sends it left, as must both
    # the full run and the replay.
    n, seed = 40, 7
    z = np.empty((200, n), dtype=np.uint64)
    bits = _step_bits(seed, 0, z, np.empty_like(z))
    ball, step = (int(i[0]) for i in np.nonzero(bits % 2048 == 0))
    word = int(bits[ball, step])
    p = (word >> 11) * 2.0**-53
    assert _right_limit(p) == word
    config = WalkConfig(n=n, M=24, p=p, balls=ball + 1, seed=seed)
    assert simulate_ball(config, ball)[step] == -1
    assert simulate(config, chunk=1) == _replayed_rights(config)


@pytest.mark.parametrize("side", ["dyadic", "next-step", "between"])
def test_the_last_hash_step_is_left_out_only_where_it_cannot_matter(side):
    # A draw whose top 31 bits, the same before and after the hash's last
    # step, are those of the limit.  At a dyadic p the limit's low 33 bits
    # are 0, simulate leaves the last step out and the draw must go left.
    # One 2**-53 step above, and at a limit between the draw before and
    # after that step, the full hash decides.
    n, seed, ball, step = 40, 7, 2, 17
    z = np.empty((ball + 1, n), dtype=np.uint64)
    word = int(_step_bits(seed, 0, z, np.empty_like(z))[ball, step])
    early = word ^ (word >> 31) ^ (word >> 62)     # before z ^= z >> 31
    limit = {"dyadic": word >> 33 << 33,
             "next-step": (word >> 33 << 33) + 2**11,
             "between": max(word, early) >> 11 << 11}[side]
    p = (limit >> 11) * 2.0**-53
    assert _right_limit(p) == limit
    assert (limit % 2**33 == 0) == (side == "dyadic")
    if side == "between":
        assert (early < limit) != (word < limit)
    config = WalkConfig(n=n, M=24, p=p, balls=ball + 1, seed=seed)
    assert simulate_ball(config, ball)[step] == (1 if word < limit else -1)
    assert simulate(config, chunk=1) == _replayed_rights(config)


@settings(max_examples=100, deadline=None)
@given(z=st.integers(0, 2**64 - 1), high=st.integers(0, 2**31),
       offset=st.integers(-2**34, 2**34))
def test_the_last_hash_step_keeps_every_draw_on_its_side(z, high, offset):
    limit = high << 33
    for word in (z, limit + offset):
        if 0 <= word < 2**64:
            assert ((word ^ (word >> 31)) < limit) == (word < limit)


def test_different_seeds_differ():
    a = simulate(WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=1))
    b = simulate(WalkConfig(n=16, M=24, p=0.5, balls=5000, seed=2))
    assert slot_counts(a, 24) != slot_counts(b, 24)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 24), p=st.floats(0.0, 1.0, allow_nan=False),
       seed=st.integers(0, 2**64 - 1))
def test_parity_invariant(n, p, seed):
    steps = simulate_ball(WalkConfig(n=n, M=12, p=p, balls=1, seed=seed), 0)
    assert len(steps) == n
    assert set(steps) <= {-1, 1}
    assert (sum(steps) - n) % 2 == 0


def test_histogram_accounts_for_every_ball():
    config = WalkConfig(n=9, M=24, p=0.3, balls=777, seed=8)
    rights = simulate(config)
    assert sum(slot_counts(rights, config.M)) == sum(rights) == 777


def test_histogram_csv_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^counts must be >= 0, got -1$"):
        walk_sim.histogram_to_csv((5, -1))


def test_histogram_csv_rejects_counts_with_no_balls():
    with pytest.raises(ValueError, match="^no balls to write$"):
        walk_sim.histogram_to_csv((0, 0))


def test_empirical_law_matches_exact_law_at_a_million_balls():
    config = WalkConfig(n=16, M=24, p=0.5, balls=1_000_000, seed=2)
    counts = slot_counts(simulate(config), config.M)
    exact = full_pmf(WrappedBinomial(16, 24, 0.5))
    assert tv([c / config.balls for c in counts], exact) < 0.005


def test_mean_step_sum_within_monte_carlo_error():
    config = WalkConfig(n=8, M=24, p=0.5, balls=100_000, seed=11)
    rights = simulate(config)
    mean_s = sum(c * (2 * x - 8) for x, c in enumerate(rights)) / 100_000
    assert abs(mean_s) < 3.0 * math.sqrt(8) / math.sqrt(100_000)


def test_unwrapped_stats_symmetric_walk():
    config = WalkConfig(n=24, M=24, p=0.5, balls=100_000, seed=4)
    mean, var = unwrapped_stats(simulate(config), 24)
    dtheta = TWO_PI / 24
    expected_var = 24 * 0.25 * dtheta**2
    se = math.sqrt(expected_var / 100_000)
    assert abs(mean) < 4 * se
    assert var == pytest.approx(expected_var, rel=0.05)


def test_unwrapped_stats_biased_walk():
    config = WalkConfig(n=8, M=24, p=0.75, balls=100_000, seed=11)
    mean, var = unwrapped_stats(simulate(config), 24)
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
    rights = simulate(config)
    assert any(rights[25:])
    assert sum(rights[25:]) > 50


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 40), m=st.integers(1, 50),
       p=st.floats(0.0, 1.0, allow_nan=False), balls=st.integers(1, 300),
       seed=st.integers(0, 2**64 - 1), chunk=st.integers(1, 400))
def test_rights_fold_to_the_histogram(n, m, p, balls, seed, chunk):
    rights = simulate(WalkConfig(n=n, M=m, p=p, balls=balls, seed=seed),
                      chunk=chunk)
    assert len(rights) == n + 1
    assert sum(rights) == balls
    counts = [0] * m
    for x, c in enumerate(rights):
        counts[x % m] += c
    assert slot_counts(rights, m) == tuple(counts)
    flat = simulate(WalkConfig(n=n, M=n + 1, p=p, balls=balls, seed=seed))
    assert slot_counts(flat, n + 1) == rights == flat


def test_slot_counts_of_numpy_rights_are_ints():
    counts = slot_counts(np.array([3, 1, 4, 1, 5], dtype=np.int64), 2)
    assert counts == (12, 2)
    assert all(type(c) is int for c in counts)


# A count is an integer: a numpy integer counts as its int, and a float
# count is an error, never truncated (2.7 is not 2).

def test_histogram_csv_of_numpy_counts_is_that_of_their_ints():
    text = walk_sim.histogram_to_csv(np.array([3, 1], dtype=np.int64))
    assert text == walk_sim.histogram_to_csv((3, 1)) == (
        "slot,count,frequency\n0,3,0.75\n1,1,0.25\n")


@pytest.mark.parametrize("counts,bad", [
    ((2.7, 1, 0.5), "2.7"), ((3, 1.0), "1.0"),
    ((np.float64(2.0), 1), "np.float64(2.0)"), ((3, "1"), "'1'"), ((3, None), "None"),
], ids=["float", "whole-float", "numpy-float", "str", "none"])
def test_a_count_that_is_not_an_integer_is_named(counts, bad):
    message = f"^counts must be integers, got {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        walk_sim.histogram_to_csv(counts)
    with pytest.raises(ValueError, match=message):
        slot_counts(counts, 2)
    with pytest.raises(ValueError, match=message):
        slot_counts(iter(counts), 2)
    with pytest.raises(ValueError, match=message):
        unwrapped_stats(counts, 24)


@pytest.mark.parametrize("m", [0, -1])
def test_slot_counts_rejects_a_board_with_no_slots(m):
    with pytest.raises(ValueError, match="M must be >= 1"):
        slot_counts((1, 2, 3), m)


def test_planar_two_bins_even_split():
    counts = slot_counts(simulate(WalkConfig(n=1, M=2, p=0.5, balls=10_000,
                                             seed=6)), 2)
    assert len(counts) == 2
    # 6 sigma around the even split
    assert abs(counts[0] - 5000) < 300


def test_planar_histogram_shape_and_support():
    counts = slot_counts(simulate(WalkConfig(n=10, M=11, p=0.5, balls=10_000,
                                             seed=3)), 11)
    assert len(counts) == 11
    assert sum(1 for c in counts if c > 0) <= 11
    assert sum(counts) == 10_000


def test_planar_matches_binomial_moments():
    rights = simulate(WalkConfig(n=10, M=11, p=0.5, balls=100_000, seed=3))
    k = np.arange(11)
    counts = np.array(slot_counts(rights, 11), dtype=float)
    mean = (k * counts).sum() / counts.sum()
    var = ((k - mean) ** 2 * counts).sum() / (counts.sum() - 1)
    assert var == pytest.approx(2.5, rel=0.05)    # n p (1-p)


def test_planar_degenerate_board():
    assert slot_counts(simulate(WalkConfig(n=0, M=1, p=0.5, balls=100, seed=0)),
                       1) == (100,)


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
