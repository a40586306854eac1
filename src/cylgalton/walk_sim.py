"""Seeded Monte Carlo of the helical random walk down the peg board.

Each ball takes n independent left/right deflections with rightward
probability p.  On a cylinder with M slots the angle advances half a
slot per deflection, the net angle after n rows is S_n * dtheta / 2 with
S_n = 2X - n the signed step sum; with X the rightward count, the landing
slot X mod M follows WrappedBinomial(n, M, p).  A flat board is M = n + 1.

A run therefore needs only the histogram of X over 0..n, ``rights``, and
that tuple is all simulate returns.  Everything else is computed from it
where it is used: slot_counts is the one fold mod M into the slot counts,
and unwrapped_stats gives the unwrapped mean and variance exactly.

Randomness is counter-based: draw z(b, k) for ball b, step k is a pure
64-bit hash of (seed, b, k) (SplitMix64 finaliser over a Weyl counter).
The step goes right iff z < ceil(p * 2**53) << 11, which is exactly the
float test (z >> 11) * 2**-53 < p: scaling by 2**53 is exact, and for an
integer m, m < x iff m < ceil(x).  p = 1 gives the limit 2**64, so every
ball goes right at every row.

simulate works through the balls in tiles of at most 2**16 draws.  A
tile is w = min(chunk, 2**16 // min(n, 256), balls / threads) balls
wide and r = min(n, 2**16 // w) rows deep, row-major: row j holds one
draw of each of the w balls, so the step add, the hash, the threshold
and the count all run along contiguous ball vectors, and a ball's
rightward count is the column sum of the tile's mask, added into a
per-ball counts buffer.  A thread holds one buffer set, reused for
every tile: the uint64 draws, hashed in place, a uint64 scratch for the
hash's shifts, a uint64 step tile whose row j holds (j + 1) * GOLDEN
for every ball, built once per call, and a bool mask of right steps.
That is 3 * 512 KiB + 64 KiB, inside a 2 MiB L2 cache.  A board deeper
than r runs its rows a tile at a time through the same step tile, with
the keys shifted by k0 * GOLDEN for the tile that starts at row k0.
This is exact, since in Z/2**64 key + (k0 + j + 1) * GOLDEN =
(key + k0 * GOLDEN) + (j + 1) * GOLDEN, so no board needs a buffer of n
draws.  The balls' keys are hashed, and their counts binned, once per
group of tiles: as many whole tiles as fit in 2**13 balls (12 at
n = 96), or one tile where a tile is wider (n < 8).

The tiles are split into contiguous ranges, one per CPU the process may
run on but no more than one per 2**18 draws; a tile is no wider than an
even share of the balls, so a deep board with few balls still gives
each range a tile.  Each range runs on its own thread (numpy releases
the GIL in these loops) with its own buffers, and adds each group's
bins into the one ``rights`` under a lock; a run of at most 2**18
draws, such as 2,000 balls on 96 rows, starts no thread.  Because every
draw depends on (seed, b, k) alone and integer sums do not depend on
order, ``rights`` is bit-identical for any chunk, tile or thread split,
and simulate_ball replays any single ball in isolation, with exactly
the deflections it had in the full run.

The buffer sets outlive the call, since what they hold never carries
from one call to the next: a thread takes an idle set from a pool that
every thread shares and gives it back when its range is done.  The pool
keeps at most one set per CPU, so a run of small simulate calls maps
its buffers once, not on every call.  Besides its set, a thread holds
only its group's keys, counts and bins, and a group's bins run from its
least count to its greatest, not over 0..n.  So the working memory
beyond ``rights`` itself grows neither with n nor with balls.

The hash's last step, z ^= z >> 31, leaves the top 31 bits of z as they
are.  So when the limit L is a multiple of 2**33, as at p = 1/2, p = 0
or any p = k * 2**-31, (z ^ (z >> 31)) < L iff z < L, and simulate
leaves that step out; simulate_ball always takes the full hash.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .angular import check_counts, check_number, table_csv
from .wrapped_binomial import WrappedBinomial

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)

_UINT64_LIMIT = 1 << 64

HISTOGRAM_COLUMNS = {"slot": int, "count": int, "frequency": float}

DEFAULT_CHUNK = 1 << 16


# Draws per tile: each of a thread's three uint64 buffers (draws, scratch,
# step tile) is at most 512 KiB, so with the 64 KiB mask they stay inside
# a 2 MiB L2 cache.
_TILE_DRAWS = 1 << 16
# Rows of a full-width tile: 256 rows leave it 256 balls wide, rows long
# enough for the step add's broadcast and the column sum (1024-row tiles,
# 64 balls wide, ran deep boards up to 15% slower).
_TILE_ROWS = 1 << 8
# Balls per key pass and per bincount, in whole tiles (one tile where a
# tile is wider): from n = 8 on, a group's keys take at most 64 KiB.
_GROUP_BALLS = 1 << 13
# Least work worth a thread of its own: about a millisecond of hashing,
# several times what starting the thread costs.
_THREAD_DRAWS = 1 << 18


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity mask on this platform
        return os.cpu_count() or 1


# Idle buffer sets of _TILE_DRAWS entries each, shared by every thread of
# every call (the module docstring); at most one per CPU stays.
_IDLE_BUFFERS: queue.LifoQueue = queue.LifoQueue(_cpu_count())


def _mix64(z: np.ndarray, tmp: np.ndarray, finish: bool = True) -> np.ndarray:
    """SplitMix64 output function on z in place; tmp is scratch of z's shape.

    finish=False leaves out the last step, z ^= z >> 31, which changes
    only the low 33 bits of z.
    """
    for shift, mul in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mul
    if finish:
        np.right_shift(z, 31, out=tmp)
        z ^= tmp
    return z


def _ball_keys(seed: int, lo: int, balls: int) -> np.ndarray:
    """Hashed keys of balls lo..lo+balls-1, the base of each ball's row draws."""
    keys = np.arange(lo + 1, lo + balls + 1, dtype=np.uint64) * _GOLDEN
    keys += np.uint64(seed)
    return _mix64(keys, np.empty_like(keys))


def _step_bits(seed: int, lo: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Raw draws of balls lo..lo+len(z)-1, one row each, written into z."""
    balls, n = z.shape
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    np.add(_ball_keys(seed, lo, balls)[:, None], steps, out=z)
    return _mix64(z, tmp)


def _right_limit(p: float) -> int:
    """L with z < L iff (z >> 11) * 2**-53 < p for every uint64 z; 2**64 at p = 1."""
    return math.ceil(p * 2.0**53) << 11


def _take_buffers() -> list[np.ndarray]:
    """A flat buffer set (draws, scratch, step tile, mask) of _TILE_DRAWS
    entries: an idle pooled set, else a new one."""
    try:
        return _IDLE_BUFFERS.get_nowait()
    except queue.Empty:
        return [*(np.empty(_TILE_DRAWS, dtype=np.uint64) for _ in range(3)),
                np.empty(_TILE_DRAWS, dtype=bool)]


def _give_buffers(buffers: list[np.ndarray]) -> None:
    """Keep a set for the next call, while the pool has room."""
    try:
        _IDLE_BUFFERS.put_nowait(buffers)
    except queue.Full:
        pass


def _count_rights(seed: int, lo: int, hi: int, n: int, limit: int, width: int,
                  rights: np.ndarray, lock: threading.Lock) -> None:
    """Add the rightward counts of balls lo..hi-1 into rights, tile by tile.

    A tile holds width balls on as many rows as _TILE_DRAWS allows,
    row-major (module docstring).  The draws are those of _step_bits,
    except that the hash's last step is left out when limit % 2**33 == 0.
    Proof that no step changes side: write L = l * 2**33 and
    y = z ^ (z >> 31).  As z >> 31 < 2**33, y >> 33 == z >> 33, and for
    any w, w < L iff (w >> 33) < l, so y < L iff z < L.  A ball's count
    is at most n, so min_scalar_type(n) holds it exactly, and so does a
    row tile's sum.
    """
    width = min(width, hi - lo)
    rows = max(1, min(n, _TILE_DRAWS // width))
    buffers = _take_buffers()
    draws, scratch, steps, mask = buffers
    steps = steps[:rows * width].reshape(rows, width)
    steps[:] = (np.arange(1, rows + 1, dtype=np.uint64) * _GOLDEN)[:, None]
    bound = np.uint64(limit)
    finish = limit % 2**33 != 0
    count_type = np.min_scalar_type(n)
    group = max(1, _GROUP_BALLS // width) * width
    for start in range(lo, hi, group):
        keys = _ball_keys(seed, start, min(group, hi - start))
        counts = np.zeros(keys.size, dtype=count_type)
        for first in range(0, keys.size, width):
            size = min(width, keys.size - first)
            for row in range(0, n, rows):
                r = min(rows, n - row)
                z, tmp, right = (b[:r * size].reshape(r, size)
                                 for b in (draws, scratch, mask))
                shifted = keys[first:first + size]
                if row:
                    shifted = shifted + np.uint64(row * int(_GOLDEN) % _UINT64_LIMIT)
                np.add(steps[:r, :size], shifted, out=z)
                np.less(_mix64(z, tmp, finish), bound, out=right)
                counts[first:first + size] += np.add.reduce(
                    right.view(np.uint8), axis=0, dtype=count_type)
        low = int(counts.min())
        counts -= low
        binned = np.bincount(counts)
        with lock:
            rights[low:low + binned.size] += binned
    _give_buffers(buffers)


def _split(balls: int, n: int, chunk: int) -> tuple[int, list[int]]:
    """simulate's tile width in balls, and the ball bounds of each thread's range."""
    ranges = min(_cpu_count(), -(-balls * max(n, 1) // _THREAD_DRAWS))
    width = min(chunk, _TILE_DRAWS // max(1, min(n, _TILE_ROWS)), -(-balls // ranges))
    tiles = -(-balls // width)
    ranges = min(ranges, tiles)
    return width, [min(balls, i * tiles // ranges * width) for i in range(ranges + 1)]


@dataclass(frozen=True)
class WalkConfig:
    """One Monte Carlo experiment: the law's board and bias, ball count, seed."""

    n: int
    M: int
    p: float
    balls: int
    seed: int = 0

    def __post_init__(self):
        check_number("balls", self.balls, int, 1)
        check_number("seed", self.seed, int)
        if not 0 <= self.seed < _UINT64_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self.law    # validates n, M and p

    @property
    def law(self) -> WrappedBinomial:     # the exact slot law of the walk
        return WrappedBinomial(self.n, self.M, self.p)


def simulate_ball(config: WalkConfig, ball_index: int) -> tuple[int, ...]:
    """Replay one ball of simulate(config): its +-1 deflection per row."""
    check_number("ball_index", ball_index, int)
    if not 0 <= ball_index < config.balls:
        raise ValueError(f"ball_index {ball_index} out of range [0, {config.balls})")
    z = np.empty((1, config.n), dtype=np.uint64)
    bits = _step_bits(config.seed, ball_index, z, np.empty_like(z))[0]
    limit = _right_limit(config.p)
    return tuple(1 if b < limit else -1 for b in bits.tolist())


def simulate(config: WalkConfig, chunk: int = DEFAULT_CHUNK) -> tuple[int, ...]:
    """Run all balls and return ``rights``: rights[x] is the number of balls
    with x rightward deflections, x = 0..n.

    The slot counts are slot_counts(rights, config.M).  chunk is an upper
    bound on balls per tile; the result is a pure function of (seed,
    config), and ball b is simulate_ball(config, b).
    """
    check_number("chunk", chunk, int, 1)
    n, balls = config.n, config.balls
    limit = _right_limit(config.p)
    rights = np.zeros(n + 1, dtype=np.int64)
    if limit == _UINT64_LIMIT:
        rights[n] = balls
    else:
        width, bounds = _split(balls, n, chunk)
        lock = threading.Lock()     # one add into rights at a time
        jobs = [(config.seed, lo, hi, n, limit, width, rights, lock)
                for lo, hi in zip(bounds, bounds[1:])]
        if len(jobs) == 1:
            _count_rights(*jobs[0])
        else:
            with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
                list(pool.map(lambda job: _count_rights(*job), jobs))
    return tuple(rights.tolist())


def slot_counts(rights, M: int) -> tuple[int, ...]:
    """The landing count of each of M slots: rights folded mod M.

    Slot k holds the balls with x = k (mod M) rightward deflections; on a
    flat board, M = n + 1, the fold is the identity.
    """
    check_number("M", M, int, 1)
    rights = check_counts(rights)
    return tuple(sum(rights[k::M]) for k in range(M))


def unwrapped_stats(rights, m_slots: int) -> tuple[float, float]:
    """Sample mean and variance (ddof=1) of the unwrapped angle S_n * dtheta / 2.

    rights[x], x = 0..n, counts the balls with x rightward deflections, and
    S_n = 2x - n.  Both moments are exact integer sums; only the ratios round.
    """
    check_number("m_slots", m_slots, int, 1)
    counts = check_counts(rights)
    balls = sum(counts)
    if balls < 1:
        raise ValueError("no balls to summarise")
    n = len(counts) - 1
    s1 = sum(c * (2 * x - n) for x, c in enumerate(counts))
    s2 = sum(c * (2 * x - n) ** 2 for x, c in enumerate(counts))
    half_step = math.pi / m_slots
    mean = s1 / balls * half_step
    var = ((balls * s2 - s1 * s1) / (balls * (balls - 1)) * half_step**2
           if balls > 1 else 0.0)
    return mean, var


def histogram_to_csv(counts) -> str:
    """Slot, count and frequency of each slot; the frequencies divide by sum(counts)."""
    counts = check_counts(counts)
    total = sum(counts)
    if total < 1:
        raise ValueError("no balls to write")
    return table_csv(HISTOGRAM_COLUMNS,
                     ((k, c, c / total) for k, c in enumerate(counts)))
