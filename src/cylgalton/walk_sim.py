"""Seeded Monte Carlo of the helical random walk down the peg board.

Each ball takes n independent left/right deflections with rightward
probability p.  On a cylinder with M slots the angle advances half a
slot per deflection, the net angle after n rows is S_n * dtheta / 2 with
S_n = 2X - n the signed step sum, and the landing slot is the rightward
count X mod M.  In flat mode (M = None) the bin is X itself, over n+1 bins.

A run therefore needs only the histogram of X over 0..n, ``rights``: it
folds mod M into the wrapped histogram, is the planar histogram as it
stands, and gives the unwrapped mean and variance exactly.

Randomness is counter-based: draw (b, k) for ball b, step k is a pure
64-bit hash of (seed, b, k) (SplitMix64 finaliser over a Weyl counter).
Histograms are therefore bit-identical for any chunk size or execution
order, and simulate_ball replays any single ball in isolation, with
exactly the deflections it had in the full run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import TWO_PI, wrap_angle

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)

_SEED_LIMIT = 1 << 64

HISTOGRAM_CSV_HEADER = "slot,count,frequency"

DEFAULT_CHUNK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output function; uint64 lanes, wrapping arithmetic."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _step_uniforms(seed: int, lo: int, hi: int, n: int) -> np.ndarray:
    """Uniforms in [0, 1) for balls lo..hi-1, shape (hi-lo, n)."""
    with np.errstate(over="ignore"):
        balls = np.arange(lo, hi, dtype=np.uint64)
        keys = _mix64(np.uint64(seed) + (balls + np.uint64(1)) * _GOLDEN)
        steps = (np.arange(n, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
        bits = _mix64(keys[:, None] + steps[None, :])
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class WalkConfig:
    """One Monte Carlo experiment: board shape, bias, ball count, seed."""

    n: int
    M: int | None       # None selects flat mode (no wrapping)
    p: float
    balls: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "balls", "seed") + (() if self.M is None else ("M",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.M is not None and self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")
        if self.balls < 1:
            raise ValueError(f"balls must be >= 1, got {self.balls}")

    @property
    def planar(self) -> bool:
        return self.M is None

    @property
    def bins(self) -> int:
        return self.n + 1 if self.planar else self.M


@dataclass(frozen=True)
class BallTrace:
    """One ball's deflection record and landing state."""

    steps: tuple[int, ...]   # +-1 per row
    final_s: int             # signed step sum
    final_theta: float       # landing angle in [0, 2*pi); 0.0 in flat mode
    final_z: float           # vertical drop in row units (starts at 0)
    bin: int


@dataclass(frozen=True)
class BinHistogram:
    """Integer landing counts over the board's bins."""

    M: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != self.M:
            raise ValueError(f"expected {self.M} counts, got {len(self.counts)}")
        if sum(self.counts) != self.total:
            raise ValueError(
                f"counts sum to {sum(self.counts)}, declared total {self.total}")

    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.total for c in self.counts)


@dataclass(frozen=True)
class SimulationResult:
    histogram: BinHistogram
    rights: tuple[int, ...]   # rights[x]: balls with x rightward deflections


def simulate_ball(config: WalkConfig, ball_index: int) -> BallTrace:
    """Replay one ball of simulate(config): its deflections, and nothing else."""
    if not 0 <= ball_index < config.balls:
        raise ValueError(f"ball_index {ball_index} out of range [0, {config.balls})")
    u = _step_uniforms(config.seed, ball_index, ball_index + 1, config.n)
    rights = u[0] < config.p
    x = int(rights.sum())
    s = 2 * x - config.n
    if config.planar:
        theta, landing = 0.0, x
    else:
        theta = wrap_angle(s * (TWO_PI / config.M) / 2.0)
        landing = x % config.M
    return BallTrace(steps=tuple(1 if r else -1 for r in rights), final_s=s,
                     final_theta=theta, final_z=-float(config.n), bin=landing)


def simulate(config: WalkConfig, chunk: int = DEFAULT_CHUNK) -> SimulationResult:
    """Run all balls and count them by rightward deflections, x = 0..n.

    The landing histogram is that count, ``rights``, in flat mode and
    ``rights`` folded mod M on a cylinder.  chunk bounds working memory
    only; the result is a pure function of (seed, config), and ball b
    is simulate_ball(config, b).
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    n = config.n
    rights = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, config.balls, chunk):
        hi = min(config.balls, lo + chunk)
        x = (_step_uniforms(config.seed, lo, hi, n) < config.p).sum(axis=1)
        rights += np.bincount(x, minlength=n + 1)
    counts = rights
    if not config.planar:
        counts = np.zeros(config.M, dtype=np.int64)
        np.add.at(counts, np.arange(n + 1) % config.M, rights)
    hist = BinHistogram(M=config.bins, counts=tuple(int(c) for c in counts),
                        total=config.balls)
    return SimulationResult(histogram=hist, rights=tuple(int(c) for c in rights))


def unwrapped_stats(rights, m_slots: int) -> tuple[float, float]:
    """Sample mean and variance (ddof=1) of the unwrapped angle S_n * dtheta / 2.

    rights[x], x = 0..n, counts the balls with x rightward deflections
    (S_n = 2x - n).
    Both moments come from exact integer sums; only the final ratios round.
    """
    counts = [int(c) for c in rights]
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


def histogram_to_csv(hist: BinHistogram) -> str:
    lines = [HISTOGRAM_CSV_HEADER]
    for k, (c, f) in enumerate(zip(hist.counts, hist.frequencies())):
        lines.append(f"{k},{c},{f!r}")
    return "\n".join(lines) + "\n"
