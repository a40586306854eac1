"""Wrapped normal distribution on the circle.

Two density representations: a wrapping sum over integer translates of
the normal kernel (fast for small variance) and a cosine Fourier series
(fast for large variance); density() switches automatically at
sigma^2 = 4.  Bin masses over M angular slots come from normal-CDF
differences, which telescope so the vector is normalised to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .angular import TWO_PI, AngularPMF, wrap_angle

# sigma^2 above which the Fourier series is the shorter expansion.
FOURIER_SWITCH = 4.0

# Fourier terms below this coefficient are dropped.
_COEF_FLOOR = 1e-16
# exp(-m^2 s^2 / 2) >= 1e-16  <=>  m <= _COEF_CUT / s
_COEF_CUT = math.sqrt(-2.0 * math.log(_COEF_FLOOR))


@dataclass(frozen=True)
class WrappedNormal:
    """Normal(mu, sigma2) reduced mod 2*pi; mu is stored in [0, 2*pi)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "mu", wrap_angle(float(self.mu)))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def _translate_count(sigma: float) -> int:
    """Translates needed so the omitted wrapping tail is below 1e-14."""
    return max(1, math.ceil(1.0 + 6.0 * sigma / TWO_PI))


def density_wrapped(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density by direct wrapping: sum of normal kernels at 2*pi translates."""
    th = np.asarray(theta, dtype=float)
    # offset from the mean, reduced to [-pi, pi) for a symmetric truncation
    delta = np.mod(th - wn.mu + math.pi, TWO_PI) - math.pi
    sigma = wn.sigma
    kk = np.arange(-_translate_count(sigma), _translate_count(sigma) + 1)
    shifted = delta[..., None] + TWO_PI * kk
    out = np.exp(-shifted**2 / (2.0 * wn.sigma2)).sum(axis=-1)
    out /= math.sqrt(TWO_PI * wn.sigma2)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def density_fourier(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density by the cosine series (1 + 2 sum e^{-m^2 s^2/2} cos m(th-mu)) / 2pi."""
    th = np.asarray(theta, dtype=float)
    m_max = int(math.ceil(_COEF_CUT / wn.sigma))
    m = np.arange(1, m_max + 1)
    coef = np.exp(-0.5 * m**2 * wn.sigma2)
    coef = coef[coef >= _COEF_FLOOR]
    m = m[: coef.size]
    out = (1.0 + 2.0 * (coef * np.cos(np.multiply.outer(th - wn.mu, m))).sum(axis=-1))
    out /= TWO_PI
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def density(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density at theta (scalar or array), picking the faster representation."""
    if wn.sigma2 > FOURIER_SWITCH:
        return density_fourier(wn, theta)
    return density_wrapped(wn, theta)


def bin_probs(wn: WrappedNormal, M: int) -> AngularPMF:
    """Mass of each slot [2*pi*k/M, 2*pi*(k+1)/M) by CDF differences.

    Summed over enough 2*pi translates that the missed tails are below
    1e-14; the inner sums telescope, so the result is normalised to
    machine precision without any explicit rescaling.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    sigma = wn.sigma
    count = max(1, math.ceil(1.0 + 8.0 * sigma / TWO_PI))
    ells = np.arange(-count, count + 1)
    edges = TWO_PI * np.arange(M + 1) / M
    z = (edges[None, :] - wn.mu + TWO_PI * ells[:, None]) / sigma
    cdf = ndtr(z)
    probs = np.maximum((cdf[:, 1:] - cdf[:, :-1]).sum(axis=0), 0.0)
    return AngularPMF(M, tuple(probs))

