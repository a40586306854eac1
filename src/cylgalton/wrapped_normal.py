"""Wrapped normal distribution on the circle.

WN(mu, sigma^2) is a Normal(mu, sigma^2) angle reduced mod 2*pi.  It has
two exact series (Mardia & Jupp, Directional Statistics, 2000, section
3.5): a wrapping sum of normal kernels at the 2*pi translates of mu, and
a Fourier series whose m-th coefficient is e^{-m^2 sigma^2 / 2}.

One tail rule cuts both.  With TAIL = 1e-16 and K = sqrt(2 ln(1/TAIL)),
about 8.58, a normal puts at most TAIL of its mass beyond K*sigma of its
mean (erfc(x) <= e^{-x^2}), and every Fourier coefficient beyond
|m| = K/sigma is below TAIL.  So a wrapping sum keeps the translates
within K*sigma, a Fourier series keeps |m| <= K/sigma, and the cost of
each is bounded in sigma.

density() sums the wrapping series up to sigma^2 = 4 and the cosine
series above.

bin_probs(), the mass of each of M equal slots, takes one of two routes
by term count:

* CDF route, for small sigma: normal tail differences 0.5*erfc(|z|/sqrt 2)
  at the slot edges within K*sigma of mu, folded onto the slots.  The two
  tails beyond those edges, at most TAIL of mass in all, are left out,
  and the rest telescopes to 1.  2*K*sigma*M/(2*pi) + 2 terms.
* Fourier route, for larger sigma: the masses are one length-M FFT of the
  binned law's DFT coefficients slot_coefficients(); 2*K/sigma + 1 terms,
  counted as _FFT_COST more for the FFT.  The coefficients left out move
  the masses by at most 2*TAIL/(1 - e^{-K*sigma}) in all.

Either route's cost is therefore below that at the switch, whatever
sigma is.  Both agree with 30-digit CDF differences to 1e-15 plus the
rounding of the slot edges, half an ulp of 2*pi times the density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import TWO_PI, check_number, spectral_masses, wrap_angle

# sigma^2 above which density() takes the cosine series.
FOURIER_SWITCH = 4.0

# The tail rule: mass beyond K*sigma, and each coefficient beyond K/sigma,
# is below TAIL.
TAIL = 1e-16
_K = math.sqrt(-2.0 * math.log(TAIL))

# The FFT and the set-up of the Fourier route cost about as much as this
# many edges of the CDF route (one erfc each).
_FFT_COST = 100.0


@dataclass(frozen=True)
class WrappedNormal:
    """Normal(mu, sigma2) reduced mod 2*pi; mu is stored in [0, 2*pi)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        check_number("mu", self.mu)
        check_number("sigma2", self.sigma2)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "mu", wrap_angle(float(self.mu)))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def density_wrapped(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density by direct wrapping: sum of normal kernels at 2*pi translates."""
    th = np.asarray(theta, dtype=float)
    # offset from the mean, reduced to [-pi, pi) for a symmetric truncation
    delta = np.mod(th - wn.mu + math.pi, TWO_PI) - math.pi
    # every translate within K*sigma of a delta in [-pi, pi), summed in
    # order, so the far ones, each below half an ulp, change no bit
    count = 1 + math.ceil(_K * wn.sigma / TWO_PI)
    out = np.zeros(delta.shape)
    for k in range(-count, count + 1):
        out += np.exp(-(delta + TWO_PI * k) ** 2 / (2.0 * wn.sigma2))
    out /= math.sqrt(TWO_PI * wn.sigma2)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def density_fourier(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density by the cosine series (1 + 2 sum e^{-m^2 s^2/2} cos m(th-mu)) / 2pi."""
    th = np.asarray(theta, dtype=float)
    m = np.arange(1, _term_count(wn, TAIL) + 1)
    coef = np.exp(-0.5 * m**2 * wn.sigma2)
    out = np.zeros(th.shape)
    for mi, ci in zip(m, coef):     # term by term, in order: O(points) memory
        out += ci * np.cos((th - wn.mu) * mi)
    out = (1.0 + 2.0 * out) / TWO_PI
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def density(wn: WrappedNormal, theta) -> float | np.ndarray:
    """Density at theta (scalar or array), picking the faster representation."""
    if wn.sigma2 > FOURIER_SWITCH:
        return density_fourier(wn, theta)
    return density_wrapped(wn, theta)


def _term_count(wn: WrappedNormal, floor: float) -> int:
    """How many m >= 1 have e^{-m^2 s^2/2} at least floor: m <= sqrt(2 ln(1/floor))/sigma."""
    return math.floor(math.sqrt(-2.0 * math.log(floor)) / wn.sigma)


def _turned_coefficients(laws, M: int, floor: float) -> tuple[np.ndarray, list[int]]:
    """slot_coefficients of each law turned back by j whole slots, and each j.

    Row i is laws[i]'s: j = floor(mu*M/2pi), so the turned law's mean
    r = mu - j*2pi/M lies in [0, 2pi/M) and the phase m*r of each term
    stays below |m|*2pi/M.  The terms of all rows are formed in one pass,
    each row with its own m = 1..count, and are added into each row in
    increasing m, as for a law alone.
    """
    js = [min(math.floor(wn.mu * M / TWO_PI), M - 1) for wn in laws]
    counts = np.array([_term_count(wn, floor) for wn in laws], dtype=int)
    row = np.repeat(np.arange(len(laws)), counts)
    m = np.arange(1, row.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    r = np.array([wn.mu - TWO_PI * j / M for wn, j in zip(laws, js)])[row]
    sigma2 = np.array([wn.sigma2 for wn in laws])[row]
    t = m % M
    half = (math.pi / M) * t
    # (e^{2i*half} - 1)/i = 2 sin(half) e^{i*half}, so the conjugate of D's
    # m-th term is (M/pi) sin(half)/m e^{-m^2 s^2/2 + i(m*r - half)}, and
    # term -m is the conjugate of term m
    terms = (np.sin(half) * ((M / math.pi) / m)
             * np.exp(m * (-0.5 * sigma2 * m) + 1j * (m * r - half)))
    coef = np.zeros((len(laws), M), complex)
    coef[:, 0] = 1.0
    flat = coef.ravel()         # a view: row i's slot t is flat[i*M + t]
    np.add.at(flat, row * M + t, terms)
    np.add.at(flat, row * M + (-t % M), terms.conj())
    return coef, js


def slot_coefficients(laws, M: int, floor: float = TAIL) -> np.ndarray:
    """DFT coefficients c(t), t = 0..M-1, of each law binned over M slots,
    one row per law.

    Slot k's mass is (1/M) sum_t c(t) e^{-2*pi*i*t*k/M}, with c(t) the
    conjugate of

        D(t) = (M/2pi) sum_{m = t mod M} e^{-m^2 s^2/2 - i*m*mu} (e^{2pi*i*m/M} - 1)/(i*m)

    and c(0) = 1.  The sum keeps the terms whose e^{-m^2 s^2/2} is at least
    floor: |m| <= K/sigma for the default TAIL.  mu is taken out in whole
    slots (_turned_coefficients) and put back as the exact root of unity
    e^{2pi*i*(t*j mod M)/M}.  The factor e^{2pi*i*m/M} - 1 is formed from
    m mod M, so the aliases m = M, 2M, ... give exactly 0.
    """
    coef, js = _turned_coefficients(laws, M, floor)
    phase = TWO_PI * 1j * (np.arange(M) * np.array(js, dtype=int)[:, None] % M)
    phase /= M              # in place: fewer batch-sized temporaries
    coef *= np.exp(phase, out=phase)
    return coef


def _cdf_bins(wn: WrappedNormal, M: int) -> np.ndarray:
    """Slot masses by normal tail differences at the edges within K*sigma of mu."""
    sigma = wn.sigma
    lo = math.floor((wn.mu - _K * sigma) * M / TWO_PI)
    hi = math.ceil((wn.mu + _K * sigma) * M / TWO_PI)
    k = np.arange(lo, hi + 1)
    z = (TWO_PI * k / M - wn.mu) / (sigma * math.sqrt(2.0))
    # twice each edge's tail on its own side of mu, accurate however small
    tail = np.fromiter(map(math.erfc, np.abs(z).tolist()), float, k.size)
    tail[0] = tail[-1] = 0.0    # the omitted tails, below TAIL
    # twice the cdf is tail below mu and 2 - tail from mu on: each edge
    # interval's mass is a difference of tails, plus 1 on the one holding mu
    signed = np.copysign(tail, -z)
    masses = signed[1:] - signed[:-1]
    masses[np.searchsorted(z, 0.0) - 1] += 2.0
    return 0.5 * np.bincount(k[:-1] % M, masses, minlength=M)


def _fourier_bins(wn: WrappedNormal, M: int) -> np.ndarray:
    """Slot masses as one FFT of the turned coefficients, turned forward by j slots."""
    coef, (j,) = _turned_coefficients([wn], M, TAIL)
    masses = spectral_masses(coef[0])
    return np.concatenate((masses[M - j:], masses[:M - j]))


def _takes_fourier(sigma: float, M: int) -> bool:
    """Whether the Fourier route's terms, plus _FFT_COST, are fewer than the CDF route's edges."""
    edges = 2.0 * _K * sigma * M / TWO_PI + 2.0
    return 2.0 * math.floor(_K / sigma) + 1.0 + _FFT_COST < edges


def bin_probs(wn: WrappedNormal, M: int) -> tuple[float, ...]:
    """The binned law: a tuple of the masses of the M slots [2*pi*k/M, 2*pi*(k+1)/M).

    Takes the CDF or the Fourier route by term count (see the module
    docstring for both and their omitted-mass bounds).  Masses that
    roundoff leaves below 0 are set to 0.
    """
    check_number("M", M, int, 1)
    route = _fourier_bins if _takes_fourier(wn.sigma, M) else _cdf_bins
    return tuple(np.maximum(route(wn, M), 0.0).tolist())
