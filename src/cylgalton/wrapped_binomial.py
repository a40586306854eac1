"""Exact wrapped binomial distribution on the integers mod M.

The law of Y = X mod M with X ~ Binomial(n, p): after n staggered peg
rows on a cylinder with M angular slots, a ball that deflected rightward
X times lands in slot X mod M.  Slot k is this canonical index; the
physically centered angle of slot k's landing point is
(2k - n) * delta_theta / 2, a fixed relabelling handled by
centered_angle().

Slot probabilities come from one of two routes, a pure function of
(n, M, p).  Write cf(t) = (1 - p + p*exp(2*pi*i*t/M))**n for the
characteristic function at integer frequency t, and
B = sum_{t=1}^{M-1} |cf(t)|.

* Spectral, when n > 64 and B <= 1/2.  Slot k's mass is the inverse
  DFT (1/M) * sum_t cf(t) * exp(-2*pi*i*t*k/M) (the wrapped-distribution
  identity of Mardia & Jupp, Directional Statistics, 2000, sections 3.5
  and 4.3), evaluated by one length-M FFT: O(M log M) time and O(M)
  memory, whatever n is.  The cf moduli are relative-accurate down to
  underflow; each argument n*arg(w) carries an absolute error of about
  n*|arg(w)|*eps, which reaches the masses scaled by |cf(t)|/M.  Every
  mass is at least (1 - B)/M >= 1/(2M), so the FFT's absolute error, a
  few eps/M, is a relative error of a few eps on each slot (about 1e-15
  against exact rational folds).  tv_to_uniform is taken from the
  t != 0 coefficients alone, so a tiny distance keeps its relative
  accuracy instead of being the rounding noise of subtracting numbers
  near 1/M.
* Direct, otherwise: small n, near-degenerate p, or a board too wide
  for the law to have spread round it (a slot of mass 0, as when n < M,
  forces B >= 1).  With p = a/d exactly, the terms are integers walked up
  and down from the mode by the ratio (n - x)a / ((x + 1)(d - a)), each
  step floored, until one is 0.  Scaled by 2**1130, they keep every term
  whose mass is a positive double: about 80 sigma of them, so O(min(n,
  80 sigma)) time and memory.  Each slot is its orbit sum over the total,
  rounded once; the floors move it by under n**2 * 2**-108 of its size.
  Fair boards with n <= 64 walk exact integers and match the rational
  fold bit for bit.

A law is its parameters: every function of it computes what it needs.
The route rule is _spectral_rows, one function for a list of row counts
at fixed (M, p), which also returns the cf of the spectral rows: the one
formula _cf_polar, outer products of the row counts with the polar form
of w(t) from _step_polar.  _spectrum applies it to one law, and
sweep_uniformity (diagnostics) to the rows of a ladder, in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import (TWO_PI, spectral_masses, spectral_tv, tv_distance,
                      wrap_angle, wrap_to_pi)

# Laws with n <= _EXACT_LIMIT always take the direct route, and their walk
# starts from C(n, m) itself, so at p = 1/2 every term is an exact integer.
_EXACT_LIMIT = 64

# The spectral route needs sum_{t>=1} |cf(t)| <= _SPECTRAL_BOUND, which
# keeps every slot mass at or above (1 - _SPECTRAL_BOUND)/M.
_SPECTRAL_BOUND = 0.5


def _binomial_terms(n: int, p: float) -> tuple[int, list[int]]:
    """(lo, terms): integers in proportion to the Binomial(n, p) terms of
    x = lo, lo + 1, ..., walked from the mode (see the module docstring)."""
    a, d = p.as_integer_ratio()
    b = d - a
    mode = min(n, (n + 1) * a // d)
    start = (math.comb(n, mode) if n <= _EXACT_LIMIT else 1) << 1130
    up, down = [start], []
    x, t = mode, start
    while t and x < n:
        t = t * (n - x) * a // ((x + 1) * b)
        x += 1
        up.append(t)
    x, t = mode, start
    while t and x > 0:
        t = t * x * b // ((n - x + 1) * a)
        x -= 1
        down.append(t)
    return mode - len(down), down[::-1] + up


@dataclass(frozen=True)
class WrappedBinomial:
    """n Bernoulli(p) trials, success count reduced mod M."""

    n: int
    M: int
    p: float

    def __post_init__(self):
        for name in ("n", "M"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


def _direct_slots(wb: WrappedBinomial) -> tuple[float, ...]:
    """Slot masses by folding the binomial terms in the window."""
    lo, terms = _binomial_terms(wb.n, wb.p)
    total = sum(terms)
    # terms[(k - lo) % M::M] is exactly the orbit {k, k+M, ...}; int / int rounds once
    return tuple(sum(terms[(k - lo) % wb.M::wb.M]) / total for k in range(wb.M))


def _spectrum(wb: WrappedBinomial) -> np.ndarray | None:
    """cf(t) for t = 0..M-1 when wb takes the spectral route, else None."""
    spectral, cf = _spectral_rows([wb.n], wb.M, wb.p)
    return cf[0] if spectral else None


def full_pmf(wb: WrappedBinomial) -> tuple[float, ...]:
    """The slot law: a tuple of the M slot masses, by the route of wb."""
    cf = _spectrum(wb)
    return _direct_slots(wb) if cf is None else tuple(spectral_masses(cf).tolist())


def _step_polar(M: int, p: float, t=None) -> tuple[np.ndarray, np.ndarray]:
    """log|w|**2 and arg w of the one-step factor w = 1 - p + p*exp(2*pi*i*t/M),
    for t = 0..M-1 or the frequencies t given.

    t above M/2 is taken as t - M, so cf(M - t) is exactly conj(cf(t)).
    |w|**2 = 1 - 4pq*sin(pi*t/M)**2, so its log1p is relative-accurate,
    and -inf where w = 0 (p = 1/2, t = M/2).
    """
    t = np.arange(M) if t is None else t
    t = np.where(2 * t > M, t - M, t)
    q = 1.0 - p
    half = np.sin(np.pi * t / M)
    with np.errstate(divide="ignore"):
        log_mod2 = np.log1p(-4.0 * p * q * half * half)
    angle = t * TWO_PI / M
    return log_mod2, np.arctan2(p * np.sin(angle), q + p * np.cos(angle))


def _cf_polar(ns, step: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and unreduced argument of cf = w**n, one row per row count in ns.

    Outer products of the row counts with step = _step_polar(M, p, t): the
    modulus exp(n/2 * log|w|**2) is relative-accurate down to underflow,
    and exactly 0 where w = 0.  A row with n = 0 is the point mass,
    modulus 1 and argument 0.
    """
    log_mod2, step_arg = step
    n = np.array(ns, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):     # 0 * -inf at n = 0, replaced below
        rho = np.exp(0.5 * n * log_mod2)
    arg = n * step_arg
    zero = n[:, 0] == 0
    rho[zero], arg[zero] = 1.0, 0.0
    return rho, arg


def _cf_rows(ns, step: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """cf(t) = w(t)**n: one row per row count in ns, one column per frequency of step."""
    rho, arg = _cf_polar(ns, step)
    cf = 1j * arg
    np.exp(cf, out=cf)      # in place, like the product: fewer batch-sized temporaries
    cf *= rho
    return cf


def _spectral_rows(ns, M: int, p: float) -> tuple[list[int], np.ndarray]:
    """The route rule, for the laws (n, M, p) of the row counts in ns.

    Returns the row counts whose law takes the spectral route, n > 64 and
    sum_{t>=1} |cf(t)| <= 1/2, in the order of ns, and their cf as one
    (rows, M) array.  No cf is formed when every n <= 64.
    """
    wide = [n for n in ns if n > _EXACT_LIMIT]
    if not wide:
        return [], np.empty((0, M), dtype=complex)
    cf = _cf_rows(wide, _step_polar(M, p))
    keep = np.abs(cf[:, 1:]).sum(axis=1) <= _SPECTRAL_BOUND
    return [n for n, k in zip(wide, keep) if k], cf[keep]


@dataclass(frozen=True)
class TrigMoments:
    """First trigonometric moment: cosine/sine parts, resultant, direction."""

    alpha1: float
    beta1: float
    rho: float
    mu: float


def trig_moments(wb: WrappedBinomial) -> TrigMoments:
    """Resultant length and mean direction from the first moment.

    rho = |cf(1)| and mu = arg cf(1) mod 2*pi; computed from the polar
    form of the one-step factor, so mu is exact to roundoff even when a
    naive complex power would lose the winding.  For p = 1/2 this gives
    mu = pi*n/M mod 2*pi and rho = cos(pi/M)**n.
    """
    rho, arg = _cf_polar([wb.n], _step_polar(wb.M, wb.p, np.array([1 % wb.M])))
    rho, mu = float(rho[0, 0]), wrap_angle(float(arg[0, 0]))
    return TrigMoments(alpha1=rho * math.cos(mu), beta1=rho * math.sin(mu),
                       rho=rho, mu=mu)


def tv_to_uniform(wb: WrappedBinomial) -> float:
    """Total variation distance between the slot law and uniform on M slots.

    On the spectral route each slot's excess over 1/M is the inverse DFT
    of the t != 0 coefficients, so no mass near 1/M is subtracted.
    """
    cf = _spectrum(wb)
    if cf is None:
        return tv_distance(_direct_slots(wb), [1.0 / wb.M] * wb.M)
    return spectral_tv(cf[None])[0]     # the uniform law's coefficients are 0 at t != 0


def centered_angle(wb: WrappedBinomial, k: int) -> float:
    """Landing angle of slot k in the centered frame (-pi, pi].

    The walk starts at angle 0 and moves half a slot per row, so slot k
    (k rightward deflections mod M) lands at (2k - n) * delta_theta / 2.
    """
    if not 0 <= k < wb.M:
        raise ValueError(f"slot {k} out of range [0, {wb.M})")
    return wrap_to_pi((2 * k - wb.n) * math.pi / wb.M)
