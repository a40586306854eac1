"""Exact wrapped binomial distribution on the integers mod M.

The law of Y = X mod M with X ~ Binomial(n, p): after n staggered peg
rows on a cylinder with M angular slots, a ball that deflected rightward
X times lands in slot X mod M.  Slot k is this canonical index; the
physically centered angle of slot k's landing point is
(2k - n) * delta_theta / 2, a fixed relabelling handled by
centered_angle().

Slot probabilities are exact binomial products for n <= 64 (integer
binomial coefficients, so each term is correct to a unit in the last
place) and compensated log-space sums above that, renormalised so the
vector sums to 1 at machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import TWO_PI, AngularPMF, tv_distance, wrap_angle, wrap_to_pi

# Largest n for which comb() * p**k * q**(n-k) in doubles is preferable
# to log-space evaluation.
_EXACT_LIMIT = 64


def _binomial_terms(n: int, p: float) -> list[float]:
    """Binomial(n, p) probabilities for x = 0..n."""
    if p == 0.0:
        return [1.0] + [0.0] * n
    if p == 1.0:
        return [0.0] * n + [1.0]
    q = 1.0 - p
    if n <= _EXACT_LIMIT:
        return [math.comb(n, x) * p**x * q**(n - x) for x in range(n + 1)]
    log_p, log_q = math.log(p), math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    terms = [
        math.exp(lg_n - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                 + x * log_p + (n - x) * log_q)
        for x in range(n + 1)
    ]
    total = math.fsum(terms)
    return [t / total for t in terms]


@dataclass(frozen=True)
class WrappedBinomial:
    """n Bernoulli(p) trials, success count reduced mod M."""

    n: int
    M: int
    p: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")

    @cached_property
    def _slot_probs(self) -> tuple[float, ...]:
        terms = _binomial_terms(self.n, self.p)
        # terms[k::M] is exactly the orbit {k, k+M, k+2M, ...}
        return tuple(math.fsum(terms[k::self.M]) for k in range(self.M))


def pmf(wb: WrappedBinomial, k: int) -> float:
    """Probability of slot k."""
    if not 0 <= k < wb.M:
        raise ValueError(f"slot {k} out of range [0, {wb.M})")
    return wb._slot_probs[k]


def full_pmf(wb: WrappedBinomial) -> AngularPMF:
    """The whole slot vector as an AngularPMF."""
    return AngularPMF(wb.M, wb._slot_probs)


def _cf_polar(wb: WrappedBinomial, t: int) -> tuple[float, float]:
    """Modulus and unreduced argument of cf(t) = w**n, from the polar form
    of the one-step factor w = 1 - p + p*exp(i*t*2*pi/M)."""
    angle = t * TWO_PI / wb.M
    w = complex(1.0 - wb.p + wb.p * math.cos(angle), wb.p * math.sin(angle))
    r, phase = cmath.polar(w)
    if wb.n == 0:
        return 1.0, 0.0
    if r == 0.0:
        return 0.0, 0.0
    return r**wb.n, wb.n * phase


def characteristic_function(wb: WrappedBinomial, t: int) -> complex:
    """E[exp(i*t*Theta)] at integer frequency t.

    Closed form (1 - p + p*exp(i*t*2*pi/M))**n, evaluated in polar form
    so the modulus and argument stay accurate for large n.
    """
    rho, arg = _cf_polar(wb, t)
    return cmath.rect(rho, math.fmod(arg, TWO_PI))


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
    rho, arg = _cf_polar(wb, 1)
    mu = wrap_angle(arg)
    return TrigMoments(alpha1=rho * math.cos(mu), beta1=rho * math.sin(mu),
                       rho=rho, mu=mu)


def kernel_step(pmf_in: AngularPMF, p: float) -> AngularPMF:
    """One move of the cyclic two-point walk: +1 slot w.p. p, -1 w.p. 1-p.

    out[x] = p*in[x-1] + (1-p)*in[x+1], indices mod M.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p!r}")
    v = np.asarray(pmf_in.probs, dtype=float)
    out = p * np.roll(v, 1) + (1.0 - p) * np.roll(v, -1)
    return AngularPMF(pmf_in.M, tuple(out))


def tv_to_uniform(wb: WrappedBinomial) -> float:
    """Total variation distance between the slot law and uniform on M slots."""
    return tv_distance(wb._slot_probs, [1.0 / wb.M] * wb.M)


def support_size(wb: WrappedBinomial) -> int:
    """Number of slots with positive probability, by exact arithmetic.

    For p strictly inside (0, 1) every x in 0..n has positive mass, so
    the support is {0..n} mod M and its size is min(M, n+1); degenerate
    p collapses to a single slot.
    """
    if wb.n == 0 or wb.p == 0.0 or wb.p == 1.0:
        return 1
    return min(wb.M, wb.n + 1)


def centered_angle(wb: WrappedBinomial, k: int) -> float:
    """Landing angle of slot k in the centered frame (-pi, pi].

    The walk starts at angle 0 and moves half a slot per row, so slot k
    (k rightward deflections mod M) lands at (2k - n) * delta_theta / 2.
    """
    if not 0 <= k < wb.M:
        raise ValueError(f"slot {k} out of range [0, {wb.M})")
    return wrap_to_pi((2 * k - wb.n) * math.pi / wb.M)
