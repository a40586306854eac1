"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: exact
rational arithmetic for binomial folds, explicit path enumeration for
small walks, dictionary dynamic programming for the cyclic kernel, and
mpmath for high-precision wrapped normal values and for wrapped binomial
distances too small for a double-precision fold.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from mpmath import binomial as mp_binomial
from mpmath import erf as mp_erf
from mpmath import exp as mp_exp
from mpmath import expjpi as mp_expjpi
from mpmath import fsum as mp_fsum
from mpmath import mp, mpf
from mpmath import pi as mp_pi
from mpmath import sin as mp_sin
from mpmath import sqrt as mp_sqrt

mp.dps = 30


def binomial_fold_numerators(n: int, m: int, p: float) -> tuple[list[int], int]:
    """The exact rational fold as integer slot numerators over one denominator.

    p = a/d exactly, so term x is C(n, x) a^x b^(n-x) / d^n with b = d - a.
    The integer numerators follow the ratio (n - x) a / ((x + 1) b), and
    each division is exact; the binomial theorem checks the whole walk.
    """
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    slots = [0] * m
    if b == 0:                      # p = 1: all the mass at x = n
        slots[n % m] = 1
        return slots, 1
    term = b**n
    for x in range(n + 1):
        slots[x % m] += term
        term = term * (n - x) * a // ((x + 1) * b)
    assert sum(slots) == d**n
    return slots, d**n


def binomial_rows(p: float, top: int):
    """(n, numerators, d**n) for n = 1..top: the exact Binomial(n, p) terms
    as integers over d**n, p = a/d exactly, by Pascal's rule with weights,
    N_{n+1}(x) = b N_n(x) + a N_n(x - 1) with b = d - a, so each row costs
    n + 2 products and no division.  A row is the exact fold at any M > n."""
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    row, den = [1], 1
    for n in range(1, top + 1):
        row = [b * x + a * y for x, y in zip([*row, 0], [0, *row])]
        den *= d
        yield n, row, den
    assert sum(row) == den


def binomial_fold_pmf(n: int, m: int, p: float) -> list[float]:
    """Wrapped binomial: the exact rational fold, each slot rounded once."""
    slots, den = binomial_fold_numerators(n, m, p)
    return [s / den for s in slots]     # int / int rounds correctly


def binomial_fold_exact(n: int, m: int, p: float) -> list[Fraction]:
    """Same fold, kept rational for exact-positivity queries."""
    slots, den = binomial_fold_numerators(n, m, p)
    return [Fraction(s, den) for s in slots]


def mp_fold_window(n: int, m: int, p: float, lo: int, hi: int) -> list[mpf]:
    """Wrapped binomial at the working precision from the terms x = lo..hi
    alone: the first from mpmath's binomial, the rest by the ratio recurrence
    C(n, x+1)/C(n, x), so the fold needs hi - lo multiplications."""
    p_mp = mpf(p)
    q_mp = 1 - p_mp
    slots = [mpf(0)] * m
    term = mp_binomial(n, lo) * p_mp**lo * q_mp**(n - lo)
    for x in range(lo, hi + 1):
        slots[x % m] += term
        term = term * (n - x) / (x + 1) * p_mp / q_mp
    return slots


def tv_to_uniform_ref(n: int, m: int, p: float) -> float:
    """TV to uniform of the wrapped binomial by an mpmath fold.

    The fold subtracts 1/m from each slot, so the working precision is 20
    digits beyond the distance's bound, tv_to_uniform_bound_ref, and at
    least 60: the distance is at least the bound over m - 1, so about 20
    digits survive the cancellation however small it is.  It is 0 where
    the bound is 0.
    """
    bound = tv_to_uniform_bound_ref(n, m, p)
    if not bound:
        return 0.0
    with mp.workdps(max(60, 20 + math.ceil(-mp.log10(bound)))):
        slots = mp_fold_window(n, m, p, 0, n)
        return float(mp_fsum(abs(s - mpf(1) / m) for s in slots) / 2)


def tv_to_uniform_bound_ref(n: int, m: int, p: float) -> mpf:
    """(1/2) * sum_{t=1}^{m-1} |1 - p + p*exp(2*pi*i*t/m)|**n in mpmath.

    Each slot's excess over 1/m is bounded by (1/m) * sum_{t != 0} |cf(t)|,
    so this bounds the TV to uniform; it stays an mpf because at large n
    it is far below the smallest double.
    """
    with mp.workdps(60):
        p_mp = mpf(p)
        return mp_fsum(abs(1 - p_mp + p_mp * mp_expjpi(mpf(2 * t) / m))**n
                       for t in range(1, m)) / 2


def path_enum_pmf(n: int, m: int, p: float) -> list[float]:
    """Wrapped binomial by enumerating all 2**n left/right paths."""
    p_frac = Fraction(p)
    q_frac = 1 - p_frac
    weight = [p_frac**k * q_frac**(n - k) for k in range(n + 1)]
    slots = [Fraction(0)] * m
    for mask in range(1 << n):
        rights = mask.bit_count()
        slots[rights % m] += weight[rights]
    assert sum(slots) == 1
    return [float(s) for s in slots]


def dp_cyclic_walk(m: int, steps: int, p: float, start: int = 0) -> list[float]:
    """Distribution of a +-1 walk on Z_m after the given number of steps."""
    p_frac = Fraction(p)
    q_frac = 1 - p_frac
    dist = {start % m: Fraction(1)}
    for _ in range(steps):
        nxt: dict[int, Fraction] = defaultdict(Fraction)
        for s, w in dist.items():
            nxt[(s + 1) % m] += w * p_frac
            nxt[(s - 1) % m] += w * q_frac
        dist = nxt
    return [float(dist.get(k, Fraction(0))) for k in range(m)]


def wn_density_ref(mu: float, sigma2: float, theta: float) -> float:
    """Wrapped normal density by a long high-precision wrapping sum."""
    s2 = mpf(sigma2)
    offset = mpf(theta) - mpf(mu)
    count = max(12, int(10 * math.sqrt(sigma2)))
    total = sum(mp_exp(-((offset + 2 * mp_pi * k) ** 2) / (2 * s2))
                for k in range(-count, count + 1))
    return float(total / mp_sqrt(2 * mp_pi * s2))


def _mp_phi(z) -> mpf:
    return (1 + mp_erf(z / mp_sqrt(2))) / 2


def _wn_interval_sine_series(mu, sigma2, lo, hi) -> mpf:
    """Wrapped normal mass of [lo, hi) by the integrated Fourier series

    (hi - lo)/(2 pi) + (1/pi) sum_{m>=1} e^{-m^2 s^2/2} (sin m(hi-mu) - sin m(lo-mu))/m,

    summed until the coefficients fall 5 digits below the working precision.
    """
    mu, sigma2, lo, hi = mpf(mu), mpf(sigma2), mpf(lo), mpf(hi)
    m_max = int(math.sqrt(2.0 * (mp.dps + 5) * math.log(10.0) / float(sigma2))) + 1
    series = mp_fsum(mp_exp(-m * m * sigma2 / 2) * (mp_sin(m * (hi - mu))
                                                    - mp_sin(m * (lo - mu))) / m
                     for m in range(1, m_max + 1))
    return (hi - lo) / (2 * mp_pi) + series / mp_pi


def wn_interval_prob_ref(mu: float, sigma2: float, lo: float, hi: float) -> float:
    """Wrapped normal mass of [lo, hi) at 30 digits.

    High-precision CDF differences over the 2*pi translates up to
    sigma^2 = 4; the integrated Fourier series above, where it needs
    fewer terms than the translates.
    """
    if sigma2 > 4.0:
        return float(_wn_interval_sine_series(mu, sigma2, lo, hi))
    sigma = mp_sqrt(mpf(sigma2))
    count = max(12, int(4 * math.sqrt(sigma2)))
    total = mpf(0)
    for k in range(-count, count + 1):
        a = (mpf(lo) - mpf(mu) + 2 * mp_pi * k) / sigma
        b = (mpf(hi) - mpf(mu) + 2 * mp_pi * k) / sigma
        total += _mp_phi(b) - _mp_phi(a)
    return float(total)


def wb_wn_tv_ref(n: int, m: int, p: float) -> float:
    """TV between the wrapped binomial and its binned normal limit, at 100 digits.

    The slot law is the ratio-recurrence fold; the limit is Normal(n(2p-1)*dtheta/2, n*p*(1-p)*dtheta^2) with its mean
    moved by (n+1)*dtheta/2 into the slot frame, its slot masses from the
    integrated Fourier series.  100 digits leave about 20 after the
    cancellation when the distance is near 1e-76.
    """
    with mp.workdps(100):
        slots = mp_fold_window(n, m, p, 0, n)
        p_mp = mpf(p)
        q_mp = 1 - p_mp
        dtheta = 2 * mp_pi / m
        mu = n * (2 * p_mp - 1) * dtheta / 2 + (n + 1) * dtheta / 2
        sigma2 = n * p_mp * q_mp * dtheta**2
        limit = [_wn_interval_sine_series(mu, sigma2, k * dtheta, (k + 1) * dtheta)
                 for k in range(m)]
        return float(mp_fsum(abs(a - b) for a, b in zip(slots, limit)) / 2)


def tv(a, b) -> float:
    assert len(a) == len(b)
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


def table_csv_ref(columns, rows) -> str:
    """A table as CSV, row by row: the header, then each row's fields by repr."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"
