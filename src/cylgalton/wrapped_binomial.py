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

* Spectral, when B <= 1/2 (for the slot law, also n > 64; see the route
  rule below).  Slot k's mass is the inverse
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
* Direct, otherwise: B > 1/2, from too few rows, near-degenerate p or a
  board too wide for the law to have spread round it (a slot of mass 0,
  as when n < M, forces B >= 1); or a slot law with n <= 64.  With
  p = a/d exactly, the terms are integers walked up and down from the
  mode by the ratio (n - x)a / ((x + 1)(d - a)), each step floored.  Past the mode every ratio is at most 1, so a term j
  steps out is low by fewer than j units.
  - Precision: any M consecutive x hold a term of every slot, so the
    smallest slot is at least the smaller end term of the M around the
    mode.  lgamma puts that term, or 2**-1075 if it is smaller (a slot
    below it rounds to 0), D bits below the mode's term, and the walk
    starts from 2**(D + 66 + f), where 2**f > n**2 exceeds the floor
    loss.  When the exact terms C(n, x) a**x b**(n - x), b = d - a, fit
    in that many bits (d is a power of 2 and each term is below d**n, so
    n*log2(d) bits do), it walks them instead, from the mode's, with no
    floor loss, so that a slot halfway between two doubles needs no
    retry: C(57, 25)/2**57 at p = 1/2, or at n = 1 slot 0, 1 - p = b/d
    exactly, which for p = 0.3 needs 54 bits.
  - Window: each side stops once its remaining tail is below 2**-66 of
    the smallest slot, 2**f units.  Past a term t, j steps out, whose next
    step ratio r is below 1, the tail is at most (t + j)*r/(1 - r); the
    test runs at each step once t itself is that small, so no step count
    depends on M.  About 2*sqrt(2 ln2 (D + 66)) sigma terms are walked:
    O(min(n, that)) time and memory.
  - Bracket: E, the floor loss of the kept terms plus both tail bounds,
    bounds what the walk's total T and each orbit sum S_k miss, so slot
    k lies in [S_k/(T + E), (S_k + E)/T].  Both ends are int / int, each
    rounded once; when they round to the same double, that double is the
    correctly rounded exact fold (Ziv's strategy).  E is at most about
    2**-64 of the smallest slot, so a bracket rarely straddles a rounding
    boundary.  A walk with E = 0 (an exact walk over the whole support)
    returns its exact quotients, and a slot that no x reaches is 0.
  - Retry: if any bracket straddles, the law is walked again at full
    depth, until a term floors to 0, with twice the bits.  If that fails
    too, as an exact tie too wide for the first walk's bits does, the same
    walk is taken exactly over the whole support, with E = 0.  At p = 0
    or 1 that exact walk, the point mass, is the only one.
  So every slot is the correctly rounded exact fold.

A law is its parameters: every function of it computes what it needs.
The route rule has two clauses, each for its own question.  The spectral
test, B <= 1/2, is _spectral_rows, one function for a list of row counts
at fixed (M, p), which also returns the cf of the spectral rows: the one
formula _cf_polar, outer products of the row counts with the polar form
of w(t) from _step_polar.  It alone routes the distances, at any n:
tv_to_uniform applies it to one law, and sweep_uniformity (diagnostics)
to the rows of a ladder, in batches, so a distance whose coefficients are
small enough is formed from them and keeps its relative accuracy.  The
slot law adds n > 64 (_spectrum, the route of full_pmf): a law that small
is walked directly, cheaply, so that its slots are correctly rounded
rather than a few eps off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

import numpy as np

from .angular import (TWO_PI, check_number, spectral_masses, spectral_tv,
                      tv_distance, wrap_angle, wrap_to_pi)

# Slot laws with n <= _EXACT_LIMIT always take the direct route.
_EXACT_LIMIT = 64

# The spectral route needs sum_{t>=1} |cf(t)| <= _SPECTRAL_BOUND, which
# keeps every slot mass at or above (1 - _SPECTRAL_BOUND)/M.
_SPECTRAL_BOUND = 0.5

# The direct walk keeps what it misses below about 2**-_GUARD of the
# smallest slot it must resolve; a slot below 2**_FLOOR rounds to 0.
_GUARD = 64
_FLOOR = -1075
_LN2 = math.log(2)


def _precision(n: int, M: int, p: float) -> tuple[int, int]:
    """(bits, cut) of the direct walk of (n, M, p), 0 < p < 1: the mode's
    term is 2**bits, and a tail is cut once it is below 2**-cut of that
    (the module docstring's D + 66 + f and D + 66)."""
    a, d = p.as_integer_ratio()
    mode = min(n, (n + 1) * a // d)
    lo = min(max(mode - (M - 1) // 2, 0), max(n - M + 1, 0))
    hi = min(n, lo + M - 1)
    lg, lq = math.lgamma, math.log1p(-p)
    odds = math.log(p) - lq
    top = lg(mode + 1) + lg(n - mode + 1)
    # ln of the mode's mass over the smaller end's: M consecutive x hold every slot
    drop = max(lg(lo + 1) + lg(n - lo + 1) + (mode - lo) * odds,
               lg(hi + 1) + lg(n - hi + 1) + (mode - hi) * odds) - top
    peak = lg(n + 1) - top + mode * odds + n * lq     # ln of the mode's mass
    cut = math.ceil(min(drop, peak - _FLOOR * _LN2) / _LN2) + _GUARD + 2
    return cut + 2 * n.bit_length(), cut


def _binomial_terms(n: int, p: float, bits: int | None,
                    cut: int | None) -> tuple[int, list[int], int]:
    """(lo, terms, err): integers in proportion to the Binomial(n, p) terms
    of x = lo, lo + 1, ..., walked from the mode's term; and err, a bound on
    what their sum and each orbit sum miss of the exact terms in the same
    units.  With p = a/d, the walk is exact, from C(n, mode) a**mode
    b**(n - mode) with b = d - a and no floor loss, when bits is None or
    every exact term, each below d**n, fits in bits; else it starts from
    2**bits.  Each side stops at the end of the support, once its tail
    bound is at most 2**-cut of the mode's term, or, with cut None, once a
    term is 0."""
    a, d = p.as_integer_ratio()
    b = d - a
    mode = min(n, (n + 1) * a // d)
    exact = bits is None or n * (d.bit_length() - 1) <= bits
    start = math.comb(n, mode) * a**mode * b**(n - mode) if exact else 1 << bits
    slip = 0 if exact else 1            # a floored step loses less than one unit
    tau = 0 if cut is None else start >> cut
    up, up_err = _side(n, a, b, mode, start, slip, tau)
    # walking down from x is walking up from n - x with a and b swapped
    down, down_err = _side(n, b, a, n - mode, start, slip, tau)
    return mode - len(down), [*down[::-1], start, *up], up_err + down_err


def _side(n: int, a: int, b: int, x: int, t: int, slip: int,
          tau: int) -> tuple[list[int], int]:
    """The terms after t, the term at x, walked up by (n - x)a/((x + 1)b)
    until x = n or the tail's bound is at most tau (t is 0, with tau 0);
    and what they miss: under slip units per step for each, plus that bound."""
    terms = []
    while x < n:
        num, den = (n - x) * a, (x + 1) * b
        if t <= tau and num < den:
            # the ratios fall as x grows, so the tail is under (t + j)r/(1 - r)
            tail = -(-(t + slip * len(terms)) * num // (den - num))
            if not t or tail <= tau:
                break
        t = t * num // den
        x += 1
        terms.append(t)
    else:
        tail = 0
    j = len(terms)
    return terms, tail + slip * j * (j + 1) // 2


@dataclass(frozen=True)
class WrappedBinomial:
    """n Bernoulli(p) trials, success count reduced mod M."""

    n: int
    M: int
    p: float

    def __post_init__(self):
        check_number("n", self.n, int, 0)
        check_number("M", self.M, int, 1)
        check_number("p", self.p)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


def _direct_slots(wb: WrappedBinomial) -> tuple[float, ...]:
    """Slot masses from the integer walk, each the correctly rounded exact
    fold: the window, full depth at twice the bits, then the exact walk,
    whose err is 0, so it always certifies (the one walk at p = 0 or 1)."""
    n, M, p = wb.n, wb.M, wb.p
    walks = [(None, None)]
    if 0.0 < p < 1.0:
        bits, cut = _precision(n, M, p)
        walks[:0] = (bits, cut), (2 * bits, None)
    for walk in walks:
        slots = _certified(*_binomial_terms(n, p, *walk), n, M)
        if slots is not None:
            return slots


def _certified(lo: int, terms: list[int], err: int, n: int,
               M: int) -> tuple[float, ...] | None:
    """The slot masses of a walk, each its bracket [S_k/(T + err),
    (S_k + err)/T] rounded, or None when some bracket's ends round apart."""
    total = sum(terms)
    sums = terms[:M]                # sums[i] is the orbit sum of slot (lo + i) % M
    for i in range(M, len(terms), M):
        chunk = terms[i:i + M]
        sums[:len(chunk)] = map(add, sums, chunk)
    wide = total + err
    slots = [s / wide for s in sums]        # int / int rounds once
    if err and slots != [(s + err) / total for s in sums]:
        return None
    if len(sums) < M:               # slots the walk never reached
        if (lo or lo + len(terms) <= n) and err / total:
            return None             # a missed tail might reach them
        slots += [0.0] * (M - len(sums))
    r = -lo % M                     # slot k is slots[(k - lo) % M]
    return tuple(slots[r:] + slots[:r] if r else slots)


def _spectrum(wb: WrappedBinomial) -> np.ndarray | None:
    """cf(t) for t = 0..M-1 when wb's slot law takes the spectral route, else None."""
    if wb.n <= _EXACT_LIMIT:
        return None
    spectral, cf = _spectral_rows([wb.n], wb.M, wb.p)
    return cf[0] if spectral else None


def full_pmf(wb: WrappedBinomial) -> tuple[float, ...]:
    """The slot law: a tuple of the M slot masses, by the route of wb."""
    cf = _spectrum(wb)
    return _direct_slots(wb) if cf is None else tuple(spectral_masses(cf).tolist())


def _step_polar(M: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """log|w|**2 and arg w of the one-step factor w = 1 - p + p*exp(2*pi*i*t/M),
    for t = 0..M-1.

    t above M/2 is taken as t - M, so cf(M - t) is exactly conj(cf(t)).
    |w|**2 = 1 - 4pq*sin(pi*t/M)**2, so its log1p is relative-accurate,
    and -inf where w = 0 (p = 1/2, t = M/2).
    """
    t = np.arange(M)
    t = np.where(2 * t > M, t - M, t)
    q = 1.0 - p
    half = np.sin(np.pi * t / M)
    with np.errstate(divide="ignore"):
        log_mod2 = np.log1p(-4.0 * p * q * half * half)
    angle = t * TWO_PI / M
    return log_mod2, np.arctan2(p * np.sin(angle), q + p * np.cos(angle))


def _cf_polar(ns, step: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Modulus and unreduced argument of cf = w**n, one row per row count in ns.

    Outer products of the row counts with step = _step_polar(M, p): the
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
    """The spectral test, for the laws (n, M, p) of the row counts in ns.

    Returns the row counts whose B = sum_{t>=1} |cf(t)| is at most 1/2, in
    the order of ns, and their cf as one (rows, M) array.  It reads no row
    count's size: the distances route by it alone, and the slot law adds
    its own n > 64 clause (_spectrum).
    """
    cf = _cf_rows(ns, _step_polar(M, p))
    keep = np.abs(cf[:, 1:]).sum(axis=1) <= _SPECTRAL_BOUND
    return [n for n, k in zip(ns, keep) if k], cf[keep]


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
    rho, arg = _cf_polar([wb.n], _step_polar(wb.M, wb.p))
    rho, mu = float(rho[0, 1 % wb.M]), wrap_angle(float(arg[0, 1 % wb.M]))
    return TrigMoments(alpha1=rho * math.cos(mu), beta1=rho * math.sin(mu),
                       rho=rho, mu=mu)


def tv_to_uniform(wb: WrappedBinomial) -> float:
    """Total variation distance between the slot law and uniform on M slots.

    The route is the spectral test alone (_spectral_rows), at any n.  Since
    cf(t) = sum_k (P_k - 1/M) e^{2*pi*i*t*k/M} for t != 0, |cf(t)| <= 2 TV,
    so TV >= B/(2(M - 1)) when M >= 2 (at M = 1, B = 0 and TV = 0).
    * Spectral (B <= 1/2): each slot's excess over 1/M is the inverse DFT
      of the t != 0 coefficients, so no mass near 1/M is subtracted.  Each
      coefficient carries a relative error delta of a few eps plus n*|arg w(t)|*eps
      (module docstring), so TV is off by at most about B*delta/2: a
      relative error of at most about (M - 1)*delta, down to underflow.
    * Direct (B > 1/2): the M correctly rounded slots less 1/M, each
      difference rounded once, then one fsum, are off by at most about
      2**-53 * (1 + 2 TV).  As TV > 1/(4(M - 1)), that is a relative error
      below about (4M - 2) * 2**-53.
    """
    spectral, cf = _spectral_rows([wb.n], wb.M, wb.p)
    if not spectral:
        return tv_distance(_direct_slots(wb), [1.0 / wb.M] * wb.M)
    return spectral_tv(cf)[0]       # the uniform law's coefficients are 0 at t != 0


def centered_angle(wb: WrappedBinomial, k: int) -> float:
    """Landing angle of slot k in the centered frame (-pi, pi].

    The walk starts at angle 0 and moves half a slot per row, so slot k
    (k rightward deflections mod M) lands at (2k - n) * delta_theta / 2.
    """
    check_number("k", k, int)
    if not 0 <= k < wb.M:
        raise ValueError(f"slot {k} out of range [0, {wb.M})")
    return wrap_to_pi((2 * k - wb.n) * math.pi / wb.M)
