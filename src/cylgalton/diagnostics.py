"""Distribution comparison and convergence instrumentation.

Distances and goodness-of-fit between empirical slot counts and exact
slot laws, plus the theoretical sweep that tracks how the slot law
approaches the uniform and wrapped-normal limits as rows are added.

The sweep sends its rows through the route rule in batches: the spectral
rows of a batch are one (rows, M) array program, and each direct row folds
its law once for both distances (sweep_uniformity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .angular import (TWO_PI, check_counts, check_law, check_number, spectral_tv,
                      table_csv, tv_distance)
from .wrapped_binomial import WrappedBinomial, _direct_slots, _spectral_rows
from .wrapped_normal import WrappedNormal, _term_count, bin_probs, slot_coefficients

# Minimum expected count per retained chi-square cell.
MIN_EXPECTED = 5.0

SWEEP_COLUMNS = {"n": int, "tv_uniform": float, "tv_wn": float}

# A batch of sweep rows holds at most this many complex entries: M cf
# values per row plus its normal-limit terms (one row at the least).
_BATCH_ENTRIES = 1 << 16

# The normal limit's coefficients on the spectral route are kept down to underflow.
_LIMIT_FLOOR = math.ulp(0.0)


@dataclass(frozen=True)
class ComparisonReport:
    """Distances and chi-square verdict of an empirical/theoretical pair."""

    tv: float
    kl: float
    chi2: float
    dof: int
    p_value: float


def _pool_cyclic(observed, expected) -> list[tuple[float, float]]:
    """Greedy cyclic pooling so every retained cell expects >= MIN_EXPECTED.

    Cells are merged left to right; a deficient tail is folded into the
    first group, its cyclic neighbour.
    """
    groups: list[tuple[float, float]] = []
    obs_acc = exp_acc = 0.0
    for o, e in zip(observed, expected):
        obs_acc += o
        exp_acc += e
        if exp_acc >= MIN_EXPECTED:
            groups.append((obs_acc, exp_acc))
            obs_acc = exp_acc = 0.0
    if obs_acc or exp_acc:
        if groups:
            o0, e0 = groups[0]
            groups[0] = (o0 + obs_acc, e0 + exp_acc)
        else:
            groups.append((obs_acc, exp_acc))
    return groups


def chi2_tail(x: float, dof: int) -> float:
    """P(chi^2_dof > x), the regularised upper incomplete gamma Q(dof/2, x/2).

    The closed forms at integer dof (Abramowitz & Stegun 26.4.4-26.4.5),
    with y = x/2: e^{-y} sum_{j < dof/2} y^j / j! for even dof, and
    erfc(sqrt y) + sum_{r=1}^{(dof-1)/2} e^{-y} y^{r-1/2} / Gamma(r + 1/2)
    for odd dof.  Every term is positive, so there is no cancellation;
    each is taken in log space with lgamma and the sum with fsum, which
    keeps the result within about 1e-12 relative up to dof 3599.
    """
    check_number("dof", dof, int, 1)
    if not x > 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    first = dof % 2 / 2.0       # 0 for even dof, 1/2 for odd
    terms = [math.exp(a * log_y - y - math.lgamma(a + 1.0))
             for a in (first + i for i in range(dof // 2))]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def compare(counts, qs) -> ComparisonReport:
    """TV, smoothed KL, and pooled chi-square of slot counts against a slot law.

    counts[k] is the number of balls that landed in slot k, such as
    walk_sim.slot_counts of a run's rights; N = sum(counts).  qs is the
    law, any sequence of its M slot masses by the law rule (check_law),
    such as full_pmf's.  KL is the sample-vs-model divergence
    sum(e * log(e / q)) over cells with q > 0, with empty empirical cells
    replaced by eps = 1/(10N) so the sum stays finite.  Chi-square cells
    are pooled cyclically until each expects >= 5, and the p-value is
    chi2_tail(chi2, dof), the regularised upper incomplete gamma at dof/2
    in closed form, within about 1e-12 relative.  A count observed where
    q = 0 makes kl and chi2 inf and the p-value 0.
    """
    counts = check_counts(counts)
    check_law(qs)
    if len(counts) != len(qs):
        raise ValueError(
            f"dimension mismatch: histogram has {len(counts)} bins, "
            f"PMF has {len(qs)}")
    total = sum(counts)
    if total < 1:
        raise ValueError("no balls to compare")
    tv = tv_distance([c / total for c in counts], qs)

    impossible = any(c and q <= 0.0 for c, q in zip(counts, qs))
    eps = 1.0 / (10.0 * total)
    smoothed = [(c / total if c else eps, q) for c, q in zip(counts, qs) if q > 0.0]
    kl = math.inf if impossible else math.fsum(e * math.log(e / q) for e, q in smoothed)

    groups = _pool_cyclic(counts, [total * q for q in qs])
    chi2 = math.inf if impossible else math.fsum((o - e) ** 2 / e for o, e in groups)
    dof = max(1, len(groups) - 1)
    p_value = chi2_tail(chi2, dof)
    return ComparisonReport(tv=tv, kl=kl, chi2=chi2, dof=dof, p_value=p_value)


def _normal_limit(wb: WrappedBinomial) -> WrappedNormal:
    """The normal limit of wb's slot law, in the slot-index frame.

    The unwrapped angle has mean n(2p - 1)*dtheta/2 and variance
    n*p*(1 - p)*dtheta^2, degenerate unless n >= 1 and 0 < p < 1, a rule
    tested here alone.  Slot k's landing atom sits at centered angle
    (2k - n)*dtheta/2, so the limit is integrated over atom-centered
    intervals: its mean is moved by (n + 1)*dtheta/2 (+n*dtheta/2 moves
    the centered frame onto slot indices, +dtheta/2 centers the bins on
    the atoms).
    """
    n, M, p = wb.n, wb.M, wb.p
    if n < 1:
        raise ValueError(f"the normal limit needs n >= 1, got n={n}: "
                         f"a board with no rows has a degenerate limit")
    if not 0.0 < p < 1.0:
        raise ValueError(f"the normal limit needs 0 < p < 1, got p={p!r}: "
                         f"the limit is degenerate (zero variance)")
    dtheta = TWO_PI / M
    mu = n * (2.0 * p - 1.0) * dtheta / 2.0 + (n + 1) * dtheta / 2.0
    return WrappedNormal(mu, n * p * (1.0 - p) * dtheta**2)


def normal_limit_pmf(wb: WrappedBinomial) -> tuple[float, ...]:
    """The normal limit of wb's slot law, binned over its M slots: a tuple of M masses."""
    return bin_probs(_normal_limit(wb), wb.M)


def wb_wn_tv(wb: WrappedBinomial) -> float:
    """TV between the exact slot law and its discretised normal limit: the
    tv_wn of the one-row sweep of wb."""
    return sweep_uniformity(wb.M, wb.p, [wb.n])[0].tv_wn


class SweepRow(NamedTuple):
    """One rung of the convergence ladder; a row is its own CSV row."""

    n: int
    tv_uniform: float
    tv_wn: float


def sweep_uniformity(M: int, p: float, n_list) -> list[SweepRow]:
    """Distances to the uniform and normal limits for each row count, sorted by n.

    Each row's tv_uniform reads the same bits as tv_to_uniform of its law
    alone, so it carries that function's bound on either route.  Rows go in
    batches of at most _BATCH_ENTRIES complex entries, each row counting its
    M cf values and its normal-limit terms, so memory grows only with the
    output.  The spectral test (_spectral_rows, B = sum_{t>=1} |cf(t)| <=
    1/2, at any n) sorts a batch: its spectral rows take each distance from
    one FFT of every row of their (rows, M) cf; each other row takes its
    direct slot masses once, and both distances from them.  tv_wn's bound:
    * Spectral: tv_wn comes from the t != 0 differences cf(t) - c(t) of
      the two laws' DFT coefficients, each law's kept down to underflow and
      relative-accurate to about delta (tv_to_uniform), so it is off by at
      most about delta/2 * sum_{t>=1} (|cf(t)| + |c(t)|).  As 2 tv_wn >=
      max_t |cf(t) - c(t)|, a tiny distance keeps its relative accuracy,
      less only what the coefficients' own cancellation costs.
    * Direct: the M correctly rounded slots less the normal limit's bins
      (wrapped_normal.bin_probs, with its bounds), each difference rounded
      once and then one fsum: off by half the bins' L1 error plus about
      2**-53 * (1 + 2 tv_wn).
    """
    ns = list(n_list)
    for n in ns:
        check_number("--n row count", n, int)
    if not ns:
        raise ValueError("--n must be a nonempty list of row counts")
    check_number("--p", p)      # named as the flag; WrappedBinomial would say p
    rows, todo = [], sorted(set(ns))
    while todo:
        # rows are sorted by n, so the first row's limit has the most terms,
        # and a degenerate limit fails here, before any row is computed
        first = _normal_limit(WrappedBinomial(todo[0], M, p))
        size = max(1, _BATCH_ENTRIES // (M + _term_count(first, _LIMIT_FLOOR)))
        batch, todo = todo[:size], todo[size:]
        ns_s, cf = _spectral_rows(batch, M, p)
        limits = [_normal_limit(WrappedBinomial(n, M, p)) for n in ns_s]
        rows += map(SweepRow, ns_s, spectral_tv(cf), spectral_tv(
            cf - slot_coefficients(limits, M, floor=_LIMIT_FLOOR)))
        for n in sorted(set(batch).difference(ns_s)):
            wb = WrappedBinomial(n, M, p)
            slots = _direct_slots(wb)
            rows.append(SweepRow(n, tv_distance(slots, [1.0 / M] * M),
                                 tv_distance(slots, normal_limit_pmf(wb))))
    return sorted(rows)


def sweep_to_csv(rows) -> str:
    return table_csv(SWEEP_COLUMNS, rows)
