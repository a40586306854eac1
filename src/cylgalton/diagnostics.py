"""Distribution comparison and convergence instrumentation.

Distances and goodness-of-fit between empirical histograms and exact
slot laws, plus the theoretical sweep that tracks how the slot law
approaches the uniform and wrapped-normal limits as rows are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaincc

from .angular import TWO_PI, AngularPMF, table_csv, tv_distance
from .walk_sim import BinHistogram
from .wrapped_binomial import WrappedBinomial, full_pmf, tv_to_uniform
from .wrapped_normal import WrappedNormal, bin_probs

# Minimum expected count per retained chi-square cell.
MIN_EXPECTED = 5.0

SWEEP_COLUMNS = {"n": int, "tv_uniform": float, "tv_wn": float}


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


def compare(empirical: BinHistogram, theoretical: AngularPMF) -> ComparisonReport:
    """TV, smoothed KL, and pooled chi-square of counts against a slot law.

    KL is the sample-vs-model divergence sum(e * log(e / q)) over cells
    with q > 0, with empty empirical cells replaced by eps = 1/(10N) so
    the sum stays finite.  Chi-square cells are pooled cyclically until
    each expects >= 5, and the p-value is the regularised upper incomplete
    gamma at dof/2.  A count observed where q = 0 makes kl and chi2 inf
    and the p-value 0.
    """
    if empirical.M != theoretical.M:
        raise ValueError(
            f"dimension mismatch: histogram has {empirical.M} bins, "
            f"PMF has {theoretical.M}")
    total, counts, qs = empirical.total, empirical.counts, theoretical.probs
    tv = tv_distance(empirical.frequencies(), qs)

    impossible = any(c and q <= 0.0 for c, q in zip(counts, qs))
    eps = 1.0 / (10.0 * total)
    smoothed = [(c / total if c else eps, q) for c, q in zip(counts, qs) if q > 0.0]
    kl = math.inf if impossible else math.fsum(e * math.log(e / q) for e, q in smoothed)

    groups = _pool_cyclic(counts, [total * q for q in qs])
    chi2 = math.inf if impossible else math.fsum((o - e) ** 2 / e for o, e in groups)
    dof = max(1, len(groups) - 1)
    p_value = float(gammaincc(dof / 2.0, chi2 / 2.0))
    return ComparisonReport(tv=tv, kl=kl, chi2=chi2, dof=dof, p_value=p_value)


def normal_limit_pmf(wb: WrappedBinomial) -> AngularPMF:
    """The normal limit of wb's slot law, binned in the slot-index frame.

    The unwrapped angle has mean n(2p - 1)*dtheta/2 and variance
    n*p*(1 - p)*dtheta^2, degenerate unless n >= 1 and 0 < p < 1.  Slot
    k's landing atom sits at centered angle (2k - n)*dtheta/2, so the
    limit is integrated over atom-centered intervals: bin_probs of the
    limit shifted by (n + 1)*dtheta/2 (+n*dtheta/2 moves the centered
    frame onto slot indices, +dtheta/2 centers the bins on the atoms).
    """
    n, M, p = wb.n, wb.M, wb.p
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(
            f"p={p!r} gives a degenerate (zero-variance) limit; need 0 < p < 1")
    dtheta = TWO_PI / M
    mu = n * (2.0 * p - 1.0) * dtheta / 2.0 + (n + 1) * dtheta / 2.0
    return bin_probs(WrappedNormal(mu, n * p * (1.0 - p) * dtheta**2), M)


def wb_wn_tv(wb: WrappedBinomial) -> float:
    """TV between the exact slot law and its discretised normal limit."""
    return tv_distance(full_pmf(wb).probs, normal_limit_pmf(wb).probs)


@dataclass(frozen=True)
class SweepRow:
    n: int
    tv_uniform: float
    tv_wn: float


@dataclass(frozen=True)
class SweepResult:
    """Theoretical convergence ladder at fixed M and p, rows sorted by n."""

    M: int
    p: float
    rows: tuple[SweepRow, ...]


def sweep_uniformity(M: int, p: float, n_list) -> SweepResult:
    """Distances to the uniform and normal limits for each row count."""
    ns = sorted(set(int(n) for n in n_list))
    if not ns:
        raise ValueError("n_list must be nonempty")
    if ns[0] < 1:
        raise ValueError(f"tv_wn needs every n >= 1, where the normal limit "
                         f"is not degenerate; got n={ns[0]}")
    laws = (WrappedBinomial(n, M, p) for n in ns)
    rows = tuple(SweepRow(n=wb.n, tv_uniform=tv_to_uniform(wb), tv_wn=wb_wn_tv(wb))
                 for wb in laws)
    return SweepResult(M=M, p=p, rows=rows)


def sweep_to_csv(result: SweepResult) -> str:
    return table_csv(SWEEP_COLUMNS, [(r.n, r.tv_uniform, r.tv_wn) for r in result.rows])
