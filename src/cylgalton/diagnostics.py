"""Distribution comparison and convergence instrumentation.

Distances and goodness-of-fit between empirical histograms and exact
slot laws, plus the theoretical sweep that tracks how the slot law
approaches the uniform and wrapped-normal limits as rows are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaincc

from .angular import TWO_PI, AngularPMF
from .walk_sim import BinHistogram, WalkConfig, unwrapped_stats
from .wrapped_binomial import WrappedBinomial, full_pmf, tv_to_uniform
from .wrapped_normal import WrappedNormal, bin_probs, limit_params

# Minimum expected count per retained chi-square cell.
MIN_EXPECTED = 5.0


def tv_distance(a, b) -> float:
    """Total variation: half the L1 distance between probability vectors."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


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
    the sum stays finite; a count observed where q = 0 yields inf.
    Chi-square cells are pooled cyclically until each expects >= 5, and
    the p-value is the regularised upper incomplete gamma at dof/2.
    """
    if empirical.M != theoretical.M:
        raise ValueError(
            f"dimension mismatch: histogram has {empirical.M} bins, "
            f"PMF has {theoretical.M}")
    total = empirical.total
    freqs = empirical.frequencies()
    qs = theoretical.probs

    tv = tv_distance(freqs, qs)

    eps = 1.0 / (10.0 * total)
    kl_terms = []
    impossible = False
    for c, q in zip(empirical.counts, qs):
        if q <= 0.0:
            if c:
                impossible = True
            continue
        e = c / total if c else eps
        kl_terms.append(e * math.log(e / q))
    kl = math.inf if impossible else math.fsum(kl_terms)

    expected = [total * q for q in qs]
    groups = _pool_cyclic(empirical.counts, expected)
    chi2 = math.fsum((o - e) ** 2 / e for o, e in groups if e > 0.0)
    dof = max(1, len(groups) - 1)
    p_value = float(gammaincc(dof / 2.0, chi2 / 2.0))
    return ComparisonReport(tv=tv, kl=kl, chi2=chi2, dof=dof, p_value=p_value)


def normal_limit_pmf(n: int, M: int, p: float) -> AngularPMF:
    """The normal limit of the slot law, binned in the slot-index frame.

    Slot k's landing atom sits at centered angle (2k - n)*dtheta/2, so
    the normal limit is integrated over atom-centered intervals.  In the
    slot-index frame that is bin_probs of the limit shifted by
    (n + 1)*dtheta/2: +n*dtheta/2 moves the centered frame onto slot
    indices and +dtheta/2 turns edge-aligned bins into centered ones.
    """
    lp = limit_params(n, M, p)
    dtheta = TWO_PI / M
    return bin_probs(WrappedNormal(lp.mu + (n + 1) * dtheta / 2.0, lp.sigma2), M)


def wb_wn_tv(n: int, M: int, p: float) -> float:
    """TV between the exact slot law and its discretised normal limit."""
    wb = full_pmf(WrappedBinomial(n, M, p))
    return tv_distance(wb.probs, normal_limit_pmf(n, M, p).probs)


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
    rows = tuple(
        SweepRow(n=n,
                 tv_uniform=tv_to_uniform(WrappedBinomial(n, M, p)),
                 tv_wn=wb_wn_tv(n, M, p))
        for n in ns)
    return SweepResult(M=M, p=p, rows=rows)


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["n,tv_uniform,tv_wn"]
    lines.extend(f"{r.n},{r.tv_uniform!r},{r.tv_wn!r}" for r in result.rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DriftReport:
    """Sample vs predicted moments of the unwrapped displacement."""

    mean: float
    expected_mean: float
    z_mean: float
    variance: float
    expected_variance: float
    z_var: float
    balls: int


def drift_check(config: WalkConfig, rights) -> DriftReport:
    """z-scores of the sample drift and spread against the walk's moments.

    rights is the run's rightward-count histogram (SimulationResult.rights).
    The displacement per ball is S_n * dtheta / 2 with mean
    n(2p-1)*dtheta/2 and variance n*p*(1-p)*dtheta^2; the variance
    z-score uses the exact fourth central moment of the binomial step
    sum, not a normal approximation.
    """
    if config.planar:
        raise ValueError("drift_check needs a wrapped config (M set)")
    if len(rights) != config.n + 1:
        raise ValueError(f"expected {config.n + 1} rightward counts, got {len(rights)}")
    n, p, m_slots = config.n, config.p, config.M
    balls = sum(int(c) for c in rights)
    dtheta = TWO_PI / m_slots
    mean, var = unwrapped_stats(rights, m_slots)

    exp_mean = n * (2.0 * p - 1.0) * dtheta / 2.0
    exp_var = n * p * (1.0 - p) * dtheta**2
    # central moments of theta = (2X - n) * dtheta/2, X ~ Binomial(n, p)
    pq = p * (1.0 - p)
    mu4 = dtheta**4 * n * pq * (1.0 + 3.0 * (n - 2) * pq)
    se_mean = math.sqrt(exp_var / balls)
    se_var = math.sqrt(max(mu4 - exp_var**2, 0.0) / balls)

    z_mean = (mean - exp_mean) / se_mean if se_mean > 0.0 else 0.0
    z_var = (var - exp_var) / se_var if se_var > 0.0 else 0.0
    return DriftReport(mean=mean, expected_mean=exp_mean, z_mean=z_mean,
                       variance=var, expected_variance=exp_var, z_var=z_var,
                       balls=balls)
