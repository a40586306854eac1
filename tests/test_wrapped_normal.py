import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from cylgalton.angular import TWO_PI
from cylgalton.diagnostics import normal_limit_pmf
from cylgalton.wrapped_binomial import WrappedBinomial
from cylgalton.wrapped_normal import (WrappedNormal, _cdf_bins, _fourier_bins,
                                      _takes_fourier, bin_probs, density,
                                      density_fourier, density_wrapped,
                                      slot_coefficients)
from oracles import wn_density_ref, wn_interval_prob_ref


def test_density_standard_case_against_reference():
    wn = WrappedNormal(0.0, 1.0)
    want = wn_density_ref(0.0, 1.0, 0.0)
    assert density(wn, 0.0) == pytest.approx(want, abs=1e-14)
    # dominated by the unwrapped kernel plus the first two translates
    base = 1.0 / math.sqrt(TWO_PI)
    assert want == pytest.approx(base + 2 * base * math.exp(-2 * math.pi**2),
                                 abs=1e-12)


def test_density_flattens_to_uniform():
    wn = WrappedNormal(0.3, 100.0)
    grid = np.linspace(0.0, TWO_PI, 257)
    vals = density(wn, grid)
    assert np.max(np.abs(vals - 1.0 / TWO_PI)) < 1e-10


def test_density_peaks_at_the_mean():
    wn = WrappedNormal(math.pi, 0.25)
    grid = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    assert density(wn, math.pi) >= np.max(density(wn, grid))


def test_rejects_nonpositive_variance():
    for sigma2 in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma2"):
            WrappedNormal(0.0, sigma2)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_rejects_non_finite_mean(mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        WrappedNormal(mu, 1.0)


@pytest.mark.parametrize("bad", [np.float32(0.5), "0.5", True, None])
def test_mu_and_sigma2_must_be_ints_or_floats(bad):
    # np.float32 would take density_wrapped's normaliser in float32
    with pytest.raises(ValueError, match=f"mu must be a number, got {re.escape(repr(bad))}"):
        WrappedNormal(bad, 1.0)
    with pytest.raises(ValueError, match=f"sigma2 must be a number, got {re.escape(repr(bad))}"):
        WrappedNormal(0.5, bad)


def test_mu_and_sigma2_may_be_float_subclasses_or_ints():
    grid = np.linspace(0.0, TWO_PI, 7)
    assert density(WrappedNormal(np.float64(0.5), np.float64(0.3)), grid).tolist() == \
        density(WrappedNormal(0.5, 0.3), grid).tolist()
    assert density(WrappedNormal(1, 2), grid).tolist() == \
        density(WrappedNormal(1.0, 2.0), grid).tolist()


@pytest.mark.parametrize("sigma2", [0.01, 1.0, 3.99, 4.0, 4.01, 25.0])
def test_array_density_equals_scalar_calls(sigma2):
    wn = WrappedNormal(2.5, sigma2)
    grid = [TWO_PI * i / 720 for i in range(720)]
    assert density(wn, np.array(grid)).tolist() == [density(wn, t) for t in grid]


@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.7, 2.4, 3.0])
def test_representations_agree(sigma):
    wn = WrappedNormal(1.1, sigma**2)
    grid = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    a = density_wrapped(wn, grid)
    b = density_fourier(wn, grid)
    assert np.max(np.abs(a - b)) < 1e-10


def test_fourier_two_term_truncation():
    # at sigma = 3 only the first two harmonics survive the 1e-16 floor
    wn = WrappedNormal(0.7, 9.0)
    for theta in (0.0, 1.0, 2.5, 4.0):
        manual = (1.0
                  + 2.0 * math.exp(-4.5) * math.cos(theta - 0.7)
                  + 2.0 * math.exp(-18.0) * math.cos(2 * (theta - 0.7))) / TWO_PI
        assert density_fourier(wn, theta) == pytest.approx(manual, abs=1e-12)


def test_fourier_mirror_symmetry():
    wn = WrappedNormal(2.0, 0.8)
    for theta in (0.1, 1.3, 2.9, 5.5):
        assert density_fourier(wn, theta) == pytest.approx(
            density_fourier(wn, 2 * wn.mu - theta), abs=1e-14)


def test_fourier_series_memory_does_not_grow_with_its_terms():
    # 8,580 terms at sigma^2 = 1e-6: a (points x terms) array took 94 MiB
    wn = WrappedNormal(1.0, 1e-6)
    grid = np.array([TWO_PI * i / 720 for i in range(720)])
    tracemalloc.start()
    try:
        vals = density_fourier(wn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert np.max(np.abs(vals - density_wrapped(wn, grid))) < 1e-10


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_density_integrates_to_one(sigma):
    wn = WrappedNormal(0.9, sigma**2)
    grid = np.linspace(0.0, TWO_PI, 4097)
    total = simpson(density(wn, grid), x=grid)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.0])
def test_unimodal_decay_away_from_the_mean(sigma):
    wn = WrappedNormal(2.2, sigma**2)
    offsets = np.linspace(0.0, math.pi, 5001)
    right = density(wn, wn.mu + offsets)
    left = density(wn, wn.mu - offsets)
    assert np.all(np.diff(right) <= 1e-15)
    assert np.all(np.diff(left) <= 1e-15)


@pytest.mark.parametrize("m", [1, 2, 24, 360])
@pytest.mark.parametrize("sigma", [0.3, 1.0, 6.0])
def test_bin_probs_normalised(m, sigma):
    probs = bin_probs(WrappedNormal(0.4, sigma**2), m)
    assert abs(math.fsum(probs) - 1.0) < 1e-12
    assert all(q >= 0.0 for q in probs)


def test_bin_probs_whole_circle():
    assert bin_probs(WrappedNormal(1.0, 2.0), 1) == pytest.approx((1.0,))


def test_bin_probs_concentrated_in_one_slot():
    # the slot half-width is 2.62 sigma at sigma=0.05 and 4.36 at 0.03
    m = 24
    j = 7
    center = (j + 0.5) * TWO_PI / m
    probs = bin_probs(WrappedNormal(center, 0.05**2), m)
    assert probs[j] == pytest.approx(0.9911551608063799, abs=1e-12)
    tight = bin_probs(WrappedNormal(center, 0.03**2), m)
    assert tight[j] > 0.9999


def test_bin_probs_against_quadrature():
    wn = WrappedNormal(0.7, 1.0)
    probs = bin_probs(wn, 24)
    for k in range(24):
        lo, hi = TWO_PI * k / 24, TWO_PI * (k + 1) / 24
        want, err = quad(lambda th: density(wn, th), lo, hi,
                         epsabs=1e-12, limit=200)
        assert abs(probs[k] - want) < 1e-9
        assert err < 1e-10


def test_bin_probs_against_reference_cdf():
    wn = WrappedNormal(2.9, 0.6)
    probs = bin_probs(wn, 24)
    for k in (0, 5, 11, 12, 23):
        lo, hi = TWO_PI * k / 24, TWO_PI * (k + 1) / 24
        assert probs[k] == pytest.approx(
            wn_interval_prob_ref(2.9, 0.6, lo, hi), abs=1e-13)


# The reference takes its slot edges as floats, each within half an ulp
# (4.4e-16) of 2*pi*k/M; that moves a mass by up to twice this times the
# density, which is at most 0.4/sigma.

def _mass_tol(sigma2):
    return 1e-15 + 4e-16 / math.sqrt(sigma2)


def _check_slots(wn, M, probs):
    """Compare the slot of the mean, its two neighbours and the far side."""
    j = min(int(wn.mu * M / TWO_PI), M - 1)
    for k in {j, (j - 1) % M, (j + 1) % M, (j + M // 2) % M}:
        want = wn_interval_prob_ref(wn.mu, wn.sigma2, TWO_PI * k / M, TWO_PI * (k + 1) / M)
        assert probs[k] == pytest.approx(want, abs=_mass_tol(wn.sigma2)), (k, M)


@pytest.mark.parametrize("sigma2", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("mu", [1e-9, TWO_PI - 1e-9], ids=["mu~0", "mu~2pi"])
def test_bin_probs_against_reference_over_the_domain(sigma2, mu):
    wn = WrappedNormal(mu, sigma2)
    for M in (1, 5, 24, 360, 3600):
        _check_slots(wn, M, bin_probs(wn, M))


def _switch_sigma(M):
    """The sigma where bin_probs turns from the CDF to the Fourier route."""
    lo, hi = 1e-4, 1e4
    assert not _takes_fourier(lo, M) and _takes_fourier(hi, M)
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if _takes_fourier(mid, M) else (mid, hi)
    return hi


@pytest.mark.parametrize("M", [1, 5, 24, 360, 3600])
def test_both_routes_on_each_side_of_the_switch(M):
    switch = _switch_sigma(M)
    for sigma, fourier in ((switch / 1.01, False), (switch * 1.01, True)):
        assert _takes_fourier(sigma, M) == fourier
        wn = WrappedNormal(0.3 + TWO_PI / 3, sigma**2)
        cdf, fft = _cdf_bins(wn, M), _fourier_bins(wn, M)
        assert np.max(np.abs(cdf - fft)) < _mass_tol(sigma**2)
        _check_slots(wn, M, cdf)
        _check_slots(wn, M, fft)
        taken = np.maximum(fft if fourier else cdf, 0.0)
        law = bin_probs(wn, M)
        assert law == tuple(taken.tolist())
        # on either route a law is a tuple of M Python floats
        assert type(law) is tuple and list(map(type, law)) == [float] * M


@pytest.mark.parametrize("sigma2,M", [(1e-12, 24), (1e-12, 3600), (1e10, 24), (1e12, 3600)])
def test_bin_probs_cost_is_bounded_in_sigma(sigma2, M):
    # the old translate sum took 0.33 s at sigma^2 = 1e10 and M = 24
    wn = WrappedNormal(TWO_PI * 7.5 / M, sigma2)
    tracemalloc.start()
    probs = bin_probs(wn, M)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**20
    if sigma2 < 1.0:
        assert probs[7] == 1.0 and sum(probs) == 1.0
    else:
        assert probs == pytest.approx([1.0 / M] * M, abs=1e-17)


@pytest.mark.parametrize("mu,M", [(1.0, 1), (1.0, 2), (0.0, 7), (3.3, 7),
                                  (TWO_PI - 1e-12, 24)])
def test_slot_coefficients_are_the_dft_of_the_bin_masses(mu, M):
    wn = WrappedNormal(mu, 0.8)
    masses = np.array([wn_interval_prob_ref(mu, 0.8, TWO_PI * k / M, TWO_PI * (k + 1) / M)
                       for k in range(M)])
    roots = np.exp(2j * np.pi * (np.outer(np.arange(M), np.arange(M)) % M) / M)
    coef, = slot_coefficients([wn], M)
    assert np.max(np.abs(coef - roots @ masses)) < 1e-15
    assert coef[0] == 1.0


@pytest.mark.parametrize("sigma", [8.0, 10.0])
def test_uniform_limit_of_the_density(sigma):
    wn = WrappedNormal(1.8, sigma**2)
    grid = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
    assert np.max(np.abs(density(wn, grid) - 1.0 / TWO_PI)) < 1e-8


# The normal limit of WrappedBinomial(n, M, p) is the unwrapped angle's
# Normal(n(2p - 1)*dtheta/2, n*p*(1 - p)*dtheta^2), its mean moved by
# (n + 1)*dtheta/2 into the slot frame, binned over the M slots.

def test_limit_params_symmetric_walk():
    dtheta = TWO_PI / 24
    mu, sigma2 = 0.0 + 25 * dtheta / 2.0, 24 * 0.5 * 0.5 * dtheta**2
    law = normal_limit_pmf(WrappedBinomial(24, 24, 0.5))
    assert law == bin_probs(WrappedNormal(mu, sigma2), 24)
    assert type(law) is tuple and list(map(type, law)) == [float] * 24
    assert mu == pytest.approx(25 * math.pi / 24, rel=1e-14)
    assert sigma2 == pytest.approx(6 * (math.pi / 12) ** 2, rel=1e-14)
    assert sigma2 == pytest.approx(0.41123351671205655, abs=1e-15)


def test_limit_params_biased_walk():
    dtheta = TWO_PI / 24
    drift = 8 * (2.0 * 0.75 - 1.0) * dtheta / 2.0
    assert drift == pytest.approx(math.pi / 6, rel=1e-14)
    assert (normal_limit_pmf(WrappedBinomial(8, 24, 0.75))
            == bin_probs(WrappedNormal(drift + 9 * dtheta / 2.0,
                                       8 * 0.75 * 0.25 * dtheta**2), 24))
    dtheta = TWO_PI / 360           # no drift: only the slot-frame shift
    assert (normal_limit_pmf(WrappedBinomial(100, 360, 0.5))
            == bin_probs(WrappedNormal(101 * dtheta / 2.0, 25 * dtheta**2), 360))


def test_limit_params_rejects_degenerate_bias():
    with pytest.raises(ValueError, match=r"^the normal limit needs 0 < p < 1, got p=0.0: "
                                         r"the limit is degenerate \(zero variance\)$"):
        normal_limit_pmf(WrappedBinomial(8, 24, 0.0))
    with pytest.raises(ValueError, match=r"^the normal limit needs 0 < p < 1, got p=1.0: "
                                         r"the limit is degenerate \(zero variance\)$"):
        normal_limit_pmf(WrappedBinomial(8, 24, 1.0))
    with pytest.raises(ValueError, match="^the normal limit needs n >= 1, got n=0: "
                                         "a board with no rows has a degenerate limit$"):
        normal_limit_pmf(WrappedBinomial(0, 24, 0.5))


def test_wrapped_normal_reduces_the_mean():
    assert WrappedNormal(1.0, 0.5).mu == 1.0
    assert WrappedNormal(-0.5, 0.5).mu == pytest.approx(TWO_PI - 0.5)
    dtheta = TWO_PI / 4
    mu = 100 * (2.0 * 0.9 - 1.0) * dtheta / 2.0 + 101 * dtheta / 2.0
    sigma2 = 100 * 0.9 * (1.0 - 0.9) * dtheta**2
    wn = WrappedNormal(mu, sigma2)
    assert mu > 10 * TWO_PI         # far beyond 2*pi
    assert 0.0 <= wn.mu < TWO_PI
    assert wn.sigma2 == sigma2
    assert normal_limit_pmf(WrappedBinomial(100, 4, 0.9)) == bin_probs(wn, 4)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(-10.0, 10.0), sigma=st.floats(0.1, 4.0),
       theta=st.floats(0.0, TWO_PI))
def test_density_positive_and_symmetric(mu, sigma, theta):
    wn = WrappedNormal(mu, sigma**2)
    f = density(wn, theta)
    assert f > 0.0
    mirrored = density(wn, 2 * wn.mu - theta)
    assert f == pytest.approx(mirrored, rel=1e-9, abs=1e-12)
