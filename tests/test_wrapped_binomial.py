import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from cylgalton import wrapped_binomial
from cylgalton.angular import TWO_PI, spectral_masses, wrap_angle, wrap_to_pi
from cylgalton.wrapped_binomial import (TrigMoments, WrappedBinomial,
                                        _cf_rows, _direct_slots, _spectrum,
                                        _step_polar, centered_angle, full_pmf,
                                        trig_moments, tv_to_uniform)
from oracles import (binomial_fold_exact, binomial_fold_numerators,
                     binomial_fold_pmf, binomial_rows, dp_cyclic_walk,
                     mp_fold_window, tv, tv_to_uniform_bound_ref,
                     tv_to_uniform_ref)


def cf_of(wb):
    """cf(t), t = 0..M-1, of one law: the one-row case of the batched cf."""
    return _cf_rows([wb.n], _step_polar(wb.M, wb.p))[0]


# --- pmf -----------------------------------------------------------------

def test_pmf_no_wrapping_case():
    # n < M: plain binomial value
    assert full_pmf(WrappedBinomial(8, 24, 0.5))[4] == 70 / 256


def test_pmf_single_wrap_case():
    # slot 0 collects x = 0 and x = 24
    assert full_pmf(WrappedBinomial(24, 24, 0.5))[0] == pytest.approx(
        2.0**-23, abs=1e-20)


def test_pmf_zero_trials():
    assert full_pmf(WrappedBinomial(0, 5, 0.3))[0] == 1.0


def test_full_pmf_support_count():
    probs = full_pmf(WrappedBinomial(8, 24, 0.5))
    assert sum(1 for q in probs if q > 0) == 9


def test_full_pmf_single_trial():
    assert full_pmf(WrappedBinomial(1, 2, 0.5)) == (0.5, 0.5)


def test_full_pmf_near_uniform_at_400_rows():
    # large n approaches uniform; the exact fold pins the residual spread
    probs = full_pmf(WrappedBinomial(400, 24, 0.5))
    oracle = binomial_fold_pmf(400, 24, 0.5)
    assert max(abs(a - b) for a, b in zip(probs, oracle)) < 1e-12
    spread = max(probs) - min(probs)
    assert spread == pytest.approx(0.005361363104654932, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5, 24])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_fold_oracle_agreement(m, p):
    for n in range(0, 21):
        got = full_pmf(WrappedBinomial(n, m, p))
        want = binomial_fold_pmf(n, m, p)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-13


def test_log_space_path_matches_fold_oracle():
    # walks from a power of 2, but for (65, 24, 1/2), which is narrow
    # enough to walk the exact C(65, x)
    for n, m, p in [(65, 24, 0.5), (100, 24, 0.3), (257, 7, 0.5), (1000, 24, 0.5)]:
        got = full_pmf(WrappedBinomial(n, m, p))
        want = binomial_fold_pmf(n, m, p)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), m=st.integers(1, 360),
       p=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]))
def test_normalisation_property(n, m, p):
    probs = full_pmf(WrappedBinomial(n, m, p))
    assert abs(math.fsum(probs) - 1.0) < 1e-12
    assert all(q >= 0.0 for q in probs)


@pytest.mark.parametrize("n,m,p", [(1000, 360, 0.1), (1000, 360, 0.5),
                                   (1000, 360, 0.9), (1000, 24, 0.5)])
def test_normalisation_at_the_large_corner(n, m, p):
    assert abs(math.fsum(full_pmf(WrappedBinomial(n, m, p))) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 64), m=st.integers(1, 48))
def test_reflection_symmetry_at_half(n, m):
    # for p = 1/2 the exact-term path makes k <-> (n-k) mod M an identity
    probs = full_pmf(WrappedBinomial(n, m, 0.5))
    for k in range(m):
        assert probs[k] == probs[(n - k) % m]


# --- spectral and direct routes --------------------------------------------

@pytest.mark.parametrize("n,m,p,spectral", [
    (162, 24, 0.5, False), (163, 24, 0.5, True), (200, 24, 0.5, True),
    (64, 5, 0.37, False), (65, 5, 0.37, True), (100, 5, 0.37, True)])
def test_spectral_and_direct_routes_agree(n, m, p, spectral):
    # the switch: n > 64 and sum_{t>=1} |cf(t)| <= 1/2
    wb = WrappedBinomial(n, m, p)
    assert (_spectrum(wb) is not None) == spectral
    direct = _direct_slots(wb)
    fft = tuple(spectral_masses(cf_of(wb)).tolist())
    exact = binomial_fold_pmf(n, m, p)

    def rel_err(got):
        return max(abs(a - b) / b for a, b in zip(got, exact))

    # the FFT is good to a few eps per slot; the direct walk is the exact
    # fold rounded once
    assert rel_err(fft) < 1e-14
    assert direct == tuple(exact)
    law = full_pmf(wb)
    assert law == (fft if spectral else direct)
    # on either route a law is a tuple of M Python floats
    assert type(law) is tuple and list(map(type, law)) == [float] * m


@pytest.mark.parametrize("n", [65, 72, 96, 162, 1000, 2000])
def test_direct_route_is_the_exact_fold_rounded_once(n):
    # every slot, out to 180 steps from the mode at M = 360; 2520 slots
    # fold onto 7, 24 and 360, so one exact fold serves all three
    for p in (0.02, 0.3, 0.5):
        num, den = binomial_fold_numerators(n, 2520, p)
        for m in (7, 24, 360):
            want = tuple(sum(num[k::m]) / den for k in range(m))
            assert _direct_slots(WrappedBinomial(n, m, p)) == want


def test_every_direct_slot_on_the_grid_is_the_correctly_rounded_exact_fold(monkeypatch):
    # n = 1..300 at M = 7, 24, 360; one exact row, the fold at any M > n,
    # serves all three
    walks = []
    walk = wrapped_binomial._binomial_terms
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms",
                        lambda n, p, *rest: walks.append((n, p)) or walk(n, p, *rest))
    for p in (0.5, 0.3, 0.02):
        for n, num, den in binomial_rows(p, 300):
            for m in (7, 24, 360):
                want = tuple(sum(num[k::m]) / den for k in range(m))
                assert _direct_slots(WrappedBinomial(n, m, p)) == want
    # Each law certifies on its first walk, the exact ties too: at n = 1,
    # slot 0 is 1 - 0.3 = b/d exactly, which needs 54 bits, so it lies on a
    # rounding midpoint, and the first walk's bits hold the exact terms.
    assert len(walks) == 3 * 300 * 3


def test_the_two_laws_the_floored_walk_rounded_wrong():
    # the exact folds, which a floored walk with no bracket misses: by one
    # ulp at n = 67, and at n = 1 by rounding the tie 1 - 0.3 up
    probs = full_pmf(WrappedBinomial(67, 360, 0.5))
    assert probs[22] == probs[45] == 0.0018380648467471927
    assert full_pmf(WrappedBinomial(1, 7, 0.3))[:2] == (0.7, 0.3)


def test_a_bracket_that_straddles_is_walked_again_deeper(monkeypatch):
    # at 40 bits cut 38 below the mode, the bracket of (100, 24, 0.3) cannot
    # certify every slot; the full-depth walk at 80 bits can
    walks = []
    walk = wrapped_binomial._binomial_terms
    monkeypatch.setattr(wrapped_binomial, "_precision", lambda n, m, p: (40, 38))
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms",
                        lambda *args: walks.append(args[2:]) or walk(*args))
    assert _direct_slots(WrappedBinomial(100, 24, 0.3)) == tuple(
        binomial_fold_pmf(100, 24, 0.3))
    assert walks == [(40, 38), (80, None)]


def test_a_law_no_floored_walk_certifies_is_walked_exactly(monkeypatch):
    # at 4 bits neither floored walk can bracket a slot of (100, 24, 0.3);
    # the third walk is exact, with err 0, so it certifies
    walks = []
    walk = wrapped_binomial._binomial_terms
    monkeypatch.setattr(wrapped_binomial, "_precision", lambda n, m, p: (4, 2))
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms",
                        lambda *args: walks.append(args[2:]) or walk(*args))
    assert _direct_slots(WrappedBinomial(100, 24, 0.3)) == tuple(
        binomial_fold_pmf(100, 24, 0.3))
    assert walks == [(4, 2), (8, None), (None, None)]


@pytest.mark.parametrize("p", [0.0, 1.0])
@pytest.mark.parametrize("m", [1, 2, 7, 24])
def test_a_degenerate_p_is_the_point_mass_of_the_exact_walk(monkeypatch, m, p):
    # all the mass at x = 0 or x = n: one exact walk, no precision
    walks = []
    walk = wrapped_binomial._binomial_terms
    monkeypatch.setattr(wrapped_binomial, "_precision", None)
    monkeypatch.setattr(wrapped_binomial, "_binomial_terms",
                        lambda *args: walks.append(args[2:]) or walk(*args))
    for n in (0, 1, 9, 10**6):
        want = tuple(float(k == (n if p else 0) % m) for k in range(m))
        assert _direct_slots(WrappedBinomial(n, m, p)) == want
        assert full_pmf(WrappedBinomial(n, m, p)) == want
    assert set(walks) == {(None, None)}


@pytest.mark.parametrize("m", [7, 24])
def test_a_quarter_walks_the_exact_terms(m):
    # p = 1/4, so d = 4: the first walk takes the exact terms where 2n fits
    # its bits (n <= 39 at M = 7, n <= 46 at M = 24) and floors them beyond
    for n, num, den in binomial_rows(0.25, 64):
        want = tuple(sum(num[k::m]) / den for k in range(m))
        assert _direct_slots(WrappedBinomial(n, m, 0.25)) == want
        assert full_pmf(WrappedBinomial(n, m, 0.25)) == want


@pytest.mark.parametrize("m", [1, 2, 7, 24, 60])
def test_fair_boards_match_the_rational_fold_bit_for_bit(m):
    # n <= 64 walks the exact integers C(n, x)
    for n in range(65):
        assert full_pmf(WrappedBinomial(n, m, 0.5)) == tuple(
            binomial_fold_pmf(n, m, 0.5))


def test_million_row_low_p_law_walks_only_its_window():
    # mean 10 and sigma 3.2: the direct route, with no O(n) term list
    wb = WrappedBinomial(10**6, 24, 1e-5)
    assert _spectrum(wb) is None
    tracemalloc.start()
    try:
        probs = full_pmf(wb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the terms beyond x = 400 hold less than 1e-500 of the mass
    want = mp_fold_window(10**6, 24, 1e-5, 0, 400)
    assert all(abs(mpf(g) - w) <= w * mpf(2)**-53 for g, w in zip(probs, want))


def test_small_laws_compute_no_spectrum(monkeypatch):
    # every cf is formed by _cf_polar; a slot law with n <= 64 needs none
    monkeypatch.setattr(wrapped_binomial, "_cf_polar", None)
    for n in (0, 1, 24, 64):
        assert len(full_pmf(WrappedBinomial(n, 24, 0.5))) == 24


@pytest.mark.parametrize("n,m,p,want", [
    (10**4, 24, 0.5, 3.0693855498865736e-38),
    (10**4, 24, 0.02, 7.9586318014596216e-4)])
def test_tv_to_uniform_against_mpmath(n, m, p, want):
    # abs=0: approx's default absolute tolerance would swallow 1e-38
    ref = tv_to_uniform_ref(n, m, p)
    assert ref == pytest.approx(want, rel=1e-15, abs=0)
    got = tv_to_uniform(WrappedBinomial(n, m, p))
    assert got == pytest.approx(ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("n,m,p", [(200, 2, 0.3), (300, 3, 0.3)])
def test_tv_to_uniform_below_the_oracles_old_precision(n, m, p):
    # distances of 1.3e-80 and 1.0e-65, below what a 60-digit fold resolves
    assert tv_to_uniform(WrappedBinomial(n, m, p)) == pytest.approx(
        tv_to_uniform_ref(n, m, p), rel=1e-12, abs=0)


def test_the_oracle_reads_an_exactly_uniform_law_as_zero():
    # at M = 2 and p = 1/2 every law with n >= 1 is exactly uniform
    assert tv_to_uniform_ref(300, 2, 0.5) == 0.0


def test_tv_to_uniform_underflows_to_zero_at_a_million_rows():
    # the true distance is about 2.3e-3732, far below the smallest double
    assert float(tv_to_uniform_bound_ref(10**6, 24, 0.5)) == 0.0
    assert tv_to_uniform(WrappedBinomial(10**6, 24, 0.5)) == 0.0


def test_million_row_law_memory_does_not_grow_with_n():
    wb = WrappedBinomial(10**6, 24, 0.5)
    tracemalloc.start()
    try:
        probs = full_pmf(wb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert probs == (1.0 / 24,) * 24


# --- characteristic function ---------------------------------------------

def test_cf_at_zero_frequency():
    assert cf_of(WrappedBinomial(13, 24, 0.37))[0] == 1.0 + 0.0j


def test_cf_example_modulus_and_argument():
    cf = cf_of(WrappedBinomial(8, 24, 0.5))[1]
    assert abs(cf) == pytest.approx(math.cos(math.pi / 24) ** 8, abs=1e-14)
    assert cmath.phase(cf) == pytest.approx(math.pi / 3, abs=1e-13)


def test_cf_periodic_in_frequency():
    # entry t is the closed form (1 - p + p*exp(2*pi*i*t/M))**n at t + M too
    for wb in (WrappedBinomial(24, 24, 0.5), WrappedBinomial(10, 8, 0.3)):
        cf = cf_of(wb)
        for t in range(wb.M):
            w = 1 - wb.p + wb.p * cmath.exp(2j * math.pi * (t + wb.M) / wb.M)
            assert cf[t] == pytest.approx(w**wb.n, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5, 24])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_cf_equals_dft_of_pmf(m, p):
    for n in range(0, 21):
        probs = np.asarray(full_pmf(WrappedBinomial(n, m, p)))
        cf = cf_of(WrappedBinomial(n, m, p))
        k = np.arange(m)
        for t in range(m):
            dft = complex(np.sum(probs * np.exp(2j * np.pi * t * k / m)))
            assert abs(cf[t] - dft) < 1e-10


# --- trigonometric moments ------------------------------------------------

def test_mean_direction_at_half():
    for n in (8, 16, 24, 40):
        tm = trig_moments(WrappedBinomial(n, 24, 0.5))
        assert abs(tm.mu - (math.pi * n / 24) % TWO_PI) < 1e-12


def test_resultant_matches_numerical_moment():
    wb = WrappedBinomial(8, 24, 0.5)
    tm = trig_moments(wb)
    probs = full_pmf(wb)
    a = math.fsum(q * math.cos(TWO_PI * k / 24) for k, q in enumerate(probs))
    b = math.fsum(q * math.sin(TWO_PI * k / 24) for k, q in enumerate(probs))
    assert tm.rho == pytest.approx(math.hypot(a, b), abs=1e-12)
    assert tm.rho == pytest.approx(0.9335735299034723, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 100])
def test_resultant_vanishes_for_the_fair_two_slot_board(n):
    # w = 1/2 + exp(i*pi)/2 = 0 exactly, so cf(1) = 0
    tm = trig_moments(WrappedBinomial(n, 2, 0.5))
    assert tm.rho == 0.0
    assert tm.alpha1 == 0.0 and tm.beta1 == 0.0


def test_point_mass_moments():
    tm = trig_moments(WrappedBinomial(0, 17, 0.42))
    assert tm == TrigMoments(alpha1=1.0, beta1=0.0, rho=1.0, mu=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 120), m=st.integers(1, 60),
       p=st.floats(0.0, 1.0, allow_nan=False))
def test_moment_identities(n, m, p):
    tm = trig_moments(WrappedBinomial(n, m, p))
    assert 0.0 <= tm.rho <= 1.0 + 1e-12
    assert abs(tm.rho - math.hypot(tm.alpha1, tm.beta1)) < 1e-12
    if tm.rho > 1e-12:
        assert abs((math.atan2(tm.beta1, tm.alpha1) % TWO_PI) - tm.mu) % TWO_PI \
            == pytest.approx(0.0, abs=1e-12)


# --- half-slot walk ----------------------------------------------------

@pytest.mark.parametrize("m,n,p", [(24, 8, 0.5), (24, 30, 0.5), (5, 7, 0.3),
                                   (6, 9, 0.5)])
def test_kernel_on_half_slots_reproduces_the_slot_law(m, n, p):
    # each deflection moves half a slot, so walk on 2M cells;
    # slot k (k right turns mod M) sits at cell (2k - n) mod 2M
    cells = dp_cyclic_walk(2 * m, n, p)
    slot = full_pmf(WrappedBinomial(n, m, p))
    for k in range(m):
        assert cells[(2 * k - n) % (2 * m)] == pytest.approx(slot[k], abs=1e-12)
    covered = {(2 * k - n) % (2 * m) for k in range(m)}
    for cell in set(range(2 * m)) - covered:
        assert cells[cell] == 0.0


# --- distances and support -------------------------------------------------

def test_tv_to_uniform_point_mass():
    assert tv_to_uniform(WrappedBinomial(0, 24, 0.5)) == pytest.approx(
        1.0 - 1.0 / 24, abs=1e-15)


def test_tv_to_uniform_against_fold_oracle():
    # exact values of the residual distance at the deep-wrap row counts
    for n in (24, 48, 96, 400):
        want = tv(binomial_fold_pmf(n, 24, 0.5), [1 / 24] * 24)
        assert tv_to_uniform(WrappedBinomial(n, 24, 0.5)) == pytest.approx(
            want, abs=1e-12)


def test_tv_to_uniform_decreases_down_the_module_ladder():
    vals = [tv_to_uniform(WrappedBinomial(n, 24, 0.5)) for n in (24, 48, 96)]
    assert vals[0] > vals[1] > vals[2]


def _support_size(wb):
    return sum(1 for q in full_pmf(wb) if q > 0.0)


def test_support_sizes():
    # min(M, n + 1) slots for 0 < p < 1, one slot for a degenerate walk
    assert _support_size(WrappedBinomial(8, 24, 0.5)) == 9
    assert _support_size(WrappedBinomial(23, 24, 0.5)) == 24
    assert _support_size(WrappedBinomial(100, 24, 0.5)) == 24
    assert _support_size(WrappedBinomial(0, 24, 0.5)) == 1
    assert _support_size(WrappedBinomial(9, 24, 0.0)) == 1
    assert _support_size(WrappedBinomial(9, 24, 1.0)) == 1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 40), m=st.integers(1, 30),
       p=st.sampled_from([0.3, 0.5, 0.9]))
def test_support_size_matches_exact_positivity(n, m, p):
    exact = binomial_fold_exact(n, m, p)
    assert _support_size(WrappedBinomial(n, m, p)) == sum(1 for s in exact if s > 0)


def test_centered_angles_of_the_one_module_board():
    wb = WrappedBinomial(8, 24, 0.5)
    angles = [centered_angle(wb, k) for k in range(9)]
    assert angles[0] == pytest.approx(-math.pi / 3)   # -60 degrees
    assert angles[8] == pytest.approx(math.pi / 3)    # +60 degrees
    assert angles[4] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("k", [24, -1])
def test_centered_angle_takes_only_a_slot_of_the_board(k):
    with pytest.raises(ValueError, match=rf"^slot {k} out of range \[0, 24\)$"):
        centered_angle(WrappedBinomial(8, 24, 0.5), k)


def test_angles_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"angle must be finite, got {bad!r}"):
            wrap_angle(bad)
        with pytest.raises(ValueError, match=f"angle must be finite, got {bad!r}"):
            wrap_to_pi(bad)


@pytest.mark.parametrize("zero", [-0.0, 0.0, -TWO_PI, -2 * TWO_PI, TWO_PI])
def test_a_zero_angle_wraps_to_plus_zero(zero):
    # fmod keeps the sign of -0.0 and of an exact negative multiple of 2*pi
    for wrap in (wrap_angle, wrap_to_pi):
        out = wrap(zero)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0, (wrap.__name__, out)


@pytest.mark.parametrize("bad", [np.float32(0.3), "0.5", True, None, 1j])
def test_p_must_be_an_int_or_a_float(bad):
    # np.float32 would run the spectral route in float32, off by ~1e-10
    with pytest.raises(ValueError, match=f"p must be a number, got {re.escape(repr(bad))}"):
        WrappedBinomial(1000, 24, bad)


def test_p_may_be_a_float_subclass_or_an_int():
    assert full_pmf(WrappedBinomial(1000, 24, np.float64(0.3))) == full_pmf(
        WrappedBinomial(1000, 24, 0.3))
    assert full_pmf(WrappedBinomial(8, 24, 1)) == full_pmf(WrappedBinomial(8, 24, 1.0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WrappedBinomial(-1, 24, 0.5)
    with pytest.raises(ValueError):
        WrappedBinomial(8, 0, 0.5)
    with pytest.raises(ValueError):
        WrappedBinomial(8, 24, 1.5)
