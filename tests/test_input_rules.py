"""The package's input rules (angular): every integer parameter follows
the number rule, its least value included, every count the count rule,
and every law compare takes the law rule, each with one message."""

import math
import re

import numpy as np
import pytest

from cylgalton.cli import build_parser, cmd_wn
from cylgalton.diagnostics import chi2_tail, compare
from cylgalton.geometry import LatticeError, LatticeSpec
from cylgalton.walk_sim import (WalkConfig, histogram_to_csv, simulate,
                                simulate_ball, slot_counts, unwrapped_stats)
from cylgalton.wrapped_binomial import WrappedBinomial, centered_angle
from cylgalton.wrapped_normal import WrappedNormal, bin_probs

_CONFIG = WalkConfig(n=8, M=24, p=0.5, balls=10, seed=1)


def _lattice(M=24, n=8):
    return LatticeSpec.from_angular(R=5.7, M=M, n=n, h=1.02, r_peg=0.1, r_ball=0.3)


# (where, parameter name, error type, call with the bad value, bad values)
_INTEGER_PARAMETERS = [
    ("WrappedBinomial", "n", ValueError, lambda b: WrappedBinomial(b, 24, 0.5),
     [True, False, 2.5, 24.0, "24", np.int64(24)]),
    ("WrappedBinomial", "M", ValueError, lambda b: WrappedBinomial(100, b, 0.5),
     [True, False, 2.5, 24.0, "24", np.int64(24)]),
    ("LatticeSpec", "M", LatticeError, lambda b: _lattice(M=b), [24.5, True]),
    ("LatticeSpec-30-rows", "M", LatticeError, lambda b: _lattice(M=b, n=30), [24.0]),
    ("LatticeSpec", "n", LatticeError, lambda b: _lattice(n=b), [8.0, False]),
    ("WalkConfig", "balls", ValueError, lambda b: WalkConfig(8, 24, 0.5, b), [10.0, True]),
    ("WalkConfig", "seed", ValueError, lambda b: WalkConfig(8, 24, 0.5, 10, b),
     [1.0, True, np.uint64(1)]),
    ("slot_counts", "M", ValueError, lambda b: slot_counts((1, 2, 3), b),
     [True, 2.0, np.int64(2)]),
    ("unwrapped_stats", "m_slots", ValueError, lambda b: unwrapped_stats((1, 2, 3), b),
     [2.5, True, np.int64(24)]),
    ("centered_angle", "k", ValueError,
     lambda b: centered_angle(WrappedBinomial(8, 24, 0.5), b), [1.5, True, np.int64(1)]),
    ("simulate_ball", "ball_index", ValueError, lambda b: simulate_ball(_CONFIG, b),
     [1.0, True]),
    ("simulate", "chunk", ValueError, lambda b: simulate(_CONFIG, chunk=b), [2.5, True]),
    ("bin_probs", "M", ValueError, lambda b: bin_probs(WrappedNormal(0.5, 0.3), b),
     [24.0, True, np.int64(24)]),
    ("chi2_tail", "dof", ValueError, lambda b: chi2_tail(3.0, b), [True, 2.5]),
]


@pytest.mark.parametrize("error, call, name, bad", [
    pytest.param(error, call, name, bad, id=f"{where}.{name}-{bad!r}")
    for where, name, error, call, bads in _INTEGER_PARAMETERS for bad in bads])
def test_integer_parameters_follow_the_number_rule(error, call, name, bad):
    message = f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(error, match=message):
        call(bad)


def _wn_samples(samples):
    return cmd_wn(build_parser().parse_args(
        ["wn", "--mu", "0", "--sigma", "1", "--samples", str(samples), "--out", "x.csv"]))


# (where, parameter name, least value, error type, call with the bad value, bad values)
_LEAST_VALUES = [
    ("WrappedBinomial", "n", 0, ValueError, lambda b: WrappedBinomial(b, 24, 0.5), [-1]),
    ("WrappedBinomial", "M", 1, ValueError, lambda b: WrappedBinomial(100, b, 0.5), [0, -3]),
    ("LatticeSpec", "M", 1, LatticeError, lambda b: _lattice(M=b), [0]),
    ("LatticeSpec", "n", 1, LatticeError, lambda b: _lattice(n=b), [0]),
    ("LatticeSpec-flat", "n", 0, LatticeError,
     lambda b: LatticeSpec.planar(n=b, d=1.0, h=0.8, r_peg=0.1, r_ball=0.35), [-1]),
    ("WalkConfig", "balls", 1, ValueError, lambda b: WalkConfig(8, 24, 0.5, b), [0]),
    ("simulate", "chunk", 1, ValueError, lambda b: simulate(_CONFIG, chunk=b), [0]),
    ("slot_counts", "M", 1, ValueError, lambda b: slot_counts((1, 2, 3), b), [0]),
    ("unwrapped_stats", "m_slots", 1, ValueError, lambda b: unwrapped_stats((1, 2, 3), b),
     [0, -1]),
    ("bin_probs", "M", 1, ValueError, lambda b: bin_probs(WrappedNormal(0.5, 0.3), b), [0]),
    ("chi2_tail", "dof", 1, ValueError, lambda b: chi2_tail(3.0, b), [0]),
    ("wn", "samples", 1, ValueError, _wn_samples, [0]),
]


@pytest.mark.parametrize("error, call, name, least, bad", [
    pytest.param(error, call, name, least, bad, id=f"{where}.{name}-{bad!r}")
    for where, name, least, error, call, bads in _LEAST_VALUES for bad in bads])
def test_parameters_hold_their_least_value(error, call, name, least, bad):
    with pytest.raises(error, match=f"^{re.escape(name)} must be >= {least}, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("qs, message", [
    ((0.5, math.nan), "slot 1 has probability nan, not a number"),
    ((0.7, 0.7), "slot probabilities sum to 1.4, not 1"),
    ((math.inf, 0.0), "slot probabilities sum to inf, not 1"),
    ((1e308, 1e308), "slot probabilities sum to inf, not 1"),
], ids=["nan", "sum", "inf", "overflow"])
def test_compare_takes_only_a_law(qs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        compare((1, 2), qs)


@pytest.mark.parametrize("counts, bad", [
    ((math.nan, 2, 3, 4), "nan"), ((1, 2.0, 3, 4), "2.0"), ((1, 2, True, 4), "True"),
], ids=["nan", "float", "bool"])
def test_compare_takes_only_integer_counts(counts, bad):
    with pytest.raises(ValueError, match=f"^counts must be integers, got {bad}$"):
        compare(counts, (0.25,) * 4)


@pytest.mark.parametrize("call", [histogram_to_csv, lambda c: slot_counts(c, 2)],
                         ids=["histogram_to_csv", "slot_counts"])
def test_a_bool_count_is_not_an_integer(call):
    for counts in ((3, True), (np.int64(3), False)):
        with pytest.raises(ValueError, match=f"^counts must be integers, got {counts[1]}$"):
            call(counts)


def test_unwrapped_stats_rejects_a_negative_count():
    with pytest.raises(ValueError, match="^counts must be >= 0, got -1$"):
        unwrapped_stats((5, -1, 2), 24)
