"""Cylindrical Galton board toolkit.

Exact wrapped binomial and wrapped normal distributions on the circle,
the cylindrical peg-lattice geometry, a seeded Monte Carlo helical
random walk, convergence diagnostics, and a CLI with figure-style SVG
output.
"""

__version__ = "0.1.0"

from .angular import AngularPMF, wrap_angle, wrap_to_pi
from .diagnostics import (ComparisonReport, DriftReport, SweepResult, compare,
                          drift_check, normal_limit_pmf, sweep_uniformity,
                          tv_distance, wb_wn_tv)
from .geometry import (BoardPreset, LatticeSpec, Peg, build_lattice,
                       export_pegs, planar_board, preset, preset_names)
from .walk_sim import (BallTrace, BinHistogram, WalkConfig, simulate,
                       simulate_ball, unwrapped_stats)
from .wrapped_binomial import (TrigMoments, WrappedBinomial, centered_angle,
                               characteristic_function, full_pmf, kernel_step,
                               pmf, support_size, trig_moments, tv_to_uniform)
from .wrapped_normal import (LimitParams, WrappedNormal, bin_probs, density,
                             density_fourier, density_wrapped, limit_params,
                             mode)

__all__ = [
    "AngularPMF", "BallTrace", "BinHistogram", "BoardPreset",
    "ComparisonReport", "DriftReport", "LatticeSpec", "LimitParams", "Peg",
    "SweepResult", "TrigMoments", "WalkConfig", "WrappedBinomial",
    "WrappedNormal", "bin_probs", "build_lattice", "centered_angle",
    "characteristic_function", "compare", "density", "density_fourier",
    "density_wrapped", "drift_check", "export_pegs", "full_pmf",
    "kernel_step", "limit_params", "mode", "normal_limit_pmf",
    "planar_board", "pmf", "preset", "preset_names", "simulate",
    "simulate_ball", "support_size", "sweep_uniformity", "trig_moments",
    "tv_distance", "tv_to_uniform", "unwrapped_stats", "wb_wn_tv",
    "wrap_angle", "wrap_to_pi",
]
