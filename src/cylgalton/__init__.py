"""Cylindrical Galton board toolkit.

Exact wrapped binomial and wrapped normal distributions on the circle,
the cylindrical peg-lattice geometry, a seeded Monte Carlo helical
random walk, convergence diagnostics, and a CLI with figure-style SVG
output.
"""

__version__ = "0.1.0"

from .angular import tv_distance, wrap_angle, wrap_to_pi
from .diagnostics import (ComparisonReport, SweepRow, compare,
                          normal_limit_pmf, sweep_uniformity, wb_wn_tv)
from .geometry import (BoardPreset, LatticeSpec, Peg, build_lattice,
                       export_pegs, planar_board, preset, preset_names)
from .walk_sim import (WalkConfig, simulate, simulate_ball, slot_counts,
                       unwrapped_stats)
from .wrapped_binomial import (TrigMoments, WrappedBinomial, centered_angle,
                               full_pmf, trig_moments, tv_to_uniform)
from .wrapped_normal import (WrappedNormal, bin_probs, density, density_fourier,
                             density_wrapped)

__all__ = [
    "BoardPreset", "ComparisonReport", "LatticeSpec", "Peg", "SweepRow",
    "TrigMoments", "WalkConfig", "WrappedBinomial", "WrappedNormal",
    "bin_probs", "build_lattice", "centered_angle", "compare", "density",
    "density_fourier", "density_wrapped", "export_pegs", "full_pmf",
    "normal_limit_pmf", "planar_board", "preset", "preset_names", "simulate",
    "simulate_ball", "slot_counts", "sweep_uniformity", "trig_moments",
    "tv_distance", "tv_to_uniform", "unwrapped_stats", "wb_wn_tv",
    "wrap_angle", "wrap_to_pi",
]
