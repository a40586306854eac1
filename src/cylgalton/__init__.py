"""Cylindrical Galton board toolkit.

Exact wrapped binomial and wrapped normal distributions on the circle,
the cylindrical peg-lattice geometry, a seeded Monte Carlo helical
random walk, convergence diagnostics, and a CLI with figure-style SVG
output.

The public names below resolve on first use: importing the package, or
cylgalton.cli, loads no numpy until a name from a numeric module is read.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {name: module for module, names in (
    ("angular", "tv_distance wrap_angle wrap_to_pi"),
    ("diagnostics", "ComparisonReport SweepRow compare normal_limit_pmf "
                    "sweep_uniformity wb_wn_tv"),
    ("geometry", "BoardPreset LatticeSpec Peg build_lattice export_pegs "
                 "planar_board preset preset_names"),
    ("walk_sim", "WalkConfig simulate simulate_ball slot_counts unwrapped_stats"),
    ("wrapped_binomial", "TrigMoments WrappedBinomial centered_angle full_pmf "
                         "trig_moments tv_to_uniform"),
    ("wrapped_normal", "WrappedNormal bin_probs density density_fourier "
                       "density_wrapped"),
) for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
