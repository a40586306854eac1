"""Cylindrical peg lattice construction, board presets, and peg export.

All lengths are centimeters.  A board is described by a LatticeSpec and
realised by build_lattice() as a list of pegs carrying lattice indices,
the angular/vertical coordinates, and the Cartesian position on the
cylinder surface.  Presets cover the physical modular board (24 slots,
8 rows per module) and a flat reference board with no wrapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .angular import TWO_PI, table_csv, table_json, wrap_angle

REL_TOL = 1e-12

# Clearance may be violated by up to this factor before it is a hard
# error; rounded catalogue dimensions land slightly inside the margin.
CLEARANCE_SLACK = 1.05

PEG_COLUMNS = {"row": int, "col": int, "theta": float, "z": float, "x": float,
               "y": float}

LENGTH_UNIT = "cm"


class LatticeError(ValueError):
    """A LatticeSpec violates one of its invariants."""


class ClearanceWarning(UserWarning):
    """Ball diameter only marginally exceeds the gap between pegs."""


@dataclass(frozen=True)
class LatticeSpec:
    """Geometric parameters of a peg board.

    For a wrapped (cylindrical) board the angular spacing ties the other
    fields together: delta_theta = d / R and M * delta_theta = 2*pi.
    For a flat board (wrap=False) M counts the collection bins (n + 1),
    and R / delta_theta are unused and stored as 0.
    """

    R: float            # cylinder radius
    M: int              # angular slots (wrapped) or collection bins (flat)
    delta_theta: float  # angular spacing between adjacent pegs
    d: float            # horizontal arc spacing between adjacent pegs
    h: float            # vertical spacing between rows
    n: int              # number of peg rows
    H: float            # height of the top peg row
    r_peg: float
    r_ball: float
    wrap: bool = True

    @classmethod
    def from_angular(cls, R: float, M: int, n: int, h: float,
                     r_peg: float, r_ball: float,
                     H: float | None = None) -> "LatticeSpec":
        """Build a consistent cylindrical spec from radius and slot count.

        delta_theta and d are derived (2*pi/M and R*2*pi/M), so the
        coupling invariants hold exactly.  H defaults to n*h.
        """
        if M < 1:       # before 2*pi/M, so M = 0 fails like any other bad M
            raise LatticeError(f"M must be >= 1, got {M}")
        delta_theta = TWO_PI / M
        return cls(R=R, M=M, delta_theta=delta_theta, d=R * delta_theta,
                   h=h, n=n, H=n * h if H is None else H,
                   r_peg=r_peg, r_ball=r_ball, wrap=True)

    @classmethod
    def planar(cls, n: int, d: float, h: float,
               r_peg: float, r_ball: float) -> "LatticeSpec":
        """Flat triangular board with n rows and n+1 bins, no wrapping."""
        return cls(R=0.0, M=n + 1, delta_theta=0.0, d=d, h=h, n=n,
                   H=n * h, r_peg=r_peg, r_ball=r_ball, wrap=False)

    def validate(self) -> "LatticeSpec":
        """Check all invariants; raise LatticeError naming the first violated one."""
        if self.M < 1:
            raise LatticeError(f"M must be >= 1, got {self.M}")
        if self.wrap and self.n < 1:
            raise LatticeError(f"n must be >= 1, got {self.n}")
        if not self.wrap and self.n < 0:
            raise LatticeError(f"n must be >= 0 for a flat board, got {self.n}")
        lengths = ("d", "h", "r_peg", "r_ball")
        if self.wrap:
            # d is derived from R on a wrapped board, so R is checked first
            lengths = ("R", *lengths)
        for name in lengths:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise LatticeError(f"{name} must be finite and > 0, got {value!r}")
        if self.wrap:
            if not self.H > 0.0:
                raise LatticeError(f"H must be > 0, got {self.H!r}")
            if abs(self.delta_theta - self.d / self.R) > REL_TOL * abs(self.delta_theta):
                raise LatticeError(
                    f"delta_theta={self.delta_theta!r} is not d/R={self.d / self.R!r}")
            if abs(self.M * self.delta_theta - TWO_PI) > REL_TOL * TWO_PI:
                raise LatticeError(
                    f"M*delta_theta={self.M * self.delta_theta!r} does not close the circle")
        else:
            if self.M != self.n + 1:
                raise LatticeError(
                    f"a flat board needs M = n+1 bins, got M={self.M}, n={self.n}")
        gap = self.d - 2.0 * self.r_peg
        if not gap > 0.0:
            raise LatticeError(f"pegs overlap: d={self.d!r} <= 2*r_peg={2 * self.r_peg!r}")
        ratio = 2.0 * self.r_ball / gap
        if ratio >= 1.0:
            if ratio <= CLEARANCE_SLACK:
                warnings.warn(
                    f"ball diameter {2 * self.r_ball!r} barely exceeds the "
                    f"peg gap {gap!r} (ratio {ratio:.4f})", ClearanceWarning,
                    stacklevel=2)
            else:
                raise LatticeError(
                    f"clearance violated: ball diameter {2 * self.r_ball!r} "
                    f">> peg gap {gap!r}")
        return self


class Peg(NamedTuple):
    """One peg: lattice indices plus angular, vertical, and Cartesian position.

    A peg is its own export row, (row, col, theta, z, x, y).
    """

    row: int
    col: int
    theta: float
    z: float
    x: float
    y: float


@dataclass(frozen=True)
class BoardPreset:
    name: str
    modules: int
    rows_per_module: int
    spec: LatticeSpec


def build_lattice(spec: LatticeSpec) -> list[Peg]:
    """Realise a spec as pegs in row-major order (by row, then column).

    Row i holds min(M, i+1) pegs on a wrapped board and i+1 on a flat
    one; successive rows are staggered by half the peg spacing.

    Peg (i, j) sits at the unwrapped offset j - i/2 peg spacings, and its
    theta, x and y depend on that offset alone, so each distinct offset is
    placed once: fewer than n + 2M of them on a wrapped board, against up
    to n*M pegs.  The key is the unwrapped offset, not the offset mod M:
    fmod of two offsets a whole turn apart can differ in the last ulp, and
    each peg keeps the position of its own offset, as when every peg was
    placed on its own.
    """
    spec.validate()
    if spec.wrap:
        def place(offset: float) -> tuple[float, float, float]:
            theta = wrap_angle(offset * spec.delta_theta)
            return theta, spec.R * math.cos(theta), spec.R * math.sin(theta)
    else:
        def place(offset: float) -> tuple[float, float, float]:
            # flat board: x is the lateral offset, no angular coordinate
            return 0.0, offset * spec.d, 0.0
    places: dict[float, tuple[float, float, float]] = {}
    rows = []
    for i in range(spec.n):
        z = spec.H - i * spec.h
        per_row = min(spec.M, i + 1) if spec.wrap else i + 1
        for j in range(per_row):
            offset = j - i / 2.0
            if offset not in places:
                places[offset] = place(offset)
            theta, x, y = places[offset]
            rows.append((i, j, theta, z, x, y))
    return list(map(Peg._make, rows))


# Physical modular board: 24 slots around an 11.4 cm insertion board,
# 8 rows per module.  d is derived from R and M so the angular coupling
# holds exactly; the catalogue's rounded 1.5 cm spacing is nominal.
# BOARD_DIMENSIONS: every module preset's lengths, and a custom board's defaults.
BOARD_DIMENSIONS = {"R": 5.7, "h": 1.02, "r_peg": 0.1, "r_ball": 0.4}
_MODULE_HEIGHT = 8.3
_SLOTS = 24
_ROWS_PER_MODULE = 8

_MODULE_COUNTS = {
    "modules-1": 1,
    "modules-1-2": 2,
    "modules-1-3": 3,
    "modules-1-4": 4,
    "modules-1-5": 5,
    "modules-1-6": 6,
    "modules-1-9": 9,
    "modules-1-12": 12,
}

PLANAR_PRESET_NAME = "planar-a4"


def _module_preset(name: str, modules: int) -> BoardPreset:
    n = _ROWS_PER_MODULE * modules
    spec = LatticeSpec.from_angular(M=_SLOTS, n=n, H=_MODULE_HEIGHT * modules,
                                    **BOARD_DIMENSIONS)
    return BoardPreset(name=name, modules=modules,
                       rows_per_module=_ROWS_PER_MODULE, spec=spec)


def planar_board(n: int = 10) -> BoardPreset:
    """Flat reference board: n rows, 1 cm spacing, n+1 bins, p = 1/2 walk.

    The flat A4 prototype is drawn with ten or eleven peg rows depending
    on the source; this preset uses ten rows and eleven bins.
    """
    spec = LatticeSpec.planar(n=n, d=1.0, h=0.8, r_peg=0.1, r_ball=0.35)
    return BoardPreset(name=PLANAR_PRESET_NAME, modules=0, rows_per_module=0,
                       spec=spec)


def preset_names() -> list[str]:
    return [*_MODULE_COUNTS, PLANAR_PRESET_NAME]


def preset(name: str) -> BoardPreset:
    """Look up a documented board preset by name."""
    if name in _MODULE_COUNTS:
        return _module_preset(name, _MODULE_COUNTS[name])
    if name == PLANAR_PRESET_NAME:
        return planar_board()
    raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")


def export_pegs(pegs: list[Peg], fmt: str = "csv") -> str:
    """Serialise pegs deterministically, row-major, as a CSV or JSON table."""
    rows = sorted(pegs, key=itemgetter(0, 1))
    if fmt == "csv":
        return table_csv(PEG_COLUMNS, rows)
    if fmt == "json":
        return table_json({"unit": LENGTH_UNIT}, "pegs", PEG_COLUMNS, rows)
    raise ValueError(f"unsupported export format {fmt!r} (use 'csv' or 'json')")
