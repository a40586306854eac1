"""Cylindrical peg lattice construction, board presets, and peg export.

All lengths are centimeters.  A board is described by a LatticeSpec and
realised by build_lattice() as a list of pegs carrying lattice indices,
the angular/vertical coordinates, and the Cartesian position on the
cylinder surface.  Presets cover the physical modular board (24 slots,
8 rows per module) and a flat reference board with no wrapping.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .angular import TWO_PI, check_number, table_csv, table_json, wrap_angle

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
    """Parameters of a peg board, checked when the spec is built.

    Every board is given n rows h apart, the top row's height H and the
    peg and ball radii.  A wrapped (cylindrical) board is given its radius
    R and M slots and derives its spacings, delta_theta = 2*pi/M and
    d = R*delta_theta.  A flat board (wrap=False, see planar) is given its
    spacing flat_d instead: its R is 0, its delta_theta reads 0 and M
    counts its n + 1 bins.  Each count and length obeys the number rule
    (angular), wrap is a bool, and H is finite and > 0, or 0 with no rows.
    Building a spec raises LatticeError naming the first violated
    invariant, a set field the board ignores included.
    """

    R: float            # cylinder radius (wrapped board only)
    M: int              # angular slots (wrapped) or collection bins (flat)
    h: float            # vertical spacing between rows
    n: int              # number of peg rows
    H: float            # height of the top peg row
    r_peg: float
    r_ball: float
    wrap: bool = True
    flat_d: float = 0.0  # peg spacing (flat board only)

    @classmethod
    def from_angular(cls, R: float, M: int, n: int, h: float,
                     r_peg: float, r_ball: float,
                     H: float | None = None) -> "LatticeSpec":
        """Cylindrical board of radius R with M slots; H defaults to n*h."""
        return cls(R=R, M=M, h=h, n=n, H=n * h if H is None else H,
                   r_peg=r_peg, r_ball=r_ball)

    @classmethod
    def planar(cls, n: int, d: float, h: float,
               r_peg: float, r_ball: float) -> "LatticeSpec":
        """Flat triangular board with n rows and n+1 bins, no wrapping."""
        return cls(R=0.0, M=n + 1, h=h, n=n, H=n * h, r_peg=r_peg,
                   r_ball=r_ball, wrap=False, flat_d=d)

    @property
    def delta_theta(self) -> float:
        """Angular spacing between adjacent pegs (0 on a flat board)."""
        return TWO_PI / self.M if self.wrap else 0.0

    @property
    def d(self) -> float:
        """Horizontal arc spacing between adjacent pegs."""
        return self.R * (TWO_PI / self.M) if self.wrap else self.flat_d

    def __post_init__(self) -> None:
        if not isinstance(self.wrap, bool):
            raise LatticeError(f"wrap must be a bool, got {self.wrap!r}")
        # a flat board's M is n + 1, checked below
        least = {"n": 1, "M": 1} if self.wrap else {"n": 0, "M": None}
        for name in ("n", "M", "R", "h", "H", "r_peg", "r_ball", "flat_d"):
            try:
                check_number(name, getattr(self, name), int if name in least else float,
                             least.get(name))
            except ValueError as exc:
                raise LatticeError(str(exc)) from None
        if self.wrap:
            if self.flat_d:
                raise LatticeError(f"flat_d must be 0 on a wrapped board, got {self.flat_d!r}")
            lengths = ("R", "d")    # d is derived from R, so R is checked first
        else:
            if self.M != self.n + 1:
                raise LatticeError(
                    f"a flat board needs M = n+1 bins, got M={self.M}, n={self.n}")
            if self.R:
                raise LatticeError(f"R must be 0 on a flat board, got {self.R!r}")
            lengths = ("d",)
        for name in (*lengths, "h", "r_peg", "r_ball", "H"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf or name == "H" and value == self.n == 0):
                raise LatticeError(f"{name} must be finite and > 0, got {value!r}")
        gap = self.d - 2.0 * self.r_peg
        if not gap > 0.0:
            raise LatticeError(f"pegs overlap: d={self.d!r} <= 2*r_peg={2 * self.r_peg!r}")
        ratio = 2.0 * self.r_ball / gap
        if ratio >= 1.0:
            if ratio <= CLEARANCE_SLACK:
                # warn where the spec was built, past __init__ and from_angular or planar
                caller = 4 if sys._getframe(2).f_code.co_filename == __file__ else 3
                warnings.warn(
                    f"ball diameter {2 * self.r_ball!r} barely exceeds the "
                    f"peg gap {gap!r} (ratio {ratio:.4f})", ClearanceWarning,
                    stacklevel=caller)
            else:
                raise LatticeError(
                    f"clearance violated: ball diameter {2 * self.r_ball!r} "
                    f">> peg gap {gap!r}")


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
# 8 rows per module.  d is derived from R and M; the catalogue's rounded
# 1.5 cm spacing is nominal.
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
    return BoardPreset(name=name, spec=spec)


def planar_board(n: int = 10) -> BoardPreset:
    """Flat reference board: n rows, 1 cm spacing, n+1 bins, p = 1/2 walk.

    The flat A4 prototype is drawn with ten or eleven peg rows depending
    on the source; this preset uses ten rows and eleven bins.
    """
    spec = LatticeSpec.planar(n=n, d=1.0, h=0.8, r_peg=0.1, r_ball=0.35)
    return BoardPreset(name=PLANAR_PRESET_NAME, spec=spec)


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
