"""Shared probability vector over angular slots, plus its file formats.

Slot k (zero-based) covers the half-open arc [2*pi*k/M, 2*pi*(k+1)/M).
This vector is the common currency between the exact distributions, the
Monte Carlo simulator, the diagnostics, and the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

SUM_TOL = 1e-12

PMF_CSV_HEADER = "slot,theta_lo,theta_hi,prob"


class ParseError(ValueError):
    """Malformed PMF or sample file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi)."""
    out = math.fmod(theta, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    # fmod can land exactly on 2*pi after the correction
    return out if out < TWO_PI else 0.0


def wrap_to_pi(theta: float) -> float:
    """Reduce an angle to the centered range (-pi, pi]."""
    out = wrap_angle(theta)
    return out if out <= math.pi else out - TWO_PI


@dataclass(frozen=True)
class AngularPMF:
    """Probability vector over M equal angular slots.

    probs[k] is the mass of slot k; entries are nonnegative and sum to 1
    within SUM_TOL.  Instances are immutable and validated on creation.
    """

    M: int
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(q) for q in self.probs))
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if len(self.probs) != self.M:
            raise ValueError(f"expected {self.M} slot probabilities, got {len(self.probs)}")
        for k, q in enumerate(self.probs):
            if not q >= 0.0:
                raise ValueError(f"slot {k} has negative probability {q!r}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"slot probabilities sum to {total!r}, not 1")

    def slot_bounds(self, k: int) -> tuple[float, float]:
        """Angular interval [theta_lo, theta_hi) of slot k."""
        if not 0 <= k < self.M:
            raise ValueError(f"slot {k} out of range for M={self.M}")
        return TWO_PI * k / self.M, TWO_PI * (k + 1) / self.M


def _slot_rows(pmf: AngularPMF, bounds) -> list[tuple[int, float, float, float]]:
    """(slot, theta_lo, theta_hi, prob) rows; bounds default to slot_bounds."""
    if bounds is None:
        bounds = [pmf.slot_bounds(k) for k in range(pmf.M)]
    elif len(bounds) != pmf.M:
        raise ValueError(f"expected {pmf.M} slot bounds, got {len(bounds)}")
    return [(k, lo, hi, q) for k, ((lo, hi), q) in enumerate(zip(bounds, pmf.probs))]


def pmf_to_csv(pmf: AngularPMF, bounds=None) -> str:
    """Render as CSV with full round-trip float precision.

    bounds, one (theta_lo, theta_hi) pair per slot, relabels the slot
    arcs (e.g. centered ones); the default is slot_bounds.
    """
    lines = [PMF_CSV_HEADER]
    lines.extend(f"{k},{lo!r},{hi!r},{q!r}" for k, lo, hi, q in _slot_rows(pmf, bounds))
    return "\n".join(lines) + "\n"


def pmf_to_json_dict(pmf: AngularPMF, bounds=None) -> dict:
    """JSON document of the PMF; bounds as in pmf_to_csv."""
    return {
        "kind": "angular_pmf",
        "M": pmf.M,
        "slots": [{"slot": k, "theta_lo": lo, "theta_hi": hi, "prob": q}
                  for k, lo, hi, q in _slot_rows(pmf, bounds)],
    }


def pmf_from_csv(text: str) -> AngularPMF:
    """Parse the CSV schema produced by pmf_to_csv."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    if lines[0].strip() != PMF_CSV_HEADER:
        raise ParseError(f"expected header {PMF_CSV_HEADER!r}", 1)
    probs = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"expected 4 comma-separated fields, got {len(fields)}", i)
        try:
            slot = int(fields[0])
            prob = float(fields[3])
        except ValueError as exc:
            raise ParseError(str(exc), i) from None
        if slot != len(probs):
            raise ParseError(f"slot index {slot} out of order", i)
        probs.append(prob)
    if not probs:
        raise ParseError("no slot rows", max(2, len(lines)))
    try:
        return AngularPMF(len(probs), tuple(probs))
    except ValueError as exc:
        raise ParseError(str(exc), len(lines)) from None


def pmf_from_json(text: str) -> AngularPMF:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    try:
        slots = sorted(doc["slots"], key=lambda s: s["slot"])
        probs = tuple(float(s["prob"]) for s in slots)
        return AngularPMF(int(doc["M"]), probs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"not an angular PMF document: {exc}", 1) from None
