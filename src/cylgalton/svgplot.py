"""Deterministic SVG renderers for angular distributions.

Ring style: curved bars growing outward from a base circle, one
concentric ring per input distribution.  Cylinder style: density samples
stood upright on an ellipse, like a curve wrapped around a drum.  Output
depends only on the input values, so repeated renders are byte-equal.
"""

from __future__ import annotations

import math
from typing import Sequence

_SIZE = 640
_CX = _CY = _SIZE / 2
_BAR_FILL = "#4878a8"
_AXIS_STROKE = "#9a9a9a"

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">\n'
    '<rect width="{w}" height="{h}" fill="#ffffff"/>\n'
)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _pt(r: float, theta: float, cy: float = _CY) -> tuple[str, str]:
    # screen y grows downward
    return _fmt(_CX + r * math.cos(theta)), _fmt(cy - r * math.sin(theta))


def _wedge(r0: float, r1: float, a0: float, a1: float) -> str:
    large = 1 if (a1 - a0) > math.pi else 0
    x0i, y0i = _pt(r0, a0)
    x1i, y1i = _pt(r0, a1)
    x1o, y1o = _pt(r1, a1)
    x0o, y0o = _pt(r1, a0)
    return (
        f'<path d="M {x0i} {y0i} '
        f'A {_fmt(r0)} {_fmt(r0)} 0 {large} 0 {x1i} {y1i} '
        f'L {x1o} {y1o} '
        f'A {_fmt(r1)} {_fmt(r1)} 0 {large} 1 {x0o} {y0o} Z" '
        f'fill="{_BAR_FILL}" stroke="none"/>'
    )


def ring_svg(pmfs: Sequence[Sequence[float]]) -> str:
    """Curved barplot: per ring, bar length is probability over ring max.

    Each slot law is any sequence of its M masses, one ring per law, and
    rings are drawn inside-out in input order; slots with zero mass emit
    no bar, so bars can be counted in the output.
    """
    if not pmfs:
        raise ValueError("ring_svg needs at least one distribution")
    parts = [_HEADER.format(w=_SIZE, h=_SIZE)]
    n_rings = len(pmfs)
    inner, outer = 70.0, 300.0
    band = (outer - inner) / n_rings
    for i, pmf in enumerate(pmfs):
        base = inner + i * band
        bar_max = band * 0.85
        qmax = max(pmf)
        parts.append(
            f'<circle cx="{_fmt(_CX)}" cy="{_fmt(_CY)}" r="{_fmt(base)}" '
            f'fill="none" stroke="{_AXIS_STROKE}" stroke-width="1"/>')
        slot_angle = 2.0 * math.pi / len(pmf)
        gap = 0.06 * slot_angle
        for k, q in enumerate(pmf):
            if q <= 0.0:
                continue
            a0 = k * slot_angle + gap
            a1 = (k + 1) * slot_angle - gap
            parts.append(_wedge(base, base + bar_max * q / qmax, a0, a1))
    parts.append("</svg>\n")
    return "\n".join(parts)


def cylinder_svg(samples: Sequence[tuple[float, float]]) -> str:
    """Density as vertical segments above a base ellipse, crown joined on top.

    Samples are drawn in input order.  Screen y grows toward the viewer, so
    a foot at base_y + ry*sin(theta) with sin theta < 0 is on the rear half;
    those segments are lightened so the drum reads as three-dimensional.
    One pass over the samples takes sin(theta) once and formats each
    sample's x, foot y and top once; the crown reuses the x and top texts.
    """
    if not samples:
        raise ValueError("cylinder_svg needs at least one sample")
    rx, ry = 240.0, 70.0
    base_y = 440.0
    height = 300.0
    fmax = max(f for _, f in samples)
    if fmax <= 0.0:
        raise ValueError("all density samples are zero")

    parts = [_HEADER.format(w=_SIZE, h=_SIZE)]
    parts.append(
        f'<ellipse cx="{_fmt(_CX)}" cy="{_fmt(base_y)}" rx="{_fmt(rx)}" '
        f'ry="{_fmt(ry)}" fill="none" stroke="{_AXIS_STROKE}" stroke-width="1"/>')
    crown: list[str] = []
    for theta, f in samples:
        sin = math.sin(theta)
        y = base_y + ry * sin
        x, top = f"{_CX + rx * math.cos(theta):.6f}", f"{y - height * f / fmax:.6f}"
        stroke = "#b8cce0" if sin < 0.0 else _BAR_FILL
        parts.append(f'<line x1="{x}" y1="{y:.6f}" x2="{x}" y2="{top}" '
                     f'stroke="{stroke}" stroke-width="1"/>')
        crown.append(f"{x},{top}")
    parts.append(f'<polyline points="{" ".join(crown)}" fill="none" '
                 f'stroke="#2b4a66" stroke-width="1.5"/>')
    parts.append("</svg>\n")
    return "\n".join(parts)
