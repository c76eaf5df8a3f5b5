"""Deterministic SVG rendering of frameworks.

The emitter is a pure function of its inputs: element order, attribute
order and number formatting are all fixed, so rendering the same framework
twice produces byte-identical SVG 1.1 output.

Conventions:

* bars are drawn in framework edge order;
* pinned joints are squares, free joints are circles;
* mirror lines are dashed overlays, the symmetry centre is a cross;
* bars left unshifted by some symmetry operation can be highlighted;
* a self-stress colours bars red (positive coefficient, tension) or blue
  (negative, compression) with stroke width growing with magnitude;
* a mechanism is drawn as velocity arrows at the joints.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DimensionMismatch
from .framework import Framework, bbox_diagonal
from .symmetry import SYM_TOL, PointGroup, SymmetryAction, _action_for

__all__ = ["render_svg"]

_BAR_COLOR = "#333333"
_FIXED_COLOR = "#e69500"
_TENSION_COLOR = "#cc2222"
_COMPRESSION_COLOR = "#2244cc"
_JOINT_COLOR = "#ffffff"
_JOINT_EDGE = "#000000"
_PIN_COLOR = "#9fc2e8"
_OVERLAY_COLOR = "#44aa44"
_ARROW_COLOR = "#8822aa"

# The viewport, in SVG user units, and the margin kept free around the drawing.
_WIDTH = 640
_HEIGHT = 480
_MARGIN = 40.0

# Characters XML 1.0 cannot hold: the C0 controls other than tab, LF and CR,
# the surrogates, and U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(x: float) -> str:
    """Fixed-precision, locale-free float formatting ('-0' normalised)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot format non-finite coordinate {x!r}")
    text = f"{x:.4f}".rstrip("0").rstrip(".")
    return "0" if text in ("-0", "") else text


class _Canvas:
    """Maps model coordinates into the fixed SVG viewport (y flipped)."""

    def __init__(self, positions: np.ndarray):
        x, y = positions[:, 0], positions[:, 1]
        lo = np.array([x.min(), y.min()])
        hi = np.array([x.max(), y.max()])
        span = np.maximum(hi - lo, 1e-12)
        scale = min((_WIDTH - 2 * _MARGIN) / span[0], (_HEIGHT - 2 * _MARGIN) / span[1])
        mid = (lo + hi) / 2.0
        self.scale = scale
        self.mid = mid

    def point(self, p: np.ndarray) -> tuple[float, float]:
        x = _WIDTH / 2.0 + (p[0] - self.mid[0]) * self.scale
        y = _HEIGHT / 2.0 - (p[1] - self.mid[1]) * self.scale
        return x, y


def _fixed_edges(action: SymmetryAction) -> set[int]:
    """Indices of bars left unshifted by at least one non-identity operation
    (class 0 is the identity's)."""
    eperms = action.eperms[action.classes != 0]
    return set(np.flatnonzero((eperms == np.arange(eperms.shape[1])).any(axis=0)).tolist())


def _mirror_overlays(group: PointGroup, center: np.ndarray, canvas: _Canvas, reach: float) -> list[str]:
    parts: list[str] = []
    for op in group.operations():
        if op.kind != "mirror":
            continue
        direction = np.array([math.cos(op.angle), math.sin(op.angle)])
        a = canvas.point(center - reach * direction)
        b = canvas.point(center + reach * direction)
        parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(b[1])}" stroke="{_OVERLAY_COLOR}" stroke-width="1" '
            'stroke-dasharray="6,4" />'
        )
    return parts


def _center_overlay(group: PointGroup, center: np.ndarray, canvas: _Canvas) -> list[str]:
    if group.n == 1:  # C1 and Cs have no rotation to mark
        return []
    cx, cy = canvas.point(center)
    arm = 5.0
    return [
        f'<line x1="{_fmt(cx - arm)}" y1="{_fmt(cy)}" x2="{_fmt(cx + arm)}" '
        f'y2="{_fmt(cy)}" stroke="{_OVERLAY_COLOR}" stroke-width="1.5" />',
        f'<line x1="{_fmt(cx)}" y1="{_fmt(cy - arm)}" x2="{_fmt(cx)}" '
        f'y2="{_fmt(cy + arm)}" stroke="{_OVERLAY_COLOR}" stroke-width="1.5" />',
    ]


def render_svg(
    fw: Framework,
    group: PointGroup | None = None,
    center: np.ndarray | None = None,
    stress: np.ndarray | None = None,
    mechanism: np.ndarray | None = None,
    highlight_fixed: bool = True,
    title: str | None = None,
    tol: float = SYM_TOL,
    *,
    action: SymmetryAction | None = None,
) -> str:
    """Render a framework as deterministic SVG 1.1 text, 640 by 480 units.

    ``stress`` is a coefficient per bar; ``mechanism`` a velocity per joint
    (shape (v, 2) or (2v,); for pinned frameworks, per internal joint),
    else DimensionMismatch.  ``title``'s &, < and > are escaped; a title
    holding a character XML 1.0 cannot hold (a C0 control other than tab,
    LF and CR, a lone surrogate, U+FFFE or U+FFFF) raises ValueError.  When
    ``group`` or ``action`` is given, mirror lines and the rotation centre
    are drawn and (with ``highlight_fixed``) the bars the action leaves
    unshifted are emphasised.

    Raises NotSymmetric when ``group`` does not hold, with or without
    ``highlight_fixed``: its action is built whenever a group is given.  A
    precomputed ``action`` on ``fw`` replaces ``group``, ``center`` and
    ``tol``; a ``group`` given with it must be its group (ValueError
    otherwise).
    """
    bad = _NOT_XML.search(title or "")
    if bad:
        raise ValueError(
            f"title character {bad.group()!r} at index {bad.start()} cannot be written in XML 1.0"
        )
    positions = fw.positions
    canvas = _Canvas(positions)

    stress_vec: np.ndarray | None = None
    if stress is not None:
        stress_vec = np.asarray(stress, dtype=float).reshape(-1)
        if stress_vec.shape != (fw.num_edges,):
            raise DimensionMismatch(
                f"stress has {stress_vec.size} coefficients for {fw.num_edges} bars"
            )
        if not np.all(np.isfinite(stress_vec)):
            raise ValueError("stress coefficients must be finite")

    moving = np.flatnonzero(fw.velocity_blocks >= 0)
    velocity: np.ndarray | None = None
    if mechanism is not None:
        velocity = np.asarray(mechanism, dtype=float)
        if velocity.shape not in ((len(moving), 2), (2 * len(moving),)):
            raise DimensionMismatch(
                f"mechanism has shape {velocity.shape} for {len(moving)} moving joints; "
                f"expected ({len(moving)}, 2) or ({2 * len(moving)},)"
            )
        velocity = velocity.reshape(len(moving), 2)
        if not np.all(np.isfinite(velocity)):
            raise ValueError("mechanism velocities must be finite")

    fixed: set[int] = set()
    if group is not None or action is not None:
        action = _action_for(fw, group, center, tol, action)
        if highlight_fixed:
            fixed = _fixed_edges(action)

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f"<title>{text}</title>")

    if action is not None:
        reach = 0.75 * bbox_diagonal(positions)
        overlay = _mirror_overlays(action.group, action.center, canvas, reach)
        overlay += _center_overlay(action.group, action.center, canvas)
        if overlay:
            parts.append('<g id="overlays">')
            parts.extend(overlay)
            parts.append("</g>")

    parts.append('<g id="bars">')
    max_mag = float(np.abs(stress_vec).max()) if stress_vec is not None else 0.0
    for idx, (i, j) in enumerate(fw.edges):
        a = canvas.point(positions[i])
        b = canvas.point(positions[j])
        if stress_vec is not None and max_mag > 0 and abs(stress_vec[idx]) > 1e-12 * max_mag:
            coeff = stress_vec[idx]
            color = _TENSION_COLOR if coeff > 0 else _COMPRESSION_COLOR
            sw = 1.0 + 4.0 * abs(coeff) / max_mag
        elif idx in fixed:
            color = _FIXED_COLOR
            sw = 3.5
        else:
            color = _BAR_COLOR
            sw = 2.0
        parts.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(b[1])}" stroke="{color}" stroke-width="{_fmt(sw)}" />'
        )
    parts.append("</g>")

    if velocity is not None:
        max_speed = float(np.linalg.norm(velocity, axis=1).max())
        if max_speed > 0:
            arrow_reach = 0.08 * bbox_diagonal(positions) / max_speed
            parts.append('<g id="mechanism">')
            for row, vid in enumerate(moving):
                speed = float(np.linalg.norm(velocity[row]))
                if speed <= 1e-12 * max_speed:
                    continue
                a = canvas.point(positions[vid])
                b = canvas.point(positions[vid] + arrow_reach * velocity[row])
                parts.append(
                    f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" '
                    f'x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" '
                    f'stroke="{_ARROW_COLOR}" stroke-width="2" />'
                )
                parts.append(
                    f'<circle cx="{_fmt(b[0])}" cy="{_fmt(b[1])}" r="2.5" '
                    f'fill="{_ARROW_COLOR}" />'
                )
            parts.append("</g>")

    parts.append('<g id="joints">')
    for vid in range(fw.num_vertices):
        x, y = canvas.point(positions[vid])
        if vid in fw.pinned:
            half = 5.0
            parts.append(
                f'<rect x="{_fmt(x - half)}" y="{_fmt(y - half)}" '
                f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}" '
                f'fill="{_PIN_COLOR}" stroke="{_JOINT_EDGE}" stroke-width="1" />'
            )
        else:
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" '
                f'fill="{_JOINT_COLOR}" stroke="{_JOINT_EDGE}" stroke-width="1.5" />'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
