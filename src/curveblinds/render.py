"""Deterministic SVG rendering of fiber arcs, blind sets, and strips.

No plotting dependency: the figure is assembled from SVG primitives with
fixed formatting so identical inputs produce byte-identical output.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .blinds import BlindSet
from .curve import DOMAIN_TOL, CurveProfile
from .measure import FiberArc

_WIDTH = 800
_HEIGHT = 600
_MARGIN = 40
_STAGE_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")
#: Polylines formatted per block, which bounds the Python floats alive at once.
_BLOCK_ROWS = 1024


class _Frame:
    """Affine map from model coordinates to SVG pixel coordinates."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        pad_x = 0.05 * (x_hi - x_lo) or 1.0
        pad_y = 0.05 * (y_hi - y_lo) or 1.0
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
        span = max(x_hi - x_lo, y_hi - y_lo)
        cx, cy = (x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0
        self.x_lo, self.x_hi = cx - span / 2.0, cx + span / 2.0
        self.y_lo, self.y_hi = cy - span / 2.0, cy + span / 2.0
        self.scale = (_WIDTH - 2 * _MARGIN) / span

    def to_px(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        px = _MARGIN + (x - self.x_lo) * self.scale
        py = _HEIGHT - _MARGIN - (y - self.y_lo) * self.scale
        return px, py


def _polylines(
    frame: _Frame,
    xs: np.ndarray,
    ys: np.ndarray,
    colors: Sequence[str],
    width: float,
    dash: str = "",
) -> list[str]:
    """One polyline per row of the (n, k) model coordinates xs, ys.

    Returns the polylines in blocks of up to _BLOCK_ROWS lines joined by
    newlines.  "%.3f" formats exactly as f"{v:.3f}", and elementwise numpy
    arithmetic maps each coordinate with the same bits as the scalar formula.
    """
    px, py = frame.to_px(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    n, k = px.shape
    pts = np.empty((n, 2 * k))
    pts[:, 0::2] = px
    pts[:, 1::2] = py
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    row = (
        '<polyline points="' + " ".join(["%.3f,%.3f"] * k) + '" fill="none" '
        f'stroke="%s" stroke-width="{width:.3f}"{dash_attr}/>'
    )
    return [
        "\n".join(
            row % (*p, c)
            for p, c in zip(pts[lo : lo + _BLOCK_ROWS].tolist(), colors[lo : lo + _BLOCK_ROWS])
        )
        for lo in range(0, n, _BLOCK_ROWS)
    ]


def render_svg(
    curve: CurveProfile,
    blinds: BlindSet,
    arc: Optional[FiberArc] = None,
    alpha: Optional[float] = None,
    title: str = "",
) -> str:
    """Render blinds (and optionally the fiber arc and one strip) as SVG text."""
    coords = blinds.coords
    xs = [coords[:, 0].min(), coords[:, 0].max(), coords[:, 2].min(), coords[:, 2].max()]
    ys = [coords[:, 1].min(), coords[:, 1].max(), coords[:, 3].min(), coords[:, 3].max()]
    if arc is not None:
        ts = np.linspace(arc.lo, arc.hi, 400)
        if ts[0] < curve.a - DOMAIN_TOL or ts[-1] > curve.b + DOMAIN_TOL:
            raise ValueError(
                f"fiber parameters [{arc.lo!r}, {arc.hi!r}] outside [{curve.a}, {curve.b}]"
            )
        ts = np.clip(ts, curve.a, curve.b)
        arc_x = arc.y.x1 - ts
        arc_y = arc.y.x2 - curve.f(ts)
        xs += [arc_x.min(), arc_x.max()]
        ys += [arc_y.min(), arc_y.max()]
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_MARGIN}" y="24" font-family="monospace" font-size="16">'
            + title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            + "</text>"
        )
    if alpha is not None:
        # strip boundaries of Phi_alpha's domain: x1 = alpha - b and alpha - a
        edges = np.array([[alpha - curve.b] * 2, [alpha - curve.a] * 2])
        heights = np.array([[frame.y_lo, frame.y_hi]] * 2)
        parts += _polylines(frame, edges, heights, ["#999999"] * 2, 1.0, dash="6,4")
    if arc is not None:
        parts += _polylines(frame, arc_x[None, :], arc_y[None, :], ["#000000"], 1.6)
    if blinds.provenance is None:
        colors: Sequence[str] = [_STAGE_COLORS[0]] * len(coords)
    else:
        colors = [_STAGE_COLORS[len(idx) % len(_STAGE_COLORS)] for idx in blinds.provenance]
    parts += _polylines(frame, coords[:, 0::2], coords[:, 1::2], colors, 0.9)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
