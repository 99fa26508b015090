"""Deterministic SVG rendering of fiber arcs, blind sets, and strips.

No plotting dependency: the figure is assembled from SVG primitives with
fixed formatting so identical inputs produce byte-identical output.  Every
pixel coordinate is written as "%.3f" writes it: a block of polylines at a
time, from integer digit arrays, with "%.3f" itself for the rare coordinate
too near a rounding half (see _format_block).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .blinds import BlindSet
from .curve import DOMAIN_TOL, CurveProfile
from .measure import FiberArc, _require_finite_coords

_WIDTH = 800
_HEIGHT = 600
_MARGIN = 40
_STAGE_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")
#: Polylines formatted per block, which bounds the byte matrix built at once.
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
    palette: Sequence[str],
    color_index: np.ndarray,
    width: float,
    dash: str = "",
) -> list[str]:
    """One polyline per row of the (n, k) model coordinates xs, ys.

    Row i is drawn in palette[color_index[i]].  Returns the polylines in
    blocks of up to _BLOCK_ROWS lines joined by newlines, each block
    formatted by _format_block.  Elementwise numpy arithmetic maps each
    coordinate with the same bits as the scalar formula.
    """
    px, py = frame.to_px(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    n, k = px.shape
    pts = np.empty((n, 2 * k))
    pts[:, 0::2] = px
    pts[:, 1::2] = py
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    # one NUL-padded byte row per palette colour
    tails = np.array(
        [
            f'" fill="none" stroke="{c}" stroke-width="{width:.3f}"{dash_attr}/>'.encode()
            for c in palette
        ]
    )
    tails = tails.view(np.uint8).reshape(len(palette), -1)
    return [
        _format_block(pts[lo : lo + _BLOCK_ROWS], tails, color_index[lo : lo + _BLOCK_ROWS])
        for lo in range(0, n, _BLOCK_ROWS)
    ]


_PREFIX = np.frombuffer(b'\n<polyline points="', np.uint8)


def _format_block(pts: np.ndarray, tails: np.ndarray, color_index: np.ndarray) -> str:
    """The polylines of the (rows, 2k) pixel coordinates pts, one per line.

    A row is a newline (none before the first), the polyline prefix, every
    point's "x,y" separated by spaces, and the row of the NUL-padded tails
    that its color_index entry names.  The block is laid out as a byte
    matrix, one row per polyline and one slot of equal width per
    coordinate: a sign, the integer digits, ".", three decimals, a
    separator, NUL wherever "%.3f" has no character.  The block's bytes
    other than NUL are decoded once.

    Every coordinate v prints as "%.3f" % v.  That is the exact binary value
    of v rounded half-even to three decimals: the integer nearest the exact
    product v * 1000, whose float p = fl(v * 1000) is within half an ulp of
    it.  So rint(p) (half-even too) is that integer unless p lies within
    half an ulp of a half; a coordinate within 4 * |spacing(p)| of one
    takes its bytes from "%.3f" itself.  The same rule sends every
    |p| >= 2**49, whose spacing is 1/8 or more, and every NaN or infinity
    to "%.3f"; below 2**49, p - rint(p) is exact.  The sign comes from
    signbit(v), so a negative value that rounds to 0, and -0.0, print
    "-0.000" as "%.3f" does.
    """
    n, m = pts.shape
    p = pts * 1000.0
    q = np.rint(p)
    exact = 0.5 - np.abs(p - q) > 4.0 * np.abs(np.spacing(p))
    a = np.where(exact, np.abs(q), 0.0)
    top = int(a.max())
    a = a.astype(np.int32 if top < 2**31 else np.int64)  # int32 divides faster
    places = max(1, len(str(top)) - 3)  # integer digits, at least one
    fallback = np.flatnonzero(~exact)
    texts = ["%.3f" % v for v in pts.ravel()[fallback].tolist()]
    slot = max(places + 5, max(map(len, texts), default=0)) + 1
    raw = bytearray(n * (len(_PREFIX) + m * slot + tails.shape[1]))
    buf = np.frombuffer(raw, np.uint8).reshape(n, -1)
    buf[:, : len(_PREFIX)] = _PREFIX
    buf[0, 0] = 0  # no newline before the first row
    buf[:, len(_PREFIX) + m * slot :] = tails.take(color_index, axis=0)
    slots = buf[:, len(_PREFIX) : len(_PREFIX) + m * slot].reshape(n, m, slot)
    slots[..., 0] = np.signbit(pts) * ord("-")
    # the decimal digits of a, least significant first; an integer digit
    # left of the first nonzero one stays NUL, the units digit never does
    for col in (places + 4, places + 3, places + 2, *range(places, 0, -1)):
        quotient = a // 10
        digit = a - quotient * 10 + ord("0")
        if col < places:
            digit *= a > 0
        slots[..., col] = digit
        a = quotient
    slots[..., places + 1] = ord(".")
    slots[:, 0::2, -1] = ord(",")
    slots[:, 1:-1:2, -1] = ord(" ")
    for i, text in zip(fallback.tolist(), texts):
        cell = slots[i // m, i % m]
        cell[:-1] = 0
        cell[: len(text)] = np.frombuffer(text.encode(), np.uint8)
    return raw.translate(None, b"\0").decode()


def render_svg(
    curve: CurveProfile,
    blinds: BlindSet,
    arc: Optional[FiberArc] = None,
    alpha: Optional[float] = None,
    title: str = "",
) -> str:
    """Render blinds (and optionally the fiber arc and one strip) as SVG text.

    A NaN or infinite blind coordinate or alpha is rejected with ValueError.
    """
    coords = blinds.coords
    _require_finite_coords(coords)
    if alpha is not None and not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
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
        parts += _polylines(frame, edges, heights, ["#999999"], np.zeros(2, int), 1.0, dash="6,4")
    if arc is not None:
        parts += _polylines(
            frame, arc_x[None, :], arc_y[None, :], ["#000000"], np.zeros(1, int), 1.6
        )
    if blinds.provenance is None:
        depth = np.zeros(len(coords), int)
    else:
        depth = np.fromiter(map(len, blinds.provenance), int, len(coords))
    stage = depth % len(_STAGE_COLORS)
    parts += _polylines(frame, coords[:, 0::2], coords[:, 1::2], _STAGE_COLORS, stage, 0.9)
    # the empty last part ends the text in a newline without copying it again
    parts += ["</svg>", ""]
    return "\n".join(parts)
