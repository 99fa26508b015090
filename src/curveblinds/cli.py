"""Command-line entry point: construct, render, checks, duality.

All outputs (blindset.json, report.json, figure.svg) are deterministic
functions of the scene inputs; JSON is written with sorted keys and stable
float formatting so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blinds import BlindSet, ConstructionError, _lengths, iter_vb, vb
from .curve import builtin_curve, diff_interval, project_disk
from .duality import LineParam, similarity_residual
from .geometry import Disk, Point, Segment
from .keylemma import key_construction
from .measure import FiberArc
from .projline import CCW, angle_schedule, dist
from .render import render_svg
from .scene import SceneError, SceneSpec, load_scene
from .verify import gradient_check, law_of_sines_check

CHECK_SUITES = ("rotation", "projection", "duality", "all")


#: Rows per block when writing a float matrix or a record array.
_BLOCK_ROWS = 1024
#: 10**k, exact for k <= 22, and its Dekker halves: _P10_HI holds its high
#: 26 bits, so that its product with a 26-bit half of a float is exact.
_P10 = np.array([float(10**k) for k in range(23)])
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)
_P10_LO = _P10 - _P10_HI
#: How near a rounding half or a round-trip bound sends a cell to json.dumps.
_GUARD = 1e-9
#: Characters of a figure encoded and written at a time.
_WRITE_CHARS = 1 << 16


def _digit_groups() -> np.ndarray:
    """The characters of 0000..9999 as uint32s, then the same with trailing zeros NUL."""
    q = np.arange(10**4, dtype=np.uint16)  # small types: no import-time memory peak
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] > 0, axis=1)[:, ::-1]
    chars = digits + np.uint8(ord("0"))
    return np.concatenate([chars, chars * kept]).view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_groups()


def _dump_json(data: dict, path: Path) -> None:
    """Write ``json.dumps(data, sort_keys=True, indent=2) + "\\n"`` as UTF-8.

    Float matrices (2-D float arrays) and record arrays (1-D structured
    arrays, like the per-alpha rows of a report, written as a list of
    objects) are written _BLOCK_ROWS rows at a time by _format_rows, each
    float cell as float.__repr__ writes it, which is how json writes a
    finite float.  Every other value goes through json.dumps, re-indented
    to its depth.  Dict keys must be strings.
    """
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(data, ""))
        fh.write("\n")


def _json_chunks(value: object, indent: str) -> Iterator[str]:
    """The indent=2 JSON text of value, whose first line sits at ``indent``."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n"
        for key in sorted(value):
            yield f"{sep}{inner}{json.dumps(key)}: "
            yield from _json_chunks(value[key], inner)
            sep = ",\n"
        yield f"\n{indent}}}"
        return
    if not (
        isinstance(value, np.ndarray)
        and value.size
        and (value.dtype.names if value.ndim == 1 else value.ndim == 2 and value.dtype.kind == "f")
    ):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
        return
    if value.dtype.names:
        names = sorted(value.dtype.names)
        columns = [value[name] for name in names]
        keys = [json.dumps(name) + ": " for name in names]
        opening, closing = "{", "}"
    else:
        columns = list(value.T)
        keys = [""] * len(columns)
        opening, closing = "[", "]"
    # the text before each cell; a row's first one closes the previous row,
    # which the first row of the list has not
    close = f"\n{inner}{closing},"
    leads = [f"{close}\n{inner}{opening}\n{inner}  {keys[0]}"]
    leads += [f",\n{inner}  {key}" for key in keys[1:]]
    leads = [lead.encode() for lead in leads]
    yield "["
    for lo in range(0, len(value), _BLOCK_ROWS):
        block = [col[lo : lo + _BLOCK_ROWS] for col in columns]
        yield _format_rows(block, leads, skip=len(close) if lo == 0 else 0)
    yield f"\n{inner}{closing}\n{indent}]"


def _format_rows(columns: list[np.ndarray], leads: list[bytes], skip: int) -> str:
    """The JSON text of rows of cells, cell (i, j) being columns[j][i].

    Each cell follows its column's lead; the first skip bytes of the first
    row's first lead are left out.  The block is laid out as a byte matrix,
    one row per row of cells: each lead, then a slot of equal width per
    cell holding a sign, the integer digits, ".", the fraction digits, and
    NUL wherever the cell's text has no character.  The bytes other than
    NUL are decoded once.

    A float cell prints as float.__repr__ does.  Where _repr_digits finds
    its digits, they sit in the slot by their power of ten: the sign, the
    integer digits ("0" if there are none, zeros after the last significant
    one), ".", the fraction digits ("0" if there are none, zeros before the
    first significant one).  Any other float cell (a NaN or infinity, |x|
    outside [1e-4, 1e15), a tie) takes its text from json.dumps, which
    writes a finite float as float.__repr__.  A bool column is written
    true and false, any other column through json.dumps.
    """
    rows, m = len(columns[0]), len(columns)
    x = np.full((rows, m), np.nan)
    for j, col in enumerate(columns):
        if col.dtype.kind == "f":
            x[:, j] = col
    digits, e, fast = _repr_digits(x)
    texts = {}  # column: (rows, their texts), which replace those slots' digits
    for j, col in enumerate(columns):
        if col.dtype.kind == "b":
            texts[j] = (slice(None), np.where(col, b"true", b"false"))
        elif col.dtype.kind != "f":
            texts[j] = (slice(None), np.array([json.dumps(v).encode() for v in col.tolist()]))
        elif not fast[:, j].all():
            slow = np.flatnonzero(~fast[:, j])
            texts[j] = (slow, np.array([json.dumps(v).encode() for v in x[slow, j].tolist()]))
    n = rows * m
    lowest, highest = int(e.min()), int(e.max())
    places = max(highest + 1, 1)  # integer digit positions
    # Row i of z holds cell i's digits, the first in column pad, NUL around
    # them.  Columns pad + 1.. hold them four at a time, so pad + 1 and the
    # row length are multiples of 4.
    pad = (places - lowest) | 3
    z = np.zeros((n, pad + 18 + highest - lowest + 3 & ~3), np.uint8)
    high = digits.ravel() // 10**8
    top = high // 10**8  # 0 only for a zero, which prints "0.0"
    z[:, pad] = (top + ord("0")) * (top > 0)
    halves = np.stack([high - top * 10**8, digits.ravel() - high * 10**8], axis=1)
    halves = halves.astype(np.int32)  # int32 divides faster
    upper = halves // 10**4
    groups = np.stack([upper, halves - upper * 10**4], axis=2).reshape(n, 4)
    # where every later group is 0, a group's trailing zeros are NUL
    last = np.ones((n, 4), bool)
    for k in (2, 1, 0):
        last[:, k] = last[:, k + 1] & (groups[:, k + 1] == 0)
    z[:, pad + 1 : pad + 17].view(np.uint32)[:] = _DIGIT_GROUPS.take(groups + last * 10**4)
    # the window of z's row from power places down: the sign, then the digits
    width = places + 17 - lowest
    starts = np.arange(n) * z.shape[1] + pad + e.ravel() - places
    window = sliding_window_view(z.ravel(), width)[starts]
    while width > places + 2 and not window[:, width - 1].any():
        width -= 1
    window = window[:, :width].reshape(rows, m, width)
    window[..., 0] = np.signbit(x) * np.uint8(ord("-"))
    # zeros between the units and the first significant digit ("0.000d"
    # for e = -4) and between the last significant digit and the units
    # ("d0.0"); the slot template ORs in the units and first fraction digit
    for t in range(2, min(-lowest, 4)):  # the fraction digit of power -t
        window[..., places + t] |= (e < -t) * np.uint8(ord("0"))
    for t in range(1, places):  # the integer digit of power t
        window[..., places - t] |= (e >= t) * np.uint8(ord("0"))
    slot = max([width + 1, *(text.itemsize for _, text in texts.values())])
    template = b"\0" * places + b"0.0" + b"\0" * (slot - places - 3)
    row = b"".join(lead + template for lead in leads)
    raw = bytearray(rows * len(row))
    buf = np.frombuffer(raw, np.uint8).reshape(rows, -1)
    buf[:] = np.frombuffer(row, np.uint8)
    buf[0, :skip] = 0
    at = 0
    for j, lead in enumerate(leads):
        cell = buf[:, at + len(lead) : at + len(lead) + slot]
        at += len(lead) + slot
        cell[:, : places + 1] |= window[:, j, : places + 1]
        cell[:, places + 2 : width + 1] |= window[:, j, places + 1 :]
        if j in texts:
            which, text = texts[j]
            cell[which] = 0
            cell[which, : text.itemsize] = text.view(np.uint8).reshape(len(text), -1)
    return raw.translate(None, b"\0").decode()


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """float.__repr__'s digits of x, elementwise: (n, e, fast).

    Where fast is true, repr(x) writes |x| = 0.d...d * 10**(e + 1) in
    positional form, d...d being the digits of the 17-digit integer n
    (10**16 <= n < 10**17) without its trailing zeros, or x is ±0.0 and n
    is 0.  Where fast is false, n and e mean nothing, and the cell's text
    must come from repr.

    A nonzero x is fast if it is finite, 1e-4 <= |x| < 1e15 (repr is
    positional on [1e-4, 1e16)) and no choice below is within _GUARD of a
    tie or of the round-trip bound:

    1. e is |x|'s decimal exponent and k = 16 - e, so 2 <= k <= 20 and
       10**k is exact.  log10 can miss e by one next to a power of ten,
       where X (step 2) lies at an end of [10**16, 10**17]; those cells
       are checked exactly and redone.
    2. X = |x| * 10**k is computed exactly as hi + lo (_scaled).
    3. D17 = int(hi) + rint(lo) is X rounded to an integer: hi is an even
       integer there (its ulp is 2 or more), so rint's half-even tie is
       also D17's.  f = X - D17 = lo - rint(lo) is exact; |f| near 0.5 is
       a tie.
    4. X rounded to 16 and 15 digits follows from D17's last one and two
       digits and the sign of f: D17 = 10q + r rounds up iff r > 5, or
       r = 5 and f > 0.  r = 5 with f near 0 is a tie.  A 15-digit tie
       lies 50 from X, farther than any bound H below, so it never reads
       back and needs no test.
    5. A candidate c reads back as x iff |c - X| < H = 10**k * ulp(x) / 2,
       the rounding interval being symmetric.  H is exact: 5**k < 2**53
       and ulp(x) is a power of two.  0.55 < H < 11.2, so D17 always reads
       back.  Only at a power of two is the interval below x half as wide,
       and every power of two in range, 2**-13 to 2**49, is a decimal of
       at most 15 digits: X ends in two zeros, and D15 = X reads back
       whichever the interval.
    6. repr's digits are the 15-digit rounding's if it reads back, else
       the 16-digit one's if it does, else D17's.  Decimals of 15 or fewer
       digits are 100 or more apart near X, so at most one lies within H:
       a 15-digit rounding that reads back is repr's shortest string.  Of
       a length that has one reading back, repr takes the nearest, and the
       rounding is the nearest.

    A candidate that rounds up to 10**17 is 10**16 a decade up.
    """
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e15)  # false for NaN and the infinities
    a = np.where(fast, a, 3.0)  # e = 0, and no NaN reaches an integer cast
    ex = np.frexp(a)[1]
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    edge = np.nonzero((hi <= 1e16) | (hi >= 1e17))
    if edge[0].size:
        e[edge] += _decade(hi[edge], lo[edge])
        hi[edge], lo[edge] = _scaled(a[edge], e[edge])
        fast[edge] &= _decade(hi[edge], lo[edge]) == 0
    near = np.rint(lo)
    f = lo - near
    d17 = hi.astype(np.int64) + near.astype(np.int64)
    r2 = (d17 % 100).astype(np.int32)
    r1 = r2 % 10
    up = f > 0
    # X rounded to 16 and 15 digits, less D17
    step16 = 10 * (r1 + up > 5) - r1
    step15 = 100 * (r2 + up > 50) - r2
    bound = np.ldexp(_P10[16 - e], ex - 54)
    gap16 = np.abs(step16 - f)
    gap15 = np.abs(step15 - f)
    fast &= (np.abs(f) < 0.5 - _GUARD) & ((r1 != 5) | (np.abs(f) > _GUARD))
    fast &= np.abs(gap16 - bound) > _GUARD * bound
    fast &= np.abs(gap15 - bound) > _GUARD * bound
    n = d17 + np.where(gap15 < bound, step15, np.where(gap16 < bound, step16, 0))
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    n[zero] = 0
    return n, e, fast | zero


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e) exactly, as hi + lo (Dekker's TwoProduct).

    Each product is its own ufunc call, so none is fused into an FMA.
    """
    k = 16 - e
    hi = a * _P10[k]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _P10_HI[k], _P10_LO[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as hi + lo is below 10**16, in [10**16, 10**17), or above."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.int64) - below


def run_construct(
    spec: SceneSpec, out_dir: Path, rigorous: bool = False
) -> tuple[dict, dict]:
    """Run the key construction for a scene; write blindset.json, report.json."""
    start = time.perf_counter()
    result = key_construction(
        spec.curve(),
        spec.y,
        spec.subrange,
        spec.a_small(),
        spec.a_cover(),
        spec.epsilon,
        spec.delta,
        caps=spec.caps,
        scene_id=spec.scene_id,
        rigorous=rigorous,
    )
    elapsed = time.perf_counter() - start
    cover_report = result.cover_report
    small_report = result.small_report
    passed = cover_report.passed and small_report.passed
    if rigorous:
        passed = passed and cover_report.padding > 0.0 and small_report.padding > 0.0
    blind_json = result.blinds.to_json_dict()
    blind_json["scene"] = spec.to_json_dict()
    report = {
        "scene_id": spec.scene_id,
        "pass": passed,
        "rigorous": rigorous,
        "pieces": len(result.blinds),
        "total_length": result.blinds.total_length,
        # eps_used and delta_used stay for the pinned output bytes
        "eps_used": spec.epsilon,
        "delta_used": result.blinds.meta["delta"],
        "cover": cover_report.to_json_dict(),
        "small": small_report.to_json_dict(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(blind_json, out_dir / "blindset.json")
    _dump_json(report, out_dir / "report.json")
    report["elapsed_seconds"] = round(elapsed, 3)
    return blind_json, report


def run_render(spec: SceneSpec, blindset_path: Path, out_path: Path) -> str:
    """Render a constructed blind set (with its fiber arc) to an SVG file."""
    blinds = _read_blindset(spec, blindset_path)
    curve = spec.curve()
    arc = FiberArc(spec.y, spec.subrange[0], spec.subrange[1])
    alpha = sum(spec.a_cover_component) / 2.0
    svg = render_svg(curve, blinds, arc=arc, alpha=alpha, title=spec.scene_id)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", encoding="utf-8") as fh:
        # a slice at a time: no encoded copy of the whole figure
        for lo in range(0, len(svg), _WRITE_CHARS):
            fh.write(svg[lo : lo + _WRITE_CHARS])
    return svg


#: The scene fields the figure draws; a blind set's scene block must match them.
_DRAWN_FIELDS = ("scene_id", "curve", "y", "subrange", "A_cover")


def _read_blindset(spec: SceneSpec, path: Path) -> BlindSet:
    """The blind set written at path, if it was built for spec.

    A missing segments field, segments that are not a nonempty (n, 4) array
    of finite numbers (a JSON boolean is not a number), a non-object meta,
    a provenance that is not a list of lists, or a scene block that differs
    from spec in a field the figure draws is rejected with a SceneError
    naming the field; a blind set without a scene block is accepted.  The
    parsed JSON tree is dropped on return, before rendering.
    """
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise SceneError(f"{path}: expected a JSON object")
    if "segments" not in data:
        raise SceneError(f"{path}: segments: missing field")
    try:
        segments = np.array(data["segments"])
    except ValueError:  # ragged rows
        segments = np.empty(0)
    shaped = segments.ndim == 2 and segments.shape[1] == 4 and len(segments) > 0
    numeric = shaped and segments.dtype.kind in "iuf" and np.isfinite(segments).all()
    if numeric:
        # numpy reads JSON true and false as 1 and 0, so only rows holding a
        # 0 or a 1 can hide one; their element types are scanned in C
        suspects = np.flatnonzero(((segments == 0) | (segments == 1)).any(axis=1))
        rows = map(data["segments"].__getitem__, suspects.tolist())
        numeric = {int, float}.issuperset(map(type, itertools.chain.from_iterable(rows)))
    if not numeric:
        raise SceneError(
            f"{path}: segments: expected a nonempty list of [ax, ay, bx, by] rows of finite numbers"
        )
    if not isinstance(data.get("meta", {}), dict):
        raise SceneError(f"{path}: meta: expected a JSON object")
    prov = data.get("provenance")
    if prov is not None and not (
        isinstance(prov, list) and all(isinstance(idx, list) for idx in prov)
    ):
        raise SceneError(f"{path}: provenance: expected a list of lists")
    built_for = data.get("scene")
    if built_for is not None:
        expected = spec.to_json_dict()
        for key in _DRAWN_FIELDS:
            got = built_for.get(key) if isinstance(built_for, dict) else None
            if got != expected[key]:
                raise SceneError(
                    f"{path}: scene.{key} is {got!r}, "
                    f"but the scene to render has {expected[key]!r}"
                )
    data["segments"] = segments
    return BlindSet.from_json_dict(data)


def _rotation_suite() -> list[tuple[str, bool, float, float]]:
    results = []
    worst = law_of_sines_check(trials=1000, seed=0)
    results.append(("law_of_sines_residual", worst < 1e-10, worst, 1e-10))

    # length of a divided-and-rotated family must not depend on the division
    seg = Segment(Point(0.0, 0.0), Point(1.0, 0.3))
    base = vb(seg, 1.2, 2.1, 1).total_length
    worst_len = max(
        abs(vb(seg, 1.2, 2.1, n).total_length - base) for n in (2, 3, 10, 100)
    )
    results.append(("divide_rotate_length_residual", worst_len < 1e-10, worst_len, 1e-10))

    # iterated construction: the leaves' total length follows the sine ratio
    # of the schedule's ends
    worst_tel = 0.0
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta0 = float(rng.uniform(0.3, 0.6))
        theta_small = float(rng.uniform(1.4, 1.8))
        theta_cover = float(rng.uniform(2.4, 2.8))
        m = int(rng.integers(2, 5))
        counts = [int(rng.integers(1, 4))] * m
        blinds = iter_vb(seg, theta_small, theta_cover, counts, chirality=CCW)
        schedule = angle_schedule(seg.direction, theta_small, m, CCW)
        total = sum(_lengths(blinds.coords).tolist())
        expected = (
            math.sin(dist(schedule[0], theta_cover))
            / math.sin(dist(schedule[m], theta_cover))
            * seg.length
        )
        worst_tel = max(worst_tel, abs(total - expected))
    results.append(("iterated_level_length_residual", worst_tel < 1e-10, worst_tel, 1e-10))
    return results


def _projection_suite() -> list[tuple[str, bool, float, float]]:
    results = []
    worst_grad = max(
        gradient_check(builtin_curve(name), samples=300, seed=0)
        for name in ("parabola", "quarter_circle", "exp")
    )
    results.append(("gradient_residual", worst_grad < 1e-5, worst_grad, 1e-5))

    curve = builtin_curve("parabola")
    subrange = (0.1, 0.9)
    worst_diff = 0.0
    ok_bound = True
    for s in np.linspace(-0.9, 0.9, 201):
        lo, hi = diff_interval(curve, subrange, float(s))
        width = hi - lo
        if width > curve.df_bound * abs(float(s)) + 1e-12:
            ok_bound = False
        worst_diff = max(worst_diff, width - curve.df_bound * abs(float(s)))
    for s_deg in (-0.9, 0.0, 0.9):  # extreme and zero shifts collapse I_s
        lo, hi = diff_interval(curve, subrange, s_deg)
        worst_diff = max(worst_diff, hi - lo)
        ok_bound = ok_bound and hi - lo < 1e-10
    results.append(("difference_interval_bound", ok_bound, worst_diff, 0.0))

    disk = Disk(Point(0.5, 0.2), 0.3)
    ok_disk = True
    for alpha in np.linspace(0.3, 1.2, 7):
        bot, top = project_disk(curve, float(alpha), disk)
        ok_disk = ok_disk and top > bot
    results.append(("disk_projection_interval", ok_disk, 0.0, 0.0))
    return results


def _duality_suite() -> list[tuple[str, bool, float, float]]:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = LineParam(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        c = float(rng.uniform(-10, 10))
        worst = max(worst, similarity_residual(p, c))
    return [("similarity_residual", worst < 1e-12, worst, 1e-12)]


def run_checks(suite: str) -> tuple[bool, list[str]]:
    """Run an invariant battery; returns (all passed, summary lines)."""
    if suite not in CHECK_SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {CHECK_SUITES}")
    batteries = {
        "rotation": _rotation_suite,
        "projection": _projection_suite,
        "duality": _duality_suite,
    }
    names = [s for s in ("rotation", "projection", "duality") if suite in ("all", s)]
    lines = []
    all_ok = True
    for name in names:
        for label, ok, value, bound in batteries[name]():
            all_ok &= ok
            verdict = "PASS" if ok else "FAIL"
            lines.append(f"{verdict} {name}/{label}: value={value:.3e} bound={bound:.1e}")
    return all_ok, lines


def _print(line: str) -> None:
    """Print line, escaping the characters stdout's encoding cannot write."""
    encoding = sys.stdout.encoding or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="curveblinds",
        description="Constructions and certificates for curve-translate projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="run the key construction for a scene")
    p_con.add_argument("--scene", required=True, help="bundled scene id or JSON path")
    p_con.add_argument("--out", default="out", help="output directory")
    p_con.add_argument("--grid-alpha", type=int, default=None, help="alpha grid points")
    p_con.add_argument("--rigorous", action="store_true", help="require grid padding")

    p_ren = sub.add_parser("render", help="render a constructed blind set to SVG")
    p_ren.add_argument("--scene", required=True)
    p_ren.add_argument("--blindset", default=None, help="path to blindset.json")
    p_ren.add_argument("--out", default="figure.svg", help="output SVG path")

    p_chk = sub.add_parser("checks", help="run invariant batteries")
    p_chk.add_argument("suite", choices=CHECK_SUITES)

    p_dua = sub.add_parser("duality", help="run the duality residual sweep")

    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            spec = load_scene(args.scene)
            if args.grid_alpha is not None:
                # the override goes through the scene parser, like every scene field
                data = spec.to_json_dict()
                data["grids"]["alpha_points"] = args.grid_alpha
                spec = SceneSpec.from_json_dict(data)
            _, report = run_construct(spec, Path(args.out), rigorous=args.rigorous)
            _print(
                f"{'PASS' if report['pass'] else 'FAIL'} construct [{spec.scene_id}]: "
                f"{report['pieces']} pieces in {report['elapsed_seconds']}s"
            )
            return 0 if report["pass"] else 1
        if args.command == "render":
            spec = load_scene(args.scene)
            blindset = Path(args.blindset or Path("out") / "blindset.json")
            out_path = Path(args.out)
            run_render(spec, blindset, out_path)
            print(f"wrote {out_path}")
            return 0
        if args.command == "checks":
            ok, lines = run_checks(args.suite)
            print("\n".join(lines))
            return 0 if ok else 1
        if args.command == "duality":
            ok, lines = run_checks("duality")
            print("\n".join(lines))
            return 0 if ok else 1
    except ConstructionError as exc:
        print(f"error (stage {exc.stage}): {exc}", file=sys.stderr)
        return 2
    except (SceneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's _ArrayMemoryError, a MemoryError, names the failed allocation
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
