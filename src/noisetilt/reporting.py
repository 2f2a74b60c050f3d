"""Deterministic artifacts: CSV tables (the source of truth) and derived
SVG plots.  No timestamps, no float formatting that depends on locale, and
every file is written atomically (temp file then rename) so a crash never
leaves a half-written report.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os


def fmt(value) -> str:
    """Stable scalar formatting: repr for floats (shortest round-trip)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def atomic_file(path: str, mode: str = "w"):
    """A file opened in `mode` beside `path` that replaces `path` when the
    block ends, or is removed if the block raises.  It is created with mode
    0666 less the umask, like a file opened for writing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: str):
    with atomic_file(path) as fh:
        fh.write(data)


def write_csv(path: str, columns: list[str], rows: list[list]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells, header has {len(columns)}")
        writer.writerow([fmt(v) for v in row])
    atomic_write(path, buf.getvalue())


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, header has {len(header)}")
    return header, rows


# ---------------------------------------------------------------------------
# Hand-rolled SVG: fixed canvas, fixed-precision coordinates, palette by
# series index — identical input produces identical bytes.
# ---------------------------------------------------------------------------

_W, _H = 640, 420
_MARGIN = 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _axes(title: str, xlabel: str, ylabel: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="18" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {_H // 2})">{ylabel}</text>',
    ]


def svg_curve(series: list[tuple[str, list[float], list[float]]],
              title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Polyline chart; one labeled series per (label, xs, ys) triple."""
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for _, xs, ys in series):
        raise ValueError("every series needs matching, non-empty x and y data")
    all_x = [v for _, xs, _ in series for v in xs]
    all_y = [v for _, _, ys in series for v in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    parts = _axes(title, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        px = _scale(xs, x_lo, x_hi, _MARGIN, _W - _MARGIN)
        py = _scale(ys, y_lo, y_hi, _H - _MARGIN, _MARGIN)
        points = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MARGIN + 4}" y="{_MARGIN + 16 * i + 12}" '
                     f'font-size="11" fill="{color}" text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_MARGIN}" y="{_H - _MARGIN + 14}" font-size="10">'
                 f'{x_lo:.4g}</text>')
    parts.append(f'<text x="{_W - _MARGIN}" y="{_H - _MARGIN + 14}" font-size="10" '
                 f'text-anchor="end">{x_hi:.4g}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_H - _MARGIN}" font-size="10" '
                 f'text-anchor="end">{y_lo:.4g}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" font-size="10" '
                 f'text-anchor="end">{y_hi:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_bars(labels: list[str], values: list[float],
             title: str = "", ylabel: str = "") -> str:
    """Bar chart with one bar per label."""
    if not labels or len(labels) != len(values):
        raise ValueError("need matching, non-empty labels and values")
    y_lo = min(0.0, min(values))
    y_hi = max(0.0, max(values))
    parts = _axes(title, "", ylabel)
    n = len(values)
    span = (_W - 2 * _MARGIN) / n
    (zero_y,) = _scale([0.0], y_lo, y_hi, _H - _MARGIN, _MARGIN)
    for i, (label, v) in enumerate(zip(labels, values)):
        (top,) = _scale([v], y_lo, y_hi, _H - _MARGIN, _MARGIN)
        x = _MARGIN + span * i + span * 0.15
        w = span * 0.7
        y0, y1 = sorted((zero_y, top))
        parts.append(f'<rect x="{x:.3f}" y="{y0:.3f}" width="{w:.3f}" '
                     f'height="{max(y1 - y0, 0.5):.3f}" '
                     f'fill="{_COLORS[i % len(_COLORS)]}"/>')
        parts.append(f'<text x="{x + w / 2:.3f}" y="{_H - _MARGIN + 14}" '
                     f'font-size="10" text-anchor="middle">{label}</text>')
    parts.append(f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" font-size="10" '
                 f'text-anchor="end">{y_hi:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# CSV schemas the plot command understands: first column is x (curve) or the
# label (bars); every later column is a series / the value.
def plot_csv(path: str, kind: str, out_path: str, title: str = ""):
    header, rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if len(header) < 2:
        raise ValueError(
            f"{kind} plots need at least two columns (x/label plus data), "
            f"got {header}")
    if kind == "curve":
        # a series skips its blank cells (tradeoff.csv's, where one method logged)
        try:
            series = [(name, [float(r[0]) for r in rows if r[i] != ""],
                       [float(r[i]) for r in rows if r[i] != ""])
                      for i, name in enumerate(header[1:], start=1)]
        except ValueError:
            raise ValueError(
                f"curve plots need numeric columns; expected "
                f"[x, series...], got {header}") from None
        svg = svg_curve(series, title=title, xlabel=header[0])
    elif kind == "bars":
        try:
            values = [float(r[1]) for r in rows]
        except ValueError:
            raise ValueError(
                f"bar plots need a numeric second column; expected "
                f"[label, value], got {header}") from None
        svg = svg_bars([r[0] for r in rows], values, title=title, ylabel=header[1])
    else:
        raise ValueError(f"unknown plot kind {kind!r} (expected curve or bars)")
    atomic_write(out_path, svg)
