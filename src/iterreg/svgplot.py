"""Minimal SVG line charts; CSV stays the canonical output format."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf")

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 18, 42, 54


def _escape(text):
    """``str(text)`` with ``&``, ``<`` and ``>`` written as XML character entities."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _drawable(x, y, logx, logy):
    """Where the points (x, y) are drawn: finite, and positive on a log axis."""
    return np.isfinite(x) & np.isfinite(y) & ((x > 0) | (not logx)) & ((y > 0) | (not logy))


def _axis(values, log, p0, p1):
    """The range of ``values`` and its map onto pixels p0..p1, affine in the value or its log10.

    One value v widens to a range by 1 each way, or by its float spacing where v - 1
    and v + 1 both round to v (from |v| = 2**53 on); on a log axis by a factor of 10 each way.
    """
    # the first of equal extremes, as min and max take it, so that a range ending at 0 keeps its sign
    lo, hi = float(values[np.argmin(values)]), float(values[np.argmax(values)])
    if hi == lo and log:
        lo, hi = lo / 10.0, hi * 10.0
    elif hi == lo:
        step = 1.0 if lo - 1.0 < lo + 1.0 else math.ulp(lo)
        lo, hi = lo - step, hi + step
    f = math.log10 if log else float
    a, b = f(lo), f(hi)
    return lo, hi, lambda v: p0 + (f(v) - a) / (b - a) * (p1 - p0)


def _ticks(lo, hi, log):
    if log:
        d0, d1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        step = max(1, (d1 - d0) // 6)
        return [10.0 ** d for d in range(d0, d1 + 1, step)]
    return list(np.linspace(lo, hi, 5))


def line_chart(path, series, title="", xlabel="", ylabel="", logx=False, logy=False,
               markers=()):
    """Write a WIDTH x HEIGHT line chart to ``path``.

    ``series`` is a list of (label, xs, ys); non-finite and non-positive (on
    log scales) points are dropped. ``markers`` is a list of (label, x, y)
    highlighted points, dropped by the same rule.
    """
    data = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = _drawable(xs, ys, logx, logy)
        data.append((label, xs[keep], ys[keep]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
    ]
    if any(xs.size for _, xs, _ in data):
        parts += _plot(data, xlabel, ylabel, logx, logy, markers)
    else:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT / 2:.1f}" text-anchor="middle">no data</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _plot(data, xlabel, ylabel, logx, logy, markers):
    """The SVG elements of the axes, series and markers of a chart with a drawable point."""
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    xlo, xhi, sx = _axis(np.concatenate([xs for _, xs, _ in data]), logx, x0, x1)
    ylo, yhi, sy = _axis(np.concatenate([ys for _, _, ys in data]), logy, y0, y1)
    parts = []
    for tx in _ticks(xlo, xhi, logx):
        if xlo <= tx <= xhi:
            parts.append(f'<line x1="{sx(tx):.1f}" y1="{y0}" x2="{sx(tx):.1f}" y2="{y1}" '
                         'stroke="#dddddd" stroke-width="1"/>')
            parts.append(f'<text x="{sx(tx):.1f}" y="{y0 + 18}" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(ylo, yhi, logy):
        if ylo <= ty <= yhi:
            parts.append(f'<line x1="{x0}" y1="{sy(ty):.1f}" x2="{x1}" y2="{sy(ty):.1f}" '
                         'stroke="#dddddd" stroke-width="1"/>')
            parts.append(f'<text x="{x0 - 6}" y="{sy(ty) + 4:.1f}" text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
                 'fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle">{_escape(xlabel)}</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{_escape(ylabel)}</text>')

    for i, (label, xs, ys) in enumerate(data):
        if not xs.size:
            continue
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * i
        parts.append(f'<line x1="{x1 - 130}" y1="{ly - 4}" x2="{x1 - 106}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x1 - 100}" y="{ly}">{_escape(label)}</text>')

    for label, mx, my in markers:
        if _drawable(mx, my, logx, logy):
            parts.append(f'<circle cx="{sx(mx):.2f}" cy="{sy(my):.2f}" r="3.5" fill="black"/>')
            if label:
                parts.append(f'<text x="{sx(mx) + 6:.2f}" y="{sy(my) - 6:.2f}" font-size="10">{_escape(label)}</text>')
    return parts
