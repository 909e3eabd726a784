"""Minimal deterministic SVG line charts on log-log axes.

Pure string assembly from the data: no timestamps, no randomized ids, so a
fixed input always produces byte-identical output. Both axes are
logarithmic with decade ticks, so every point must be finite and positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EmptyTrace(ValueError):
    """No plottable points were supplied."""


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 46.0


@dataclass
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(label: str) -> str:
    # xml.sax.saxutils.escape would do, but importing it pulls in
    # urllib.request and ssl: about 0.1 s and several MB per process
    return label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_label(v: float) -> str:
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _log_ticks(lo: float, hi: float) -> list:
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)
            if lo <= 10.0 ** e <= hi]


def line_chart(series, xlabel: str, ylabel: str) -> str:
    """Render the series, whose points must all be finite and positive, to
    a self-contained log-log SVG string. Labels are text: ``&``, ``<`` and
    ``>`` in them are escaped."""
    if not series:
        raise EmptyTrace("nothing to plot")

    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.9, x_hi * 1.1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.9, y_hi * 1.1

    def tx(v):
        f = (math.log10(v) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        return _MARGIN_L + f * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def ty(v):
        f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _HEIGHT - _MARGIN_B - f * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
               f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    out.append(f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
               f'height="{_fmt(plot_h)}" fill="none" stroke="#333" stroke-width="1"/>')

    for t in _log_ticks(x_lo, x_hi):
        px = tx(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_HEIGHT - _MARGIN_B)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(_HEIGHT - _MARGIN_B + 4)}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(_HEIGHT - _MARGIN_B + 16)}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                   f'{_tick_label(t)}</text>')
    for t in _log_ticks(y_lo, y_hi):
        py = ty(t)
        out.append(f'<line x1="{_fmt(_MARGIN_L - 4)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(py)}" stroke="#333"/>')
        out.append(f'<text x="{_fmt(_MARGIN_L - 7)}" y="{_fmt(py + 3)}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="10">'
                   f'{_tick_label(t)}</text>')

    out.append(f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 8)}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12">'
               f'{_text(xlabel)}</text>')
    out.append(f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">'
               f'{_text(ylabel)}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(tx(xv))},{_fmt(ty(yv))}" for xv, yv in zip(s.x, s.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _WIDTH - _MARGIN_R - 150
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                   f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 27)}" y="{_fmt(ly)}" font-family="sans-serif" '
                   f'font-size="11">{_text(s.label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
