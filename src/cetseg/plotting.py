"""Static SVG plots: the series with its fitted mean structure overlaid.

Rendering is deliberately dependency-free.  The overlay is the fit's
mean function, evaluated from the regime lines every
:class:`~cetseg.core.FitResult` carries, and drawn with one element
per visual object so the output is inspectable; the model's mean
structure picks the style.  Discontinuous fits get one
``fitted-segment`` polyline per regime (jumps stay visible as gaps
between polylines), the continuous piecewise-linear fit is a single
``fitted-joinpin`` polyline through its knots, and a constant
long-memory mean is a single ``fitted-mean`` line.  A fit without a
mean function (variance shifts) draws no overlay.  Changepoints are
marked with dashed ``boundary`` rules.
"""

from __future__ import annotations

import numpy as np

from .core import FitResult, MeanStructure, TimeSeries
from .estimation import fitted_mean

__all__ = ["render_svg", "emit_plot"]

_W, _H = 860, 480
_ML, _MR, _MT, _MB = 64, 16, 20, 44


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Frame:
    def __init__(self, series: TimeSeries):
        self.y0 = series.first_year
        self.y1 = series.last_year
        lo = float(series.values.min())
        hi = float(series.values.max())
        pad = 0.05 * (hi - lo) or 1.0
        self.v0, self.v1 = lo - pad, hi + pad

    def x(self, year: float) -> float:
        span = max(self.y1 - self.y0, 1)
        return _ML + (year - self.y0) / span * (_W - _ML - _MR)

    def y(self, value: float) -> float:
        return _MT + (self.v1 - value) / (self.v1 - self.v0) * (_H - _MT - _MB)


def _polyline(points, cls: str, style: str) -> str:
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline class="{cls}" points="{path}" style="fill:none;{style}"/>'


def _axes(frame: _Frame) -> list[str]:
    parts = []
    x0, x1 = frame.x(frame.y0), frame.x(frame.y1)
    ybase = _H - _MB
    parts.append(
        f'<line class="axis" x1="{_fmt(x0)}" y1="{ybase}" x2="{_fmt(x1)}" y2="{ybase}" style="stroke:#333"/>'
    )
    parts.append(
        f'<line class="axis" x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{ybase}" style="stroke:#333"/>'
    )
    for year in np.linspace(frame.y0, frame.y1, 6):
        year = int(round(year))
        parts.append(
            f'<text class="tick-x" x="{_fmt(frame.x(year))}" y="{ybase + 18}" '
            f'text-anchor="middle" font-size="12">{year}</text>'
        )
    for value in np.linspace(frame.v0, frame.v1, 6):
        parts.append(
            f'<text class="tick-y" x="{_ML - 8}" y="{_fmt(frame.y(value) + 4)}" '
            f'text-anchor="end" font-size="12">{value:.1f}</text>'
        )
    parts.append(
        f'<text class="label-x" x="{(_ML + _W - _MR) // 2}" y="{_H - 6}" '
        f'text-anchor="middle" font-size="13">Year</text>'
    )
    parts.append(
        f'<text class="label-y" x="14" y="{(_MT + _H - _MB) // 2}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 14 {(_MT + _H - _MB) // 2})">&#176;C</text>'
    )
    return parts


# Mean structures drawn as one polyline through the series' ends and the
# knots, by class; every other one gets a polyline per regime.
_CONTINUOUS = {
    MeanStructure.JOINPIN: "fitted-joinpin",
    MeanStructure.LONG_MEMORY: "fitted-mean",
}


def _fit_overlay(series: TimeSeries, fit: FitResult, frame: _Frame) -> list[str]:
    parts = []
    n = series.n
    taus = fit.config.taus

    def year(t: float) -> float:
        return series.first_year + t - 1

    if fit.means is not None:
        f = fitted_mean(fit.config, fit.means, fit.slopes, n)
        cls = _CONTINUOUS.get(fit.model.mean_structure)
        if cls is not None:
            runs = [(1, *taus, n)]
        else:
            cls = "fitted-segment"
            runs = [(a + 1, b) for a, b in zip((0, *taus), (*taus, n))]
        for run in runs:
            pts = [(frame.x(year(t)), frame.y(f[t - 1])) for t in run]
            parts.append(_polyline(pts, cls, "stroke:#c22;stroke-width:2"))

    for tau in taus:
        x = _fmt(frame.x(year(tau + 0.5)))
        parts.append(
            f'<line class="boundary" x1="{x}" y1="{_MT}" x2="{x}" y2="{_H - _MB}" '
            f'style="stroke:#888;stroke-dasharray:4 3"/>'
        )
    return parts


def render_svg(series: TimeSeries, fit: FitResult, title: str | None = None) -> str:
    """Render the series with its fit to an SVG string."""
    frame = _Frame(series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts.extend(_axes(frame))
    obs = [
        (frame.x(series.year_of(t)), frame.y(series.values[t - 1]))
        for t in range(1, series.n + 1)
    ]
    parts.append(_polyline(obs, "observations", "stroke:#777;stroke-width:1"))
    parts.extend(_fit_overlay(series, fit, frame))
    if title:
        parts.append(
            f'<text class="title" x="{_ML}" y="14" font-size="13">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(series: TimeSeries, fit: FitResult, path: str, title: str | None = None) -> None:
    """Write the rendered SVG to ``path``."""
    svg = render_svg(series, fit, title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
