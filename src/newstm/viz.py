"""Deterministic SVG figure emitters.

Byte-stability rules: every coordinate goes through one fixed 3-decimal
formatter, element order is fixed, and no timestamps or generated ids are
embedded. Data curves are the only <polyline> elements; axes and ticks are
<line> elements, so structural assertions on figures stay simple.
"""

from __future__ import annotations

import datetime
import html
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from newstm.dtm import TrajectorySeries
from newstm.evaluate import IntertopicMap
from newstm.modelfile import replace_text

logger = logging.getLogger(__name__)

THEME = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 48.0
_MAX_TICKS = 6


@dataclass(frozen=True)
class FigureSpec:
    """Output geometry of one figure; colors come from THEME, assigned by rank."""

    title: str
    width: int = 800
    height: int = 480
    path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"figure size must be positive, got {self.width}x{self.height}")


def escape(text: str) -> str:
    """Replace &, < and > with entities, as XML text needs; quotes stay."""
    return html.escape(text, quote=False)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _finish(spec: FigureSpec, body: list[str]) -> str:
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f"<title>{escape(spec.title)}</title>",
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
        f'<text x="{_fmt(spec.width / 2)}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(spec.title)}</text>',
    ]
    lines.extend(body)
    lines.append("</svg>")
    svg = "\n".join(lines) + "\n"
    if spec.path is not None:
        out = Path(spec.path)
        out.parent.mkdir(parents=True, exist_ok=True)
        replace_text(out, svg)
        logger.info("wrote %s", out)
    return svg


def _plot_frame(spec: FigureSpec) -> tuple[float, float, float, float]:
    x0 = _MARGIN_LEFT
    y0 = _MARGIN_TOP
    x1 = spec.width - _MARGIN_RIGHT
    y1 = spec.height - _MARGIN_BOTTOM
    return x0, y0, x1, y1


def _axes(x0: float, y0: float, x1: float, y1: float) -> list[str]:
    return [
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="#000000"/>',
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="#000000"/>',
    ]


def _x_tick(x: float, y1: float, label: str) -> list[str]:
    return [
        f'<line x1="{_fmt(x)}" y1="{_fmt(y1)}" x2="{_fmt(x)}" y2="{_fmt(y1 + 5)}" stroke="#000000"/>',
        f'<text x="{_fmt(x)}" y="{_fmt(y1 + 18)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{escape(label)}</text>',
    ]


def _y_tick(x0: float, y: float, label: str) -> list[str]:
    return [
        f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(y)}" x2="{_fmt(x0)}" y2="{_fmt(y)}" stroke="#000000"/>',
        f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y + 3)}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{escape(label)}</text>',
    ]


def _axis_labels(spec: FigureSpec, x_label: str, y_label: str) -> list[str]:
    x0, y0, x1, y1 = _plot_frame(spec)
    return [
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(spec.height - 8)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{escape(x_label)}</text>',
        f'<text x="14" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {_fmt((y0 + y1) / 2)})">{escape(y_label)}</text>',
    ]


def _tick_positions(n: int) -> list[int]:
    if n <= _MAX_TICKS:
        return list(range(n))
    step = (n - 1) / (_MAX_TICKS - 1)
    return sorted({round(i * step) for i in range(_MAX_TICKS)})


def plot_timeline(
    series: list[tuple[datetime.date, int]], spec: FigureSpec
) -> str:
    """Line chart of daily publication counts; one polyline, labeled axes."""
    if not series:
        raise ValueError("timeline series must be nonempty")
    dates = [day for day, _ in series]
    counts = [count for _, count in series]
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise ValueError("timeline dates must be strictly ascending")
    for day, count in series:
        if count < 0:
            raise ValueError(f"timeline count for {day.isoformat()} is negative: {count}")

    x0, y0, x1, y1 = _plot_frame(spec)
    t_lo, t_hi = dates[0].toordinal(), dates[-1].toordinal()
    t_span = max(t_hi - t_lo, 1)
    y_max = max(max(counts), 1)

    def sx(day: datetime.date) -> float:
        return x0 + (day.toordinal() - t_lo) / t_span * (x1 - x0)

    def sy(value: float) -> float:
        return y1 - value / y_max * (y1 - y0)

    points = " ".join(f"{_fmt(sx(day))},{_fmt(sy(count))}" for day, count in series)
    body = _axes(x0, y0, x1, y1)
    for i in _tick_positions(len(series)):
        body.extend(_x_tick(sx(dates[i]), y1, dates[i].isoformat()))
    seen: set[int] = set()
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        value = round(frac * y_max)
        if value in seen:
            continue
        seen.add(value)
        body.extend(_y_tick(x0, sy(value), str(value)))
    body.append(
        f'<polyline fill="none" stroke="{THEME[0]}" stroke-width="1.5" points="{points}"/>'
    )
    body.extend(_axis_labels(spec, "date", "articles per day"))
    return _finish(spec, body)


def plot_trajectories(series: TrajectorySeries, spec: FigureSpec) -> str:
    """One polyline per tracked word; legend ordered by final-slice probability."""
    if not series.words:
        raise ValueError("trajectory series tracks no words")
    n_slices = len(series.slice_labels)
    # Rank words by final-slice probability, ties by input order, so the
    # legend's top entry is the most probable word at the end of the span.
    ranked = sorted(
        range(len(series.words)),
        key=lambda i: (-float(series.series[series.words[i]][-1]), i),
    )
    x0, y0, x1, y1 = _plot_frame(spec)
    y_max = max(float(series.series[w].max()) for w in series.words)
    y_max = y_max * 1.05 if y_max > 0 else 1.0

    def sx(t: int) -> float:
        if n_slices == 1:
            return (x0 + x1) / 2
        return x0 + t / (n_slices - 1) * (x1 - x0)

    def sy(value: float) -> float:
        return y1 - value / y_max * (y1 - y0)

    body = _axes(x0, y0, x1, y1)
    for t in _tick_positions(n_slices):
        body.extend(_x_tick(sx(t), y1, series.slice_labels[t]))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        body.extend(_y_tick(x0, sy(frac * y_max), _fmt(frac * y_max)))
    for rank, i in enumerate(ranked):
        word = series.words[i]
        color = THEME[rank % len(THEME)]
        points = " ".join(
            f"{_fmt(sx(t))},{_fmt(sy(float(v)))}" for t, v in enumerate(series.series[word])
        )
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    for rank, i in enumerate(ranked):
        word = series.words[i]
        color = THEME[rank % len(THEME)]
        ly = y0 + 14 + rank * 14
        body.append(
            f'<line x1="{_fmt(x1 - 110)}" y1="{_fmt(ly - 4)}" x2="{_fmt(x1 - 92)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_fmt(x1 - 88)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="11">{escape(word)}</text>'
        )
    body.extend(_axis_labels(spec, "slice start", "p(word | topic)"))
    return _finish(spec, body)


def plot_intertopic(topic_map: IntertopicMap, spec: FigureSpec) -> str:
    """One circle per topic at its 2-D coordinate; radius scales with sqrt(prevalence)."""
    coords = topic_map.coordinates
    prevalence = topic_map.prevalence
    k = coords.shape[0]
    if k < 1:
        raise ValueError("intertopic map holds no topics")
    for topic in range(k):
        if not np.isfinite(coords[topic]).all():
            raise ValueError(f"topic {topic} has a NaN or infinite coordinate")
        if not 0 <= prevalence[topic] < np.inf:
            value = float(prevalence[topic])
            raise ValueError(f"topic {topic} has prevalence {value}; it must be finite and >= 0")

    x0, y0, x1, y1 = _plot_frame(spec)
    cx = (x0 + x1) / 2
    cy = (y0 + y1) / 2
    extent = float(np.abs(coords).max())
    if extent <= 0:
        extent = 1.0
    scale = 0.38 * min(x1 - x0, y1 - y0) / extent

    r_max = 0.12 * min(x1 - x0, y1 - y0)
    p_max = float(prevalence.max())

    body: list[str] = []
    for topic in range(k):
        px = cx + float(coords[topic, 0]) * scale
        py = cy - float(coords[topic, 1]) * scale
        if p_max > 0:
            radius = max(r_max * float(np.sqrt(prevalence[topic] / p_max)), 1.0)
        else:
            radius = r_max
        color = THEME[topic % len(THEME)]
        body.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(radius)}" '
            f'fill="{color}" fill-opacity="0.45" stroke="{color}"/>'
        )
        body.append(
            f'<text x="{_fmt(px)}" y="{_fmt(py + 4)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{topic}</text>'
        )
    return _finish(spec, body)
