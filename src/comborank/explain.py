"""Evidence rendering: cohort charts and the files that hold them.

Charts are built as plain SVG strings so the output is deterministic: no
clock, no library state, fixed float formatting.  For each chart the focal
entity's bar is highlighted and a dashed marker is drawn at its rank
position, carrying ``data-rank`` and ``data-cohort`` attributes so the
geometry can be cross-checked against the rank statistics.

Only ``explain`` calls load this module.  Report documents are written by
``reports``; ``emit_report`` is also served from here.
"""

from __future__ import annotations

import json
import re
from _blake2 import blake2s  # hashlib's own blake2s, without loading OpenSSL
from pathlib import Path
from typing import NamedTuple, Sequence

from .baseline import BaselineSet
from .ingest import ContingencyIndex
from .rankstats import EntityAnomalyReport, baseline_cells, rank_ordering
from .reports import SCHEMA_VERSION, all_or_nothing, emit_report  # noqa: F401

_CHART_WIDTH = 960
_CHART_HEIGHT = 340
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 24
_MARGIN_TOP = 58
_MARGIN_BOTTOM = 36
_BAR_BUDGET = 100

_BAR_FILL = "#5b87b5"
_FOCAL_FILL = "#d1495b"
_MARKER_STROKE = "#d1495b"
_AXIS_STROKE = "#9aa3ad"
_TEXT_FILL = "#2f3640"


def _escape_text(text: str) -> str:
    """SVG text content, as ``html.escape(text, quote=False)`` writes it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class ChartData(NamedTuple):
    """One cohort ready to draw: ordered series plus the focal entity's spot.

    ``series`` lists (entity, count) by count descending, entity ascending;
    ``distance`` is None for baseline cohorts and the anomaly score for
    reported combinations.
    """

    combination: tuple[str, ...]
    series: tuple[tuple[str, int], ...]
    focal_entity: str
    focal_rank: int
    focal_count: int
    distance: float | None = None

    @property
    def cohort_size(self) -> int:
        return len(self.series)


class ExplanationBundle(NamedTuple):
    """Everything needed to show why one entity's report looks the way it does.

    ``baseline_charts`` covers the baseline combinations where the entity
    appears (absent combinations get no chart); ``anomaly_charts`` mirrors
    the report items in report order.
    """

    entity: str
    mrr: float | None
    expected_rank: float | None
    baseline_charts: tuple[ChartData, ...]
    anomaly_charts: tuple[ChartData, ...]


def _chart_for(
    index: ContingencyIndex,
    combination: tuple[str, ...],
    entity: str,
    distance: float | None,
) -> ChartData:
    ordering = rank_ordering(index, combination)
    series = tuple((e, count) for e, count, _rank in ordering.entries)
    rank = ordering.ranks[entity]
    # A tie block starts at its rank's position, so that entry holds the entity's count.
    count = ordering.entries[rank - 1][1]
    return ChartData(combination, series, entity, rank, count, distance)


def explain(
    entity: str,
    report: EntityAnomalyReport,
    index: ContingencyIndex,
    baseline: BaselineSet,
) -> ExplanationBundle:
    """The cohort evidence behind one entity's report; baseline charts in sorted order."""
    if report.entity != entity:
        raise ValueError(f"report is for {report.entity!r}, not {entity!r}")
    held = baseline_cells(index, baseline, entity)
    baseline_charts = tuple(_chart_for(index, combo, entity, None) for combo in held)
    if not baseline_charts and not report.items and not index.observes(entity):
        raise KeyError(f"entity {entity!r} not observed in the index")
    anomaly_charts = tuple(
        _chart_for(index, item.combination, entity, item.distance) for item in report.items
    )
    return ExplanationBundle(entity, report.mrr, report.expected_rank, baseline_charts, anomaly_charts)


def _displayed_positions(chart: ChartData) -> list[int]:
    if chart.cohort_size <= _BAR_BUDGET:
        return list(range(chart.cohort_size))
    positions = list(range(_BAR_BUDGET))
    focal = [
        i for i, (entity, _count) in enumerate(chart.series) if entity == chart.focal_entity
    ]
    if focal and focal[0] >= _BAR_BUDGET:
        positions.append(focal[0])
    return positions


def render_chart(chart: ChartData) -> str:
    """Draw one cohort as a self-contained SVG string.

    Cohorts larger than ``_BAR_BUDGET`` are down-sampled to the top bars plus
    the focal entity's bar at its true position; the marker placement always
    uses the full cohort geometry.
    """
    if chart.focal_rank < 1 or chart.focal_rank > chart.cohort_size:
        raise ValueError(
            f"focal rank {chart.focal_rank} outside cohort of {chart.cohort_size}"
        )
    plot_w = _CHART_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _CHART_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    n = chart.cohort_size
    slot = plot_w / n
    max_count = chart.series[0][1]
    title = " / ".join(chart.combination)
    subtitle = (
        f"{chart.focal_entity}: rank {chart.focal_rank} of {n}, count {chart.focal_count}"
    )
    if chart.distance is not None:
        subtitle += f", distance {chart.distance:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" '
        f'height="{_CHART_HEIGHT}" viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_LEFT}" y="22" font-family="sans-serif" font-size="15" '
        f'font-weight="bold" fill="{_TEXT_FILL}">{_escape_text(title)}</text>',
        f'<text x="{_MARGIN_LEFT}" y="42" font-family="sans-serif" font-size="13" '
        f'fill="{_TEXT_FILL}">{_escape_text(subtitle)}</text>',
    ]

    baseline_y = _MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{baseline_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{baseline_y}" stroke="{_AXIS_STROKE}" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 4}" font-family="sans-serif" '
        f'font-size="11" fill="{_TEXT_FILL}" text-anchor="end">{max_count}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{baseline_y + 4}" font-family="sans-serif" '
        f'font-size="11" fill="{_TEXT_FILL}" text-anchor="end">0</text>'
    )

    positions = _displayed_positions(chart)
    bar_w = max(slot * 0.85, 0.5)
    for pos in positions:
        entity, count = chart.series[pos]
        x = _MARGIN_LEFT + pos * slot
        h = plot_h * count / max_count if max_count else 0.0
        y = baseline_y - h
        fill = _FOCAL_FILL if entity == chart.focal_entity else _BAR_FILL
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{h:.2f}" '
            f'fill="{fill}"><title>{_escape_text(entity)}: {count}</title></rect>'
        )
    if len(positions) < n:
        note = f"top {_BAR_BUDGET} of {n} entities shown"
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w}" y="42" font-family="sans-serif" '
            f'font-size="11" fill="{_TEXT_FILL}" text-anchor="end">'
            f'{_escape_text(note)}</text>'
        )

    marker_x = _MARGIN_LEFT + (chart.focal_rank - 1 + 0.5) * slot
    parts.append(
        f'<line class="focal-marker" data-rank="{chart.focal_rank}" data-cohort="{n}" '
        f'x1="{marker_x:.2f}" y1="{_MARGIN_TOP}" x2="{marker_x:.2f}" y2="{baseline_y}" '
        f'stroke="{_MARKER_STROKE}" stroke-width="1.5" stroke-dasharray="5 3"/>'
    )
    label = f"rank {chart.focal_rank}"
    anchor = "start" if marker_x < _MARGIN_LEFT + plot_w / 2 else "end"
    dx = 5 if anchor == "start" else -5
    parts.append(
        f'<text x="{marker_x + dx:.2f}" y="{_MARGIN_TOP + 14}" font-family="sans-serif" '
        f'font-size="11" fill="{_MARKER_STROKE}" text-anchor="{anchor}">'
        f'{_escape_text(label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


# --- file layout ---------------------------------------------------------------

def _slug(text: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9.-]", "-", text)[:32].strip("-") or "value"
    digest = blake2s(text.encode("utf-8"), digest_size=4).hexdigest()
    return f"{safe}.{digest}"


def combination_slug(combination: Sequence[str]) -> str:
    """Filesystem-safe, collision-resistant name for a combination."""
    return _slug("\x1f".join(combination))


def _chart_index_entry(chart: ChartData, filename: str) -> dict:
    entry = {
        "combination": list(chart.combination),
        "file": filename,
        "rank": chart.focal_rank,
        "cohort_size": chart.cohort_size,
        "count": chart.focal_count,
    }
    if chart.distance is not None:
        entry["distance"] = chart.distance
    return entry


def write_explanation(bundle: ExplanationBundle, out_dir: str | Path) -> Path:
    """Write one entity's charts and a JSON index; returns the entity directory.

    The directory is all or nothing (``all_or_nothing``): an earlier run's
    directory for the entity is replaced whole, none of its charts left
    behind, and a failed write leaves it as it was.  ``out_dir`` is locked
    meanwhile; one that another call holds raises ``BlockingIOError``.
    """
    target = Path(out_dir) / _slug(bundle.entity)
    with all_or_nothing([target]) as (staged,):
        staged.mkdir()
        _write_charts(bundle, staged)
    return target


def _write_charts(bundle: ExplanationBundle, target: Path) -> None:
    index: dict = {
        "schema_version": SCHEMA_VERSION,
        "entity": bundle.entity,
        "mrr": bundle.mrr,
        "expected_rank": bundle.expected_rank,
        "baseline_charts": [],
        "anomaly_charts": [],
    }
    for kind, charts in (("baseline", bundle.baseline_charts), ("anomaly", bundle.anomaly_charts)):
        for chart in charts:
            filename = f"{kind}__{combination_slug(chart.combination)}.svg"
            (target / filename).write_text(render_chart(chart), encoding="utf-8")
            index[f"{kind}_charts"].append(_chart_index_entry(chart, filename))
    (target / "explanation.json").write_text(
        json.dumps(index, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
