"""Brute-force reference analysis used to cross-check the pipeline.

Everything is recomputed from the raw file with plain data structures: read
all rows, count values, group by combination, sort each cohort, average
reciprocal ranks.  Only the public result types are shared with the
pipeline, so agreement between the two is meaningful evidence rather than
the same code run twice.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product
from math import fsum
from pathlib import Path
from typing import Sequence

from ..config import AnalysisSpec
from ..recommend import AnomalyItem, EntityAnomalyReport


def _read_rows(
    path: str | Path,
    delimiter: str,
    header: bool,
    columns: Sequence[str] | None,
    missing_token: str,
) -> tuple[list[str], list[list[str]]]:
    # Iterating a text handle breaks lines only at \n, \r\n and \r, as
    # ingestion does; str.splitlines() would also break inside fields.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = list(handle)
    if lines:
        # A leading UTF-8 byte order mark belongs to neither a name nor a value.
        lines[0] = lines[0].removeprefix("\ufeff")
    if header:
        if not lines:
            raise ValueError(f"{path}: empty file")
        names = [name.strip() for name in lines[0].split(delimiter)]
        data = lines[1:]
    else:
        if not columns:
            raise ValueError("columns are required when the log has no header")
        names = list(columns)
        data = lines
    width = len(names)
    rows = []
    for line in data:
        parts = line.split(delimiter)
        if len(parts) != width:
            continue
        rows.append([part.strip() or missing_token for part in parts])
    return names, rows


def _cohort_ranks(counter: Counter) -> dict[str, int]:
    """Competition ranks: equal counts share the earlier entity's rank."""
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: dict[str, int] = {}
    for position, (entity, count) in enumerate(ordered):
        if position > 0 and count == ordered[position - 1][1]:
            ranks[entity] = ranks[ordered[position - 1][0]]
        else:
            ranks[entity] = position + 1
    return ranks


def oracle_recommend(
    path: str | Path,
    spec: AnalysisSpec,
    *,
    delimiter: str = ",",
    header: bool = True,
    columns: Sequence[str] | None = None,
    missing_token: str = "Unknown",
) -> list[EntityAnomalyReport]:
    """Full analysis of one log file, computed the slow and obvious way."""
    names, rows = _read_rows(path, delimiter, header, columns, missing_token)
    position_of = {name: i for i, name in enumerate(names)}
    category_positions = [position_of[c] for c in spec.categories]
    entity_position = position_of[spec.entity_field]
    if not rows:
        raise ValueError(f"{path}: no accepted records")

    value_counts: dict[str, Counter] = {c: Counter() for c in spec.categories}
    for row in rows:
        for category, pos in zip(spec.categories, category_positions):
            value_counts[category][row[pos]] += 1
    tops = []
    for category, limit in zip(spec.categories, spec.p):
        ordered = sorted(value_counts[category].items(), key=lambda kv: (-kv[1], kv[0]))
        tops.append([value for value, _ in ordered[:limit]])
    expected = set(product(*tops))

    groups: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    for row in rows:
        combination = tuple(row[pos] for pos in category_positions)
        groups[combination][row[entity_position]] += 1

    entities = sorted({entity for counter in groups.values() for entity in counter})
    reciprocal_lists: dict[str, list[float]] = {entity: [] for entity in entities}
    for combination in sorted(expected):
        counter = groups.get(combination)
        if not counter:
            continue
        for entity, rank in _cohort_ranks(counter).items():
            reciprocal_lists[entity].append(1.0 / rank)

    reports = []
    for entity in entities:
        reciprocals = reciprocal_lists[entity]
        if reciprocals:
            mean = fsum(reciprocals) / len(reciprocals)
            expected_rank = 1.0 / mean
        else:
            mean = None
            expected_rank = None
        scored: list[AnomalyItem] = []
        if mean is not None:
            for combination in sorted(groups):
                if combination in expected:
                    continue
                counter = groups[combination]
                if entity not in counter:
                    continue
                if sum(counter.values()) < spec.min_support:
                    continue
                rank = _cohort_ranks(counter)[entity]
                rr = 1.0 / rank
                scored.append(
                    AnomalyItem(
                        combination, abs(rr - mean), rr, rank, len(counter), counter[entity]
                    )
                )
            scored.sort(key=lambda item: (-item.distance, item.combination))
        reports.append(
            EntityAnomalyReport(
                entity, mean, expected_rank, len(reciprocals), tuple(scored[: spec.k])
            )
        )
    return reports
