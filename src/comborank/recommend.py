"""Per-entity anomaly reports: the top-K furthest-from-baseline combinations."""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .baseline import BaselineSet
from .config import AnalysisSpec
from .ingest import ContingencyIndex
from .rankstats import AnomalyItem, DistanceTable, baseline_stats, compute_distances


class EntityAnomalyReport(NamedTuple):
    """An entity's baseline summary and its highest-distance combinations.

    ``mrr`` is None for entities absent from every baseline combination;
    such entities carry no items because they cannot be scored.
    """

    entity: str
    mrr: float | None
    expected_rank: float | None
    baseline_presence: int
    items: tuple[AnomalyItem, ...]


_COMBINATION = itemgetter(AnomalyItem._fields.index("combination"))
_DISTANCE = itemgetter(AnomalyItem._fields.index("distance"))


def top_k(entity: str, table: DistanceTable, k: int) -> EntityAnomalyReport:
    """The entity's k highest-distance combinations, ties broken by combination.

    Ordering is distance descending, then combination ascending, so equal
    scores always list in the same order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = table.entity_stats.get(entity)
    if stats is None:
        raise KeyError(f"unknown entity {entity!r}")
    candidates = table.by_entity.get(entity)
    items: tuple[AnomalyItem, ...] = ()
    if candidates:
        # Combination ascending, then stably distance descending.
        ordered = sorted(candidates.values(), key=_COMBINATION)
        ordered.sort(key=_DISTANCE, reverse=True)
        items = tuple(ordered[:k])
    return EntityAnomalyReport(
        entity, stats.mrr, stats.expected_rank, stats.baseline_presence, items
    )


def recommend_all(
    index: ContingencyIndex,
    baseline: BaselineSet,
    spec: AnalysisSpec,
) -> list[EntityAnomalyReport]:
    """One report per observed entity, sorted by entity for stable output."""
    if index.total_records == 0:
        raise ValueError("empty index: no accepted records to analyse")
    stats = baseline_stats(index, baseline)
    table = compute_distances(stats, index, baseline, spec.min_support)
    return [top_k(entity, table, spec.k) for entity in sorted(stats)]
