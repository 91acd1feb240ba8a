"""Per-entity anomaly reports: the top-K furthest-from-baseline combinations."""

from __future__ import annotations

from heapq import heappush, heapreplace
from operator import itemgetter
from typing import NamedTuple

from .baseline import BaselineSet
from .config import AnalysisSpec
from .ingest import ContingencyIndex
from .rankstats import (
    AnomalyItem,
    DistanceTable,
    _baseline_ranks,
    _scored_cohorts,
    _scores,
    mrr_from_ranks,
)


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
    """One report per observed entity, sorted by entity for stable output.

    One pass ranks each scored cohort, in ascending combination order, and
    keeps each entity's best k candidates in a min-heap keyed ``(distance,
    -position)``, ``position`` being the combination's place in that order.
    A larger key is a larger distance, or an equal distance and a smaller
    combination, which is ``top_k``'s order; so the heap holds ``top_k``'s
    items, and sorting it by key descending lists them as ``top_k`` does.
    Since positions only grow, a candidate whose distance merely equals the
    heap's smallest has the smaller key and stays out: only a strictly larger
    distance replaces the root.  Items are built only for the survivors, and
    an entity absent from every baseline cell gets an empty report.
    """
    if index.total_records == 0:
        raise ValueError("empty index: no accepted records to analyse")
    k = spec.k
    ranks = _baseline_ranks(index, baseline)
    mrrs = {entity: mrr_from_ranks(entity_ranks) for entity, entity_ranks in ranks.items()}
    cohorts = _scored_cohorts(index, baseline, spec.min_support)
    best: dict[str, list[tuple[float, int, float, int, int]]] = {}
    for position, (_combo, cell) in enumerate(cohorts):
        for entity, distance, rr, rank, count in _scores(cell, mrrs):
            heap = best.get(entity)
            if heap is None:
                best[entity] = [(distance, -position, rr, rank, count)]
            elif len(heap) < k:
                heappush(heap, (distance, -position, rr, rank, count))
            elif distance > heap[0][0]:
                heapreplace(heap, (distance, -position, rr, rank, count))
    reports = []
    for entity in sorted(index.entities()):
        mrr = mrrs.get(entity)
        if mrr is None:
            reports.append(EntityAnomalyReport(entity, None, None, 0, ()))
            continue
        # Popped, so each heap is freed as its items are built.
        heap = best.pop(entity, [])
        heap.sort(reverse=True)
        items = []
        for distance, negative_position, rr, rank, count in heap:
            combo, cell = cohorts[-negative_position]
            items.append(AnomalyItem(combo, distance, rr, rank, len(cell), count))
        reports.append(
            EntityAnomalyReport(entity, mrr, 1.0 / mrr, len(ranks[entity]), tuple(items))
        )
    return reports
