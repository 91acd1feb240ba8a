"""Per-entity anomaly reports: the top-K furthest-from-baseline combinations."""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .baseline import BaselineSet
from .config import AnalysisSpec
from .ingest import ContingencyIndex
from .rankstats import (
    AnomalyItem,  # re-exported with EntityAnomalyReport, the report types
    DistanceTable,
    EntityAnomalyReport,
    _baseline_ranks,
    _best_candidates,
    _items,
    _scored_cohorts,
    mrr_from_ranks,
)


def top_k(entity: str, table: DistanceTable, k: int) -> EntityAnomalyReport:
    """The entity's k highest-distance combinations, ties broken by combination.

    Ordering is distance descending, then combination ascending, so equal
    scores always list in the same order.  The table's rows are already in
    that order, so this is the first k of the entity's row.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = table.entity_stats.get(entity)
    if stats is None:
        raise KeyError(f"unknown entity {entity!r}")
    candidates = table.by_entity.get(entity)
    if not candidates:
        return stats
    return stats._replace(items=tuple(islice(candidates.values(), k)))


class Ranking:
    """What the one ranking pass leaves for the reports to be built from.

    ``entities`` lists every observed entity in order.  ``presence`` and
    ``mrrs`` hold the baseline summary of each entity present in a baseline
    cell, and ``best`` maps it to its best k candidates, a heap whose
    positions point into ``cohorts``.  An entity without an MRR has no
    baseline presence, no items and no heap.
    """

    __slots__ = ("entities", "presence", "mrrs", "cohorts", "best")

    def __init__(self, index: ContingencyIndex, baseline: BaselineSet, spec: AnalysisSpec) -> None:
        if index.total_records == 0:
            raise ValueError("empty index: no accepted records to analyse")
        # Sorted first, so the set of names is freed before the heaps are built.
        self.entities = sorted(index.entities())
        ranks = _baseline_ranks(index, baseline)
        self.presence = {entity: len(entity_ranks) for entity, entity_ranks in ranks.items()}
        self.mrrs = {entity: mrr_from_ranks(entity_ranks) for entity, entity_ranks in ranks.items()}
        del ranks  # freed before the heaps are built
        self.cohorts = _scored_cohorts(index, baseline, spec.min_support)
        self.best = _best_candidates(self.cohorts, self.mrrs, spec.k)

    def report(self, entity: str, heap: list | None = None) -> EntityAnomalyReport:
        """``entity``'s report, from ``heap`` if given, else from its heap in ``best``."""
        mrr = self.mrrs.get(entity)
        if mrr is None:
            return EntityAnomalyReport(entity, None, None, 0, ())
        if heap is None:
            heap = self.best.get(entity, [])
        items = _items(heap, self.cohorts)
        return EntityAnomalyReport(entity, mrr, 1.0 / mrr, self.presence[entity], items)


def rank_reports(
    index: ContingencyIndex,
    baseline: BaselineSet,
    spec: AnalysisSpec,
) -> Iterator[EntityAnomalyReport]:
    """One report per observed entity, yielded in entity order: the one ranking pass.

    The pass keeps each entity's best ``spec.k`` candidates, so the reports
    hold what ``top_k`` of the full table would, and items are built only for
    the survivors.  Each entity's heap is popped as its report is yielded, so
    a consumer that writes reports as they come holds the index, the heaps
    not yet reported and one report.  An entity absent from every baseline
    cell gets an empty report.
    """
    ranking = Ranking(index, baseline, spec)
    best = ranking.best
    for entity in ranking.entities:
        yield ranking.report(entity, best.pop(entity, []))


def recommend_all(
    index: ContingencyIndex,
    baseline: BaselineSet,
    spec: AnalysisSpec,
) -> list[EntityAnomalyReport]:
    """Every report of ``rank_reports``, sorted by entity for stable output."""
    return list(rank_reports(index, baseline, spec))
