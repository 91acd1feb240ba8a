"""Per-entity anomaly reports: the top-K furthest-from-baseline combinations."""

from __future__ import annotations

from itertools import islice

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


def recommend_all(
    index: ContingencyIndex,
    baseline: BaselineSet,
    spec: AnalysisSpec,
) -> list[EntityAnomalyReport]:
    """One report per observed entity, sorted by entity for stable output.

    The ranking pass keeps each entity's best ``spec.k`` candidates, so the
    reports hold what ``top_k`` of the full table would, and items are built
    only for the survivors.  An entity absent from every baseline cell gets
    an empty report.
    """
    if index.total_records == 0:
        raise ValueError("empty index: no accepted records to analyse")
    ranks = _baseline_ranks(index, baseline)
    mrrs = {entity: mrr_from_ranks(entity_ranks) for entity, entity_ranks in ranks.items()}
    cohorts = _scored_cohorts(index, baseline, spec.min_support)
    best = _best_candidates(cohorts, mrrs, spec.k)
    reports = []
    for entity in sorted(index.entities()):
        mrr = mrrs.get(entity)
        if mrr is None:
            reports.append(EntityAnomalyReport(entity, None, None, 0, ()))
            continue
        # Popped, so each heap is freed as its items are built.
        items = _items(best.pop(entity, []), cohorts)
        reports.append(EntityAnomalyReport(entity, mrr, 1.0 / mrr, len(ranks[entity]), items))
    return reports
