"""Per-entity anomaly reports: the top-K furthest-from-baseline combinations."""

from __future__ import annotations

from itertools import islice

from .baseline import BaselineSet
from .config import AnalysisSpec
from .ingest import ContingencyIndex
# AnomalyItem is re-exported with EntityAnomalyReport: the report types.
from .rankstats import AnomalyItem, DistanceTable, EntityAnomalyReport, Ranking


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
    """One report per observed entity, in entity order: the one ranking pass.

    The pass keeps each entity's best ``spec.k`` candidates, so the reports
    hold what ``top_k`` of the full table would, and items are built only for
    the survivors.  An entity absent from every baseline cell gets an empty
    report.
    """
    ranking = Ranking(index, baseline, spec)
    return list(ranking.reports(ranking.entities))
