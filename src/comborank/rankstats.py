"""Rank statistics: cohort orderings, reciprocal ranks, baseline MRR, distances.

Ranking is competition style: an entity's rank in a combination's cohort is
one plus the number of entities with a strictly greater count, so tied counts
share a rank and the next distinct count skips past the tie block.

An entity's mean reciprocal rank averages its reciprocal ranks over the
baseline combinations where the entity actually appears.  Combinations where
it is absent enter neither the numerator nor the denominator; an entity
absent from every baseline combination has no MRR at all and is excluded
from distance scoring (the reporting layer lists such entities separately).

The anomaly score of an entity in an observed non-baseline combination is
the absolute difference between its reciprocal rank there and its MRR, i.e.
how far the entity sits from where its baseline behaviour says it should.

One pass scores and orders the candidates: ``_best_candidates`` ranks each
scored cohort once and keeps each entity's best k candidates in a heap.
``recommend.rank_reports`` runs it with the analysis's k and yields the
reports one by one; ``recommend.recommend_all`` lists them.  The full-table
names are views of the same pass: ``baseline_stats`` gives the reports'
baseline summaries without items, ``compute_distances`` runs the pass with
k at the number of scored cohorts so that every candidate is kept, and
``recommend.top_k`` takes the first k of an entity's row.

All reciprocal-rank sums go through ``math.fsum``, which is exactly rounded
and therefore insensitive to accumulation order.  Combined with integer
counts this makes every statistic bit-identical regardless of how the input
was chunked or how many workers built the index.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappush, heapreplace
from math import fsum
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .baseline import BaselineSet
from .ingest import ContingencyIndex


class RankOrdering(NamedTuple):
    """A combination's cohort ordered by count descending, entity ascending.

    ``entries`` holds (entity, count, rank) triples; ``ranks`` indexes the
    same ranks by entity.
    """

    combination: tuple[str, ...]
    entries: tuple[tuple[str, int, int], ...]
    ranks: dict[str, int]

    @property
    def cohort_size(self) -> int:
        return len(self.entries)


_COMBINATION = itemgetter(0)
_COUNT = itemgetter(1)


def _ranked(cell: dict[str, int]) -> list[tuple[str, int, int]]:
    """A cohort's (entity, count, rank) triples, count descending, entity ascending.

    Sorting by entity and then stably by count descending gives the order of
    the key ``(-count, entity)`` with both sorts comparing in C.
    """
    items = sorted(cell.items())
    items.sort(key=_COUNT, reverse=True)
    ranked: list[tuple[str, int, int]] = []
    append = ranked.append
    rank = 0
    previous = None
    for position, (entity, count) in enumerate(items, 1):
        if count != previous:
            rank = position
            previous = count
        append((entity, count, rank))
    return ranked


def rank_ordering(index: ContingencyIndex, combination: Sequence[str]) -> RankOrdering:
    """Order one observed combination's cohort; unobserved combinations raise."""
    combo = tuple(combination)
    cell = index.cells.get(combo)
    if not cell:
        raise KeyError(f"combination {combo!r} not observed")
    entries = tuple(_ranked(cell))
    return RankOrdering(combo, entries, {entity: rank for entity, _count, rank in entries})


def mrr_from_ranks(ranks: Iterable[int | None]) -> float | None:
    """Mean reciprocal rank over present entries; None marks absence.

    Returns None when the entity is present nowhere.
    """
    rrs = [1.0 / rank for rank in ranks if rank is not None]
    if not rrs:
        return None
    return fsum(rrs) / len(rrs)


class AnomalyItem(NamedTuple):
    """One scored (entity, non-baseline combination) pair with the evidence behind its score."""

    combination: tuple[str, ...]
    distance: float
    rr: float
    rank: int
    cohort_size: int
    count: int


class EntityAnomalyReport(NamedTuple):
    """An entity's baseline summary and its highest-distance combinations.

    ``baseline_presence`` counts the baseline combinations where the entity
    appears.  ``expected_rank`` is 1/MRR, the rank the entity would need in a
    cohort to look exactly as popular as its baseline average says.  ``mrr``
    is None for entities absent from every baseline combination; such
    entities carry no items because they cannot be scored.
    """

    entity: str
    mrr: float | None
    expected_rank: float | None
    baseline_presence: int
    items: tuple[AnomalyItem, ...]


def _baseline_ranks(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, list[int]]:
    """Each entity's ranks in the observed baseline cells, for entities present in one.

    Each observed baseline cell's counts are sorted once and every entity's
    rank read from them, so the cost is one sort per baseline cell instead
    of one per (entity, cell) pair.  Entities absent from every baseline
    cell get no entry.
    """
    if not baseline.combinations:
        raise ValueError("baseline set is empty")
    per_entity: dict[str, list[int]] = {}
    for combo in baseline.sorted_combinations():
        cell = index.cells.get(combo)
        if not cell:
            continue
        counts = sorted(cell.values())
        above = len(counts) + 1
        for entity, count in cell.items():
            rank = above - bisect_right(counts, count)
            ranks = per_entity.get(entity)
            if ranks is None:
                per_entity[entity] = [rank]
            else:
                ranks.append(rank)
    return per_entity


def baseline_stats(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, EntityAnomalyReport]:
    """Every observed entity's baseline summary, as a report without items."""
    per_entity = _baseline_ranks(index, baseline)
    stats = {}
    for entity in sorted(index.entities()):
        ranks = per_entity.get(entity, ())
        mrr = mrr_from_ranks(ranks)
        expected = None if mrr is None else 1.0 / mrr
        stats[entity] = EntityAnomalyReport(entity, mrr, expected, len(ranks), ())
    return stats


class DistanceTable:
    """Every scored pair, by entity then combination in report order, plus the stats behind them."""

    __slots__ = ("by_entity", "entity_stats")

    def __init__(
        self,
        by_entity: dict[str, dict[tuple[str, ...], AnomalyItem]],
        entity_stats: dict[str, EntityAnomalyReport],
    ) -> None:
        self.by_entity = by_entity
        self.entity_stats = entity_stats

    def __len__(self) -> int:
        return sum(len(per_combo) for per_combo in self.by_entity.values())


_Cohorts = list[tuple[tuple[str, ...], dict[str, int]]]
_Candidate = tuple[float, int, float, int, int]


def _scored_cohorts(index: ContingencyIndex, baseline: BaselineSet, min_support: int) -> _Cohorts:
    """The cohorts that get scored, as (combination, cell), combination ascending.

    Baseline combinations are skipped, and so are combinations whose total
    count falls below ``min_support``.
    """
    expected = baseline.combinations
    return sorted(
        (
            (combo, cell)
            for combo, cell in index.cells.items()
            if combo not in expected and (min_support <= 1 or sum(cell.values()) >= min_support)
        ),
        key=_COMBINATION,
    )


def _best_candidates(
    cohorts: _Cohorts, mrrs: dict[str, float], k: int
) -> dict[str, list[_Candidate]]:
    """The one ranking pass: each entity's best k candidates over ``cohorts``.

    Each cohort's counts are sorted once, and the competition rank of an
    entity with count ``c`` is read from them: one plus the number of counts
    above ``c``.  A one-entity cohort is rank 1 with no sort.  The distance
    is how far the entity's reciprocal rank there sits from its MRR.

    Each entity with an MRR keeps its candidates in a min-heap of
    ``(distance, -position, rr, rank, count)``, ``position`` being the
    cohort's place in ``cohorts``.  A larger key is a larger distance, or an
    equal distance and a smaller combination, which is the report order.
    Since positions only grow, a candidate whose distance merely equals the
    heap's smallest has the smaller key and stays out: only a strictly
    larger distance replaces the root.  An entity occurs once per cohort and
    has its own heap, so the order in which a cohort's entities are visited
    changes no heap.
    """
    best: dict[str, list[_Candidate]] = {}
    for position, (_combo, cell) in enumerate(cohorts):
        if len(cell) == 1:
            counts = None
        else:
            counts = sorted(cell.values())
            above = len(counts) + 1
        for entity, count in cell.items():
            mrr = mrrs.get(entity)
            if mrr is None:
                continue
            if counts is None:
                rank = 1
                rr = 1.0
            else:
                rank = above - bisect_right(counts, count)
                rr = 1.0 / rank
            distance = abs(rr - mrr)
            heap = best.get(entity)
            if heap is None:
                best[entity] = [(distance, -position, rr, rank, count)]
            elif len(heap) < k:
                heappush(heap, (distance, -position, rr, rank, count))
            elif distance > heap[0][0]:
                heapreplace(heap, (distance, -position, rr, rank, count))
    return best


def _items(heap: list[_Candidate], cohorts: _Cohorts) -> tuple[AnomalyItem, ...]:
    """A heap's candidates as items in report order: distance descending, then combination."""
    heap.sort(reverse=True)
    items = []
    for distance, negative_position, rr, rank, count in heap:
        combo, cell = cohorts[-negative_position]
        items.append(AnomalyItem(combo, distance, rr, rank, len(cell), count))
    return tuple(items)


def compute_distances(
    stats: dict[str, EntityAnomalyReport],
    index: ContingencyIndex,
    baseline: BaselineSet,
    min_support: int = 1,
) -> DistanceTable:
    """Score every entity in every observed non-baseline combination.

    This is the ranking pass with its bound at the number of scored cohorts,
    so every candidate is kept, and each entity's row lists them in report
    order.  Combinations whose total count falls below ``min_support`` are
    skipped, as are entities without an MRR (no baseline presence).
    """
    mrrs = {entity: s.mrr for entity, s in stats.items() if s.mrr is not None}
    cohorts = _scored_cohorts(index, baseline, min_support)
    best = _best_candidates(cohorts, mrrs, len(cohorts))
    by_entity = {}
    for entity in list(best):
        # Popped, so each heap is freed as its row is built.
        by_entity[entity] = {item.combination: item for item in _items(best.pop(entity), cohorts)}
    return DistanceTable(by_entity, stats)
