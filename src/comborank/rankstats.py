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

All reciprocal-rank sums go through ``math.fsum``, which is exactly rounded
and therefore insensitive to accumulation order.  Combined with integer
counts this makes every statistic bit-identical regardless of how the input
was chunked or which of the two aggregation routes produced the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .baseline import BaselineSet
from .ingest import ContingencyIndex


@dataclass(frozen=True)
class RankOrdering:
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


def reciprocal_rank(ordering: RankOrdering, entity: str) -> float | None:
    """1/rank of the entity in this cohort, or None when it is absent."""
    rank = ordering.ranks.get(entity)
    return None if rank is None else 1.0 / rank


def mrr_from_ranks(ranks: Iterable[int | None]) -> float | None:
    """Mean reciprocal rank over present entries; None marks absence.

    Returns None when the entity is present nowhere.
    """
    rrs = [1.0 / rank for rank in ranks if rank is not None]
    if not rrs:
        return None
    return fsum(rrs) / len(rrs)


@dataclass(frozen=True)
class EntityBaselineStats:
    """An entity's reciprocal ranks across the baseline combinations.

    ``baseline_rrs`` only holds combinations where the entity appears.
    ``expected_rank`` is 1/MRR, the rank the entity would need in a cohort to
    look exactly as popular as its baseline average says.
    """

    entity: str
    baseline_rrs: dict[tuple[str, ...], float]
    mrr: float | None
    expected_rank: float | None

    @property
    def baseline_presence(self) -> int:
        return len(self.baseline_rrs)


def _stats_from_rrs(entity: str, rrs: dict[tuple[str, ...], float]) -> EntityBaselineStats:
    if not rrs:
        return EntityBaselineStats(entity, rrs, None, None)
    mean = fsum(rrs.values()) / len(rrs)
    return EntityBaselineStats(entity, rrs, mean, 1.0 / mean)


def compute_mrr(entity: str, baseline: BaselineSet, index: ContingencyIndex) -> EntityBaselineStats:
    """Baseline statistics for one entity (see baseline_stats for the batch path)."""
    if not baseline.combinations:
        raise ValueError("baseline set is empty")
    rrs: dict[tuple[str, ...], float] = {}
    for combo in baseline.sorted_combinations():
        cell = index.cells.get(combo)
        if not cell or entity not in cell:
            continue
        for ranked_entity, _count, rank in _ranked(cell):
            if ranked_entity == entity:
                rrs[combo] = 1.0 / rank
                break
    return _stats_from_rrs(entity, rrs)


def baseline_stats(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, EntityBaselineStats]:
    """Baseline statistics for every entity observed anywhere in the index.

    Each observed baseline combination is ordered once and its reciprocal
    ranks fanned out, so the cost is one sort per baseline cell instead of
    one per (entity, cell) pair.
    """
    if not baseline.combinations:
        raise ValueError("baseline set is empty")
    per_entity: dict[str, dict[tuple[str, ...], float]] = {
        entity: {} for entity in sorted(index.entities())
    }
    for combo in baseline.sorted_combinations():
        cell = index.cells.get(combo)
        if not cell:
            continue
        for entity, _count, rank in _ranked(cell):
            per_entity[entity][combo] = 1.0 / rank
    return {entity: _stats_from_rrs(entity, rrs) for entity, rrs in per_entity.items()}


class DistanceEntry(NamedTuple):
    """One scored (entity, non-baseline combination) pair."""

    entity: str
    combination: tuple[str, ...]
    distance: float
    rr: float
    rank: int
    cohort_size: int
    count: int


@dataclass
class DistanceTable:
    """Distances indexed by entity then combination, plus the stats behind them."""

    by_entity: dict[str, dict[tuple[str, ...], DistanceEntry]]
    entity_stats: dict[str, EntityBaselineStats]

    def get(self, entity: str, combination: Sequence[str]) -> DistanceEntry | None:
        per_combo = self.by_entity.get(entity)
        return per_combo.get(tuple(combination)) if per_combo else None

    def distance(self, entity: str, combination: Sequence[str]) -> float:
        entry = self.get(entity, combination)
        if entry is None:
            raise KeyError(f"no distance for {entity!r} in {tuple(combination)!r}")
        return entry.distance

    def entries_for(self, entity: str) -> list[DistanceEntry]:
        return list(self.by_entity.get(entity, {}).values())

    def __len__(self) -> int:
        return sum(len(per_combo) for per_combo in self.by_entity.values())


def compute_distances(
    stats: dict[str, EntityBaselineStats],
    index: ContingencyIndex,
    baseline: BaselineSet,
    min_support: int = 1,
) -> DistanceTable:
    """Score every entity in every observed non-baseline combination.

    Combinations whose total count falls below ``min_support`` are skipped,
    as are entities without an MRR (no baseline presence).
    """
    expected = baseline.combinations
    mrrs = {entity: s.mrr for entity, s in stats.items() if s.mrr is not None}
    by_entity: dict[str, dict[tuple[str, ...], DistanceEntry]] = {}
    for combo, cell in index.cells.items():
        if combo in expected:
            continue
        if min_support > 1 and sum(cell.values()) < min_support:
            continue
        cohort = len(cell)
        for entity, count, rank in _ranked(cell):
            mrr = mrrs.get(entity)
            if mrr is None:
                continue
            rr = 1.0 / rank
            entry = DistanceEntry(entity, combo, abs(rr - mrr), rr, rank, cohort, count)
            per_combo = by_entity.get(entity)
            if per_combo is None:
                by_entity[entity] = {combo: entry}
            else:
                per_combo[combo] = entry
    return DistanceTable(by_entity, stats)
