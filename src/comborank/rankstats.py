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
was chunked or how many workers built the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class EntityBaselineStats(NamedTuple):
    """An entity's baseline summary.

    ``baseline_presence`` counts the baseline combinations where the entity
    appears.  ``expected_rank`` is 1/MRR, the rank the entity would need in a
    cohort to look exactly as popular as its baseline average says.
    """

    entity: str
    mrr: float | None
    expected_rank: float | None
    baseline_presence: int


def _baseline_ranks(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, list[int]]:
    """Each entity's ranks in the observed baseline cells, for entities present in one.

    Each observed baseline combination is ordered once and its ranks fanned
    out, so the cost is one sort per baseline cell instead of one per
    (entity, cell) pair.  Entities absent from every baseline cell get no
    entry.
    """
    if not baseline.combinations:
        raise ValueError("baseline set is empty")
    per_entity: dict[str, list[int]] = {}
    for combo in baseline.sorted_combinations():
        cell = index.cells.get(combo)
        if not cell:
            continue
        for entity, _count, rank in _ranked(cell):
            ranks = per_entity.get(entity)
            if ranks is None:
                per_entity[entity] = [rank]
            else:
                ranks.append(rank)
    return per_entity


def baseline_stats(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, EntityBaselineStats]:
    """Baseline statistics for every entity observed anywhere in the index."""
    per_entity = _baseline_ranks(index, baseline)
    stats = {}
    for entity in sorted(index.entities()):
        ranks = per_entity.get(entity, ())
        mrr = mrr_from_ranks(ranks)
        expected = None if mrr is None else 1.0 / mrr
        stats[entity] = EntityBaselineStats(entity, mrr, expected, len(ranks))
    return stats


class AnomalyItem(NamedTuple):
    """One scored (entity, non-baseline combination) pair with the evidence behind its score."""

    combination: tuple[str, ...]
    distance: float
    rr: float
    rank: int
    cohort_size: int
    count: int


@dataclass
class DistanceTable:
    """Scored pairs indexed by entity then combination, plus the stats behind them."""

    by_entity: dict[str, dict[tuple[str, ...], AnomalyItem]]
    entity_stats: dict[str, EntityBaselineStats]

    def __len__(self) -> int:
        return sum(len(per_combo) for per_combo in self.by_entity.values())


def _scored_cohorts(
    index: ContingencyIndex, baseline: BaselineSet, min_support: int
) -> list[tuple[tuple[str, ...], dict[str, int]]]:
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


def _scores(
    cell: dict[str, int], mrrs: dict[str, float]
) -> Iterator[tuple[str, float, float, int, int]]:
    """(entity, distance, rr, rank, count) for each entity of a cohort that has an MRR.

    The distance is how far the entity's reciprocal rank in the cohort sits
    from its MRR.
    """
    for entity, count, rank in _ranked(cell):
        mrr = mrrs.get(entity)
        if mrr is not None:
            rr = 1.0 / rank
            yield entity, abs(rr - mrr), rr, rank, count


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
    mrrs = {entity: s.mrr for entity, s in stats.items() if s.mrr is not None}
    by_entity: dict[str, dict[tuple[str, ...], AnomalyItem]] = {}
    for combo, cell in _scored_cohorts(index, baseline, min_support):
        cohort = len(cell)
        for entity, distance, rr, rank, count in _scores(cell, mrrs):
            item = AnomalyItem(combo, distance, rr, rank, cohort, count)
            per_combo = by_entity.get(entity)
            if per_combo is None:
                by_entity[entity] = {combo: item}
            else:
                per_combo[combo] = item
    return DistanceTable(by_entity, stats)
