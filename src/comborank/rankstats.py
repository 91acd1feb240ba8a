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
scored cohort once, in the index's own order, and keeps each entity's best k
candidates in a bounded buffer.  A candidate carries its combination, so
the buffer's sort order is the report order.  ``Ranking`` runs the pass with
the analysis's k and keeps one row per entity with an MRR, its buffer
included.  The run's files are written from those rows, and its
``reports``, which reads the buffers through ``_items``, gives
``recommend.recommend_all`` its reports.  The full-table names, views of
the same pass that the benchmark uses and ``comborank.__all__`` leaves out,
are these: ``baseline_stats`` gives the reports' baseline summaries without
items, ``compute_distances`` runs the pass with k at the number of cells so
that every candidate is kept, and ``recommend.top_k`` takes the first k of
an entity's row.

This module and ``ingest`` are the only readers of ``ContingencyIndex.cells``.

All reciprocal-rank sums go through ``math.fsum``, which is exactly rounded
and therefore insensitive to accumulation order.  Combined with integer
counts this makes every statistic bit-identical regardless of how the input
was chunked or how many workers built the index.
"""

from __future__ import annotations

from bisect import bisect_right
from math import fsum
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .baseline import BaselineSet
from .config import AnalysisSpec
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


def _observed_baseline(index: ContingencyIndex, baseline: BaselineSet) -> set[tuple[str, ...]]:
    """The expected combinations the index observed, from one walk: never more than its cells."""
    if not baseline.size:
        raise ValueError("baseline set is empty")
    return set(filter(index.cells.__contains__, baseline.combinations()))


def baseline_cells(index: ContingencyIndex, baseline: BaselineSet, entity: str) -> list:
    """The expected combinations whose cell holds ``entity``, sorted; an empty baseline has none."""
    cells = index.cells
    return [c for c in filter(cells.__contains__, baseline.combinations()) if entity in cells[c]]


def _baseline_summary(
    index: ContingencyIndex, observed: set[tuple[str, ...]]
) -> tuple[dict[str, int], dict[str, float]]:
    """Each entity's baseline presence and MRR, for entities present in an observed baseline cell.

    ``observed`` is ``_observed_baseline``'s set.  Each of its cells' counts
    are sorted once and every entity's rank read from them: one sort per
    baseline cell, not one per (entity, cell) pair.  Set order changes
    nothing: presence is a count and the MRR is an ``fsum``.  Entities
    absent from every baseline cell get no entry.  The per-entity rank lists
    are freed on return.
    """
    per_entity: dict[str, list[int]] = {}
    for cell in map(index.cells.__getitem__, observed):
        counts = sorted(cell.values())
        above = len(counts) + 1
        for entity, count in cell.items():
            rank = above - bisect_right(counts, count)
            ranks = per_entity.get(entity)
            if ranks is None:
                per_entity[entity] = [rank]
            else:
                ranks.append(rank)
    presence = {entity: len(ranks) for entity, ranks in per_entity.items()}
    mrrs = {entity: mrr_from_ranks(ranks) for entity, ranks in per_entity.items()}
    return presence, mrrs


def baseline_stats(index: ContingencyIndex, baseline: BaselineSet) -> dict[str, EntityAnomalyReport]:
    """Every observed entity's baseline summary, as a report without items."""
    presence, mrrs = _baseline_summary(index, _observed_baseline(index, baseline))
    stats = {}
    for entity in sorted(index.entities()):
        mrr = mrrs.get(entity)
        expected = None if mrr is None else 1.0 / mrr
        stats[entity] = EntityAnomalyReport(entity, mrr, expected, presence.get(entity, 0), ())
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


_Candidate = tuple[float, tuple[str, ...], float, int, int, int]


def _best_candidates(
    index: ContingencyIndex,
    observed: set[tuple[str, ...]],
    min_support: int,
    mrrs: dict[str, float],
    k: int,
) -> dict[str, list[_Candidate]]:
    """The one ranking pass: each entity's best k candidates, in report order.

    Cohorts are visited in ``index.cells`` order.  The ``observed`` baseline
    cells are skipped, and so are combinations whose total count falls below
    ``min_support``.  Each cohort's counts are sorted once, and the
    competition rank of an entity with count ``c`` is read from them: one
    plus the number of counts above ``c``.  A one-entity cohort is rank 1
    with no sort.  The distance is how far the entity's reciprocal rank
    there sits from its MRR.

    A candidate is ``(-distance, combination, rr, rank, cohort_size,
    count)``, so ascending order is report order: distance descending, then
    combination ascending.  An entity occurs once per cohort, so two of its
    candidates never share a combination.  Each entity with an MRR keeps a
    buffer of candidates.  Once the buffer holds more than 2k, it is sorted
    and cut to k, and the k-th becomes the entity's floor.  A candidate
    enters only if it sorts before the floor: one after it has k candidates
    ahead of it.  The top k of a union is the top k of its parts' top k, so
    a final sort and cut leave exactly the best k.
    """
    limit = 2 * k
    best: dict[str, list[_Candidate]] = {}
    floors: dict[str, _Candidate] = {}
    for combo, cell in index.cells.items():
        if combo in observed or (min_support > 1 and sum(cell.values()) < min_support):
            continue
        size = len(cell)
        if size == 1:
            counts = None
        else:
            counts = sorted(cell.values())
            above = size + 1
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
            negative = -abs(rr - mrr)
            buffer = best.get(entity)
            if buffer is None:
                best[entity] = [(negative, combo, rr, rank, size, count)]
                continue
            floor = floors.get(entity)
            if floor is None or negative < floor[0] or (negative == floor[0] and combo < floor[1]):
                buffer.append((negative, combo, rr, rank, size, count))
                if len(buffer) > limit:
                    buffer.sort()
                    del buffer[k:]
                    floors[entity] = buffer[-1]
    for buffer in best.values():
        buffer.sort()
        del buffer[k:]
    return best


def _items(candidates: Iterable[_Candidate]) -> tuple[AnomalyItem, ...]:
    """Candidates as items, in the order given."""
    return tuple(
        AnomalyItem(combo, -negative, rr, rank, size, count)
        for negative, combo, rr, rank, size, count in candidates
    )


def compute_distances(
    stats: dict[str, EntityAnomalyReport],
    index: ContingencyIndex,
    baseline: BaselineSet,
    min_support: int = 1,
) -> DistanceTable:
    """Score every entity in every observed non-baseline combination.

    This is the ranking pass with its bound at the number of cells, which no
    entity's candidates can exceed, so every candidate is kept and each
    entity's row lists them in report order.  Combinations whose total
    count falls below ``min_support`` are skipped, as are entities without
    an MRR (no baseline presence).
    """
    mrrs = {entity: s.mrr for entity, s in stats.items() if s.mrr is not None}
    observed = _observed_baseline(index, baseline)
    best = _best_candidates(index, observed, min_support, mrrs, len(index.cells))
    by_entity = {}
    for entity in list(best):
        # Popped, so each buffer is freed as its row is built.
        by_entity[entity] = {item.combination: item for item in _items(best.pop(entity))}
    return DistanceTable(by_entity, stats)


_Row = tuple[float | None, float | None, int, Sequence[_Candidate]]


class Ranking:
    """What the one ranking pass leaves, as the report writer reads it.

    ``entities`` lists every observed entity in order.  ``rows`` maps each
    entity with an MRR to ``(mrr, expected_rank, baseline_presence,
    candidates)``, its best k candidates in report order.  An entity without
    a row has no MRR, no baseline presence and no items.  ``reports`` reads
    each entity's report from it, and ``of_reports`` builds the same shape
    from any reports.
    """

    __slots__ = ("entities", "rows")

    def __init__(self, index: ContingencyIndex, baseline: BaselineSet, spec: AnalysisSpec) -> None:
        if index.total_records == 0:
            raise ValueError("empty index: no accepted records to analyse")
        # Sorted first, so the set of names is freed before the candidates are kept.
        self.entities = sorted(index.entities())
        observed = _observed_baseline(index, baseline)
        presence, mrrs = _baseline_summary(index, observed)
        best = _best_candidates(index, observed, spec.min_support, mrrs, spec.k)
        self.rows: dict[str, _Row] = {
            entity: (mrr, 1.0 / mrr, presence[entity], best.get(entity, ()))
            for entity, mrr in mrrs.items()
        }

    @classmethod
    def of_reports(cls, reports: Iterable[EntityAnomalyReport]) -> Ranking:
        """``reports`` in the order given, as rows and candidates.

        A report with no MRR, no expected rank, no presence and no items gets
        no row, as an entity without an MRR has none in a ranking.  Rows are
        keyed by entity, so two reports of one entity raise ``ValueError``.
        """
        ranking = cls.__new__(cls)
        ranking.entities = []
        ranking.rows = {}
        for entity, mrr, expected, presence, items in reports:
            ranking.entities.append(entity)
            if mrr is not None or expected is not None or presence != 0 or items:
                ranking.rows[entity] = mrr, expected, presence, [
                    (-distance, combo, rr, rank, size, count)
                    for combo, distance, rr, rank, size, count in items
                ]
        if len(set(ranking.entities)) < len(ranking.entities):
            raise ValueError("more than one report of an entity")
        return ranking

    def reports(self, entities: Iterable[str]) -> Iterator[EntityAnomalyReport]:
        """Each of ``entities``' reports.

        Items come from ``_items``, in report order.  An entity without a row
        gets an empty report.
        """
        rows = self.rows
        for entity in entities:
            row = rows.get(entity)
            if row is None:
                yield EntityAnomalyReport(entity, None, None, 0, ())
            else:
                mrr, expected, presence, candidates = row
                yield EntityAnomalyReport(entity, mrr, expected, presence, _items(candidates))
