import tracemalloc
from math import fsum, isclose

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comborank import (
    AnalysisSpec,
    BaselineSet,
    ContingencyIndex,
    FieldMapping,
    emit_report,
    generate_baseline,
    ingest_lines,
    ingest_paths,
    mrr_from_ranks,
    rank_ordering,
    recommend_all,
)
from comborank.rankstats import (
    Ranking,
    _baseline_summary,
    _best_candidates,
    _observed_baseline,
    _ranked,
    baseline_stats,
    compute_distances,
)
from comborank.synthgen import generate_log, oracle_recommend, sparse_config


def _index(cells: dict) -> ContingencyIndex:
    total = sum(n for cell in cells.values() for n in cell.values())
    return ContingencyIndex(("C1", "C2"), "E", cells, total, 0)


def _baseline(combos) -> BaselineSet:
    """The baseline whose top values are each category's values in ``combos``."""
    return BaselineSet(("C1", "C2"), tuple(tuple(sorted({c[j] for c in combos})) for j in range(2)))


class TestRankOrdering:
    def test_competition_ranks_with_ties(self):
        index = _index({("a", "x"): {"e1": 5, "e2": 5, "e3": 3, "e4": 1}})
        ordering = rank_ordering(index, ("a", "x"))
        assert ordering.entries == (("e1", 5, 1), ("e2", 5, 1), ("e3", 3, 3), ("e4", 1, 4))
        assert ordering.ranks == {"e1": 1, "e2": 1, "e3": 3, "e4": 4}
        assert ordering.cohort_size == 4

    def test_tied_block_lists_entities_ascending(self):
        index = _index({("a", "x"): {"zed": 7, "amy": 7, "mid": 7}})
        ordering = rank_ordering(index, ("a", "x"))
        assert [entry[0] for entry in ordering.entries] == ["amy", "mid", "zed"]
        assert all(entry[2] == 1 for entry in ordering.entries)

    def test_unobserved_combination_raises(self):
        index = _index({("a", "x"): {"e1": 1}})
        with pytest.raises(KeyError, match="not observed"):
            rank_ordering(index, ("b", "y"))


class TestMrr:
    def test_known_average(self):
        value = mrr_from_ranks((2, 2, 10, None, 5))
        assert value is not None
        assert abs(value - 0.325) <= 1e-12

    def test_all_absent_gives_none(self):
        assert mrr_from_ranks((None, None)) is None

    def test_single_rank(self):
        assert mrr_from_ranks((4,)) == 0.25

    def test_absent_entity_has_no_mrr(self):
        index = _index({("a", "x"): {"e1": 2}, ("b", "y"): {"e9": 5}})
        stats = baseline_stats(index, _baseline([("a", "x")]))
        assert stats["e9"].mrr is None
        assert stats["e9"].expected_rank is None
        assert stats["e9"].baseline_presence == 0
        assert stats["e1"].mrr == 1.0
        assert stats["e1"].expected_rank == 1.0

    def test_expected_rank_inverts_mrr(self):
        index = _index({("a", "x"): {"e1": 9, "e2": 4}, ("a", "y"): {"e1": 1, "e2": 7}})
        stats = baseline_stats(index, _baseline([("a", "x"), ("a", "y")]))
        e2 = stats["e2"]
        assert e2.mrr == fsum((0.5, 1.0)) / 2
        assert e2.expected_rank == 1.0 / e2.mrr

    def test_empty_baseline_raises(self):
        index = _index({("a", "x"): {"e1": 1}})
        with pytest.raises(ValueError, match="empty"):
            baseline_stats(index, _baseline([]))


class TestComputeDistances:
    def _setup(self):
        cells = {
            ("a", "x"): {"e1": 10, "e2": 6, "e3": 2},
            ("b", "x"): {"e1": 1, "e2": 5},
            ("b", "y"): {"e3": 4},
        }
        index = _index(cells)
        baseline = _baseline([("a", "x")])
        stats = baseline_stats(index, baseline)
        return index, baseline, stats

    def test_distances_are_absolute_gaps(self):
        index, baseline, stats = self._setup()
        table = compute_distances(stats, index, baseline)
        entry = table.by_entity["e1"][("b", "x")]
        assert entry.rank == 2
        assert entry.rr == 0.5
        assert entry.distance == abs(0.5 - stats["e1"].mrr)
        assert entry.cohort_size == 2
        assert entry.count == 1

    def test_baseline_combinations_not_scored(self):
        index, baseline, stats = self._setup()
        table = compute_distances(stats, index, baseline)
        assert ("a", "x") not in table.by_entity["e1"]

    def test_entities_without_mrr_are_skipped(self):
        index, baseline, stats = self._setup()
        # e3 appears in the baseline cell, so has an MRR; drop it to fake absence
        stats_no_e3 = dict(stats)
        del stats_no_e3["e3"]
        table = compute_distances(stats_no_e3, index, baseline)
        assert "e3" not in table.by_entity

    def test_min_support_filters_combinations(self):
        index, baseline, stats = self._setup()
        table = compute_distances(stats, index, baseline, min_support=5)
        assert ("b", "x") in table.by_entity["e1"]  # total 6
        assert "e3" not in table.by_entity  # ("b", "y") totals 4

    def test_table_accessors(self):
        index, baseline, stats = self._setup()
        table = compute_distances(stats, index, baseline)
        assert len(table) == 3
        assert {entry.combination for entry in table.by_entity["e1"].values()} == {("b", "x")}
        assert table.by_entity["e2"][("b", "x")].distance == abs(1.0 - stats["e2"].mrr)
        assert ("b", "y") not in table.by_entity["e1"]


_cells = st.dictionaries(
    st.tuples(st.sampled_from("ab"), st.sampled_from("xyz")),
    st.dictionaries(
        st.sampled_from(["e1", "e2", "e3", "e4", "e5"]), st.integers(1, 40), min_size=1
    ),
    min_size=1,
    max_size=6,
)


class TestInvariants:
    @given(_cells, st.data())
    def test_bounds_and_definitions(self, cells, data):
        index = _index(cells)
        observed = sorted(index.cells)
        baseline_combos = data.draw(
            st.sets(st.sampled_from(observed), min_size=1, max_size=len(observed))
        )
        baseline = _baseline(baseline_combos)
        stats = baseline_stats(index, baseline)
        for entity_stats in stats.values():
            if entity_stats.mrr is not None:
                assert 0.0 < entity_stats.mrr <= 1.0
                assert entity_stats.expected_rank >= 1.0
                assert isclose(entity_stats.expected_rank * entity_stats.mrr, 1.0)
            presence = sum(
                entity_stats.entity in cells.get(combo, {}) for combo in baseline.combinations()
            )
            assert entity_stats.baseline_presence == presence
        table = compute_distances(stats, index, baseline)
        expected = set(baseline.combinations())
        for entity, per_combo in table.by_entity.items():
            for combo, entry in per_combo.items():
                assert combo not in expected
                assert 0.0 <= entry.distance < 1.0
                assert entry.distance == abs(entry.rr - stats[entity].mrr)
                assert 1 <= entry.rank <= entry.cohort_size
                assert entry.count >= 1

    @given(_cells, st.integers(2, 9), st.data())
    def test_count_scaling_leaves_statistics_unchanged(self, cells, factor, data):
        index = _index(cells)
        scaled_cells = {
            combo: {entity: count * factor for entity, count in cell.items()}
            for combo, cell in cells.items()
        }
        scaled = _index(scaled_cells)
        observed = sorted(index.cells)
        baseline_combos = data.draw(
            st.sets(st.sampled_from(observed), min_size=1, max_size=len(observed))
        )
        baseline = _baseline(baseline_combos)
        for combo in observed:
            assert rank_ordering(index, combo).ranks == rank_ordering(scaled, combo).ranks
        stats = baseline_stats(index, baseline)
        scaled_stats = baseline_stats(scaled, baseline)
        for entity in stats:
            assert stats[entity].mrr == scaled_stats[entity].mrr
        table = compute_distances(stats, index, baseline)
        scaled_table = compute_distances(scaled_stats, scaled, baseline)
        for entity, per_combo in table.by_entity.items():
            for combo, entry in per_combo.items():
                other = scaled_table.by_entity[entity][combo]
                assert other.distance == entry.distance
                assert other.rank == entry.rank
                assert other.cohort_size == entry.cohort_size


class TestRanksFromCounts:
    """The ranking loops read each rank from the sorted counts: the ranks ``_ranked`` gives."""

    @given(
        st.dictionaries(
            st.sampled_from(["e1", "e2", "e3", "e4", "e5", "e6"]), st.integers(1, 4), min_size=1
        )
    )
    @example({"e1": 7})
    @example({"e1": 2, "e2": 2, "e3": 1, "e4": 2})
    def test_equals_the_ordered_ranks(self, cell):
        expected = {entity: rank for entity, _count, rank in _ranked(cell)}
        # k = 1 and one scored cohort: each entity keeps its one candidate.
        index = _index({("a", "x"): cell, ("b", "y"): {"e1": 1}})
        mrrs = {entity: 0.5 for entity in cell}
        observed = _observed_baseline(index, _baseline([("b", "y")]))
        best = _best_candidates(index, observed, 1, mrrs, 1)
        assert {entity: kept[0][3] for entity, kept in best.items()} == expected
        assert {entity: kept[0][2] for entity, kept in best.items()} == {
            entity: 1.0 / rank for entity, rank in expected.items()
        }
        index = _index({("a", "x"): cell})
        observed = _observed_baseline(index, _baseline([("a", "x")]))
        presence, mrrs = _baseline_summary(index, observed)
        assert presence == {entity: 1 for entity in expected}
        assert mrrs == {entity: 1.0 / rank for entity, rank in expected.items()}


class TestBoundedBuffer:
    """Each entity's candidates: ties on distance break by combination, within 2k + 1 kept."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_equal_distances_keep_the_smallest_combinations(self, tmp_path, k):
        # e1 is rank 2 in the baseline cell (a, x), so its MRR is 0.5, and rank 1 in
        # 50 one-entity cohorts, each 0.5 from it.  Written largest combination
        # first, so the index's order is the reverse of the report order.
        lines = ["a,x,e2\n"] * 5 + ["a,x,e1\n"]
        lines += [f"v{i:02d},x,e1\n" for i in reversed(range(50))]
        log = tmp_path / "log.csv"
        log.write_text("C1,C2,E\n" + "".join(lines), encoding="utf-8")
        spec = AnalysisSpec(("C1", "C2"), "E", p=1, k=k)
        marginals, index = ingest_lines(lines, spec, FieldMapping(("C1", "C2", "E")))
        reports = recommend_all(index, generate_baseline(marginals, spec), spec)
        e1 = next(report for report in reports if report.entity == "e1")
        assert [item.combination for item in e1.items] == [(f"v{i:02d}", "x") for i in range(k)]
        assert [item.distance for item in e1.items] == [0.5] * k
        assert emit_report(reports) == emit_report(oracle_recommend(log, spec))

    def test_traced_peak_stays_within_the_bound(self):
        # One entity with 10,000 candidates, all at distance 0.5, so every one
        # enters the buffer and it is cut each time it passes 2k = 10.
        cells = {("a", "x"): {"e1": 1, "e2": 5}}
        cells.update({(f"v{i:05d}", "x"): {"e1": 1} for i in range(10_000)})
        index = _index(cells)
        spec = AnalysisSpec(("C1", "C2"), "E", k=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ranking = Ranking(index, _baseline([("a", "x")]), spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Kept whole, the 10,000 candidates would take over 1 MB.
        assert peak < 64 * 1024, peak
        assert [candidate[1] for candidate in ranking.rows["e1"][3]] == [
            (f"v{i:05d}", "x") for i in range(5)
        ]


@pytest.fixture(scope="module")
def sparse_log(tmp_path_factory):
    config = sparse_config(5, 10_000)
    log = tmp_path_factory.mktemp("sparse") / "sparse.csv"
    generate_log(config, log)
    return config, log


@pytest.mark.parametrize("k, min_support", [(1, 1), (50, 1), (50, 2), (50, 20)])
def test_sparse_log_matches_the_oracle(sparse_log, k, min_support):
    """A log where most cohorts hold one entity, so most candidates tie at rank 1.

    No cell of this log reaches a support of 20, so that case reports no items.
    """
    config, log = sparse_log
    spec = config.analysis_spec(p=(20, 4, 2, 2), k=k, min_support=min_support)
    marginals, index = ingest_paths([log], spec, config.field_mapping(), header=True, workers=1)
    reports = recommend_all(index, generate_baseline(marginals, spec), spec)
    assert emit_report(reports) == emit_report(oracle_recommend(log, spec))
