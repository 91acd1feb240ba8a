import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from comborank import (
    AnalysisSpec,
    BaselineSet,
    ContingencyIndex,
    FieldMapping,
    baseline_stats,
    compute_distances,
    emit_report,
    generate_baseline,
    ingest_lines,
    recommend_all,
    top_k,
)
from comborank.recommend import Ranking, rank_reports
from comborank import reports as reports_module
from comborank.reports import write_ranking
from comborank.synthgen import oracle_recommend


def _index(cells: dict) -> ContingencyIndex:
    total = sum(n for cell in cells.values() for n in cell.values())
    return ContingencyIndex(("C1", "C2"), "E", cells, total, 0)


def _baseline(combos) -> BaselineSet:
    return BaselineSet(("C1", "C2"), ((), ()), frozenset(combos))


def _table(cells, baseline_combos, min_support=1):
    index = _index(cells)
    baseline = _baseline(baseline_combos)
    stats = baseline_stats(index, baseline)
    return index, baseline, compute_distances(stats, index, baseline, min_support)


class TestTopK:
    def test_orders_by_distance_descending(self):
        cells = {
            ("a", "x"): {"e1": 10, "e2": 5},  # baseline: e1 rank 1, e2 rank 2
            ("b", "x"): {"e1": 1, "e2": 9},  # e1 rank 2 -> rr 0.5
            ("b", "y"): {"e1": 2, "e2": 1, "e3": 9},  # e1 rank 2 -> same rr
            ("b", "z"): {"e1": 4},  # e1 rank 1 -> rr 1.0, distance 0
        }
        _, _, table = _table(cells, [("a", "x")])
        report = top_k("e1", table, 5)
        assert report.mrr == 1.0
        distances = [item.distance for item in report.items]
        assert distances == sorted(distances, reverse=True)
        # rr 0.5 twice (distance 0.5) then rr 1.0 (distance 0)
        assert [item.combination for item in report.items] == [
            ("b", "x"),
            ("b", "y"),
            ("b", "z"),
        ]

    def test_equal_distances_tie_break_on_combination(self):
        cells = {
            ("a", "x"): {"e1": 10, "e2": 5},
            ("b", "z"): {"e1": 1, "e2": 9},
            ("b", "y"): {"e1": 1, "e2": 9},
        }
        _, _, table = _table(cells, [("a", "x")])
        report = top_k("e1", table, 5)
        assert [item.combination for item in report.items] == [("b", "y"), ("b", "z")]
        assert report.items[0].distance == report.items[1].distance

    def test_k_truncates(self):
        cells = {("a", "x"): {"e1": 3}}
        cells.update({("b", f"y{i}"): {"e1": 1, "e2": 2} for i in range(6)})
        _, _, table = _table(cells, [("a", "x")])
        assert len(top_k("e1", table, 2).items) == 2
        assert len(top_k("e1", table, 50).items) == 6

    def test_k_must_be_positive(self):
        _, _, table = _table({("a", "x"): {"e1": 1}}, [("a", "x")])
        with pytest.raises(ValueError, match="k must be"):
            top_k("e1", table, 0)

    def test_unknown_entity(self):
        _, _, table = _table({("a", "x"): {"e1": 1}}, [("a", "x")])
        with pytest.raises(KeyError, match="unknown entity"):
            top_k("ghost", table, 1)

    def test_entity_without_mrr_gets_empty_report(self):
        cells = {("a", "x"): {"e1": 2}, ("b", "y"): {"e9": 5}}
        _, _, table = _table(cells, [("a", "x")])
        report = top_k("e9", table, 5)
        assert report.mrr is None
        assert report.expected_rank is None
        assert report.baseline_presence == 0
        assert report.items == ()


class TestRecommendAll:
    def test_one_report_per_entity_sorted(self):
        cells = {
            ("a", "x"): {"e2": 4, "e1": 9},
            ("b", "y"): {"e3": 2, "e1": 1},
        }
        index = _index(cells)
        baseline = _baseline([("a", "x")])
        spec = AnalysisSpec(categories=("C1", "C2"), entity_field="E", p=1, k=5)
        reports = recommend_all(index, baseline, spec)
        assert [r.entity for r in reports] == ["e1", "e2", "e3"]
        by_entity = {r.entity: r for r in reports}
        assert by_entity["e3"].mrr is None
        assert by_entity["e1"].items[0].combination == ("b", "y")

    def test_empty_index_raises(self):
        index = ContingencyIndex(("C1", "C2"), "E")
        spec = AnalysisSpec(categories=("C1", "C2"), entity_field="E")
        with pytest.raises(ValueError, match="empty index"):
            recommend_all(index, _baseline([("a", "x")]), spec)

    def test_min_support_respected(self):
        cells = {
            ("a", "x"): {"e1": 9, "e2": 1},
            ("b", "y"): {"e1": 2},  # support 2, filtered at min_support=3
            ("b", "z"): {"e1": 3, "e2": 1},  # support 4, kept
        }
        index = _index(cells)
        baseline = _baseline([("a", "x")])
        spec = AnalysisSpec(categories=("C1", "C2"), entity_field="E", p=1, k=5, min_support=3)
        reports = recommend_all(index, baseline, spec)
        e1 = next(r for r in reports if r.entity == "e1")
        assert [item.combination for item in e1.items] == [("b", "z")]


_combo = st.tuples(st.sampled_from("abc"), st.sampled_from("xyz"))
_cohort = st.dictionaries(st.sampled_from(["e1", "e2", "e3", "e4"]), st.integers(1, 3), min_size=1)


class TestBoundedPass:
    @given(
        st.dictionaries(_combo, _cohort, min_size=1),
        st.tuples(st.integers(1, 2), st.integers(1, 2)),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_equals_top_k_of_the_full_table(self, cells, p, k, min_support):
        """``recommend_all``'s per-entity heaps report what the oracle's full sort does.

        The drawn cells are written out as log lines, the baseline comes from
        their value counts, and ``oracle_recommend`` reads the log back, sorts
        every scored pair and keeps the first k.  Counts of 1 to 3 make
        ranks, and so distances, tie across combinations, which is where a
        heap's tie-break and its replace test could differ from a full sort.
        """
        spec = AnalysisSpec(("C1", "C2"), "E", p=p, k=k, min_support=min_support)
        lines = [
            f"{c1},{c2},{entity}\n"
            for (c1, c2), cohort in cells.items()
            for entity, count in cohort.items()
            for _ in range(count)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.csv"
            log.write_text("C1,C2,E\n" + "".join(lines), encoding="utf-8")
            expected = oracle_recommend(log, spec)
        marginals, index = ingest_lines(lines, spec, FieldMapping(("C1", "C2", "E")))
        baseline = generate_baseline(marginals, spec)
        assert emit_report(recommend_all(index, baseline, spec)) == emit_report(expected)


# Names that JSON escapes or the CSV writer quotes.
_awkward_name = st.text(st.sampled_from('ab"\\,|\n\r \x00\u2028\U0001f600'), min_size=1, max_size=3)


class TestReportWriter:
    @given(
        st.dictionaries(
            st.tuples(_awkward_name, _awkward_name),
            st.dictionaries(_awkward_name, st.integers(1, 3), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 3),
        st.sampled_from([1, 2, 256]),
        st.data(),
    )
    def test_writes_what_emit_report_gives(self, cells, k, batch, data):
        """The pass-driven writer's bytes equal ``emit_report`` of ``rank_reports``, both formats.

        Batches of one and two entities put batch ends inside both arrays.
        """
        index = _index(cells)
        baseline = _baseline(data.draw(st.sets(st.sampled_from(sorted(cells)), min_size=1)))
        spec = AnalysisSpec(("C1", "C2"), "E", k=k)
        reports = list(rank_reports(index, baseline, spec))
        json_text, csv_text = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reports_module, "_BATCH", batch)
            write_ranking(Ranking(index, baseline, spec), json_text, csv_text)
        assert json_text.getvalue() == emit_report(reports, "json")
        assert csv_text.getvalue() == emit_report(reports, "csv")
