import hashlib
import html
import json
import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comborank import (
    AnomalyItem,
    ChartData,
    EntityAnomalyReport,
    emit_report,
    explain,
    generate_baseline,
    recommend_all,
    render_chart,
    write_explanation,
)
from comborank.explain import _escape_text, _slug, combination_slug
from comborank.ingest import ingest_lines

from fixture_logs import ENTITY_A, rank_profile_log

_SVG_NS = "{http://www.w3.org/2000/svg}"
_MARGIN_LEFT = 56
_PLOT_WIDTH = 960 - 56 - 24


def _pipeline():
    lines, mapping, spec = rank_profile_log()
    marginals, index = ingest_lines(lines, spec, mapping)
    baseline = generate_baseline(marginals, spec)
    reports = recommend_all(index, baseline, spec)
    return index, baseline, {r.entity: r for r in reports}


def _focal_marker(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    for line in root.iter(f"{_SVG_NS}line"):
        if line.get("class") == "focal-marker":
            return line
    raise AssertionError("chart has no focal marker")


def _marker_x(rank: int, cohort: int) -> float:
    return _MARGIN_LEFT + (rank - 1 + 0.5) * _PLOT_WIDTH / cohort


def _reference_json(reports) -> str:
    """The report document as the standard library's encoder writes it."""
    ordered = sorted(reports, key=lambda r: r.entity)
    doc = {
        "schema_version": 1,
        "entities": [
            {
                "entity": r.entity,
                "mrr": r.mrr,
                "expected_rank": r.expected_rank,
                "baseline_presence": r.baseline_presence,
                "items": [
                    {
                        "combination": list(item.combination),
                        "distance": item.distance,
                        "rr": item.rr,
                        "rank": item.rank,
                        "cohort_size": item.cohort_size,
                        "count": item.count,
                    }
                    for item in r.items
                ],
            }
            for r in ordered
        ],
        "no_baseline_presence": [r.entity for r in ordered if r.mrr is None],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# Quotes, backslashes, control characters, line and paragraph separators and
# non-BMP characters all need escaping or pass through unescaped.
_awkward_char = st.one_of(
    st.sampled_from('"\\\x00\x08\t\n\x1f\x7f\x85\u2028\u2029\U0001f600\U00010348'),
    st.characters(),
)
_text = st.text(_awkward_char, max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.integers(min_value=1, max_value=10**9)
_item = st.builds(
    AnomalyItem,
    st.lists(_text, min_size=1, max_size=4).map(tuple),
    _finite,
    _finite,
    _positive,
    _positive,
    _positive,
)
_scored = st.builds(
    EntityAnomalyReport,
    _text,
    _finite,
    _finite,
    _positive,
    st.lists(_item, max_size=4).map(tuple),
)
_unscored = st.builds(EntityAnomalyReport, _text, st.none(), st.none(), st.just(0), st.just(()))
_report_lists = st.lists(st.one_of(_scored, _unscored), max_size=6, unique_by=lambda r: r.entity)


class TestExplain:
    def test_bundle_covers_presence_and_items(self):
        index, baseline, reports = _pipeline()
        report = reports[ENTITY_A]
        bundle = explain(ENTITY_A, report, index, baseline)
        assert len(bundle.baseline_charts) == report.baseline_presence == 5
        assert len(bundle.anomaly_charts) == len(report.items) == 2
        assert bundle.mrr == report.mrr
        # absent baseline combinations yield no chart
        charted = {chart.combination for chart in bundle.baseline_charts}
        assert len(charted) == 5
        for chart in bundle.anomaly_charts:
            assert chart.distance is not None
            assert chart.focal_entity == ENTITY_A

    def test_report_entity_mismatch(self):
        index, baseline, reports = _pipeline()
        with pytest.raises(ValueError, match="report is for"):
            explain("someone_else", reports[ENTITY_A], index, baseline)

    def test_unknown_entity(self):
        index, baseline, _ = _pipeline()
        ghost = EntityAnomalyReport("ghost", None, None, 0, ())
        with pytest.raises(KeyError, match="not observed"):
            explain("ghost", ghost, index, baseline)


class TestRenderChart:
    def test_marker_position_follows_rank(self):
        index, baseline, reports = _pipeline()
        bundle = explain(ENTITY_A, reports[ENTITY_A], index, baseline)
        for chart in (*bundle.baseline_charts, *bundle.anomaly_charts):
            marker = _focal_marker(render_chart(chart))
            assert int(marker.get("data-rank")) == chart.focal_rank
            assert int(marker.get("data-cohort")) == chart.cohort_size
            expected = _marker_x(chart.focal_rank, chart.cohort_size)
            assert abs(float(marker.get("x1")) - expected) <= 0.006

    def test_focal_rank_bounds_checked(self):
        chart = ChartData(("a",), (("e1", 3),), "e1", 2, 3)
        with pytest.raises(ValueError, match="outside cohort"):
            render_chart(chart)

    def test_downsamples_large_cohorts(self):
        series = tuple((f"e{i:04d}", 1000 - i) for i in range(150))
        chart = ChartData(("big",), series, "e0120", 121, series[120][1])
        svg = render_chart(chart)
        root = ET.fromstring(svg)
        bars = [r for r in root.iter(f"{_SVG_NS}rect")]
        # background rect + 100 top bars + focal bar
        assert len(bars) == 102
        assert "top 100 of 150" in svg
        marker = _focal_marker(svg)
        assert int(marker.get("data-cohort")) == 150
        assert abs(float(marker.get("x1")) - _marker_x(121, 150)) <= 0.006

    def test_small_cohort_draws_every_bar(self):
        series = (("e1", 5), ("e2", 3), ("e3", 1))
        svg = render_chart(ChartData(("c",), series, "e2", 2, 3))
        root = ET.fromstring(svg)
        assert len(list(root.iter(f"{_SVG_NS}rect"))) == 4  # background + 3 bars

    def test_escapes_hostile_names(self):
        series = (('<evil>&"name"', 5), ("ok", 1))
        chart = ChartData(('va&l"ue',), series, '<evil>&"name"', 1, 5)
        svg = render_chart(chart)
        root = ET.fromstring(svg)  # parse fails if escaping is broken
        assert root.tag == f"{_SVG_NS}svg"
        assert "<evil>" not in svg

    @given(st.text(st.one_of(st.sampled_from("&<>\"'"), st.characters())))
    @example("&<>\"'")
    @example("&amp; <b>caf\u00e9</b> \u2028\U0001f600 'x' \"y\"")
    def test_text_escaper_matches_html_escape(self, text):
        """Chart text is escaped as ``html.escape(text, quote=False)`` escapes it."""
        assert _escape_text(text) == html.escape(text, quote=False)


class TestReportDocuments:
    def test_json_round_trip_is_exact(self):
        _, _, reports = _pipeline()
        ordered = sorted(reports.values(), key=lambda r: r.entity)
        text = emit_report(ordered)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        parsed = [
            (
                entry["entity"],
                entry["mrr"],
                entry["expected_rank"],
                entry["baseline_presence"],
                [
                    (
                        tuple(item["combination"]),
                        item["distance"],
                        item["rr"],
                        item["rank"],
                        item["cohort_size"],
                        item["count"],
                    )
                    for item in entry["items"]
                ],
            )
            for entry in doc["entities"]
        ]
        # Float equality is exact: repr precision reads back the same double.
        assert parsed == [(*report[:4], list(report.items)) for report in ordered]
        assert any(report.items for report in ordered)

    def test_json_orders_entities(self):
        _, _, reports = _pipeline()
        doc = json.loads(emit_report(list(reports.values()) [::-1]))
        entities = [entry["entity"] for entry in doc["entities"]]
        assert entities == sorted(entities)
        assert doc["schema_version"] == 1

    def test_lists_entities_without_baseline_presence(self):
        reports = [
            EntityAnomalyReport("ghost", None, None, 0, ()),
            EntityAnomalyReport("seen", 0.5, 2.0, 1, ()),
        ]
        doc = json.loads(emit_report(reports))
        assert doc["no_baseline_presence"] == ["ghost"]

    @given(_report_lists)
    @example([])
    @example([EntityAnomalyReport("ghost", None, None, 0, ())])
    @example([EntityAnomalyReport("odd", None, None, 1, ())])
    @example([
        *(EntityAnomalyReport(f"ghost{i}", None, None, 0, ()) for i in range(3)),
        EntityAnomalyReport("seen", 0.5, 2.0, 1, ()),
    ])
    def test_json_matches_standard_encoder(self, reports):
        assert emit_report(reports, "json") == _reference_json(reports)

    def test_csv_flattens_items(self):
        _, _, reports = _pipeline()
        ordered = sorted(reports.values(), key=lambda r: r.entity)
        text = emit_report(ordered, "csv")
        lines = text.strip().split("\n")
        expected_rows = sum(len(r.items) for r in ordered)
        assert len(lines) == expected_rows + 1
        assert lines[0].startswith("entity,mrr,expected_rank,combination,distance")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report([], "xml")


class TestWriteExplanation:
    def test_writes_charts_and_index(self, tmp_path):
        index, baseline, reports = _pipeline()
        bundle = explain(ENTITY_A, reports[ENTITY_A], index, baseline)
        target = write_explanation(bundle, tmp_path)
        listing = json.loads((target / "explanation.json").read_text())
        assert listing["entity"] == ENTITY_A
        assert len(listing["baseline_charts"]) == 5
        assert len(listing["anomaly_charts"]) == 2
        for entry in listing["baseline_charts"] + listing["anomaly_charts"]:
            svg_path = target / entry["file"]
            assert svg_path.is_file()
            marker = _focal_marker(svg_path.read_text())
            assert int(marker.get("data-rank")) == entry["rank"]
        for entry in listing["anomaly_charts"]:
            assert "distance" in entry

    def test_slugs_disambiguate_similar_values(self):
        assert combination_slug(("a/b", "c")) != combination_slug(("a_b", "c"))
        assert combination_slug(("x", "y")) == combination_slug(("x", "y"))

    @given(st.text(), st.lists(st.text(), min_size=1, max_size=4))
    def test_slugs_use_hashlibs_blake2s(self, text, combination):
        """Chart file names are what ``hashlib.blake2s`` names them, without OpenSSL."""

        def reference(name):
            safe = re.sub(r"[^A-Za-z0-9.-]", "-", name)[:32].strip("-") or "value"
            return f"{safe}.{hashlib.blake2s(name.encode('utf-8'), digest_size=4).hexdigest()}"

        assert _slug(text) == reference(text)
        assert combination_slug(tuple(combination)) == reference("\x1f".join(combination))
