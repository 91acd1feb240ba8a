from itertools import product

import pytest

from comborank import (
    AnalysisSpec,
    ConfigError,
    EmptyCategoryError,
    generate_baseline,
    top_p_values,
)
from comborank.baseline import baseline_as_dict
from comborank.ingest import ingest_lines

from fixture_logs import tiny_browser_log

WEB_MARGINALS = {
    "Browser": {"Firefox": 100, "Safari": 80, "Edge": 10},
    "Country": {"US": 90, "UK": 70, "DE": 5},
    "ContentType": {"text/html": 120, "image/jpeg": 60, "application/json": 3},
}


class TestTopValues:
    def test_orders_by_count(self):
        assert top_p_values(WEB_MARGINALS, "Browser", 2) == ["Firefox", "Safari"]

    def test_ties_break_lexicographically(self):
        marginals = {"c": {"zeta": 5, "alpha": 5, "mid": 5}}
        assert top_p_values(marginals, "c", 2) == ["alpha", "mid"]

    def test_p_beyond_cardinality(self):
        assert top_p_values(WEB_MARGINALS, "Country", 10) == ["US", "UK", "DE"]

    def test_unknown_category(self):
        with pytest.raises(ConfigError, match="unknown category"):
            top_p_values(WEB_MARGINALS, "Region", 1)

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            top_p_values(WEB_MARGINALS, "Browser", 0)


class TestGenerateBaseline:
    def test_top2_of_three_categories_gives_eight(self):
        spec = AnalysisSpec(
            categories=("Browser", "Country", "ContentType"), entity_field="Customer", p=2
        )
        baseline = generate_baseline(WEB_MARGINALS, spec)
        assert baseline.size == 8
        expected = set(
            product(("Firefox", "Safari"), ("US", "UK"), ("text/html", "image/jpeg"))
        )
        assert baseline.combinations == frozenset(expected)
        assert baseline.top_values == (
            ("Firefox", "Safari"),
            ("US", "UK"),
            ("text/html", "image/jpeg"),
        )

    def test_per_category_p(self):
        spec = AnalysisSpec(
            categories=("Browser", "Country"), entity_field="Customer", p=(2, 1)
        )
        baseline = generate_baseline(WEB_MARGINALS, spec)
        assert baseline.combinations == frozenset({("Firefox", "US"), ("Safari", "US")})

    def test_empty_category_raises(self):
        spec = AnalysisSpec(categories=("c",), entity_field="e")
        with pytest.raises(EmptyCategoryError):
            generate_baseline({"c": {}}, spec)

    def test_tiny_log_end_to_end(self):
        lines, mapping, spec = tiny_browser_log()
        marginals, _ = ingest_lines(lines, spec, mapping)
        assert marginals["Browser"] == {"F": 5, "S": 3, "C": 1}
        assert marginals["Country"] == {"US": 6, "UK": 3}
        baseline = generate_baseline(marginals, spec)
        assert baseline.combinations == frozenset({("F", "US"), ("S", "US")})


def test_baseline_as_dict_is_sorted():
    spec = AnalysisSpec(
        categories=("Browser", "Country"), entity_field="Customer", p=2
    )
    baseline = generate_baseline(WEB_MARGINALS, spec)
    doc = baseline_as_dict(baseline)
    assert doc["categories"] == ["Browser", "Country"]
    assert doc["combinations"] == sorted(doc["combinations"])
    assert doc["top_values"]["Browser"] == ["Firefox", "Safari"]
