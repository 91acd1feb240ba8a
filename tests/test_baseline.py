import json
import tempfile
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from comborank import (
    AnalysisSpec,
    BaselineSet,
    ConfigError,
    EmptyCategoryError,
    emit_report,
    generate_baseline,
    top_p_values,
)
from comborank.baseline import baseline_as_dict
from comborank.cli import EXIT_OK, _write_baseline, main
from comborank.ingest import ingest_lines
from comborank.rankstats import Ranking
from comborank.synthgen import oracle_recommend

from fixture_logs import tiny_browser_log, wide_product_log

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
        assert set(baseline.combinations()) == expected
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
        assert set(baseline.combinations()) == {("Firefox", "US"), ("Safari", "US")}

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
        assert set(baseline.combinations()) == {("F", "US"), ("S", "US")}


# Names that JSON escapes, that sort before or after ASCII, or that prefix one another.
_awkward_value = st.text(st.sampled_from('ab"\\ \u00e9\u2028\U0001f600'), min_size=1, max_size=3)


@given(
    st.lists(
        st.tuples(_awkward_value, st.lists(_awkward_value, min_size=1, max_size=4, unique=True)),
        min_size=1,
        max_size=3,
        unique_by=lambda category: category[0],
    )
)
@example([("Browser", ["a", "ab"]), ("Country", ['"', "\\", " "])])
@example([("\u00e9", ["\u00e9", "a"]), ("a", ["\U0001f600", "b"])])
def test_baseline_as_dict_is_sorted(drawn):
    """The combinations walk in sorted order, and baseline.json is ``json.dumps``'s text."""
    categories = [category for category, _values in drawn]
    tops = tuple(tuple(values) for _category, values in drawn)
    baseline = BaselineSet(tuple(categories), tops)
    combinations = sorted(set(product(*tops)))
    assert list(baseline.combinations()) == combinations
    assert baseline.size == len(combinations)
    reference = {
        "categories": categories,
        "top_values": {category: list(values) for category, values in zip(categories, tops)},
        "combinations": [list(c) for c in combinations],
    }
    assert baseline_as_dict(baseline) == reference
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline.json"
        _write_baseline(baseline, path)
        written = path.read_text(encoding="utf-8")
    assert written == json.dumps(reference, sort_keys=True, indent=2) + "\n"


def test_product_is_never_held(tmp_path):
    """Two categories of 300 values at p=(300, 300): 90,000 expected, 340 observed cells.

    Above the index, ``generate_baseline`` and ``Ranking`` hold what the
    observed cells need; the product as a frozenset of tuples takes about 10
    MB.  The reports still equal the oracle's, which crosses the values
    itself.
    """
    lines, mapping, spec = wide_product_log()
    log = tmp_path / "log.csv"
    log.write_text("C1,C2,E\n" + "\n".join(lines) + "\n", encoding="utf-8")
    marginals, index = ingest_lines(lines, spec, mapping)
    assert len(index.cells) == 340
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        baseline = generate_baseline(marginals, spec)
        ranking = Ranking(index, baseline, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert baseline.size == 90_000
    assert len(ranking.rows) == 10
    assert peak < 1024 * 1024, peak
    out = tmp_path / "out"
    argv = ["--input", str(log), "--categories", "C1,C2", "--entity", "E", "--p", "300,300"]
    assert main(["recommend", *argv, "--out", str(out)]) == EXIT_OK
    expected = emit_report(oracle_recommend(log, spec))
    assert (out / "reports.json").read_text(encoding="utf-8") == expected


def test_baseline_json_is_streamed(tmp_path):
    """``baseline.json`` lists the 90,000 expected combinations without holding them."""
    lines, mapping, spec = wide_product_log()
    marginals, _index = ingest_lines(lines, spec, mapping)
    baseline = generate_baseline(marginals, spec)
    path = tmp_path / "baseline.json"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _write_baseline(baseline, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak
    reference = json.dumps(baseline_as_dict(baseline), sort_keys=True, indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == reference
