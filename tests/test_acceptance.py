"""End-to-end acceptance gate: one test per criterion, in criterion order.

Each test prints through the summary hook in conftest.py, giving one
PASS/FAIL line per criterion at the end of the run.
"""

import os
import random
import xml.etree.ElementTree as ET
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from comborank import (
    AnalysisSpec,
    FieldMapping,
    RunSettings,
    emit_report,
    generate_baseline,
    ingest_lines,
    ingest_paths,
    mrr_from_ranks,
    rank_ordering,
    recommend_all,
)
from comborank.explain import explain, render_chart
from comborank.ingest import _add_cells
from comborank.rankstats import baseline_stats, compute_distances
from comborank.cli import EXIT_OK, RunConfig, main, run_pipeline
from comborank.synthgen import (
    GeneratorConfig,
    PlantSpec,
    bench_config,
    generate_log,
    oracle_recommend,
    planted_config,
    synthetic_config,
)

from fixture_logs import (
    BASELINE_RANKS_A,
    BASELINE_RANKS_B,
    COHORT_SIZES,
    ENTITY_A,
    ENTITY_B,
    NB1,
    NB1_RANK_A,
    NB1_RANK_B,
    NB2,
    NB2_RANK_A,
    NB2_RANK_B,
    RECIPROCAL_ENTITY,
    RECIPROCAL_RANKS,
    expected_combinations,
    rank_profile_log,
    reciprocal_profile_log,
    tiny_browser_log,
)

_SVG_NS = "{http://www.w3.org/2000/svg}"


def _focal_marker(svg: str) -> ET.Element:
    for line in ET.fromstring(svg).iter(f"{_SVG_NS}line"):
        if line.get("class") == "focal-marker":
            return line
    raise AssertionError("chart has no focal marker")


def _analyze(lines, mapping, spec):
    marginals, index = ingest_lines(lines, spec, mapping)
    baseline = generate_baseline(marginals, spec)
    reports = recommend_all(index, baseline, spec)
    return index, baseline, {r.entity: r for r in reports}


def test_criterion_1_reciprocal_rank_average():
    """The documented rank profile (2, 2, 10, absent, 5) averages to 0.325."""
    direct = mrr_from_ranks(RECIPROCAL_RANKS)
    assert direct is not None
    assert abs(direct - 0.325) <= 1e-12

    lines, mapping, spec = reciprocal_profile_log()
    marginals, index = ingest_lines(lines, spec, mapping)
    baseline = generate_baseline(marginals, spec)
    stats = baseline_stats(index, baseline)[RECIPROCAL_ENTITY]
    assert stats.baseline_presence == 4
    assert stats.mrr is not None
    assert abs(stats.mrr - 0.325) <= 1e-12


def test_criterion_2_rank_profile_golden_values():
    """Two customers with pinned rank profiles reproduce the documented numbers.

    Every derivable quantity is checked first; the last distance is the one
    derived by hand from the fixture's pinned ranks (see the closing comment).
    """
    lines, mapping, spec = rank_profile_log()
    index, baseline, reports = _analyze(lines, mapping, spec)

    assert set(baseline.combinations()) == set(expected_combinations())
    for combo, size, rank_a, rank_b in zip(
        expected_combinations(), COHORT_SIZES, BASELINE_RANKS_A, BASELINE_RANKS_B
    ):
        ordering = rank_ordering(index, combo)
        assert ordering.cohort_size == size
        assert ordering.ranks.get(ENTITY_A) == rank_a
        assert ordering.ranks.get(ENTITY_B) == rank_b
    assert rank_ordering(index, NB1).ranks[ENTITY_A] == NB1_RANK_A
    assert rank_ordering(index, NB1).ranks[ENTITY_B] == NB1_RANK_B
    assert rank_ordering(index, NB2).ranks[ENTITY_A] == NB2_RANK_A
    assert rank_ordering(index, NB2).ranks[ENTITY_B] == NB2_RANK_B

    report_a = reports[ENTITY_A]
    report_b = reports[ENTITY_B]
    tolerance = 5e-4

    assert report_a.mrr is not None and abs(report_a.mrr - 0.032) <= tolerance
    assert report_b.mrr is not None and abs(report_b.mrr - 0.578) <= tolerance

    items_a = {item.combination: item for item in report_a.items}
    items_b = {item.combination: item for item in report_b.items}
    assert [item.combination for item in report_a.items] == [NB1, NB2]
    assert [item.combination for item in report_b.items] == [NB2, NB1]

    assert items_a[NB1].rr == 0.25
    assert items_a[NB2].rr == 0.04
    assert items_b[NB1].rr == 0.1
    assert items_b[NB2].rr == 0.02
    assert abs(items_a[NB1].distance - 0.218) <= tolerance
    assert abs(items_a[NB2].distance - 0.008) <= tolerance
    assert abs(items_b[NB1].distance - 0.478) <= tolerance

    # The reference states this last distance as 0.576, which its own rank
    # profile rules out. The second customer's baseline ranks are 2, 1, 1, 3
    # and 17, so its MRR is (1/2 + 1 + 1 + 1/3 + 1/17) / 5 = 0.578431..., and
    # its reciprocal rank here is exactly 0.02 (rank 50 of 55). The distance
    # |rr - mrr| can therefore only be 0.558431...; 0.576 is 0.0176 away and
    # no implementation satisfying the assertions above could reach it.
    assert items_b[NB2].distance == abs(0.02 - report_b.mrr)
    assert abs(items_b[NB2].distance - 0.558) <= tolerance, (
        f"distance {items_b[NB2].distance:.6f} is not the 0.558 derived from "
        f"|rr 0.02 - mrr {report_b.mrr:.6f}|"
    )


def test_criterion_3_baseline_combinatorics():
    """Top-2 of three categories yields all eight products; tiny log yields two."""
    marginals = {
        "Browser": {"Firefox": 100, "Safari": 80, "Edge": 10},
        "Country": {"US": 90, "UK": 70, "DE": 5},
        "ContentType": {"text/html": 120, "image/jpeg": 60, "application/json": 3},
    }
    spec = AnalysisSpec(
        categories=("Browser", "Country", "ContentType"), entity_field="Customer", p=2
    )
    baseline = generate_baseline(marginals, spec)
    assert baseline.size == 8
    assert set(baseline.combinations()) == set(
        product(("Firefox", "Safari"), ("US", "UK"), ("text/html", "image/jpeg"))
    )

    lines, mapping, tiny_spec = tiny_browser_log()
    marginals, _ = ingest_lines(lines, tiny_spec, mapping)
    tiny_baseline = generate_baseline(marginals, tiny_spec)
    assert set(tiny_baseline.combinations()) == {("F", "US"), ("S", "US")}


def _random_workload(seed: int) -> tuple[GeneratorConfig, AnalysisSpec]:
    rnd = random.Random(10_000 + seed)
    n_cats = rnd.randint(1, 5)
    config = synthetic_config(
        seed,
        category_sizes=[rnd.randint(2, 6) for _ in range(n_cats)],
        entity_count=rnd.randint(3, 24),
        total_entries=rnd.choice([300, 700, 1500, 3000, 8000]),
        category_exponent=rnd.uniform(0.6, 1.5),
        entity_exponent=rnd.uniform(0.5, 1.2),
    )
    plants = []
    for _ in range(rnd.randint(0, 2)):
        combination = tuple(
            rnd.choice(vocab.values) if rnd.random() > 0.15 else f"nov{rnd.randint(0, 9)}"
            for vocab in config.categories
        )
        entity = (
            rnd.choice(config.entities.values) if rnd.random() > 0.2 else "stranger"
        )
        plants.append(PlantSpec(entity, combination, rnd.uniform(2.0, 40.0)))
    config = GeneratorConfig(
        seed=config.seed,
        categories=config.categories,
        entities=config.entities,
        total_entries=config.total_entries,
        planted=tuple(plants),
        delimiter=config.delimiter,
        header=config.header,
    )
    if rnd.random() < 0.3:
        p = tuple(rnd.randint(1, 3) for _ in range(n_cats))
    else:
        p = rnd.randint(1, 3)
    spec = config.analysis_spec(
        p=p, k=rnd.randint(1, 6), min_support=rnd.choice([1, 1, 1, 2, 4])
    )
    return config, spec


def test_criterion_4_differential_two_hundred_seeds(tmp_path):
    """Pipeline and brute-force reference emit byte-identical reports, 200 seeds."""
    for seed in range(200):
        config, spec = _random_workload(seed)
        log = tmp_path / "differential.csv"
        generate_log(config, log)
        mapping = config.field_mapping()
        marginals, index = ingest_paths([log], spec, mapping, header=True, workers=1)
        baseline = generate_baseline(marginals, spec)
        pipeline_reports = recommend_all(index, baseline, spec)
        reference_reports = oracle_recommend(log, spec, delimiter=config.delimiter)
        assert emit_report(pipeline_reports) == emit_report(reference_reports), (
            f"seed {seed}: pipeline and reference disagree"
        )
        log.unlink()


def test_criterion_5_determinism_across_worker_counts(tmp_path):
    """Thread counts 1, 2, 4, 8 produce byte-identical artifacts end to end."""
    config = planted_config(seed=77, n_plants=2, total_entries=120_000)
    log = tmp_path / "det.csv"
    manifest = generate_log(config, log)
    focal = manifest.planted[0].entity
    argv_base = [
        "--input", str(log),
        "--categories", "cat1,cat2,cat3,cat4",
        "--entity", "entity",
        "--k", "5",
        "--format", "csv",
    ]
    artifacts: dict[int, dict[str, bytes]] = {}
    for threads in (1, 2, 4, 8):
        out_dir = tmp_path / f"out_t{threads}"
        rc = main([
            "explain", focal, *argv_base, "--threads", str(threads), "--out", str(out_dir),
        ])
        assert rc == EXIT_OK
        collected = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                collected[str(path.relative_to(out_dir))] = path.read_bytes()
        artifacts[threads] = collected
    reference = artifacts[1]
    assert set(reference) >= {"baseline.json", "reports.json", "reports.csv"}
    assert any(name.endswith(".svg") for name in reference)
    for threads in (2, 4, 8):
        assert artifacts[threads] == reference, f"threads={threads} changed artifact bytes"


_stream_value = st.text(alphabet="abcXY", min_size=0, max_size=3)
_stream_line = st.builds(
    lambda a, b, c: f"{a},{b},{c}", _stream_value, _stream_value, _stream_value
)
_streams = st.lists(_stream_line, min_size=1, max_size=80)

_INV_MAPPING = FieldMapping(("C1", "C2", "E"))
_INV_SPEC = AnalysisSpec(categories=("C1", "C2"), entity_field="E", p=2, k=3)


@settings(max_examples=80)
@given(_streams, st.data())
def test_criterion_6_invariant_suite(lines, data):
    """Randomized invariants: chunk merges, statistic bounds, scale freedom."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)))
    bounds = [0, *cuts, len(lines)]
    whole_m, whole_i = ingest_lines(lines, _INV_SPEC, _INV_MAPPING)
    part_cells = {}
    part_total = 0
    for lo, hi in zip(bounds, bounds[1:]):
        _, chunk_i = ingest_lines(lines[lo:hi], _INV_SPEC, _INV_MAPPING)
        _add_cells(part_cells, chunk_i.cells)
        part_total += chunk_i.total_records
    assert part_cells == whole_i.cells
    assert part_total == whole_i.total_records
    cell_sum = sum(n for cell in whole_i.cells.values() for n in cell.values())
    assert cell_sum == whole_i.total_records

    if whole_i.total_records == 0:
        return
    baseline = generate_baseline(whole_m, _INV_SPEC)
    stats = baseline_stats(whole_i, baseline)
    table = compute_distances(stats, whole_i, baseline)
    expected = set(baseline.combinations())
    for entity, entity_stats in stats.items():
        if entity_stats.mrr is not None:
            assert 0.0 < entity_stats.mrr <= 1.0
    for entity, per_combo in table.by_entity.items():
        for combo, entry in per_combo.items():
            assert combo not in expected
            assert 0.0 <= entry.distance < 1.0
            assert entry.distance == abs(entry.rr - stats[entity].mrr)
            assert 1 <= entry.rank <= entry.cohort_size

    factor = data.draw(st.integers(2, 7))
    scaled_cells = {
        combo: {entity: count * factor for entity, count in cell.items()}
        for combo, cell in whole_i.cells.items()
    }
    scaled = type(whole_i)(
        whole_i.categories, whole_i.entity_field, scaled_cells,
        whole_i.total_records * factor, 0,
    )
    scaled_stats = baseline_stats(scaled, baseline)
    for entity in stats:
        assert stats[entity].mrr == scaled_stats[entity].mrr


def test_criterion_7_planted_recall(tmp_path):
    """At least 95 of 100 seeded logs surface every plant in the entity's top 5."""
    successes = 0
    displacement_examined = False
    for seed in range(100):
        config = planted_config(
            2_000 + seed,
            n_plants=1 + seed % 3,
            inflation=50.0,
            entity_count=64,
            total_entries=60_000,
        )
        log = tmp_path / "recall.csv"
        manifest = generate_log(config, log)
        spec = config.analysis_spec(p=2, k=5, min_support=20)
        mapping = config.field_mapping()
        marginals, index = ingest_paths([log], spec, mapping, header=True, workers=1)
        baseline = generate_baseline(marginals, spec)
        reports = {r.entity: r for r in recommend_all(index, baseline, spec)}
        recovered = all(
            plant.combination in [item.combination for item in reports[plant.entity].items]
            for plant in manifest.planted
        )
        successes += recovered

        if not displacement_examined and recovered:
            # cross-check one log with the independent reference: the planted
            # pair must surface there too, displaced far from its usual rank
            reference = {r.entity: r for r in oracle_recommend(log, spec)}
            plant = manifest.planted[0]
            ref_report = reference[plant.entity]
            ref_items = {item.combination: item for item in ref_report.items}
            assert plant.combination in ref_items
            planted_rank = ref_items[plant.combination].rank
            assert ref_report.expected_rank is not None
            assert abs(ref_report.expected_rank - planted_rank) >= 10
            displacement_examined = True
        log.unlink()
    assert displacement_examined
    assert successes >= 95, f"recovered all plants in only {successes} of 100 logs"


def test_criterion_8_throughput_and_scaling(tmp_path):
    """Ten million entries: single-worker rate over 1e5/s, four workers 2.5x faster."""
    entries = 10_000_000
    config = bench_config(31, entries)
    log = tmp_path / "bench.csv"
    generate_log(config, log)
    settings_ = RunSettings(
        categories=tuple(v.name for v in config.categories),
        entity=config.entities.name,
    )
    single = run_pipeline(RunConfig((log,), tmp_path / "single", settings_, threads=1))
    t_single = single.times.total_s
    throughput = single.index.total_records / t_single
    quad = run_pipeline(RunConfig((log,), tmp_path / "quad", settings_, threads=4))
    t_quad = quad.times.total_s
    log.unlink()
    speedup = t_single / t_quad
    stages = "; ".join(
        f"{name}: ingest_s={run.times.ingest_s:.2f} baseline_s={run.times.baseline_s:.2f} "
        f"rank_s={run.times.rank_s:.2f}"
        for name, run in (("single", single), ("four workers", quad))
    )
    print(
        f"entries={single.index.total_records} single={t_single:.2f}s "
        f"({throughput:,.0f}/s) quad={t_quad:.2f}s speedup={speedup:.2f}x "
        f"host_cpus={os.cpu_count()}"
    )
    assert single.index.total_records >= entries
    assert single.written[1].read_bytes() == quad.written[1].read_bytes()  # reports.json
    assert throughput >= 1e5, f"single-worker throughput {throughput:,.0f}/s below 1e5/s"
    assert speedup >= 2.5, (
        f"four-worker speedup {speedup:.2f}x is below 2.5x (single {t_single:.2f}s, "
        f"four workers {t_quad:.2f}s); this host exposes {os.cpu_count()} CPU core(s), "
        "and byte-range fan-out cannot reach 2.5x without at least three usable cores "
        f"({stages})"
    )


def test_criterion_9_explanation_fidelity(tmp_path):
    """Charts carry the exact rank geometry of the statistics they illustrate."""
    config = planted_config(seed=404, n_plants=2, total_entries=40_000)
    log = tmp_path / "explain.csv"
    manifest = generate_log(config, log)
    spec = config.analysis_spec(p=2, k=5, min_support=10)
    mapping = config.field_mapping()
    marginals, index = ingest_paths([log], spec, mapping, header=True, workers=1)
    baseline = generate_baseline(marginals, spec)
    reports = {r.entity: r for r in recommend_all(index, baseline, spec)}

    margin_left, plot_width = 56, 960 - 56 - 24
    observed_baseline = [c for c in baseline.combinations() if c in index.cells]
    partial_presence_seen = False
    focal_entities = {manifest.planted[0].entity, manifest.planted[1].entity}
    focal_entities.update(sorted(reports)[:2])
    for entity in sorted(focal_entities):
        report = reports[entity]
        bundle = explain(entity, report, index, baseline)
        assert [c.combination for c in bundle.anomaly_charts] == [
            item.combination for item in report.items
        ]
        assert len(bundle.baseline_charts) == report.baseline_presence
        if report.baseline_presence < len(observed_baseline):
            partial_presence_seen = True
        for chart in (*bundle.baseline_charts, *bundle.anomaly_charts):
            expected_rank = rank_ordering(index, chart.combination).ranks[entity]
            marker = _focal_marker(render_chart(chart))
            assert int(marker.get("data-rank")) == expected_rank
            assert int(marker.get("data-cohort")) == chart.cohort_size
            expected_x = margin_left + (expected_rank - 1 + 0.5) * plot_width / chart.cohort_size
            assert abs(float(marker.get("x1")) - expected_x) <= 0.006
    # at least one inspected entity is absent from some observed expected
    # combination, which must silently drop that chart rather than fake one
    presences = [r.baseline_presence for r in reports.values()]
    assert min(presences) < len(observed_baseline) or partial_presence_seen
