"""In-process side of the benchmark: input generation, reference outputs, traced calls.

Run by ``run.py`` in child processes with ``src/`` on ``PYTHONPATH``:

    helper.py setup  --workload W --seed N --lines L --work DIR
    helper.py call   --workload W --input LOG --out DIR [--entity E] [--trace] [--run-id R]
    helper.py oracle --workload W --input LOG --out DIR

``setup`` writes the workload's logs, a small check log of the same shape
from the default seed, and the reference outputs the CLI must reproduce byte
for byte.  ``call`` performs what one ``comborank recommend`` or ``comborank
explain`` call does, by calling the layers' public functions directly,
optionally inside spans.  ``oracle`` checks the pipeline against the
brute-force ``synthgen.oracle_recommend`` on a (small) log.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from comborank.baseline import BaselineSet, baseline_as_dict, generate_baseline
from comborank.config import AnalysisSpec
from comborank.explain import emit_report, explain, write_explanation
from comborank.ingest import ContingencyIndex, ingest_paths, resolve_mapping
from comborank.rankstats import baseline_stats, compute_distances
from comborank.recommend import EntityAnomalyReport, top_k
from comborank.synthgen import generate_log, oracle_recommend, synthetic_config

from common import CATEGORIES, DEFAULT_SEED, ENTITY, WORKLOADS, Workload, file_sha256, tree_sha256

_MB = 1024.0  # ru_maxrss is in KiB on Linux


# --- tracing -------------------------------------------------------------------

def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Spans kept in memory: name, start, end, parent and run id.

    Each span also carries the garbage-collector pause time and the
    ``getrusage`` CPU deltas (this process and its reaped children) that
    occurred while it was the innermost open span or one of its ancestors;
    GC pauses are attributed to the innermost open span only.
    """

    enabled = True

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._gc_started = 0.0
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._open:
            self._open[-1]["gc_s"] += time.perf_counter() - self._gc_started

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans) + len(self._open),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "gc_s": 0.0,
            "counts": {},
        }
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self_after = resource.getrusage(resource.RUSAGE_SELF)
            children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
            record["cpu_s"] = _cpu_s(self_after) - _cpu_s(self_before)
            record["child_cpu_s"] = _cpu_s(children_after) - _cpu_s(children_before)
            record["rss_mb"] = self_after.ru_maxrss / _MB
            self.spans.append(record)


class NullTracer:
    """Same calls as Tracer, recording nothing: the untraced comparison run."""

    enabled = False
    spans = ()

    def close(self) -> None:
        pass

    @contextmanager
    def span(self, _name: str):
        yield {"counts": {}}


# --- one CLI-equivalent call ------------------------------------------------------

@dataclass
class CallResult:
    pipeline_s: float
    index: ContingencyIndex
    baseline: BaselineSet
    reports: list[EntityAnomalyReport]


def run_call(
    inputs: list[Path], entity: str | None, out_dir: Path, tracer
) -> CallResult:
    """What ``comborank recommend`` (or ``explain ENTITY``) does with default p, k, min_support.

    ``pipeline_s`` runs from mapping resolution to the last artifact written.
    When tracing, the counts of each layer are attached to its span after the
    timed region, so that counting does not inflate the traced time.
    """
    started = time.perf_counter()
    with tracer.span("call"):
        mapping = resolve_mapping(inputs[0])
        spec = AnalysisSpec(CATEGORIES, ENTITY)
        with tracer.span("ingest.ingest_paths") as ingest_span:
            marginals, index = ingest_paths(inputs, spec, mapping, header=True, workers=1)
        with tracer.span("baseline.generate_baseline") as baseline_span:
            baseline = generate_baseline(marginals, spec)
        with tracer.span("rankstats.baseline_stats"):
            stats = baseline_stats(index, baseline)
        with tracer.span("rankstats.compute_distances") as distances_span:
            table = compute_distances(stats, index, baseline, spec.min_support)
        with tracer.span("recommend.top_k") as top_k_span:
            reports = [top_k(name, table, spec.k) for name in sorted(stats)]
        bundle = None
        if entity is not None:
            report = next(r for r in reports if r.entity == entity)
            with tracer.span("explain.explain"):
                bundle = explain(entity, report, index, baseline)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "baseline.json").write_text(
            json.dumps(baseline_as_dict(baseline), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        with tracer.span("explain.emit_report") as emit_span:
            text = emit_report(reports, "json")
        (out_dir / "reports.json").write_text(text, encoding="utf-8")
        if bundle is not None:
            with tracer.span("explain.write_explanation") as charts_span:
                target = write_explanation(bundle, out_dir / "explanations")
    elapsed = time.perf_counter() - started
    if tracer.enabled:
        ingest_span["counts"] = {
            "records": index.total_records,
            "rejected": index.rejected_records,
            "bytes": sum(path.stat().st_size for path in inputs),
            "cells": len(index.cells),
            "pairs": sum(len(cell) for cell in index.cells.values()),
            "entities": len(index.entities()),
        }
        baseline_span["counts"] = {"expected": baseline.size}
        distances_span["counts"] = {
            "scored": len(table),
            "no_baseline": sum(1 for s in stats.values() if s.mrr is None),
        }
        top_k_span["counts"] = {"items": sum(len(r.items) for r in reports)}
        emit_span["counts"] = {"report_bytes": len(text.encode("utf-8"))}
        if bundle is not None:
            charts_span["counts"] = {
                "charts": len(bundle.baseline_charts) + len(bundle.anomaly_charts),
                "svg_bytes": sum(p.stat().st_size for p in target.glob("*.svg")),
            }
    return CallResult(elapsed, index, baseline, reports)


# --- inputs ------------------------------------------------------------------------

def write_rows(workload: Workload, seed: int, lines: int, path: Path) -> None:
    """The workload's category and entity columns, as ``synthgen`` writes them."""
    config = synthetic_config(
        seed,
        category_sizes=(16, 12, 8, 6),
        entity_count=workload.entity_count,
        total_entries=lines,
        category_exponent=1.3,
        entity_exponent=0.9,
    )
    generate_log(config, path)


def log_info(path: Path) -> dict:
    with open(path, "rb") as handle:
        handle.readline()
        rows = handle.read().splitlines()
    return {
        "lines": len(rows),
        "log_bytes": path.stat().st_size,
        "log_sha256": file_sha256(path),
        "distinct_line_frac": len(set(rows)) / len(rows),
    }


def pick_entities(reports, index, count: int) -> list[str]:
    """Head, middle and tail entities by record count, among those with a baseline."""
    totals: dict[str, int] = {}
    for cell in index.cells.values():
        for name, n in cell.items():
            totals[name] = totals.get(name, 0) + n
    ranked = sorted((r.entity for r in reports if r.mrr is not None), key=lambda e: (-totals[e], e))
    if count == 1 or len(ranked) <= count:
        return ranked[:count]
    return [ranked[round(i * (len(ranked) - 1) / (count - 1))] for i in range(count)]


def cmd_setup(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    # numpy seeds must be non-negative; this maps every integer to one.
    log = work / "rows.csv"
    write_rows(workload, args.seed % (1 << 63), args.lines, log)
    check_input = work / "check" / "rows.csv"
    write_rows(workload, DEFAULT_SEED, workload.check_lines, check_input)
    with open(log, encoding="utf-8") as handle:
        tiny = handle.readline() + handle.readline()
    (work / "tiny.csv").write_text(tiny, encoding="utf-8")

    ref = work / "ref"
    result = run_call([log], None, ref, NullTracer())
    reports = result.reports
    explained = []
    for i, entity in enumerate(pick_entities(reports, result.index, workload.explain_calls)):
        report = next(r for r in reports if r.entity == entity)
        target = ref / f"explain_{i}" / "explanations"
        write_explanation(explain(entity, report, result.index, result.baseline), target)
        explained.append({"entity": entity, "explanations_sha256": tree_sha256(target)})
    setup = {
        "input": str(log.relative_to(work)),
        "check_input": str(check_input.relative_to(work)),
        "check_log_sha256": file_sha256(check_input),
        "tiny_entity": tiny.splitlines()[1].rsplit(",", 1)[1],
        "reports_sha256": file_sha256(ref / "reports.json"),
        "explain": explained,
        **log_info(log),
    }
    (work / "setup.json").write_text(json.dumps(setup, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_call(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    tracer = Tracer(args.run_id) if args.trace else NullTracer()
    try:
        result = run_call([Path(args.input)], args.entity, Path(args.out), tracer)
    finally:
        tracer.close()
    doc = {"pipeline_s": result.pipeline_s, "spans": list(tracer.spans)}
    (Path(args.out) / "call.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    """Pipeline bytes must equal the brute-force oracle's on this log."""
    workload = WORKLOADS[args.workload]
    log, out = Path(args.input), Path(args.out)
    run_call([log], None, out, NullTracer())
    expected = emit_report(oracle_recommend(log, AnalysisSpec(CATEGORIES, ENTITY)), "json")
    if (out / "reports.json").read_text(encoding="utf-8") != expected:
        print(f"{workload.name}: pipeline differs from oracle_recommend on {log}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    setup = commands.add_parser("setup")
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--lines", type=int, required=True)
    setup.add_argument("--work", required=True)
    call = commands.add_parser("call")
    call.add_argument("--entity")
    call.add_argument("--trace", action="store_true")
    call.add_argument("--run-id", type=int, default=0)
    oracle = commands.add_parser("oracle")
    for sub in (call, oracle):
        sub.add_argument("--input", required=True)
        sub.add_argument("--out", required=True)
    for sub in (setup, call, oracle):
        sub.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "call": cmd_call, "oracle": cmd_oracle}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
