"""Command-line front end: discover, recommend, explain, synth, bench.

Exit codes: 0 success, 1 usage errors (bad flags, missing subcommand),
2 input or configuration errors (unreadable, truncated or corrupt files,
an input whose header differs from the first file's, invalid config, empty
logs, unknown entities), 3 unexpected internal failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zlib
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .baseline import BaselineSet, baseline_as_dict, generate_baseline
from .config import (
    AnalysisSpec,
    ConfigError,
    RunSettings,
    parse_name_list,
    parse_p,
    settings_from_file,
)
from .ingest import ContingencyIndex, SchemaMismatch, ingest_paths, resolve_mapping
from .recommend import EntityAnomalyReport, Ranking
from .reports import write_ranking

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class InputError(Exception):
    """Bad input data or configuration; maps to exit code 2."""


class RunConfig(NamedTuple):
    """One resolved pipeline invocation."""

    inputs: tuple[Path, ...]
    out_dir: Path
    settings: RunSettings
    threads: int = 1
    report_format: str = "json"


class StageTimes:
    __slots__ = ("ingest_s", "baseline_s", "rank_s")

    def __init__(self, ingest_s: float = 0.0, baseline_s: float = 0.0, rank_s: float = 0.0):
        self.ingest_s = ingest_s
        self.baseline_s = baseline_s
        self.rank_s = rank_s

    @property
    def total_s(self) -> float:
        return self.ingest_s + self.baseline_s + self.rank_s


class BenchResult(NamedTuple):
    """One timed pipeline run over a generated log."""

    entries: int
    threads: int
    times: StageTimes

    @property
    def throughput(self) -> float:
        total = self.times.total_s
        return self.entries / total if total > 0 else 0.0


class PipelineResult:
    """What a run has computed and written; ``discover`` leaves the last three empty.

    ``written`` lists the files ``run_pipeline`` wrote, ``count`` is the
    number of reports in them and ``kept`` maps each entity it was asked to
    keep to its report.
    """

    __slots__ = ("spec", "index", "baseline", "times", "written", "count", "kept")

    def __init__(
        self, spec: AnalysisSpec, index: ContingencyIndex, baseline: BaselineSet, times: StageTimes
    ) -> None:
        self.spec = spec
        self.index = index
        self.baseline = baseline
        self.times = times
        self.written: list[Path] = []
        self.count = 0
        self.kept: dict[str, EntityAnomalyReport] = {}


def _resolve_inputs(paths: Sequence[str | Path]) -> tuple[Path, ...]:
    if not paths:
        raise UsageError("at least one --input is required")
    resolved = tuple(Path(p) for p in paths)
    for path in resolved:
        if not path.is_file():
            raise InputError(f"input file not found: {path}")
    return resolved


def discover(config: RunConfig) -> PipelineResult:
    """Ingest and baseline, without reports; raises InputError on bad input."""
    inputs = _resolve_inputs(config.inputs)
    settings = config.settings
    try:
        mapping = resolve_mapping(
            inputs[0],
            delimiter=settings.delimiter,
            header=settings.header,
            columns=settings.columns,
            missing_token=settings.missing_token,
        )
        spec = settings.analysis_spec()
        spec.validate_mapping(mapping)
        started = time.perf_counter()
        marginals, index = ingest_paths(
            inputs, spec, mapping, header=settings.header, workers=config.threads
        )
    except (ConfigError, OSError) as exc:
        raise InputError(str(exc)) from exc
    times = StageTimes(ingest_s=time.perf_counter() - started)
    if index.total_records == 0:
        raise InputError("no accepted records in input (empty log or every line malformed)")

    started = time.perf_counter()
    baseline = generate_baseline(marginals, spec)
    times.baseline_s = time.perf_counter() - started
    return PipelineResult(spec, index, baseline, times)


def _write_baseline(baseline: BaselineSet, path: Path) -> None:
    path.write_text(
        json.dumps(baseline_as_dict(baseline), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def run_pipeline(config: RunConfig, keep: Iterable[str] = ()) -> PipelineResult:
    """Discover, then rank straight into the artifacts; raises InputError on bad input.

    Writes baseline.json, reports.json and, for the csv format, reports.csv
    in ``config.out_dir``, and removes a reports.csv that an earlier run
    left there otherwise.  The report files are written from the ranking
    pass in entity order, a batch of entities at a time; report objects are
    built only for the entities in ``keep``.  Each of those must occur in
    the input; that is checked before anything is written.

    The files are all or nothing: each is written under a temporary name in
    ``config.out_dir`` and renamed into place after the last report, and on
    any exception, ``KeyboardInterrupt`` included, the temporaries are
    removed and the earlier run's files stay as they were.  ``rank_s``
    covers ranking and writing.
    """
    wanted = sorted(set(keep))
    result = discover(config)
    for entity in wanted:
        if not result.index.observes(entity):
            raise InputError(f"entity {entity!r} not observed in the input")
    started = time.perf_counter()
    out_dir = config.out_dir
    csv = config.report_format == "csv"
    names = ("baseline.json", "reports.json", "reports.csv")[: 3 if csv else 2]
    result.written = [out_dir / name for name in names]
    staged = [out_dir / f".{name}.{os.getpid()}.tmp" for name in names]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        _write_baseline(result.baseline, staged[0])
        ranking = Ranking(result.index, result.baseline, result.spec)
        result.count = len(ranking.entities)
        result.kept = {entity: ranking.report(entity) for entity in wanted}
        with ExitStack() as stack:
            handles = [
                stack.enter_context(open(path, "w", encoding="utf-8")) for path in staged[1:]
            ]
            write_ranking(ranking, *handles)
        for temporary, path in zip(staged, result.written):
            os.replace(temporary, path)
    except BaseException:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
        raise
    if not csv:
        (out_dir / "reports.csv").unlink(missing_ok=True)
    result.times.rank_s = time.perf_counter() - started
    return result


def _print_summary(result: PipelineResult, threads: int) -> None:
    times = result.times
    index = result.index
    rate = index.total_records / times.total_s if times.total_s > 0 else 0.0
    print(
        f"ingest: {index.total_records} records ({index.rejected_records} rejected) "
        f"in {times.ingest_s:.2f}s [{threads} worker(s)]"
    )
    print(f"baseline: {result.baseline.size} expected combinations in {times.baseline_s:.2f}s")
    print(f"rank: {result.count} entity reports in {times.rank_s:.2f}s")
    print(f"discovery time: {times.total_s:.2f}s ({rate:,.0f} entries/s)")
    for path in result.written:
        print(f"wrote {path}")


# --- subcommands -----------------------------------------------------------------

def _settings_from_args(args: argparse.Namespace) -> RunSettings:
    settings = settings_from_file(args.config) if args.config else RunSettings()
    if args.categories is not None:
        settings.categories = args.categories
    if args.entity_field is not None:
        settings.entity = args.entity_field
    if args.p is not None:
        settings.p = args.p
    if args.k is not None:
        settings.k = args.k
    if args.min_support is not None:
        settings.min_support = args.min_support
    return settings


def _run_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        inputs=tuple(Path(p) for p in (args.input or ())),
        out_dir=Path(args.out),
        settings=_settings_from_args(args),
        threads=args.threads,
        report_format=args.format,
    )


def cmd_discover(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = discover(config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    baseline_path = config.out_dir / "baseline.json"
    _write_baseline(result.baseline, baseline_path)
    index = result.index
    print(
        f"ingest: {index.total_records} records ({index.rejected_records} rejected), "
        f"baseline: {result.baseline.size} expected combinations"
    )
    print(f"wrote {baseline_path}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    config = _run_config(args)
    _print_summary(run_pipeline(config), config.threads)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    # The chart module is loaded only here, so recommend never compiles it.
    from .explain import explain, write_explanation

    config = _run_config(args)
    result = run_pipeline(config, (args.entity,))
    bundle = explain(args.entity, result.kept[args.entity], result.index, result.baseline)
    target = write_explanation(bundle, config.out_dir / "explanations")
    _print_summary(result, config.threads)
    print(
        f"wrote {target} ({len(bundle.baseline_charts)} baseline charts, "
        f"{len(bundle.anomaly_charts)} anomaly charts)"
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    # synthgen pulls in numpy; only synth and bench pay for it.
    from .synthgen import config_from_json, generate_log

    if not args.config:
        raise UsageError("synth requires --config with a generator config (JSON)")
    config_path = Path(args.config)
    if not config_path.is_file():
        raise InputError(f"generator config not found: {config_path}")
    try:
        config = config_from_json(config_path.read_text(encoding="utf-8"))
    except ConfigError as exc:
        raise InputError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "synthetic_log.csv"
    manifest_path = out_dir / "plant_manifest.json"
    manifest = generate_log(config, log_path, manifest_path)
    planted_lines = sum(p.records for p in manifest.planted)
    print(
        f"wrote {log_path} ({manifest.total_entries} background entries, "
        f"{planted_lines} planted entries)"
    )
    print(f"wrote {manifest_path}")
    return EXIT_OK


def run_bench(
    sizes: Sequence[int],
    thread_counts: Sequence[int],
    out_dir: Path,
    *,
    seed: int = 20_240_801,
) -> list[BenchResult]:
    """Generate one log per size and time the pipeline per thread count.

    Logs are deleted after timing; bench.csv keeps the measurements.  Each
    run writes its baseline.json and reports.json into ``out_dir``, so the
    last run's stay there, and ``rank_s`` includes writing the reports.
    """
    from .synthgen import bench_config, generate_log

    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for size in sizes:
        config = bench_config(seed + size, size)
        log_path = out_dir / f"bench_{size}.csv"
        generate_log(config, log_path)
        settings = RunSettings(
            categories=tuple(v.name for v in config.categories), entity=config.entities.name
        )
        try:
            for threads in thread_counts:
                result = run_pipeline(RunConfig((log_path,), out_dir, settings, threads))
                results.append(BenchResult(result.index.total_records, threads, result.times))
        finally:
            log_path.unlink(missing_ok=True)
    return results


def bench_csv(results: Sequence[BenchResult]) -> str:
    lines = [
        "entries,threads,ingest_s,baseline_s,rank_s,total_s,entries_per_s,speedup_vs_t1"
    ]
    base: dict[int, float] = {}
    for row in results:
        if row.threads == 1:
            base.setdefault(row.entries, row.times.total_s)
    for row in results:
        t = row.times
        reference = base.get(row.entries)
        speedup = f"{reference / t.total_s:.2f}" if reference and t.total_s > 0 else ""
        lines.append(
            f"{row.entries},{row.threads},{t.ingest_s:.4f},{t.baseline_s:.4f},"
            f"{t.rank_s:.4f},{t.total_s:.4f},"
            f"{row.throughput:.0f},{speedup}"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    results = run_bench(args.sizes, args.threads, out_dir)
    csv_text = bench_csv(results)
    bench_path = out_dir / "bench.csv"
    bench_path.write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    print(f"wrote {bench_path}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise UsageError(message)


def _name_list_flag(text: str) -> tuple[str, ...]:
    try:
        return parse_name_list(text, "categories")
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _p_flag(text: str) -> int | tuple[int, ...]:
    try:
        p = parse_p(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if min((p,) if isinstance(p, int) else p) < 1:
        raise argparse.ArgumentTypeError(f"expected integers >= 1, got {text!r}")
    return p


def _int_flag(text: str, least: int) -> int:
    """One integer, at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value}")
    return value


def _int_list(text: str, least: int) -> tuple[int, ...]:
    """Comma-separated integers, each at least ``least``."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if min(values) < least:
        raise argparse.ArgumentTypeError(f"expected integers >= {least}, got {text!r}")
    return values


def _analysis_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value analysis config file")
    parser.add_argument("--input", action="append", help="log file (repeatable)")
    parser.add_argument("--out", default="comborank_out", help="output directory")
    parser.add_argument(
        "--threads",
        type=partial(_int_flag, least=0),
        default=1,
        help="worker processes (0 = one per CPU)",
    )
    parser.add_argument(
        "--categories", type=_name_list_flag, default=None, help="category columns, comma-separated"
    )
    parser.add_argument(
        "--entity", dest="entity_field", default=None, help="entity column name"
    )
    parser.add_argument("--p", type=_p_flag, default=None, help="top values per category")
    parser.add_argument(
        "--k", type=partial(_int_flag, least=1), default=None, help="items per entity report"
    )
    parser.add_argument(
        "--min-support",
        type=partial(_int_flag, least=0),
        default=None,
        help="minimum combination count",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="additional report format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="comborank", description=__doc__)
    commands = parser.add_subparsers(dest="command", metavar="command")

    discover_cmd = commands.add_parser(
        "discover", help="ingest and write the expected combinations"
    )
    _analysis_flags(discover_cmd)
    discover_cmd.set_defaults(handler=cmd_discover)

    recommend = commands.add_parser("recommend", help="full pipeline: rank and report anomalies")
    _analysis_flags(recommend)
    recommend.set_defaults(handler=cmd_recommend)

    explain_cmd = commands.add_parser("explain", help="render the evidence behind one entity")
    explain_cmd.add_argument("entity", help="entity value to explain")
    _analysis_flags(explain_cmd)
    explain_cmd.set_defaults(handler=cmd_explain)

    synth = commands.add_parser("synth", help="generate a synthetic log with planted anomalies")
    synth.add_argument("--config", help="generator config (JSON)")
    synth.add_argument("--out", default="comborank_out", help="output directory")
    synth.set_defaults(handler=cmd_synth)

    bench = commands.add_parser("bench", help="time the pipeline across sizes and workers")
    bench.add_argument(
        "--sizes", type=partial(_int_list, least=1), default=(1_000_000,), help="log sizes"
    )
    bench.add_argument(
        "--threads",
        type=partial(_int_list, least=0),
        default=(1, 2, 4),
        help="worker counts to compare (0 = one per CPU)",
    )
    bench.add_argument("--out", default="comborank_out", help="output directory")
    bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ConfigError, SchemaMismatch, EOFError, zlib.error, OSError) as exc:
        # A truncated gzip input raises EOFError, a corrupt one zlib.error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
