"""Command-line front end: discover, recommend, explain, synth, bench.

Exit codes: 0 success, 1 usage errors (bad flags, missing subcommand),
2 input or configuration errors (unreadable, truncated or corrupt files,
an input truncated or replaced while it is read, an input whose header
differs from the first file's, invalid config, empty logs, unknown
entities, an --out another run is writing to), 3 unexpected internal
failures.  A run into a busy --out does not wait: it fails where it would
start writing, after reading its input.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import zlib
from contextlib import ExitStack
from functools import partial
from itertools import product
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .baseline import BaselineSet, generate_baseline
from .config import (
    AnalysisSpec,
    ConfigError,
    RunSettings,
    parse_name_list,
    parse_p,
    settings_from_file,
)
from .ingest import ContingencyIndex, SchemaMismatch, ingest_paths, resolve_mapping
from .rankstats import EntityAnomalyReport, Ranking
from .reports import all_or_nothing, write_reports

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# What a run leaves in --out; each command commits its own and removes the rest.
_ARTIFACTS = ("baseline.json", "reports.json", "reports.csv", "explanations")


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
    """What a run has computed and written; ``discover`` leaves the last four empty.

    ``written`` lists the artifacts ``run_pipeline`` wrote, ``count`` is the
    number of reports in them, ``no_baseline`` the number of those with no
    baseline presence, and ``kept`` maps each entity it was asked to keep to
    its report.
    """

    __slots__ = ("spec", "index", "baseline", "times", "written", "count", "no_baseline", "kept")

    def __init__(
        self, spec: AnalysisSpec, index: ContingencyIndex, baseline: BaselineSet, times: StageTimes
    ) -> None:
        self.spec = spec
        self.index = index
        self.baseline = baseline
        self.times = times
        self.written: list[Path] = []
        self.count = 0
        self.no_baseline = 0
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
    """Ingest and baseline, without reports; a missing input or an empty log raises InputError.

    What reading raises propagates (ConfigError, OSError, SchemaMismatch, and
    EOFError or zlib.error from a damaged gzip input); ``main`` maps each to exit 2.
    """
    inputs = _resolve_inputs(config.inputs)
    settings = config.settings
    mapping = resolve_mapping(
        inputs[0],
        delimiter=settings.delimiter,
        header=settings.header,
        columns=settings.columns,
        missing_token=settings.missing_token,
    )
    spec = settings.analysis_spec()
    started = time.perf_counter()
    marginals, index = ingest_paths(
        inputs, spec, mapping, header=settings.header, workers=config.threads
    )
    times = StageTimes(ingest_s=time.perf_counter() - started)
    if index.total_records == 0:
        raise InputError("no accepted records in input (empty log or every line malformed)")

    started = time.perf_counter()
    baseline = generate_baseline(marginals, spec)
    times.baseline_s = time.perf_counter() - started
    return PipelineResult(spec, index, baseline, times)


def _json_array(entries: Iterable[str], depth: int, brackets: str = "[]") -> Iterator[str]:
    """Encoded entries in pieces, as ``json.dumps`` indents an array or object ``depth`` deep."""
    inner = "\n" + " " * (depth + 2)
    separator = brackets[0] + inner
    for text in entries:
        yield separator + text
        separator = "," + inner
    yield brackets if separator[0] == brackets[0] else "\n" + " " * depth + brackets[1]


def _write_baseline(baseline: BaselineSet, path: Path) -> None:
    """Write ``json.dumps(baseline_as_dict(baseline), sort_keys=True, indent=2)`` and a newline.

    Each combination is one fixed-text entry filled from the product of each
    category's sorted values, each value encoded once, so nothing the size
    of the product is held.
    """
    values = [list(map(_ascii, sorted(top))) for top in baseline.top_values]
    entry = "".join(_json_array(["%s"] * len(values), 4))
    tops = (
        f"{_ascii(category)}: " + "".join(_json_array(map(_ascii, top), 4))
        for category, top in sorted(zip(baseline.categories, baseline.top_values))
    )
    with path.open("w", encoding="utf-8") as handle:
        handle.write('{\n  "categories": ')
        handle.writelines(_json_array(map(_ascii, baseline.categories), 2))
        handle.write(',\n  "combinations": ')
        handle.writelines(_json_array(map(entry.__mod__, product(*values)), 2))
        handle.write(',\n  "top_values": ')
        handle.writelines(_json_array(tops, 2, "{}"))
        handle.write("\n}\n")


def run_pipeline(config: RunConfig, keep: Iterable[str] = ()) -> PipelineResult:
    """Discover, then rank straight into the artifacts; bad input raises as in ``discover``.

    Writes baseline.json, reports.json, for the csv format reports.csv, and
    for the entities in ``keep`` their charts in explanations/, in
    ``config.out_dir``.  The report files are written from the ranking's
    rows and candidates in entity order, a batch of entities at a time;
    report objects are built only for the entities in ``keep``.  Each of
    those must occur in the input; that is checked before anything is
    written.

    The artifacts are committed as one (``all_or_nothing``), and those of
    ``_ARTIFACTS`` the run did not write are removed; a failed run leaves
    the earlier ones as they were.  ``rank_s`` covers ranking and writing.
    """
    wanted = sorted(set(keep))
    result = discover(config)
    for entity in wanted:
        if not result.index.observes(entity):
            raise InputError(f"entity {entity!r} not observed in the input")
    started = time.perf_counter()
    artifacts = [config.out_dir / name for name in _ARTIFACTS]
    with all_or_nothing(artifacts) as staged:
        _write_baseline(result.baseline, staged[0])
        ranking = Ranking(result.index, result.baseline, result.spec)
        result.count = len(ranking.entities)
        result.no_baseline = result.count - len(ranking.rows)
        result.kept = {report.entity: report for report in ranking.reports(wanted)}
        reports = staged[1:3] if config.report_format == "csv" else staged[1:2]
        with ExitStack() as stack:
            handles = [stack.enter_context(open(path, "w", encoding="utf-8")) for path in reports]
            write_reports(ranking, *handles)
        if wanted:
            # The chart module is loaded only here, so recommend never compiles it.
            from .explain import explain, write_explanation
            for entity, report in result.kept.items():
                write_explanation(explain(entity, report, result.index, result.baseline), staged[3])
    result.written = [path for path in artifacts if path.exists()]
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
    print(
        f"rank: {result.count} entity reports ({result.no_baseline} with no baseline) "
        f"in {times.rank_s:.2f}s"
    )
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
    artifacts = [config.out_dir / name for name in _ARTIFACTS]
    with all_or_nothing(artifacts) as staged:
        _write_baseline(result.baseline, staged[0])
    index = result.index
    print(
        f"ingest: {index.total_records} records ({index.rejected_records} rejected), "
        f"baseline: {result.baseline.size} expected combinations"
    )
    print(f"wrote {artifacts[0]}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    config = _run_config(args)
    _print_summary(run_pipeline(config), config.threads)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    config = _run_config(args)
    result = run_pipeline(config, (args.entity,))
    report = result.kept[args.entity]
    _print_summary(result, config.threads)
    charts = f"{report.baseline_presence} baseline charts, {len(report.items)} anomaly charts"
    print(f"explained {args.entity}: {charts}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    # synthgen pulls in numpy; only synth and bench pay for it.
    from .synthgen import config_from_json, generate_log

    if not args.config:
        raise UsageError("synth requires --config with a generator config (JSON)")
    config_path = Path(args.config)
    if not config_path.is_file():
        raise InputError(f"generator config not found: {config_path}")
    # An invalid config raises ConfigError, which main maps to exit 2.
    config = config_from_json(config_path.read_text(encoding="utf-8"))
    out_dir = Path(args.out)
    log_path = out_dir / "synthetic_log.csv"
    manifest_path = out_dir / "plant_manifest.json"
    with all_or_nothing([log_path, manifest_path]) as staged:
        manifest = generate_log(config, *staged)
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
        help="worker processes (0 = one per usable CPU)",
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
        help="worker counts to compare (0 = one per usable CPU)",
    )
    bench.add_argument("--out", default="comborank_out", help="output directory")
    bench.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is off while the command runs, and left as
    it was found: the pipeline builds no reference cycles, so a collection
    would only walk live objects.
    """
    parser = build_parser()
    enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    # No later collection, the one at exit included, walks what the imports made.
    gc.freeze()
    sys.exit(main())
