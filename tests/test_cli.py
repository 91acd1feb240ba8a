import gc
import gzip
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import comborank

from comborank import (
    emit_report,
    generate_baseline,
    ingest_paths,
    recommend_all,
    resolve_mapping,
)
from comborank import cli as cli_module
from comborank import ingest as ingest_module
from comborank import reports as reports_module
from comborank.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    InputError,
    RunConfig,
    bench_csv,
    discover,
    main,
    run_bench,
    run_pipeline,
)
from comborank.config import AnalysisSpec, RunSettings
from comborank.synthgen import config_to_json, generate_log, oracle_recommend, synthetic_config

from fixture_logs import ENTITY_A, RANK_PROFILE_COLUMNS, rank_profile_log


@pytest.fixture(scope="module")
def sample_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "log.csv"
    generate_log(synthetic_config(seed=21, total_entries=4000), path)
    return path


@pytest.fixture()
def analysis_conf(tmp_path):
    path = tmp_path / "analysis.conf"
    path.write_text(
        "categories = cat1,cat2,cat3,cat4\nentity = entity\np = 2\nk = 4\nmin_support = 2\n"
    )
    return path


class TestRunPipeline:
    def test_matches_library_reports(self, sample_log, tmp_path):
        """The pipeline's bounded top-k pass reports what the brute-force oracle does."""
        categories = ("cat1", "cat2", "cat3", "cat4")
        for min_support in (0, 2):
            for k in range(1, 7):
                settings = RunSettings(
                    categories=categories, entity="entity", k=k, min_support=min_support
                )
                result = run_pipeline(RunConfig((sample_log,), tmp_path, settings, threads=1))
                spec = AnalysisSpec(categories, "entity", k=k, min_support=min_support)
                expected = oracle_recommend(sample_log, spec)
                written = (tmp_path / "reports.json").read_bytes()
                assert written == emit_report(expected).encode("utf-8"), (k, min_support)
                assert result.times.total_s > 0

    def test_written_reports_equal_emitted_text(self, sample_log, tmp_path):
        settings = RunSettings(categories=("cat1", "cat2", "cat3", "cat4"), entity="entity", k=4)
        result = run_pipeline(RunConfig((sample_log,), tmp_path, settings, report_format="csv"))
        assert [path.name for path in result.written] == [
            "baseline.json", "reports.json", "reports.csv"
        ]
        reports = recommend_all(result.index, result.baseline, result.spec)
        for path, format in zip(result.written[1:], ("json", "csv")):
            assert path.read_bytes() == emit_report(reports, format).encode("utf-8")

    def test_keeps_only_the_requested_reports(self, sample_log, tmp_path):
        settings = RunSettings(categories=("cat1", "cat2", "cat3", "cat4"), entity="entity", k=4)
        found = discover(RunConfig((sample_log,), tmp_path, settings))
        reports = recommend_all(found.index, found.baseline, found.spec)
        wanted = [reports[0].entity, reports[len(reports) // 2].entity, reports[-1].entity]
        result = run_pipeline(RunConfig((sample_log,), tmp_path, settings), wanted)
        assert result.kept == {r.entity: r for r in reports if r.entity in wanted}
        assert result.count == len(result.index.entities()) == len(reports)

    def test_unobserved_kept_entity_raises_before_writing(self, sample_log, tmp_path):
        settings = RunSettings(categories=("cat1", "cat2", "cat3", "cat4"), entity="entity")
        found = discover(RunConfig((sample_log,), tmp_path, settings))
        observed = min(found.index.entities())
        out_dir = tmp_path / "out"
        with pytest.raises(InputError, match="nobody_here"):
            run_pipeline(RunConfig((sample_log,), out_dir, settings), [observed, "nobody_here"])
        for name in ("baseline.json", "reports.json"):
            assert not (out_dir / name).exists(), name

    def test_missing_input(self, tmp_path):
        settings = RunSettings(categories=("a",), entity="e")
        config = RunConfig((tmp_path / "nope.csv",), tmp_path, settings)
        with pytest.raises(Exception, match="not found"):
            run_pipeline(config)


class TestCommands:
    def test_discover(self, sample_log, analysis_conf, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main([
            "discover", "--config", str(analysis_conf), "--input", str(sample_log),
            "--out", str(out_dir),
        ])
        assert rc == EXIT_OK
        doc = json.loads((out_dir / "baseline.json").read_text())
        assert len(doc["combinations"]) == 16
        assert "expected combinations" in capsys.readouterr().out

    def test_discover_and_recommend_write_the_same_baseline(
        self, sample_log, analysis_conf, tmp_path
    ):
        documents = []
        for command in ("discover", "recommend"):
            out_dir = tmp_path / command
            rc = main([
                command, "--config", str(analysis_conf), "--input", str(sample_log),
                "--out", str(out_dir),
            ])
            assert rc == EXIT_OK
            documents.append((out_dir / "baseline.json").read_bytes())
        assert documents[1] == documents[0]

    def test_recommend_with_flag_overrides(self, sample_log, analysis_conf, tmp_path):
        out_dir = tmp_path / "out"
        rc = main([
            "recommend", "--config", str(analysis_conf), "--input", str(sample_log),
            "--out", str(out_dir), "--k", "2", "--format", "csv",
        ])
        assert rc == EXIT_OK
        doc = json.loads((out_dir / "reports.json").read_text())
        assert all(len(entry["items"]) <= 2 for entry in doc["entities"])
        assert (out_dir / "reports.csv").is_file()

    def test_recommend_without_config_file(self, sample_log, tmp_path):
        out_dir = tmp_path / "out"
        rc = main([
            "recommend", "--input", str(sample_log), "--out", str(out_dir),
            "--categories", "cat1,cat2", "--entity", "entity",
        ])
        assert rc == EXIT_OK
        assert (out_dir / "reports.json").is_file()

    def test_explain(self, sample_log, analysis_conf, tmp_path):
        out_dir = tmp_path / "out"
        doc_rc = main([
            "recommend", "--config", str(analysis_conf), "--input", str(sample_log),
            "--out", str(out_dir),
        ])
        assert doc_rc == EXIT_OK
        doc = json.loads((out_dir / "reports.json").read_text())
        target = next(e["entity"] for e in doc["entities"] if e["items"])
        rc = main([
            "explain", target, "--config", str(analysis_conf),
            "--input", str(sample_log), "--out", str(out_dir),
        ])
        assert rc == EXIT_OK
        explanations = list((out_dir / "explanations").iterdir())
        assert len(explanations) == 1
        assert any(p.suffix == ".svg" for p in explanations[0].iterdir())

    def test_explain_unknown_entity(self, sample_log, analysis_conf, tmp_path):
        out_dir = tmp_path / "out"
        rc = main([
            "explain", "nobody_here", "--config", str(analysis_conf),
            "--input", str(sample_log), "--out", str(out_dir),
        ])
        assert rc == EXIT_INPUT
        for name in ("reports.json", "baseline.json", "explanations"):
            assert not (out_dir / name).exists(), name

    def test_synth_then_recommend(self, tmp_path):
        gen_conf = tmp_path / "gen.json"
        gen_conf.write_text(config_to_json(synthetic_config(seed=33, total_entries=800)))
        rc = main(["synth", "--config", str(gen_conf), "--out", str(tmp_path / "data")])
        assert rc == EXIT_OK
        log = tmp_path / "data" / "synthetic_log.csv"
        assert log.is_file()
        assert (tmp_path / "data" / "plant_manifest.json").is_file()
        rc = main([
            "recommend", "--input", str(log), "--out", str(tmp_path / "out"),
            "--categories", "cat1,cat2,cat3,cat4", "--entity", "entity",
        ])
        assert rc == EXIT_OK

    def test_synth_requires_config(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_byte_order_mark_log_matches_plain_log(self, sample_log, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + sample_log.read_bytes())
        documents = []
        for name, log in (("plain", sample_log), ("marked", marked)):
            out_dir = tmp_path / name
            rc = main([
                "recommend", "--input", str(log), "--out", str(out_dir),
                "--categories", "cat1,cat2", "--entity", "entity",
            ])
            assert rc == EXIT_OK
            documents.append((out_dir / "reports.json").read_bytes())
        assert documents[1] == documents[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_headerless_byte_order_mark_log_matches_plain_log(
        self, tmp_path, monkeypatch, threads
    ):
        """A BOM before the first record of a ``header = false`` log is not data."""
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 4)
        conf = tmp_path / "analysis.conf"
        conf.write_text("header = false\ncolumns = c1,c2,e\ncategories = c1,c2\nentity = e\n")
        body = b"a,x,e1\na,x,e2\nb,y,e1\n"
        documents = []
        for name, data in (("plain", body), ("marked", b"\xef\xbb\xbf" + body)):
            log = tmp_path / f"{name}.csv"
            log.write_bytes(data)
            out_dir = tmp_path / f"{name}_out"
            rc = main([
                "recommend", "--config", str(conf), "--input", str(log),
                "--out", str(out_dir), "--threads", str(threads),
            ])
            assert rc == EXIT_OK
            documents.append((out_dir / "reports.json").read_text(encoding="utf-8"))
        assert "\ufeff" not in documents[1]
        assert documents[1] == documents[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_recommend_writes_emitted_reports(self, sample_log, tmp_path, monkeypatch, threads):
        """Reports streamed to both files are the bytes ``emit_report`` gives for the run."""
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 256)
        spec = AnalysisSpec(("cat1", "cat2", "cat3", "cat4"), "entity", k=3)
        marginals, index = ingest_paths([sample_log], spec, resolve_mapping(sample_log))
        reports = recommend_all(index, generate_baseline(marginals, spec), spec)
        out_dir = tmp_path / "out"
        rc = main([
            "recommend", "--input", str(sample_log), "--out", str(out_dir),
            "--categories", "cat1,cat2,cat3,cat4", "--entity", "entity", "--k", "3",
            "--format", "csv", "--threads", str(threads),
        ])
        assert rc == EXIT_OK
        for format in ("json", "csv"):
            expected = emit_report(reports, format).encode("utf-8")
            assert (out_dir / f"reports.{format}").read_bytes() == expected, format

    def test_gzip_input(self, sample_log, tmp_path):
        gz_path = tmp_path / "log.csv.gz"
        gz_path.write_bytes(gzip.compress(sample_log.read_bytes()))
        rc = main([
            "recommend", "--input", str(gz_path), "--out", str(tmp_path / "out"),
            "--categories", "cat1,cat2", "--entity", "entity",
        ])
        assert rc == EXIT_OK


class TestStreamedReports:
    """Ranking streams into the report files: memory is the index, the heaps and one report."""

    def test_rank_and_write_peak_stays_below_the_report_list(self, tmp_path, monkeypatch):
        # 20,000 entities seen once each outside the baseline, so they have
        # no MRR, and 50 with a baseline: reports the list would hold, but
        # the heaps do not.
        log = tmp_path / "log.csv"
        with open(log, "w", encoding="utf-8") as handle:
            handle.write("c1,c2,entity\n")
            for i in range(6000):
                handle.write(f"a,x,base{i % 50}\n")
            for i in range(500):
                handle.write(f"b{i % 3},y{i % 2},base{i % 50}\n")
            for i in range(20_000):
                handle.write(f"b{i % 10},y{i % 5},lone{i}\n")
        settings = RunSettings(categories=("c1", "c2"), entity="entity", p=1)
        tracemalloc.start()
        try:
            found = discover(RunConfig((log,), tmp_path, settings))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            reports = recommend_all(found.index, found.baseline, found.spec)
            listed = tracemalloc.get_traced_memory()[0] - before
            assert sum(report.mrr is None for report in reports) == 20_000
            del reports
            gc.collect()
            # The command ranks and writes what was found above the index.
            monkeypatch.setattr(cli_module, "discover", lambda config: found)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc = main([
                "recommend", "--input", str(log), "--out", str(tmp_path / "out"),
                "--categories", "c1,c2", "--entity", "entity", "--p", "1",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert peak - base < listed, (peak - base, listed)


class _FailAfter(list):
    """Entity names whose iteration raises ``error`` after ``count`` of them."""

    def __init__(self, names, count, error):
        super().__init__(names)
        self.count = count
        self.error = error

    def __iter__(self):
        for position, name in enumerate(super().__iter__()):
            if position == self.count:
                raise self.error
            yield name


class TestAllOrNothingArtifacts:
    """A run replaces the report files only once all of them are written."""

    _ARGV = ["--categories", "cat1,cat2,cat3,cat4", "--entity", "entity"]

    def _fail_after(self, monkeypatch, count, error):
        class FailingRanking(cli_module.Ranking):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                self.entities = _FailAfter(self.entities, count, error)

        monkeypatch.setattr(cli_module, "Ranking", FailingRanking)
        # Small batches, so some of the failing run's text reaches its files.
        monkeypatch.setattr(reports_module, "_BATCH", 8)

    @staticmethod
    def _contents(out_dir):
        return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    @pytest.mark.parametrize("error", [MemoryError("ranking"), KeyboardInterrupt()])
    def test_failed_run_keeps_the_previous_files(self, sample_log, tmp_path, monkeypatch, error):
        out_dir = tmp_path / "out"
        argv = ["recommend", "--input", str(sample_log), "--out", str(out_dir), *self._ARGV]
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        before = self._contents(out_dir)
        assert sorted(before) == ["baseline.json", "reports.csv", "reports.json"]
        self._fail_after(monkeypatch, 40, error)
        failing = [*argv, "--format", "csv", "--k", "2", "--p", "1"]
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(failing)
        else:
            assert main(failing) == EXIT_INTERNAL
        assert self._contents(out_dir) == before

    def test_json_run_removes_a_stale_csv(self, sample_log, tmp_path):
        out_dir = tmp_path / "out"
        argv = ["recommend", "--input", str(sample_log), "--out", str(out_dir), *self._ARGV]
        assert main([*argv, "--format", "csv"]) == EXIT_OK
        written = self._contents(out_dir)
        assert main(argv) == EXIT_OK
        assert self._contents(out_dir) == {
            name: text for name, text in written.items() if name != "reports.csv"
        }


def test_artifacts_are_the_same_across_hash_seeds_and_workers(sample_log, tmp_path):
    """Fresh processes under three hash seeds and one or two workers write the same bytes.

    Within a cohort, entities are visited in dict order, which follows the
    order lines were counted in and so differs between worker counts.
    """
    assert sample_log.stat().st_size > 2 * ingest_module._MIN_CHUNK_BYTES  # two workers split it
    contents = {}
    for seed in ("0", "1", "12345"):
        for threads in ("1", "2"):
            out_dir = tmp_path / f"{seed}-{threads}"
            proc = _run_python(
                "-m", "comborank.cli", "recommend", "--input", str(sample_log),
                "--out", str(out_dir), "--categories", "cat1,cat2,cat3,cat4",
                "--entity", "entity", "--format", "csv", "--threads", threads,
                hash_seed=seed,
            )
            assert proc.returncode == 0, proc.stderr
            contents[seed, threads] = {
                name: (out_dir / name).read_bytes()
                for name in ("baseline.json", "reports.json", "reports.csv")
            }
    first = contents["0", "1"]
    assert all(files == first for files in contents.values())


class TestExitCodes:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["recommend", "--zap"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["recommend", "--threads", "minus"],
            ["bench", "--sizes", "inf"],
            ["bench", "--sizes", "1.9"],
            ["bench", "--sizes", "-5"],
            ["bench", "--sizes", "0"],
            ["bench", "--sizes", "2000,0"],
            ["bench", "--threads", "0.5"],
            ["bench", "--threads", "1,-1"],
            ["recommend", "--input", "log.csv", "--k", "0"],
            ["recommend", "--input", "log.csv", "--p", "0"],
            ["recommend", "--input", "log.csv", "--p", "-1"],
            ["recommend", "--input", "log.csv", "--p", "2,0"],
        ],
        ids=[
            "threads-minus",
            "sizes-inf",
            "sizes-fraction",
            "sizes-negative",
            "sizes-zero",
            "sizes-one-zero",
            "threads-fraction",
            "threads-one-negative",
            "k-zero",
            "p-zero",
            "p-negative",
            "p-one-zero",
        ],
    )
    def test_bad_flag_value(self, argv, tmp_path):
        # A bad value must stop the run before any log is generated.
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_USAGE
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("line", ["k = 0", "p = 0", "p = 2,-1"])
    def test_out_of_range_config_value(self, sample_log, tmp_path, line):
        """The same values from a config file are configuration errors."""
        conf = tmp_path / "analysis.conf"
        conf.write_text(f"categories = cat1,cat2\nentity = entity\n{line}\n")
        rc = main([
            "recommend", "--config", str(conf), "--input", str(sample_log),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_INPUT

    def test_missing_input_flag(self, analysis_conf):
        assert main(["recommend", "--config", str(analysis_conf)]) == EXIT_USAGE

    def test_nonexistent_input(self):
        rc = main([
            "recommend", "--input", "does_not_exist.csv",
            "--categories", "a", "--entity", "e",
        ])
        assert rc == EXIT_INPUT

    def test_invalid_analysis_config(self, sample_log):
        rc = main([
            "recommend", "--input", str(sample_log),
            "--categories", "cat1", "--entity", "cat1",
        ])
        assert rc == EXIT_INPUT

    def test_bad_config_file(self, sample_log, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("no equals sign here\n")
        rc = main(["recommend", "--config", str(conf), "--input", str(sample_log)])
        assert rc == EXIT_INPUT

    def test_empty_log(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text("cat1,entity\n")
        rc = main([
            "recommend", "--input", str(log), "--out", str(tmp_path / "out"),
            "--categories", "cat1", "--entity", "entity",
        ])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["discover", "recommend"])
    def test_second_input_with_other_header(self, sample_log, tmp_path, command):
        other = tmp_path / "other.csv"
        header, body = sample_log.read_text().split("\n", 1)
        other.write_text(header.replace("entity", "customer") + "\n" + body)
        rc = main([
            command, "--input", str(sample_log), "--input", str(other),
            "--out", str(tmp_path / "out"), "--categories", "cat1,cat2", "--entity", "entity",
        ])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize("command", ["discover", "recommend"])
    @pytest.mark.parametrize("damage", ["truncated", "corrupt", "not_gzip"])
    def test_damaged_gzip_input(self, sample_log, tmp_path, command, damage, capsys):
        """Exit 2 naming the bad file, whether it comes first or after a good one."""
        data = bytearray(gzip.compress(sample_log.read_bytes()))
        if damage == "truncated":
            data = data[: len(data) // 2]
        elif damage == "corrupt":
            data[10] = 0xFF  # first deflate block: reserved block type 3
        else:
            data = sample_log.read_bytes()
        gz_path = tmp_path / "log.csv.gz"
        gz_path.write_bytes(data)
        for inputs in ([gz_path], [sample_log, gz_path]):
            rc = main([
                command, *(arg for path in inputs for arg in ("--input", str(path))),
                "--out", str(tmp_path / "out"), "--categories", "cat1,cat2", "--entity", "entity",
            ])
            assert rc == EXIT_INPUT
            assert f"error: {gz_path}: " in capsys.readouterr().err

    def test_column_missing_from_header(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("a,b\n1,2\n")
        rc = main([
            "recommend", "--input", str(log), "--out", str(tmp_path / "out"),
            "--categories", "missing", "--entity", "b",
        ])
        assert rc == EXIT_INPUT


class TestBench:
    def test_bench_rows_and_csv(self, tmp_path):
        results = run_bench([3000], [1, 2], tmp_path)
        assert len(results) == 2
        assert all(r.entries == 3000 for r in results)
        assert results[0].threads == 1
        assert all(r.throughput > 0 for r in results)
        text = bench_csv(results)
        lines = text.strip().split("\n")
        assert lines[0].startswith("entries,threads,ingest_s")
        assert len(lines) == 3
        assert lines[1].endswith(",1.00")  # single-thread speedup is 1 by definition
        # generated logs are cleaned up; the last run's reports stay in --out
        assert not list(tmp_path.glob("bench_*.csv"))

    def test_bench_command(self, tmp_path):
        rc = main(["bench", "--sizes", "2000", "--threads", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "bench.csv").is_file()


def test_rank_profile_via_cli(tmp_path):
    lines, mapping, spec = rank_profile_log()
    log = tmp_path / "fixture.csv"
    log.write_text(",".join(RANK_PROFILE_COLUMNS) + "\n" + "\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    rc = main([
        "recommend", "--input", str(log), "--out", str(out_dir),
        "--categories", "Browser,Country,ContentType", "--entity", "Customer",
    ])
    assert rc == EXIT_OK
    doc = json.loads((out_dir / "baseline.json").read_text())
    assert len(doc["combinations"]) == 8


_SRC = Path(comborank.__file__).resolve().parent.parent


def _run_python(*args: str, hash_seed: str | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this package's ``src/`` on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_loads_only_analysis_modules(tmp_path):
    """A ``recommend`` run pays for no module that only synth, bench, fan-out or charts use.

    Nor for ``dataclasses`` and the ``inspect`` it loads, which no class needs.
    """
    heavy = (
        "numpy", "multiprocessing", "urllib.request", "xml.sax", "hashlib", "_hashlib",
        "dataclasses", "inspect", "html", "comborank.explain",
    )
    log = tmp_path / "log.csv"
    log.write_text("c1,entity\na,e1\nb,e2\n", encoding="utf-8")
    argv = [
        "recommend", "--input", str(log), "--out", str(tmp_path / "out"),
        "--categories", "c1", "--entity", "entity",
    ]
    code = (
        "import sys; from comborank.cli import main; "
        f"rc = main({argv!r}); print(rc, [m for m in {heavy!r} if m in sys.modules])"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_explain_loads_no_openssl(tmp_path):
    """Chart file names come from ``_blake2``, so an ``explain`` call never loads ``_hashlib``."""
    lines, _mapping, _spec = rank_profile_log()
    log = tmp_path / "fixture.csv"
    log.write_text(",".join(RANK_PROFILE_COLUMNS) + "\n" + "\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    argv = [
        "explain", ENTITY_A, "--input", str(log), "--out", str(out_dir),
        "--categories", "Browser,Country,ContentType", "--entity", "Customer",
    ]
    code = (
        "import sys; from comborank.cli import main; "
        f"rc = main({argv!r}); print(rc, '_hashlib' in sys.modules)"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert list((out_dir / "explanations").glob("*/anomaly__*.svg"))


def test_public_api_is_pinned():
    """Growing or shrinking the package surface has to show up in this list."""
    assert sorted(comborank.__all__) == [
        "AnalysisSpec", "AnomalyItem", "BaselineSet", "CategoryMarginals", "ChartData",
        "ConfigError", "ContingencyIndex", "EmptyCategoryError", "EntityAnomalyReport",
        "FieldMapping", "RunSettings", "SchemaMismatch", "baseline_stats",
        "compute_distances", "emit_report", "explain", "generate_baseline", "ingest_lines",
        "ingest_paths", "merge_indexes", "mrr_from_ranks", "rank_ordering",
        "recommend_all", "render_chart", "resolve_mapping", "settings_from_file", "top_k",
        "top_p_values", "write_explanation",
    ]
    assert all(hasattr(comborank, name) for name in comborank.__all__)


def test_demo_recovers_its_plants(tmp_path):
    """The demo runs the one pipeline driver: its reports are what ``recommend`` writes."""
    demo = _SRC.parent / "scripts" / "demo_pipeline.py"
    demo_out = tmp_path / "demo"
    proc = _run_python(str(demo), "--entries", "20000", "--out", str(demo_out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "recovered 2 of 2" in proc.stdout
    assert (demo_out / "reports.csv").is_file()
    out_dir = tmp_path / "recommend"
    rc = main([
        "recommend", "--input", str(demo_out / "synthetic_log.csv"), "--out", str(out_dir),
        "--categories", "cat1,cat2,cat3,cat4", "--entity", "entity",
        "--p", "2", "--k", "5", "--min-support", "10", "--format", "csv",
    ])
    assert rc == EXIT_OK
    for name in ("reports.json", "reports.csv"):
        assert (demo_out / name).read_bytes() == (out_dir / name).read_bytes(), name
