"""comborank benchmark: end-to-end metrics of the CLI, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload explain --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --pin

Run from anywhere inside a checkout; inputs, outputs and spans go to
``.bench_work/`` at the checkout root.  Every CLI call is a fresh child
process (``python3 -m comborank.cli`` with the checkout's ``src/`` on
``PYTHONPATH``), timed from spawn to reap; its CPU time and peak RSS come
from ``wait4``, which covers the call's whole process tree.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the names and units are those listed in BENCHMARK.json.  The last
line of standard output is one JSON object.  ``--pin`` rewrites pins.json
from the default seed after checking the pipeline against the brute-force
oracle on a small log of each shape.  See README.md for the workloads and
for what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from common import CATEGORIES, DEFAULT_SEED, ENTITY, WORKLOADS, Workload, file_sha256, tree_sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HELPER = HERE / "helper.py"
PINS = HERE / "pins.json"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# --- child processes -------------------------------------------------------------

@dataclass(frozen=True)
class Child:
    """One reaped child process: wall time, CPU and peak RSS of its process tree."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


class Runner:
    """Starts one child at a time and keeps the whole run under RUN_LIMIT_S."""

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(log_dir))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def run(self, argv: list[str]) -> Child:
        """Run to completion; a child still running at the deadline is killed and fails."""
        self.count += 1
        log_path = self.log_dir / f"child_{self.count:04d}.log"
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(
                max(0.0, self.deadline - time.monotonic()), os.kill, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"exit {proc.returncode}: {' '.join(argv[1:])}\n{tail}", file=sys.stderr)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode == 0)

    def cli(self, log: Path, entity: str | None, out: Path) -> Child:
        shutil.rmtree(out, ignore_errors=True)
        command = ["recommend"] if entity is None else ["explain", entity]
        return self.run([
            sys.executable, "-m", "comborank.cli", *command,
            "--input", str(log),
            "--categories", ",".join(CATEGORIES),
            "--entity", ENTITY,
            "--threads", "1",
            "--out", str(out),
        ])

    def helper(self, *args: str) -> Child:
        return self.run([sys.executable, str(HELPER), *args])


# --- set-up and checks -------------------------------------------------------------

@dataclass
class Setup:
    """The generated inputs and the bytes every call must reproduce.

    ``check_sha256`` is the pinned ``reports.json`` digest of the small
    default-seed check log, or None when nothing is pinned for this shape.
    """

    log: Path
    tiny_log: Path
    tiny_entity: str
    check_log: Path
    check_sha256: str | None
    info: dict
    reports_sha256: str
    calls: list[tuple[str | None, str | None]]  # (entity, explanations digest) per call


def set_up(runner: Runner, workload: Workload, seed: int, lines: int, work: Path, pins_path: Path) -> Setup:
    child = runner.helper(
        "setup", "--workload", workload.name, "--seed", str(seed),
        "--lines", str(lines), "--work", str(work),
    )
    if not child.ok:
        raise SystemExit(f"{workload.name}: input generation or reference run failed")
    doc = json.loads((work / "setup.json").read_text(encoding="utf-8"))
    reports_sha256 = doc["reports_sha256"]
    explain_sha = [e["explanations_sha256"] for e in doc["explain"]]
    pins = json.loads(pins_path.read_text(encoding="utf-8")) if pins_path.is_file() else {}
    entry = pins.get("workloads", {}).get(workload.name, {})
    full, check = entry.get("full"), entry.get("check")
    if full is not None and pins["seed"] == seed and full["lines"] == lines:
        _compare_log(workload, full["log_sha256"], doc["log_sha256"])
        if full["reports_sha256"] != reports_sha256:
            print(f"{workload.name}: in-process reports differ from the pinned digest", file=sys.stderr)
        reports_sha256 = full["reports_sha256"]
        explain_sha = full["explanations_sha256"]
    if check is not None:
        _compare_log(workload, check["log_sha256"], doc["check_log_sha256"])
    if workload.explain_calls:
        calls = [(e["entity"], sha) for e, sha in zip(doc["explain"], explain_sha)]
    else:
        calls = [(None, None)]
    info = {key: doc[key] for key in ("lines", "log_bytes", "log_sha256", "distinct_line_frac")}
    return Setup(
        log=work / doc["input"],
        tiny_log=work / "tiny.csv",
        tiny_entity=doc["tiny_entity"],
        check_log=work / doc["check_input"],
        check_sha256=None if check is None else check["reports_sha256"],
        info=info,
        reports_sha256=reports_sha256,
        calls=calls,
    )


def _compare_log(workload: Workload, pinned: str, generated: str) -> None:
    if pinned != generated:
        print(f"{workload.name}: generated log differs from the pinned one; "
              "did synthgen change?", file=sys.stderr)


def outputs_match(out: Path, reports_sha256: str, explanations_sha256: str | None) -> bool:
    """An operation succeeds only if every artifact exists with the expected bytes."""
    reports = out / "reports.json"
    if not (out / "baseline.json").is_file() or not reports.is_file():
        return False
    if file_sha256(reports) != reports_sha256:
        return False
    if explanations_sha256 is None:
        return True
    explanations = out / "explanations"
    return explanations.is_dir() and tree_sha256(explanations) == explanations_sha256


def check_call(runner: Runner, setup: Setup, out: Path) -> str | None:
    """One CLI call on the default-seed check log; the digest of its reports.json."""
    child = runner.cli(setup.check_log, None, out)
    reports = out / "reports.json"
    return file_sha256(reports) if child.ok and reports.is_file() else None


# --- rounds --------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def cli_round(runner: Runner, setup: Setup, out: Path, tally: Tally) -> list[Child]:
    """The workload's CLI calls once, each checked."""
    children = []
    for entity, explanations_sha256 in setup.calls:
        child = runner.cli(setup.log, entity, out)
        tally.count(child.ok and outputs_match(out, setup.reports_sha256, explanations_sha256))
        children.append(child)
    return children


def e2e_metrics(rounds: list[list[Child]], lines_per_call: int) -> dict[str, float]:
    """Time of a round: each call's fastest time over the rounds, summed over the calls.

    The host is shared, and interference only ever adds time to a call, so
    the fastest of many identical calls is the steadiest estimate of the
    program's own cost (see README.md, "Measurement").  Peak RSS is the
    largest of any call.
    """
    calls = list(zip(*rounds))
    wall = sum(min(child.wall_s for child in call) for call in calls)
    return {
        "wall_s": wall,
        "lines_per_s": lines_per_call * len(calls) / wall,
        "cpu_s": sum(min(child.cpu_s for child in call) for call in calls),
        "peak_rss_mb": max(child.rss_mb for call in calls for child in call),
    }


def helper_round(
    runner: Runner, workload: Workload, setup: Setup, out: Path, tally: Tally, trace: bool, run_id: int
) -> tuple[float, list[dict]]:
    """The same calls in-process; returns the summed pipeline time and the spans."""
    pipeline_s = 0.0
    spans: list[dict] = []
    for i, (entity, explanations_sha256) in enumerate(setup.calls):
        shutil.rmtree(out, ignore_errors=True)
        args = ["call", "--workload", workload.name, "--input", str(setup.log), "--out", str(out)]
        if entity is not None:
            args += ["--entity", entity]
        if trace:
            args += ["--trace", "--run-id", str(run_id + i)]
        child = runner.helper(*args)
        ok = child.ok and outputs_match(out, setup.reports_sha256, explanations_sha256)
        tally.count(ok)
        if child.ok:
            doc = json.loads((out / "call.json").read_text(encoding="utf-8"))
            pipeline_s += doc["pipeline_s"]
            spans += doc["spans"]
    return pipeline_s, spans


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one round from its spans; a span's layer is its name's prefix.

    Busy time is self time: a span's duration minus the time its children
    cover.  The root ``call`` span is CLI glue and belongs to no layer.
    """
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["run"], span["parent"]] += span["end"] - span["start"]
    values: dict[str, float] = defaultdict(float)
    for span in spans:
        layer, _, function = span["name"].partition(".")
        if not function:
            continue
        duration = span["end"] - span["start"]
        values[f"{layer}.busy_s"] += duration - covered[span["run"], span["id"]]
        values[f"{layer}.gc_s"] += span["gc_s"]
        for key, count in span["counts"].items():
            values[f"{layer}.{key}"] += count
        if layer == "ingest":
            values["ingest.cpu_s"] += span["cpu_s"] + span["child_cpu_s"]
            values["ingest.rss_mb"] = max(values["ingest.rss_mb"], span["rss_mb"])
        if function == "emit_report":
            values["explain.emit_s"] += duration
    return values


# --- one benchmark run ------------------------------------------------------------------

def bench(args: argparse.Namespace) -> int:
    e2e_units, layer_units = _metric_units()
    workload = WORKLOADS[args.workload]
    lines = workload.scaled_lines(args.scale)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    setup = set_up(runner, workload, args.seed, lines, work, Path(args.pins))

    tally = Tally()
    out = work / "out"
    metrics: dict[str, float] = {}
    if setup.check_sha256 is not None:
        digest = check_call(runner, setup, out)
        tally.count(digest == setup.check_sha256)
        if digest != setup.check_sha256:
            print(f"{workload.name}: reports.json of the check log differs from the pinned digest",
                  file=sys.stderr)

    deadline = time.perf_counter() + args.seconds
    rounds: list = []
    setup_times: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    all_spans: list[dict] = []
    while not rounds or time.perf_counter() < deadline:
        if args.trace:
            run_id = len(rounds) * len(setup.calls)
            # Alternate which of the two in-process runs goes first.
            for traced in (False, True) if len(rounds) % 2 == 0 else (True, False):
                pipeline_s, spans = helper_round(runner, workload, setup, out, tally, traced, run_id)
                if traced:
                    traced_s.append(pipeline_s)
                    round_spans = spans
                else:
                    untraced_s.append(pipeline_s)
            cli_round(runner, setup, out, tally)
            all_spans += round_spans
            rounds.append(layer_metrics(round_spans))
        else:
            rounds.append(cli_round(runner, setup, out, tally))
            # One start-up call per round spreads the set-up samples over the run.
            entity = setup.tiny_entity if workload.explain_calls else None
            child = runner.cli(setup.tiny_log, entity, out)
            if not child.ok:
                raise SystemExit(f"{workload.name}: CLI failed on a one-line log")
            setup_times.append(child.wall_s)
        if time.monotonic() > runner.deadline:
            break
    shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        metrics["workload.distinct_line_frac"] = setup.info["distinct_line_frac"]
        metrics["workload.log_bytes"] = setup.info["log_bytes"]
        untraced = statistics.median(untraced_s)
        metrics["trace.overhead_frac"] = statistics.median(traced_s) / untraced - 1.0 if untraced else 0.0
        for key in layer_units:
            if key not in metrics:
                metrics[key] = statistics.median(r.get(key, 0.0) for r in rounds)
        spans_path = work / "spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in all_spans), encoding="utf-8")
        units = layer_units
    else:
        metrics.update(e2e_metrics(rounds, setup.info["lines"]))
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
        units = e2e_units
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    metrics = {key: metrics[key] for key in units}

    for path in work.glob("*.csv"):
        path.unlink()
    shutil.rmtree(work / "check")
    shutil.rmtree(work / "ref")
    error_rate = tally.failed / tally.attempted
    print(
        f"workload {workload.name}  seed {args.seed}  lines {setup.info['lines']}  "
        f"log_bytes {setup.info['log_bytes']}  distinct_line_frac {setup.info['distinct_line_frac']:.4f}  "
        f"log_sha256 {setup.info['log_sha256'][:16]}"
    )
    if args.trace:
        print(f"rounds {len(rounds)}  calls per round {len(setup.calls)}  (medians over rounds)")
    else:
        walls = [sum(child.wall_s for child in r) for r in rounds]
        print(f"rounds {len(rounds)}  calls per round {len(setup.calls)}  round wall_s: "
              f"min {min(walls):.3f}  median {statistics.median(walls):.3f}  max {max(walls):.3f}")
        print(f"setup calls {len(setup_times)}  setup_s: min {min(setup_times):.3f}  "
              f"median {statistics.median(setup_times):.3f}  max {max(setup_times):.3f}")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")
    print(f"  {'error_rate':<28} {error_rate:>16.6g} ({tally.failed} of {tally.attempted} operations failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


# --- pinning ----------------------------------------------------------------------------

def pin() -> int:
    """Pin the default-seed digests of every workload after the oracle agrees."""
    pins: dict = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        work = WORK / "pin" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(work)
        setup = set_up(runner, workload, DEFAULT_SEED, workload.lines, work, Path(os.devnull))
        oracle = runner.helper(
            "oracle", "--workload", workload.name,
            "--input", str(setup.check_log), "--out", str(work / "oracle"),
        )
        if not oracle.ok:
            raise SystemExit(f"{workload.name}: pipeline disagrees with the oracle")
        check_sha256 = check_call(runner, setup, work / "out")
        if check_sha256 != file_sha256(work / "oracle" / "reports.json"):
            raise SystemExit(f"{workload.name}: CLI disagrees with the oracle on the check log")
        tally = Tally()
        cli_round(runner, setup, work / "out", tally)
        if tally.failed:
            raise SystemExit(f"{workload.name}: CLI output differs from the in-process reference")
        doc = json.loads((work / "setup.json").read_text(encoding="utf-8"))
        pins["workloads"][workload.name] = {
            "full": {
                **setup.info,
                "reports_sha256": setup.reports_sha256,
                "explanations_sha256": [sha for _, sha in setup.calls if sha is not None],
            },
            "check": {
                "lines": workload.check_lines,
                "log_sha256": doc["check_log_sha256"],
                "reports_sha256": check_sha256,
            },
        }
        print(f"{workload.name}: oracle, CLI and reference agree, reports {setup.reports_sha256[:16]}")
    shutil.rmtree(WORK / "pin")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply every log's line count")
    parser.add_argument("--pins", default=str(PINS), help="pinned digests for the default seed")
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "comborank" / "cli.py").is_file():
        print(f"comborank sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
