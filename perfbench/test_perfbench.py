"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the checkout root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from common import WORKLOADS as WORKLOAD_SHAPES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "5", "--seconds", "0.1", "--scale", "0.01"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: str) -> None:
    started = time.monotonic()
    proc = _bench("--workload", workload, "--trace", trace, *TINY)
    assert time.monotonic() - started < 60
    result = _result(proc)
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    table = proc.stdout.splitlines()[:-1]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in table), metric["name"]


def _setup(work: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(HERE / "helper.py"), "setup", "--workload", "many-entities",
         "--seed", str(seed), "--lines", "2000", "--work", str(work)],
        check=True, env=env, timeout=120,
    )
    return json.loads((work / "setup.json").read_text(encoding="utf-8"))


def test_same_seed_gives_same_log(tmp_path: Path) -> None:
    first = _setup(tmp_path / "a", 9)
    again = _setup(tmp_path / "b", 9)
    other = _setup(tmp_path / "c", 10)
    assert first["log_sha256"] == again["log_sha256"]
    assert first["reports_sha256"] == again["reports_sha256"]
    assert other["log_sha256"] != first["log_sha256"]


def test_wrong_pinned_digest_fails_every_operation(tmp_path: Path) -> None:
    pins = tmp_path / "pins.json"
    wrong = {"log_sha256": "0" * 64, "reports_sha256": "0" * 64}
    shape = WORKLOAD_SHAPES["many-entities"]
    pins.write_text(json.dumps({"seed": 5, "workloads": {"many-entities": {
        "full": {"lines": shape.scaled_lines(0.01), "explanations_sha256": [], **wrong},
        "check": {"lines": shape.check_lines, **wrong},
    }}}), encoding="utf-8")
    proc = _bench("--workload", "many-entities", "--trace", "0", "--pins", str(pins), *TINY)
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.split()[:2] == ["error_rate", "1"] for line in proc.stdout.splitlines())


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "many-entities", *TINY, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
