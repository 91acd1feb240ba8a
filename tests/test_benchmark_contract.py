"""The benchmark's in-process helper: the library names it imports, and what its calls write.

``perfbench/`` lies outside ``testpaths``, so without these checks a change
that drops one of those names, or makes the helper's calls write other bytes
than the CLI, passes the suite and breaks every benchmark run at its set-up
step.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from comborank.cli import EXIT_OK, main

_HELPER = Path(__file__).resolve().parents[1] / "perfbench" / "helper.py"


@pytest.fixture()
def helper(monkeypatch):
    """``perfbench/helper.py`` imported as a module, with its directory on ``sys.path``."""
    monkeypatch.syspath_prepend(str(_HELPER.parent))
    yield importlib.import_module("helper")
    for name in ("helper", "common"):
        sys.modules.pop(name, None)


def _tree(root: Path) -> dict[str, bytes]:
    files = (path for path in root.rglob("*") if path.is_file())
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in files}


def _library_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) for each ``comborank`` import; name is None for ``import module``."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "comborank":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "comborank"
            )
    return found


def test_benchmark_helper_imports_resolve():
    imports = _library_imports(ast.parse(_HELPER.read_text(encoding="utf-8")))
    assert imports, "the helper imports nothing from comborank"
    missing = []
    for module, name in imports:
        library = importlib.import_module(module)  # raises if the module is gone
        if name is not None and not hasattr(library, name):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_benchmark_calls_write_what_the_cli_writes(helper, tmp_path):
    """The helper's traced recommend and explain calls write the CLI's bytes.

    The benchmark's reference digests come from ``run_call``, which ranks
    through ``baseline_stats``, ``compute_distances`` and ``top_k``, views of
    the ranking pass that the CLI never runs, and writes baseline.json with
    ``json.dumps`` where the CLI streams it with ``json.dump``.  Tracing
    also runs the branch that counts each layer's work.
    """
    log = tmp_path / "rows.csv"
    helper.write_rows(helper.WORKLOADS["explain"], helper.DEFAULT_SEED, 2000, log)
    tracer = helper.Tracer(0)
    try:
        result = helper.run_call([log], None, tmp_path / "call", tracer)
        [entity] = helper.pick_entities(result.reports, result.index, 1)
        helper.run_call([log], entity, tmp_path / "call_explain", tracer)
    finally:
        tracer.close()
    assert {span["name"] for span in tracer.spans} >= {"rankstats.baseline_stats", "explain.explain"}
    argv = ["--input", str(log), "--categories", ",".join(helper.CATEGORIES)]
    argv += ["--entity", helper.ENTITY]
    assert main(["recommend", *argv, "--out", str(tmp_path / "cli")]) == EXIT_OK
    assert main(["explain", entity, *argv, "--out", str(tmp_path / "cli_explain")]) == EXIT_OK
    for call, cli in (("call", "cli"), ("call_explain", "cli_explain")):
        for name in ("baseline.json", "reports.json"):
            written = (tmp_path / call / name).read_bytes()
            assert written == (tmp_path / cli / name).read_bytes(), (call, name)
    charts = _tree(tmp_path / "call_explain" / "explanations")
    assert charts and charts == _tree(tmp_path / "cli_explain" / "explanations")
