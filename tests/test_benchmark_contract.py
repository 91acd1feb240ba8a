"""The library names the benchmark's in-process helper imports must keep existing.

``perfbench/`` lies outside ``testpaths``, so without this check a change
that drops one of those names passes the suite and breaks every benchmark
run at its set-up step.
"""

import ast
import importlib
from pathlib import Path

_HELPER = Path(__file__).resolve().parents[1] / "perfbench" / "helper.py"


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
