"""Workload shapes and output digests shared by ``run.py`` and ``helper.py``.

Standard library only: ``run.py`` imports this module and must stay small,
because a child process started from it inherits the parent's resident-set
high-water mark in ``ru_maxrss`` (see README.md, "Measurement").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

CATEGORIES = ("cat1", "cat2", "cat3", "cat4")
ENTITY = "entity"
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One input shape and the CLI calls that make up one round on it.

    ``entity_count`` is the size of the Zipf entity vocabulary; the
    categories are always those of ``synthgen.bench_config``.  With
    ``explain_calls`` > 0 a round is that many ``comborank explain`` calls
    (head, middle and tail entities); otherwise it is one ``recommend``.
    Every call reads its log with one worker.
    """

    name: str
    lines: int
    entity_count: int
    explain_calls: int

    def scaled_lines(self, scale: float) -> int:
        return max(1, round(self.lines * scale))

    @property
    def check_lines(self) -> int:
        """Size of the small default-seed log whose output is pinned and oracle-checked."""
        return self.scaled_lines(0.02)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("many-entities", 40_000, 200_000, 0),
        Workload("explain", 50_000, 128, 3),
    )
}


def file_sha256(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def tree_sha256(root: Path) -> str:
    """Digest of every file under ``root``: relative paths and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(file_sha256(path).encode())
    return digest.hexdigest()
