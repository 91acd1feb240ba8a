"""Canonical report documents: ``reports.json`` and its CSV view.

The JSON document sorts keys and entities and keeps floats at repr
precision, so two runs agree on the document bytes exactly when they agree
on every number.  It is written directly from ``%`` templates, byte for byte
what ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
gives, because that call runs the pure-Python encoder whenever ``indent`` is
set.  Every float is finite: MRR, its inverse, rr and distance all come from
positive ranks.  The CSV view has one row per item (entities without items
do not appear) with floats at six significant digits, and joins combination
values with ``|``.

``write_reports`` is the one writer of both.  A run writes its report files
through it straight from the rows of ``rankstats.Ranking.reports``, and
``emit_report`` serializes any reports through it, in entity order.
``all_or_nothing`` commits the files and directories a command writes.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from csv import writer as csv_writer
from json.encoder import encode_basestring as _json_string
from operator import attrgetter
from pathlib import Path
from shutil import rmtree
from typing import IO, Iterable, Iterator, Sequence

from .rankstats import EntityAnomalyReport

SCHEMA_VERSION = 1

# Entities per batch of encoded text joined and written at once.
_BATCH = 256

# One entity's entry in the ``entities`` array, keys sorted.  ``expected_rank``
# and ``mrr`` come in as text, so that either may be ``null``.
_ENTRY = (
    "{\n"
    '      "baseline_presence": %r,\n'
    '      "entity": %s,\n'
    '      "expected_rank": %s,\n'
    '      "items": %s,\n'
    '      "mrr": %s\n'
    "    }"
)
_ITEM = (
    "{\n"
    '          "cohort_size": %r,\n'
    '          "combination": %s,\n'
    '          "count": %r,\n'
    '          "distance": %r,\n'
    '          "rank": %r,\n'
    '          "rr": %r\n'
    "        }"
)
_CSV_HEADER = (
    "entity", "mrr", "expected_rank", "combination", "distance", "rr", "rank", "cohort_size",
    "count",
)

_ENTITY = attrgetter("entity")


def _combination(values: Sequence[str]) -> str:
    if not values:
        return "[]"
    return "[\n            " + ",\n            ".join(map(_json_string, values)) + "\n          ]"


def _array(key: str, batches: Iterable[list[str]]) -> Iterator[str]:
    """The document's ``key`` array and its trailing comma, one piece per batch."""
    opening = f'  "{key}": [\n    '
    separator = opening
    for batch in batches:
        if batch:
            yield separator + ",\n    ".join(batch)
            separator = ",\n    "
    yield f'  "{key}": [],\n' if separator is opening else "\n  ],\n"


def _document(entry_batches: Iterable[list[str]], absent: list[str]) -> Iterator[str]:
    """The JSON document in pieces, reading ``entry_batches`` once.

    ``absent`` holds the raw names of the entities with no baseline; it is
    read only once every entry is out, and encoded a batch at a time.
    """
    yield "{\n"
    yield from _array("entities", entry_batches)
    yield from _array(
        "no_baseline_presence",
        (list(map(_json_string, absent[i : i + _BATCH])) for i in range(0, len(absent), _BATCH)),
    )
    yield f'  "schema_version": {SCHEMA_VERSION}\n}}\n'


def _csv_rows(handle: IO[str]):
    rows = csv_writer(handle, lineterminator="\n")
    rows.writerow(_CSV_HEADER)
    return rows


def write_reports(
    reports: Iterable[tuple], json_handle: IO[str], csv_handle: IO[str] | None = None
) -> None:
    """Write ``reports`` in the order given: the one report writer.

    ``reports`` are ``EntityAnomalyReport``s or plain tuples in its field
    order, as ``Ranking.reports`` yields them; a null MRR or expected rank
    is written as ``null``.  Text is joined and written a batch of entities
    at a time, so memory is what the reports are read from plus one batch.
    Only the names of entities with no MRR are kept past their batch, for
    the closing ``no_baseline_presence`` array.  Given ``csv_handle``, the
    CSV view is written in the same loop.
    """
    rows = None if csv_handle is None else _csv_rows(csv_handle)
    absent: list[str] = []

    def batches() -> Iterator[list[str]]:
        batch: list[str] = []
        lines: list[tuple] = []
        for entity, mrr, expected, presence, items in reports:
            if mrr is None:
                absent.append(entity)
            listed = "[]"
            if items:
                encoded = []
                head = None if rows is None else (entity, f"{mrr:.6g}", f"{expected:.6g}")
                for combo, distance, rr, rank, size, count in items:
                    encoded.append(_ITEM % (size, _combination(combo), count, distance, rank, rr))
                    if head is not None:
                        numbers = f"{distance:.6g}", f"{rr:.6g}", rank, size, count
                        lines.append((*head, "|".join(combo), *numbers))
                listed = "[\n        " + ",\n        ".join(encoded) + "\n      ]"
            batch.append(
                _ENTRY % (
                    presence,
                    _json_string(entity),
                    "null" if expected is None else repr(expected),
                    listed,
                    "null" if mrr is None else repr(mrr),
                )
            )
            if len(batch) == _BATCH:
                if rows is not None:
                    rows.writerows(lines)
                    lines = []
                yield batch
                batch = []
        if rows is not None:
            rows.writerows(lines)
        yield batch

    json_handle.writelines(_document(batches(), absent))


def emit_report(reports: Iterable[EntityAnomalyReport], format: str = "json") -> str:
    """Serialize any reports canonically, in entity order.

    "json" round-trips; "csv" flattens the items, one row each.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    text = io.StringIO()
    # The writer always writes the JSON document; for "csv" it goes to a buffer that is dropped.
    handles = (text,) if format == "json" else (io.StringIO(), text)
    write_reports(sorted(reports, key=_ENTITY), *handles)
    return text.getvalue()


def _remove(path: Path) -> None:
    rmtree(path, ignore_errors=True)  # leaves a file, which unlink removes
    path.unlink(missing_ok=True)


def _stale(pid: int) -> bool:
    """Whether ``pid`` is this process or no running one."""
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)  # signal 0 only checks that the process exists
    except (ProcessLookupError, OverflowError):
        return True
    except PermissionError:
        return False  # another user's process
    return False


def _remove_stale_temporaries(paths: Sequence[Path]) -> None:
    """Remove the temporaries beside ``paths`` that a killed run left behind.

    ``all_or_nothing`` names them ``.<name>.<pid>.tmp`` and ``.<name>.<pid>.old``;
    those of another process that is still running are left alone.  Nothing
    is staged yet, so those with this process's pid are a dead process's
    whose pid was reused (a container's first process is always pid 1).
    Only POSIX has a signal that checks a process without acting on it.
    """
    if os.name != "posix":
        return
    names = {f".{path.name}" for path in paths}
    for entry in paths[0].parent.iterdir():
        rest, _, suffix = entry.name.rpartition(".")
        name, _, pid = rest.rpartition(".")
        if name in names and suffix in ("tmp", "old") and pid.isdecimal() and _stale(int(pid)):
            _remove(entry)


@contextmanager
def all_or_nothing(paths: Sequence[Path]) -> Iterator[list[Path]]:
    """Temporary names beside ``paths`` for the block to fill with files or directories.

    Once the block completes, each filled temporary replaces its path (an
    old directory is moved aside, then removed), then each path whose
    temporary is unfilled is removed.  On any exception, ``KeyboardInterrupt``
    included, the temporaries are removed and the paths stay as they were.
    Temporaries that an earlier, killed run left beside ``paths`` are
    removed first.
    """
    staged = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    _remove_stale_temporaries(paths)
    aside: list[tuple[Path, Path]] = []
    try:
        yield staged
        # Filled temporaries first: commit what the block wrote, then remove the rest.
        for temporary, path in sorted(zip(staged, paths), key=lambda pair: not pair[0].exists()):
            if path.is_dir():
                old = path.with_name(f".{path.name}.{os.getpid()}.old")
                os.rename(path, old)
                aside.append((old, path))
            if temporary.exists():
                os.replace(temporary, path)
            else:
                path.unlink(missing_ok=True)
    except BaseException:
        for old, path in aside:
            if not path.exists():
                os.rename(old, path)
        for temporary in staged:
            _remove(temporary)
        raise
    for old, _path in aside:
        rmtree(old, ignore_errors=True)
