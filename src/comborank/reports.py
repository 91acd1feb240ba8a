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
``all_or_nothing`` commits the files and directories a command writes,
holding a lock on their directory: a directory another run holds raises
``BlockingIOError``, which the CLI maps to exit 2.
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
from tempfile import mkdtemp
from typing import IO, Iterable, Iterator, Sequence

from .rankstats import EntityAnomalyReport

try:
    import fcntl
except ImportError:  # not POSIX: no lock, no cleanup
    fcntl = None

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
    reports: Iterable[tuple], json_handle: IO[str] | None, csv_handle: IO[str] | None = None
) -> None:
    """Write ``reports`` in the order given: the one report writer.

    ``reports`` are ``EntityAnomalyReport``s or plain tuples in its field
    order, as ``Ranking.reports`` yields them; a null MRR or expected rank
    is written as ``null``.  Text is joined and written a batch of entities
    at a time, so memory is what the reports are read from plus one batch.
    Only the names of entities with no MRR are kept past their batch, for
    the closing ``no_baseline_presence`` array.  Given ``csv_handle``, the
    CSV view is written in the same loop; with no ``json_handle`` it is the
    only text formatted.
    """
    rows = None if csv_handle is None else _csv_rows(csv_handle)
    absent: list[str] = []

    def batches() -> Iterator[list[str]]:
        batch: list[str] = []
        lines: list[tuple] = []
        for n, (entity, mrr, expected, presence, items) in enumerate(reports, 1):
            if rows is not None and items:
                head = entity, f"{mrr:.6g}", f"{expected:.6g}"
                for combo, distance, rr, rank, size, count in items:
                    numbers = f"{distance:.6g}", f"{rr:.6g}", rank, size, count
                    lines.append((*head, "|".join(combo), *numbers))
            if json_handle is not None:
                if mrr is None:
                    absent.append(entity)
                listed = "[]"
                if items:
                    encoded = [
                        _ITEM % (size, _combination(combo), count, distance, rank, rr)
                        for combo, distance, rr, rank, size, count in items
                    ]
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
            if n % _BATCH == 0:
                if rows is not None:
                    rows.writerows(lines)
                    lines = []
                yield batch
                batch = []
        if rows is not None:
            rows.writerows(lines)
        yield batch

    if json_handle is None:
        for _ in batches():
            pass
    else:
        json_handle.writelines(_document(batches(), absent))


def emit_report(reports: Iterable[EntityAnomalyReport], format: str = "json") -> str:
    """Serialize any reports canonically, in entity order.

    "json" round-trips; "csv" flattens the items, one row each.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    text = io.StringIO()
    handles = (text,) if format == "json" else (None, text)
    write_reports(sorted(reports, key=_ENTITY), *handles)
    return text.getvalue()


# A stage's name prefix: no artifact name or chart slug (``[A-Za-z0-9.-]``) starts with it.
_STAGE = ".comborank_stage"


@contextmanager
def _locked(directory: Path) -> Iterator[None]:
    """Hold ``directory`` alone, having removed the stages earlier calls left in it.

    The lock is ``flock`` on the directory itself, dropped by the kernel when
    its holder exits, however it ends.  Off POSIX there is neither lock nor cleanup.
    """
    if fcntl is None:
        yield
        return
    handle = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as exc:
            raise BlockingIOError(exc.errno, "in use by another run", str(directory)) from None
        for entry in directory.iterdir():
            if entry.name.startswith(_STAGE):
                rmtree(entry, ignore_errors=True)
        yield
    finally:
        os.close(handle)  # which releases the lock


@contextmanager
def all_or_nothing(paths: Sequence[Path]) -> Iterator[list[Path]]:
    """Names in a fresh stage for the block to fill with files or directories.

    ``paths`` share one directory, locked (``_locked``) from before the
    stage is made until after the commit; the lock is not re-entrant.  Once
    the block completes, each filled name replaces its path (an old
    directory is moved aside into the stage first), each path whose name is
    unfilled is removed, and the stage goes with all it holds.  On any
    exception, ``KeyboardInterrupt`` included, the stage is removed and the
    paths stay as they were.
    """
    directory = paths[0].parent
    directory.mkdir(parents=True, exist_ok=True)
    with _locked(directory):
        stage = Path(mkdtemp(prefix=_STAGE, dir=directory))
        aside = stage / _STAGE  # a name no path can have
        staged = [stage / path.name for path in paths]
        try:
            yield staged
            # Filled names first: commit what the block wrote, then remove the rest.
            for filled, path in sorted(zip(staged, paths), key=lambda pair: not pair[0].exists()):
                if path.is_dir():
                    aside.mkdir(exist_ok=True)
                    os.rename(path, aside / path.name)
                if filled.exists():
                    os.replace(filled, path)
                else:
                    path.unlink(missing_ok=True)
        except BaseException:
            for path in paths:
                if (aside / path.name).exists() and not path.exists():
                    os.rename(aside / path.name, path)
            raise
        finally:
            rmtree(stage, ignore_errors=True)
