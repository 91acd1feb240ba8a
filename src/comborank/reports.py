"""Canonical report documents: ``reports.json`` and its CSV view.

The JSON document sorts keys and entities and keeps floats at repr
precision, so two runs agree on the document bytes exactly when they agree
on every number.  It is written directly: constant text around the names
of each run of entities with no baseline, and f-strings for the others and
their items, each distinct positive float given to ``repr`` once.  That is
byte for byte what ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False)`` gives, because that call runs the pure-Python encoder
whenever ``indent`` is set.  Every float is finite: MRR, its inverse, rr
and distance all come from positive ranks.  The CSV view has one row per
item (entities without items do not appear) with floats at six significant
digits, and joins combination values with ``|``.

``write_reports`` is the one writer of both.  A run writes its report files
through it straight from the rows and candidates of its
``rankstats.Ranking``, and ``emit_report`` serializes any reports as the
JSON document through it, in entity order, as ``Ranking.of_reports`` gives
them.
``all_or_nothing`` commits the files and directories a command writes,
holding a lock on their directory: a directory another run holds raises
``BlockingIOError``, which the CLI maps to exit 2.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from itertools import islice
from json.encoder import encode_basestring as _json_string
from operator import attrgetter
from pathlib import Path
from shutil import rmtree
from tempfile import mkdtemp
from typing import IO, Iterable, Iterator, Sequence

from .rankstats import EntityAnomalyReport, Ranking

try:
    import fcntl
except ImportError:  # not POSIX: no lock, no cleanup
    fcntl = None

SCHEMA_VERSION = 1

# Entities per batch of encoded text joined and written at once.
_BATCH = 256

# The entry of an entity with no MRR, no presence and no items, around its
# encoded name, and the text between two such entries.
_UNSCORED_OPEN = '{\n      "baseline_presence": 0,\n      "entity": '
_UNSCORED_CLOSE = ',\n      "expected_rank": null,\n      "items": [],\n      "mrr": null\n    }'
_UNSCORED_BETWEEN = _UNSCORED_CLOSE + ",\n    " + _UNSCORED_OPEN
_CSV_HEADER = (
    "entity", "mrr", "expected_rank", "combination", "distance", "rr", "rank", "cohort_size",
    "count",
)

_ENTITY = attrgetter("entity")


class _Reprs(dict):
    """Each float's ``repr``, kept for the positive ones.

    ``0.0 == -0.0`` as keys while their texts differ, so a non-positive
    float is formatted anew each time.
    """

    __slots__ = ()

    def __missing__(self, number: float) -> str:
        text = repr(number)
        if number > 0:
            self[number] = text
        return text


def _combination(values: Sequence[str]) -> str:
    if not values:
        return "[]"
    return "[\n            " + ",\n            ".join(map(_json_string, values)) + "\n          ]"


def _unscored(names: list[str]) -> str:
    """The entries of a run of entities without a row, one ``str.join``."""
    return _UNSCORED_OPEN + _UNSCORED_BETWEEN.join(map(_json_string, names)) + _UNSCORED_CLOSE


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


def write_reports(
    ranking: Ranking, json_handle: IO[str], csv_handle: IO[str] | None = None
) -> None:
    """Write the reports of ``ranking.entities``, in that order: the one report writer.

    Each entity's report is read from ``ranking.rows``: a row ``(mrr,
    expected_rank, baseline_presence, candidates)``, where a null MRR or
    expected rank is written as ``null``, or no row for an entity with no
    MRR, no presence and no items.  MRR, expected rank, rr and distance are
    floats.  Text is joined and written a batch of at most ``_BATCH``
    entities at a time, so memory is the ranking plus one batch.  Each run
    of entities without a row within a batch is one ``str.join`` of their
    names around constant text.  Only the names of entities with no MRR are
    kept past their batch, for the closing ``no_baseline_presence`` array.
    Given ``csv_handle``, the CSV view is written in the same loop.
    """
    rows = None
    if csv_handle is not None:
        from csv import writer  # loaded only by runs that write the CSV view

        rows = writer(csv_handle, lineterminator="\n")
        rows.writerow(_CSV_HEADER)
    absent: list[str] = []
    reprs = _Reprs()

    def batches() -> Iterator[list[str]]:
        names = iter(ranking.entities)
        row_of = ranking.rows.get
        while chunk := list(islice(names, _BATCH)):
            batch: list[str] = []
            lines: list[tuple] = []
            run: list[str] = []
            for entity in chunk:
                row = row_of(entity)
                if row is None:
                    run.append(entity)
                    continue
                if run:
                    batch.append(_unscored(run))
                    absent.extend(run)
                    run = []
                mrr, expected, presence, candidates = row
                if mrr is None:
                    absent.append(entity)
                listed = "[]"
                if candidates:
                    if rows is not None:
                        head = entity, f"{mrr:.6g}", f"{expected:.6g}"
                        for negative, combo, rr, rank, size, count in candidates:
                            numbers = f"{-negative:.6g}", f"{rr:.6g}", rank, size, count
                            lines.append((*head, "|".join(combo), *numbers))
                    listed = "[\n        " + ",\n        ".join([
                        "{\n"
                        f'          "cohort_size": {size},\n'
                        f'          "combination": {_combination(combo)},\n'
                        f'          "count": {count},\n'
                        f'          "distance": {reprs[-negative]},\n'
                        f'          "rank": {rank},\n'
                        f'          "rr": {reprs[rr]}\n'
                        "        }"
                        for negative, combo, rr, rank, size, count in candidates
                    ]) + "\n      ]"
                batch.append(
                    "{\n"
                    f'      "baseline_presence": {presence},\n'
                    f'      "entity": {_json_string(entity)},\n'
                    f'      "expected_rank": {"null" if expected is None else reprs[expected]},\n'
                    f'      "items": {listed},\n'
                    f'      "mrr": {"null" if mrr is None else reprs[mrr]}\n'
                    "    }"
                )
            if run:
                batch.append(_unscored(run))
                absent.extend(run)
            if rows is not None:
                rows.writerows(lines)
            yield batch

    json_handle.writelines(_document(batches(), absent))


def emit_report(reports: Iterable[EntityAnomalyReport], format: str = "json") -> str:
    """Serialize any reports, one per entity, canonically as the JSON document, in entity order.

    "json" is the one ``format``; any other raises ``ValueError``, and so do
    two reports of one entity.
    """
    if format != "json":
        raise ValueError(f"unknown report format {format!r}")
    text = io.StringIO()
    write_reports(Ranking.of_reports(sorted(reports, key=_ENTITY)), text)
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
    the block completes, every existing path is moved aside into the stage,
    then each filled name takes its path, so a path whose name is unfilled
    is gone; the stage goes with all it holds.  On any exception,
    ``KeyboardInterrupt`` included, also one that stops the commit part-way,
    the names placed go back, the paths moved aside return, and the stage
    is removed, so the paths stay as they were.
    """
    directory = paths[0].parent
    directory.mkdir(parents=True, exist_ok=True)
    with _locked(directory):
        stage = Path(mkdtemp(prefix=_STAGE, dir=directory))
        aside = stage / _STAGE  # a name no path can have
        staged = [stage / path.name for path in paths]
        moved: list[Path] = []
        placed: list[Path] = []
        try:
            yield staged
            aside.mkdir()
            for path in paths:
                if path.exists():
                    os.rename(path, aside / path.name)
                    moved.append(path)
            for filled, path in zip(staged, paths):
                if filled.exists():
                    os.rename(filled, path)
                    placed.append(path)
        except BaseException:
            for path in placed:
                os.rename(path, stage / path.name)
            for path in moved:
                os.rename(aside / path.name, path)
            raise
        finally:
            rmtree(stage, ignore_errors=True)
