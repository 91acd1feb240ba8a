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

Two callers share the templates and the document assembly:
``write_ranking``, the one loop that writes a run's report files straight
from the ranking pass's MRRs and heaps, and ``emit_report``, which
serializes any list of report objects.
"""

from __future__ import annotations

import io
from csv import writer as csv_writer
from json.encoder import encode_basestring as _json_string
from operator import attrgetter
from typing import IO, Iterable, Iterator, Sequence

from .recommend import EntityAnomalyReport, Ranking

SCHEMA_VERSION = 1

# Entities per batch of encoded text joined and written at once.
_BATCH = 256

# One entity's entry in the ``entities`` array, keys sorted.  ``_SCORED``
# takes the numbers of an entity with a baseline, ``_ABSENT`` only the name
# of one without: no presence, no items and no MRR.
_ENTRY = (
    "{\n"
    '      "baseline_presence": %s,\n'
    '      "entity": %s,\n'
    '      "expected_rank": %s,\n'
    '      "items": %s,\n'
    '      "mrr": %s\n'
    "    }"
)
_SCORED = _ENTRY % ("%r", "%s", "%r", "%s", "%r")
_ABSENT = _ENTRY % ("0", "%s", "null", "[]", "null")
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


def _items_array(encoded: list[str]) -> str:
    if not encoded:
        return "[]"
    return "[\n        " + ",\n        ".join(encoded) + "\n      ]"


def _entry(report: EntityAnomalyReport) -> str:
    """Any report's entry, whichever of its numbers are null."""
    mrr, expected = report.mrr, report.expected_rank
    items = [
        _ITEM % (i.cohort_size, _combination(i.combination), i.count, i.distance, i.rank, i.rr)
        for i in report.items
    ]
    return _ENTRY % (
        repr(report.baseline_presence),
        _json_string(report.entity),
        "null" if expected is None else repr(expected),
        _items_array(items),
        "null" if mrr is None else repr(mrr),
    )


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


def _csv_head(entity: str, mrr: float, expected: float) -> tuple[str, str, str]:
    return entity, f"{mrr:.6g}", f"{expected:.6g}"


def _csv_item(
    head: tuple[str, str, str],
    combination: Sequence[str],
    distance: float,
    rr: float,
    rank: int,
    cohort_size: int,
    count: int,
) -> tuple:
    return (*head, "|".join(combination), f"{distance:.6g}", f"{rr:.6g}", rank, cohort_size, count)


def write_ranking(
    ranking: Ranking, json_handle: IO[str], csv_handle: IO[str] | None = None
) -> None:
    """Write every entity's report in entity order: the one report-writing loop.

    Entries are formatted straight from the pass's MRRs and heaps, so no
    report object is built.  Each heap is popped as its entity is written,
    and text is joined and written a batch of entities at a time, so memory
    is the index, the heaps not yet written and one batch.  Only the names of
    entities with no baseline are kept past their batch, for the closing
    ``no_baseline_presence`` array.  Given ``csv_handle``, the CSV view is
    written in the same loop.
    """
    mrrs, presence, cohorts, best = ranking.mrrs, ranking.presence, ranking.cohorts, ranking.best
    rows = None if csv_handle is None else _csv_rows(csv_handle)
    absent: list[str] = []

    def batches() -> Iterator[list[str]]:
        batch: list[str] = []
        lines: list[tuple] = []
        for entity in ranking.entities:
            mrr = mrrs.get(entity)
            if mrr is None:
                absent.append(entity)
                batch.append(_ABSENT % _json_string(entity))
            else:
                expected = 1.0 / mrr
                heap = best.pop(entity, None)
                items = []
                if heap:
                    heap.sort(reverse=True)
                    head = None if rows is None else _csv_head(entity, mrr, expected)
                    for distance, position, rr, rank, count in heap:
                        combo, cell = cohorts[-position]
                        size = len(cell)
                        items.append(_ITEM % (size, _combination(combo), count, distance, rank, rr))
                        if head is not None:
                            lines.append(_csv_item(head, combo, distance, rr, rank, size, count))
                name = _json_string(entity)
                batch.append(_SCORED % (presence[entity], name, expected, _items_array(items), mrr))
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


def emit_report(reports: Sequence[EntityAnomalyReport], format: str = "json") -> str:
    """Serialize any reports canonically; "json" round-trips, "csv" flattens items.

    The text is what ``write_ranking`` writes for the same reports, from the
    same templates and document assembly.
    """
    ordered = sorted(reports, key=_ENTITY)
    if format == "json":
        absent = [report.entity for report in ordered if report.mrr is None]
        return "".join(_document([[_entry(report) for report in ordered]], absent))
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    buffer = io.StringIO()
    rows = _csv_rows(buffer)
    for report in ordered:
        if report.items:
            head = _csv_head(report.entity, report.mrr, report.expected_rank)
            rows.writerows(
                _csv_item(head, i.combination, i.distance, i.rr, i.rank, i.cohort_size, i.count)
                for i in report.items
            )
    return buffer.getvalue()
