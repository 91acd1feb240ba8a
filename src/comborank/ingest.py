"""Streaming log ingestion into marginal counts and a combination-by-entity index.

Cell counts form a merge monoid under ``_add_cells``: counting any chunking
of a record stream and adding up the partial cells gives exactly the same
counts as one pass over the whole stream.  That makes multi-process
ingestion bit-identical to single-process ingestion, which the rest of the
pipeline relies on.

Every input, plain or gzip, whole or split into byte ranges, header or data,
is read by one byte-level reader with one line rule: blocks of
``_BLOCK_BYTES`` are cut after their last ``\\n``, decoded as UTF-8 with
undecodable bytes replaced, and split at ``\\n``, ``\\r\\n`` and a lone
``\\r`` only.  One UTF-8 byte order mark at the start of a file is dropped.

``ingest_paths`` counts each line straight into its index cell; no line is
kept once counted.  Where the entity is the last column and every other
column a category, a line whose raw text before the entity was seen before
finds its cell with one dict lookup, and the text is remembered only once
its cell exists; any other line is split once and its used fields
normalized.  The entity is normalized on every line.  Other layouts split
every line.  ``ingest_lines`` runs the same counting over lines already in
memory.  In a single context memory is bounded by the index, the lines of
one block and the remembered texts, at most one per distinct spelling of a
stored combination.  The marginals, a plain ``{category: {value: count}}``
dict, are derived from the cell totals.  Plain files can be fanned out over
byte ranges with ``workers`` processes, whose cells the parent adds up.
Gzip inputs are always read in a single context because the stream does
not support random access.

Malformed lines (wrong column count after splitting) are counted and skipped,
never fatal.
"""

from __future__ import annotations

import gzip
import os
import zlib
from functools import cache
from itertools import chain
from math import inf
from pathlib import Path
from sys import intern
from typing import IO, Callable, Iterable, Iterator, Sequence

from .config import AnalysisSpec, ConfigError, FieldMapping

_MIN_CHUNK_BYTES = 1 << 16
_BLOCK_BYTES = 1 << 16

Cells = dict[tuple[str, ...], dict[str, int]]

# What a truncated, corrupt or non-gzip ``.gz`` input raises on read; a plain
# input truncated or replaced while it is read raises ``EOFError`` too.
_DAMAGED = (EOFError, zlib.error, gzip.BadGzipFile)


class SchemaMismatch(ValueError):
    """An input file whose header differs from the mapping's columns."""


class ContingencyIndex:
    """Counts of (combination, entity) pairs plus stream bookkeeping.

    ``cells`` maps each observed category-value combination to the entities
    seen with it and how often.  Every stored count is at least one, and the
    cell counts of an index built from a stream sum to ``total_records``.
    Two indexes are equal when all five fields are.
    """

    __slots__ = ("categories", "entity_field", "cells", "total_records", "rejected_records")

    def __init__(
        self,
        categories: tuple[str, ...],
        entity_field: str,
        cells: Cells | None = None,
        total_records: int = 0,
        rejected_records: int = 0,
    ) -> None:
        self.categories = categories
        self.entity_field = entity_field
        self.cells: Cells = {} if cells is None else cells
        self.total_records = total_records
        self.rejected_records = rejected_records

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContingencyIndex):
            return NotImplemented
        return all(getattr(self, field) == getattr(other, field) for field in self.__slots__)

    def entities(self) -> set[str]:
        seen: set[str] = set()
        for cell in self.cells.values():
            seen.update(cell)
        return seen

    def observes(self, entity: str) -> bool:
        """Whether ``entity`` occurs in some cell, found without building ``entities()``."""
        return any(entity in cell for cell in self.cells.values())

    def holds(self, combination: tuple[str, ...], entity: str) -> bool:
        """Whether ``entity`` occurs in ``combination``'s cell."""
        return entity in self.cells.get(combination, ())


def _add_cells(into: Cells, other: Cells) -> None:
    """Add ``other``'s counts into ``into`` cell by cell, leaving ``other`` unshared.

    Names that ``into`` stores anew are interned, so a name is one string
    object however many cells hold it, also when ``other`` was unpickled.
    """
    for combo, cell in other.items():
        mine = into.get(combo)
        if mine is None:
            into[tuple([intern(value) for value in combo])] = {
                intern(entity): n for entity, n in cell.items()
            }
        else:
            for entity, n in cell.items():
                count = mine.get(entity)
                if count is None:
                    mine[intern(entity)] = n
                else:
                    mine[entity] = count + n


# --- production path ---------------------------------------------------------

def _used_indexes(spec: AnalysisSpec, mapping: FieldMapping) -> tuple[int, ...]:
    """Category column positions in spec order, then the entity's; ConfigError if absent."""
    return tuple(
        [mapping.index_of(c) for c in spec.categories] + [mapping.index_of(spec.entity_field)]
    )


# The counting loop, written out for one arity and one way to find a line's
# cell.  The key is a tuple display of the category fields, so CPython builds
# it without a per-line comprehension.  Only the local names ``i0``, ``i1``,
# ... and fixed code are substituted into the template; column positions, the
# delimiter and the missing token are passed as values, so no input text
# reaches the source.  ``{find}`` opens the block that splits the line and
# looks its combination up; ``{remember}`` closes it once the cell was found.
_COUNT_TEMPLATE = """\
def count_lines(lines, delimiter, column_count, missing, {indexes}, entity_index, cells):
    seen = 0
    rejected = 0
    alias = {{}}
    for seen, line in enumerate(lines, 1):
{find}
            fields = line.split(delimiter)
            if len(fields) != column_count:
                rejected += 1
                continue
            combination = ({key})
            cell = cells.get(combination)
            if cell is None:
                cells[tuple(map(intern, combination))] = {{intern({entity}): 1}}
                continue
{remember}
        entity = {entity}
        count = cell.get(entity)
        if count is None:
            cell[intern(entity)] = 1
        else:
            cell[entity] = count + 1
    return seen - rejected, rejected
"""

# The one normalization of a used field: stripped, and the missing token if blank.
_NORMALIZED = "{}.strip() or missing"

# Every line is split and its combination looked up; ``if True:`` compiles to
# nothing, and ``alias`` is never read.
_BY_SPLIT = {"find": "        if True:", "remember": "", "entity": "fields[entity_index]"}

# The entity is the last column and every other column a category, so the raw
# text before the last delimiter decides the cell: a text seen before finds it
# in ``alias`` with one lookup, and only a miss is split and normalized.  A
# text is remembered once its cell exists, so ``alias`` never holds a text
# without a cell, and lines seen once (as most are in a sparse log) add
# nothing to it.  A line with no delimiter also has an empty ``head``, which
# ``found`` tells apart from a valid one-category line with a blank category.
_BY_HEAD = {
    "find": (
        "        head, found, entity = line.rpartition(delimiter)\n"
        "        cell = alias.get(head)\n"
        "        if cell is None or not found:"
    ),
    "remember": "            alias[head] = cell",
    "entity": "entity",
}


def _counting_source(arity: int, by_head: bool) -> str:
    """The counting loop's source for ``arity`` categories and one of the two bodies."""
    names = [f"i{j}" for j in range(arity)]
    key = ", ".join(_NORMALIZED.format(f"fields[{name}]") for name in names)
    body = _BY_HEAD if by_head else _BY_SPLIT
    return _COUNT_TEMPLATE.format(
        indexes=", ".join(names),
        key=key + "," * (arity == 1),
        find=body["find"],
        remember=body["remember"],
        entity=_NORMALIZED.format(body["entity"]),
    )


@cache
def _counter(arity: int, by_head: bool) -> Callable[..., tuple[int, int]]:
    """The counting loop for ``arity`` categories and one body, compiled on first use."""
    namespace = {"intern": intern}
    exec(_counting_source(arity, by_head), namespace)
    return namespace["count_lines"]


def _keyed_by_head(mapping: FieldMapping, used_indexes: tuple[int, ...]) -> bool:
    """Whether the entity is the last column and every other column a category."""
    last = mapping.column_count - 1
    return len(used_indexes) == mapping.column_count and used_indexes[-1] == last


def _count_lines(
    lines: Iterable[str],
    mapping: FieldMapping,
    used_indexes: tuple[int, ...],
    cells: Cells,
) -> tuple[int, int]:
    """Hot loop: add raw lines into ``cells``; returns (accepted, rejected).

    Each line's used fields are stripped and empty ones given the missing
    token, and it is counted straight into its cell, so nothing but the
    index outlives a line.  Names are interned when a cell or an entity is
    stored anew, so the index holds one string object per distinct name.
    The loop itself is ``_counter``'s, specialised to the category count and
    to the layout: where the entity is the last column and every other
    column a category, a line whose text before the entity was seen before
    finds its cell with one lookup and is split only on a miss; any other
    layout splits every line.
    """
    count = _counter(len(used_indexes) - 1, _keyed_by_head(mapping, used_indexes))
    return count(
        lines, mapping.delimiter, mapping.column_count, mapping.missing_token, *used_indexes, cells
    )


def _aggregates(
    cells: Cells, total: int, rejected: int, spec: AnalysisSpec
) -> tuple[dict[str, dict[str, int]], ContingencyIndex]:
    """Wrap counted cells as an index and derive the marginals from cell totals.

    The marginals agree exactly with per-record counting because every
    accepted record lands in exactly one cell.
    """
    marginals: dict[str, dict[str, int]] = {c: {} for c in spec.categories}
    per_cat = list(marginals.values())
    for combination, cell in cells.items():
        n = sum(cell.values())
        for counts, value in zip(per_cat, combination):
            counts[value] = counts.get(value, 0) + n
    index = ContingencyIndex(tuple(spec.categories), spec.entity_field, cells, total, rejected)
    return marginals, index


def _split_lines(text: str) -> list[str]:
    """Split decoded text into lines: only ``\\n``, ``\\r\\n`` and a lone ``\\r`` end one.

    ``str.splitlines`` would also break at ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
    ``\\x85``, ``\\u2028`` and ``\\u2029``, so a field holding one of those would
    count as two lines.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _is_gzip(path: Path) -> bool:
    return path.suffix == ".gz"


def _open_log(path: Path) -> IO[bytes]:
    return gzip.open(path) if _is_gzip(path) else open(path, "rb")


def _range_texts(handle: IO[bytes], start: int, end: float) -> Iterator[str]:
    """Decoded text of the lines whose first byte lies in ``[start, end)`` of ``handle``.

    A line straddling ``end`` belongs to this range; a line straddling
    ``start`` belongs to the previous one, so the ranges of a file partition
    its lines exactly once.  Both edge lines are read with ``readline``, so
    each is held whole, skipped or owned.  Between them ``handle`` is read
    in ``_BLOCK_BYTES`` blocks, each cut after its last ``\\n`` and the rest
    kept pending for the next one.  A ``\\n`` byte never falls inside a UTF-8
    sequence or between ``\\r`` and ``\\n``, so the pieces decode and split
    exactly as the whole range would.  Only the block just read is searched,
    and pending pieces are joined once, so a line longer than a block (or a
    log ending lines with a lone ``\\r``) costs time linear in its length.
    A finite range that meets the end of the file before ``end`` raises
    ``EOFError``: the file was truncated after its size was taken.
    """
    if start:
        handle.seek(start - 1)
        handle.readline()  # the end of the previous range's last line, or its ``\\n``
    left = end - handle.tell()
    pending: list[bytes] = []
    while left > 0:
        block = handle.read(min(_BLOCK_BYTES, left))
        if not block:
            if end < inf:
                at = handle.tell()
                raise EOFError(f"truncated while read: ended at byte {at}, before byte {end}")
            break
        left -= len(block)
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending).decode("utf-8", errors="replace")
            pending = []
        pending.append(block[cut:])
    if any(pending):
        pending.append(handle.readline())
        yield b"".join(pending).decode("utf-8", errors="replace")


def _read_lines(handle: IO[bytes], start: int, end: float, header: bool) -> Iterator[str]:
    """The one line reader: the lines of ``[start, end)`` of a byte handle.

    Every input goes through it, plain or gzip, whole (``0`` to ``inf``) or
    as a byte range, header or data.  A range starting at offset 0 drops one
    leading UTF-8 byte order mark from its first line, so it never becomes
    part of a name or value, and with ``header`` skips that line.
    """
    texts = _range_texts(handle, start, end)
    head: list[str] = []
    if start == 0:
        head = _split_lines(next(texts, "").removeprefix("\ufeff"))
        if header:
            del head[:1]
    return chain(head, chain.from_iterable(map(_split_lines, texts)))


def _with_path(exc: Exception, path: str | Path) -> Exception:
    """``exc`` again with the input's path in front, which gzip's messages omit."""
    return type(exc)(f"{path}: {exc}")


def read_header(path: str | Path, delimiter: str) -> tuple[str, ...]:
    """Column names from the first line of a log file."""
    try:
        with _open_log(Path(path)) as handle:
            first = next(_read_lines(handle, 0, inf, header=False), None)
    except _DAMAGED as exc:
        raise _with_path(exc, path) from exc
    if first is None:
        raise ConfigError(f"{path}: empty file, no header to read")
    names = tuple(name.strip() for name in first.split(delimiter))
    if any(not n for n in names):
        raise ConfigError(f"{path}: header has empty column names: {first!r}")
    return names


def resolve_mapping(
    path: str | Path,
    *,
    delimiter: str = ",",
    header: bool = True,
    columns: Sequence[str] | None = None,
    missing_token: str = "Unknown",
) -> FieldMapping:
    """Build the FieldMapping from a header row or from configured columns."""
    if header:
        names = read_header(path, delimiter)
    else:
        if not columns:
            raise ConfigError("columns must be configured when the log has no header")
        names = tuple(columns)
    return FieldMapping(names, delimiter=delimiter, missing_token=missing_token)


def _count_range(
    path: Path,
    start: int,
    end: float,
    header: bool,
    mapping: FieldMapping,
    used_indexes: tuple[int, ...],
    cells: Cells,
    identity: tuple[int, int] | None = None,
) -> tuple[Cells, int, int]:
    """Count the lines of ``[start, end)`` of ``path`` into ``cells``.

    Returns ``cells`` with (accepted, rejected), so that a pool worker given
    fresh cells sends its counts back.  Memory is bounded by the cells plus
    the lines of one block, whatever the range's size.  Given ``identity``,
    the ``(st_dev, st_ino)`` the file had when its size was taken, a file
    opened under another raises ``EOFError``: it was replaced since.
    """
    with _open_log(path) as handle:
        opened = os.fstat(handle.fileno())
        if identity is not None and identity != (opened.st_dev, opened.st_ino):
            raise EOFError("replaced while read: another file now has its name")
        lines = _read_lines(handle, start, end, header)
        total, rejected = _count_lines(lines, mapping, used_indexes, cells)
    return cells, total, rejected


def _chunk_ranges(size: int, workers: int) -> list[tuple[int, int]]:
    chunks = min(workers, size // _MIN_CHUNK_BYTES + 1)
    step = size // chunks
    bounds = [i * step for i in range(chunks)] + [size]
    return list(zip(bounds, bounds[1:]))


def resolve_workers(workers: int) -> int:
    """``workers``, or for 0 the number of CPUs this process may run on."""
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return workers


def _count_file(
    path: Path,
    mapping: FieldMapping,
    used_indexes: tuple[int, ...],
    header: bool,
    workers: int,
    cells: Cells,
) -> tuple[int, int]:
    """Add one log file's lines into ``cells``; returns (accepted, rejected).

    A plain file is read up to the size it had after its header check, with
    any worker count, so lines appended while it is read count for none; one
    truncated or replaced while it is read raises ``EOFError``.  Gzip files
    are read to their end.  What reading raises starts with ``path``.
    """
    if header:
        observed = read_header(path, mapping.delimiter)
        if observed != mapping.column_names:
            raise SchemaMismatch(
                f"{path}: header {observed} does not match mapping {mapping.column_names}"
            )

    status = path.stat()
    identity = status.st_dev, status.st_ino
    size = inf if _is_gzip(path) else status.st_size
    ranges = [] if size == inf else _chunk_ranges(size, workers)
    try:
        if len(ranges) <= 1:
            _, total, rejected = _count_range(
                path, 0, size, header, mapping, used_indexes, cells, identity
            )
            return total, rejected
        # Imported here so single-worker runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        total = 0
        rejected = 0
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [
                pool.submit(_count_range, path, lo, hi, header, mapping, used_indexes, {}, identity)
                for lo, hi in ranges
            ]
            for future in futures:
                part, part_total, part_rejected = future.result()
                _add_cells(cells, part)
                total += part_total
                rejected += part_rejected
        return total, rejected
    except _DAMAGED as exc:
        raise _with_path(exc, path) from exc


def ingest_lines(
    lines: Iterable[str], spec: AnalysisSpec, mapping: FieldMapping
) -> tuple[dict[str, dict[str, int]], ContingencyIndex]:
    """Aggregate data lines (no header) exactly as ``ingest_paths`` counts a file's."""
    cells: Cells = {}
    total, rejected = _count_lines(lines, mapping, _used_indexes(spec, mapping), cells)
    return _aggregates(cells, total, rejected, spec)


def ingest_paths(
    paths: Sequence[str | Path],
    spec: AnalysisSpec,
    mapping: FieldMapping,
    *,
    header: bool = True,
    workers: int = 1,
) -> tuple[dict[str, dict[str, int]], ContingencyIndex]:
    """Aggregate several log files under one mapping into one index.

    ``workers`` is the process count (0 = one per CPU).  Plain files fan out
    over byte ranges; gzip files are always streamed in a single context.
    The result is identical for every worker count because partial
    aggregates merge exactly.
    """
    if not paths:
        raise ConfigError("no input paths given")
    used_indexes = _used_indexes(spec, mapping)
    workers = resolve_workers(workers)
    cells: Cells = {}
    total = 0
    rejected = 0
    for path in paths:
        accepted, skipped = _count_file(Path(path), mapping, used_indexes, header, workers, cells)
        total += accepted
        rejected += skipped
    return _aggregates(cells, total, rejected, spec)
