"""Streaming log ingestion into marginal counts and a combination-by-entity index.

Aggregates form a merge monoid: aggregating any chunking of a record stream
and merging the partials gives exactly the same counts as one pass over the
whole stream.  That makes multi-process ingestion bit-identical to
single-process ingestion, which the rest of the pipeline relies on.

Every input, plain or gzip, whole or split into byte ranges, header or data,
is read by one byte-level reader with one line rule: blocks of
``_BLOCK_BYTES`` are cut after their last ``\\n``, decoded as UTF-8 with
undecodable bytes replaced, and split at ``\\n``, ``\\r\\n`` and a lone
``\\r`` only.  One UTF-8 byte order mark at the start of a file is dropped.

``ingest_paths`` splits each line once, normalizes its used fields and
counts it straight into its index cell, so nothing but the index outlives a
line.  ``ingest_lines`` runs the same counting over lines already in
memory.  In a single context memory is bounded by the index plus the lines
of one block.  Marginals are derived from the cell totals.  Plain files can
be fanned out over byte ranges with ``workers`` processes, whose cells the
parent adds up.  Gzip inputs are always read in a single context because the
stream does not support random access.

Malformed lines (wrong column count after splitting) are counted and skipped,
never fatal.
"""

from __future__ import annotations

import gzip
import zlib
from functools import cache
from itertools import chain
from math import inf
from os import cpu_count
from pathlib import Path
from sys import intern
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .config import AnalysisSpec, ConfigError, FieldMapping

_MIN_CHUNK_BYTES = 1 << 16
_BLOCK_BYTES = 1 << 16

Cells = dict[tuple[str, ...], dict[str, int]]

# What a truncated, corrupt or non-gzip ``.gz`` input raises on read.
_DAMAGED_GZIP = (EOFError, zlib.error, gzip.BadGzipFile)


class SchemaMismatch(ValueError):
    """Merging aggregates that were built under different specifications."""


class CategoryMarginals(NamedTuple):
    """Per-category value counts over the accepted records.

    ``counts`` maps category name to ``{value: occurrences}``; keys follow
    the analysis category order.
    """

    counts: dict[str, dict[str, int]]


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
        return (self.schema(), self.cells, self.total_records, self.rejected_records) == (
            other.schema(), other.cells, other.total_records, other.rejected_records
        )

    def schema(self) -> tuple[tuple[str, ...], str]:
        return (self.categories, self.entity_field)

    def entities(self) -> set[str]:
        seen: set[str] = set()
        for cell in self.cells.values():
            seen.update(cell)
        return seen

    def observes(self, entity: str) -> bool:
        """Whether ``entity`` occurs in some cell, found without building ``entities()``."""
        return any(entity in cell for cell in self.cells.values())


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


def merge_indexes(a: ContingencyIndex, b: ContingencyIndex) -> ContingencyIndex:
    """Cell-wise sum of two indexes built under the same spec."""
    if a.schema() != b.schema():
        raise SchemaMismatch(f"index schemas differ: {a.schema()} vs {b.schema()}")
    cells: Cells = {}
    _add_cells(cells, a.cells)
    _add_cells(cells, b.cells)
    return ContingencyIndex(
        a.categories,
        a.entity_field,
        cells,
        a.total_records + b.total_records,
        a.rejected_records + b.rejected_records,
    )


# --- production path ---------------------------------------------------------

def _used_indexes(spec: AnalysisSpec, mapping: FieldMapping) -> tuple[int, ...]:
    """Category column positions in spec order, then the entity's; ConfigError if absent."""
    return tuple(
        [mapping.index_of(c) for c in spec.categories] + [mapping.index_of(spec.entity_field)]
    )


# The counting loop, written out for one arity: the key is a tuple display of
# the category fields, so CPython builds it without a per-line comprehension.
# Only the local names ``i0``, ``i1``, ... are substituted into the template;
# column positions, the delimiter and the missing token are passed as values,
# so no input text reaches the source.
_COUNT_TEMPLATE = """\
def count_lines(lines, delimiter, column_count, missing, {indexes}, entity_index, cells):
    seen = 0
    rejected = 0
    for seen, line in enumerate(lines, 1):
        fields = line.split(delimiter)
        if len(fields) != column_count:
            rejected += 1
            continue
        combination = ({key})
        entity = fields[entity_index].strip() or missing
        cell = cells.get(combination)
        if cell is None:
            cells[tuple(map(intern, combination))] = {{intern(entity): 1}}
        else:
            count = cell.get(entity)
            if count is None:
                cell[intern(entity)] = 1
            else:
                cell[entity] = count + 1
    return seen - rejected, rejected
"""

def _counting_source(arity: int) -> str:
    """The counting loop's source for ``arity`` categories; it depends on nothing else."""
    names = [f"i{j}" for j in range(arity)]
    key = ", ".join(f"fields[{name}].strip() or missing" for name in names)
    return _COUNT_TEMPLATE.format(indexes=", ".join(names), key=key + "," * (arity == 1))


@cache
def _counter(arity: int) -> Callable[..., tuple[int, int]]:
    """The counting loop for ``arity`` categories, compiled on first use."""
    namespace = {"intern": intern}
    exec(_counting_source(arity), namespace)
    return namespace["count_lines"]


def _count_lines(
    lines: Iterable[str],
    mapping: FieldMapping,
    used_indexes: tuple[int, ...],
    cells: Cells,
) -> tuple[int, int]:
    """Hot loop: add raw lines into ``cells``; returns (accepted, rejected).

    Each line is split once, its used fields stripped and empty ones given
    the missing token, and it is counted straight into its cell, so nothing
    but the index outlives a line.  Names are interned when a cell or an
    entity is stored anew, so the index holds one string object per distinct
    name.  The loop itself is ``_counter``'s, specialised to the category
    count.
    """
    count = _counter(len(used_indexes) - 1)
    return count(
        lines, mapping.delimiter, mapping.column_count, mapping.missing_token, *used_indexes, cells
    )


def _aggregates(
    cells: Cells, total: int, rejected: int, spec: AnalysisSpec
) -> tuple[CategoryMarginals, ContingencyIndex]:
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
    return CategoryMarginals(marginals), index


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
    its lines exactly once.  ``handle`` is read in ``_BLOCK_BYTES`` blocks,
    each cut after its last ``\\n`` and the rest kept pending for the next
    one.  A ``\\n`` byte never falls inside a UTF-8 sequence or between ``\\r``
    and ``\\n``, so the pieces decode and split exactly as the whole range
    would.  Only the block just read is searched, and pending pieces are
    joined once, so a line longer than a block (or a log ending lines with a
    lone ``\\r``) costs time linear in its length.
    """
    owns_first = True
    if start:
        handle.seek(start - 1)
        owns_first = handle.read(1) == b"\n"
    left = end - start
    pending: list[bytes] = []
    while left > 0:
        block = handle.read(min(_BLOCK_BYTES, left))
        if not block:
            break
        left -= len(block)
        if not owns_first:
            cut = block.find(b"\n")
            if cut < 0:
                continue
            block = block[cut + 1 :]
            owns_first = True
        cut = block.rfind(b"\n") + 1
        if cut:
            pending.append(block[:cut])
            yield b"".join(pending).decode("utf-8", errors="replace")
            pending = []
        pending.append(block[cut:])
    if not any(pending):
        return
    while True:
        block = handle.read(_MIN_CHUNK_BYTES)
        if not block:
            break
        cut = block.find(b"\n")
        if cut >= 0:
            pending.append(block[: cut + 1])
            break
        pending.append(block)
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
    except _DAMAGED_GZIP as exc:
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
) -> tuple[Cells, int, int]:
    """Count the lines of ``[start, end)`` of ``path`` into ``cells``.

    Returns ``cells`` with (accepted, rejected), so that a pool worker given
    fresh cells sends its counts back.  Memory is bounded by the cells plus
    the lines of one block, whatever the range's size.
    """
    with _open_log(path) as handle:
        lines = _read_lines(handle, start, end, header)
        total, rejected = _count_lines(lines, mapping, used_indexes, cells)
    return cells, total, rejected


def _chunk_ranges(size: int, workers: int) -> list[tuple[int, int]]:
    chunks = min(workers, size // _MIN_CHUNK_BYTES + 1)
    step = size // chunks
    bounds = [i * step for i in range(chunks)] + [size]
    return list(zip(bounds, bounds[1:]))


def resolve_workers(workers: int) -> int:
    if workers < 0:
        raise ConfigError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return cpu_count() or 1
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
    any worker count, so lines appended while it is read count for none.
    Gzip files are read to their end.
    """
    if header:
        observed = read_header(path, mapping.delimiter)
        if observed != mapping.column_names:
            raise SchemaMismatch(
                f"{path}: header {observed} does not match mapping {mapping.column_names}"
            )

    size = inf if _is_gzip(path) else path.stat().st_size
    ranges = [] if size == inf else _chunk_ranges(size, workers)
    if len(ranges) <= 1:
        try:
            _, total, rejected = _count_range(path, 0, size, header, mapping, used_indexes, cells)
        except _DAMAGED_GZIP as exc:
            raise _with_path(exc, path) from exc
        return total, rejected
    # Imported here so single-worker runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    total = 0
    rejected = 0
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [
            pool.submit(_count_range, path, lo, hi, header, mapping, used_indexes, {})
            for lo, hi in ranges
        ]
        for future in futures:
            part, part_total, part_rejected = future.result()
            _add_cells(cells, part)
            total += part_total
            rejected += part_rejected
    return total, rejected


def ingest_lines(
    lines: Iterable[str], spec: AnalysisSpec, mapping: FieldMapping
) -> tuple[CategoryMarginals, ContingencyIndex]:
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
) -> tuple[CategoryMarginals, ContingencyIndex]:
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
