import concurrent.futures
import gzip
import itertools
import os
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comborank import (
    AnalysisSpec,
    ContingencyIndex,
    FieldMapping,
    SchemaMismatch,
    emit_report,
    generate_baseline,
    ingest_lines,
    ingest_paths,
    recommend_all,
    resolve_mapping,
)
from comborank import ingest as ingest_module
from comborank.cli import EXIT_INPUT, main
from comborank.ingest import _add_cells
from comborank.synthgen import generate_log, oracle_recommend, sparse_config

MAPPING = FieldMapping(("Browser", "Country", "Customer"))
SPEC = AnalysisSpec(categories=("Browser", "Country"), entity_field="Customer")


def _cell_sum(index):
    return sum(n for cell in index.cells.values() for n in cell.values())


class TestParseRecord:
    """How one data line becomes a record, or a rejection."""

    def test_parses_and_strips(self):
        _, index = ingest_lines([" F , US , x1 \n"], SPEC, MAPPING)
        assert index.cells == {("F", "US"): {"x1": 1}}

    def test_missing_token_for_empty_fields(self):
        _, index = ingest_lines(["F,,x1", "F,  ,x1"], SPEC, MAPPING)
        assert index.cells == {("F", "Unknown"): {"x1": 2}}

    def test_every_spelling_of_the_missing_token_meets(self):
        mapping = FieldMapping(MAPPING.column_names, missing_token="NA")
        lines = ["x, NA,e1", "x,NA,e1", "x,,e1", "x, ,e1", "x,NA , e1 "]
        _, index = ingest_lines(lines, SPEC, mapping)
        assert index.cells == {("x", "NA"): {"e1": 5}}

    def test_column_mismatch_rejected(self):
        _, index = ingest_lines(["F,US", "F,US,x1,extra"], SPEC, MAPPING)
        assert (index.total_records, index.rejected_records) == (0, 2)
        assert index.cells == {}

    def test_custom_delimiter(self):
        mapping = FieldMapping(("a", "b"), delimiter="\t")
        spec = AnalysisSpec(categories=("a",), entity_field="b")
        _, index = ingest_lines(["1\t2"], spec, mapping)
        assert index.cells == {("1",): {"2": 1}}


class TestAggregate:
    def test_counts_cells_and_marginals(self):
        lines = ["F,US,x1", "F,US,x2", "F,UK,x1", "S,US,x1"]
        marginals, index = ingest_lines(lines, SPEC, MAPPING)
        assert marginals["Browser"] == {"F": 3, "S": 1}
        assert marginals["Country"] == {"US": 3, "UK": 1}
        assert index.cells[("F", "US")] == {"x1": 1, "x2": 1}
        assert index.cells[("S", "US")] == {"x1": 1}
        assert index.total_records == 4
        assert _cell_sum(index) == 4
        assert index.entities() == {"x1", "x2"}

    def test_ignores_unmapped_columns(self):
        mapping = FieldMapping(("Browser", "Noise", "Country", "Customer"))
        marginals, index = ingest_lines(["F,zzz,US,x1"], SPEC, mapping)
        assert index.cells == {("F", "US"): {"x1": 1}}
        assert "zzz" not in str(marginals)

    def test_lines_route_counts_rejections(self):
        lines = ["F,US,x1", "garbage", "F,UK,x2", "a,b,c,d"]
        marginals, index = ingest_lines(lines, SPEC, MAPPING)
        assert index.total_records == 2
        assert index.rejected_records == 2
        assert marginals["Browser"] == {"F": 2}


def _merged(*cell_maps):
    """What the worker merge makes of ``cell_maps``: all added, in order, into empty cells."""
    cells = {}
    for other in cell_maps:
        _add_cells(cells, other)
    return cells


class TestMerge:
    """``_add_cells``, the merge that adds a byte-range worker's cells into the parent's."""

    def test_index_merge(self):
        a = {("x",): {"e1": 1}}
        b = {("x",): {"e1": 2, "e2": 1}, ("y",): {"e1": 1}}
        assert _merged(a, b) == {("x",): {"e1": 3, "e2": 1}, ("y",): {"e1": 1}}

    def test_merge_does_not_mutate_inputs(self):
        a = {("x",): {"e1": 1}}
        b = {("x",): {"e1": 1}}
        merged = _merged(a, b)
        assert merged == {("x",): {"e1": 2}}
        assert a == {("x",): {"e1": 1}}
        assert b == {("x",): {"e1": 1}}
        merged[("x",)]["e1"] += 1
        assert a == {("x",): {"e1": 1}}


_value = st.text(alphabet="abcXY ", min_size=0, max_size=4)
_line = st.builds(lambda f: ",".join(f), st.lists(_value, min_size=1, max_size=5))
_lines = st.lists(_line, max_size=60)


def _assert_same_index(index_a, index_b):
    assert index_a.cells == index_b.cells
    assert index_a.total_records == index_b.total_records
    assert index_a.rejected_records == index_b.rejected_records


def _assert_same_aggregates(result_a, result_b):
    assert result_a[0] == result_b[0]
    _assert_same_index(result_a[1], result_b[1])


def _assert_matches_lines_and_oracle(path, lines, *, header, spec=SPEC, mapping=MAPPING):
    """Ingest counts what ``lines`` hold, and its report equals the oracle's.

    A line is a record exactly when it has one field per column, so the
    accepted and rejected counts, and each record's cell, are worked out
    here from the lines themselves.
    """
    marginals, index = ingest_paths([path], spec, mapping, header=header, workers=1)
    indexes = [mapping.index_of(name) for name in (*spec.categories, spec.entity_field)]
    cells = {}
    for line in lines:
        fields = line.split(mapping.delimiter)
        if len(fields) == mapping.column_count:
            *combination, entity = [fields[i].strip() or mapping.missing_token for i in indexes]
            cell = cells.setdefault(tuple(combination), {})
            cell[entity] = cell.get(entity, 0) + 1
    accepted = sum(sum(cell.values()) for cell in cells.values())
    assert (index.total_records, index.rejected_records) == (accepted, len(lines) - accepted)
    assert index.cells == cells
    if accepted:
        reports = recommend_all(index, generate_baseline(marginals, spec), spec)
        oracle = oracle_recommend(
            path, spec, header=header, columns=mapping.column_names,
            missing_token=mapping.missing_token,
        )
        assert emit_report(reports) == emit_report(oracle)


class TestMergeProperties:
    """The cells ``_add_cells`` merges, and the summed totals, form a monoid."""

    @given(_lines, _lines)
    def test_merge_commutes(self, lines_a, lines_b):
        _, idx_a = ingest_lines(lines_a, SPEC, MAPPING)
        _, idx_b = ingest_lines(lines_b, SPEC, MAPPING)
        assert _merged(idx_a.cells, idx_b.cells) == _merged(idx_b.cells, idx_a.cells)

    @given(_lines, _lines, _lines)
    def test_merge_associates(self, la, lb, lc):
        a, b, c = [ingest_lines(lines, SPEC, MAPPING)[1].cells for lines in (la, lb, lc)]
        assert _merged(_merged(a, b), c) == _merged(a, _merged(b, c))

    @given(_lines)
    def test_empty_is_identity(self, lines):
        _, idx = ingest_lines(lines, SPEC, MAPPING)
        _, empty = ingest_lines([], SPEC, MAPPING)
        assert _merged(idx.cells, empty.cells) == _merged(empty.cells, idx.cells) == idx.cells

    @given(_lines, st.data())
    def test_chunked_equals_whole(self, lines, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=4)))
        bounds = [0, *cuts, len(lines)]
        _, whole = ingest_lines(lines, SPEC, MAPPING)
        cells = {}
        total = rejected = 0
        for lo, hi in zip(bounds, bounds[1:]):
            _, part = ingest_lines(lines[lo:hi], SPEC, MAPPING)
            _add_cells(cells, part.cells)
            total += part.total_records
            rejected += part.rejected_records
        assert cells == whole.cells
        assert (total, rejected) == (whole.total_records, whole.rejected_records)


def _assert_names_shared(index):
    """One string object per distinct entity and per distinct category value."""
    assert len({id(e) for cell in index.cells.values() for e in cell}) == len(index.entities())
    values = [value for combination in index.cells for value in combination]
    assert len({id(value) for value in values}) == len(set(values))


class TestSharedNames:
    """The index stores each name once, however many lines and cells repeat it."""

    # Two halves of 385 distinct lines each.  The second brings new cells and
    # new customers into old cells, so a second byte range stores names anew;
    # the padding makes every stripped field a new string object.
    ROWS = [
        f" br{i % 7 + half},co{i % 5} , cust{i % 11 + 5 * half} "
        for half in (0, 1)
        for i in range(1500)
    ]

    def test_ingest_lines(self):
        _, index = ingest_lines(self.ROWS, SPEC, MAPPING)
        assert (len(index.cells), len(index.entities())) == (40, 16)
        _assert_names_shared(index)

    def test_ingest_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 256)
        path = tmp_path / "log.csv"
        path.write_text("Browser,Country,Customer\n" + "\n".join(self.ROWS) + "\n")
        for workers in (1, 2):
            _, index = ingest_paths([path], SPEC, MAPPING, header=True, workers=workers)
            assert index.total_records == 3000
            _assert_names_shared(index)

    def test_add_cells(self):
        def fresh(name):
            # A new string object on every call, never an interned one.
            return "".join(list(name))

        def cells(rows):
            built = {}
            for browser, country, customer in rows:
                cell = built.setdefault((fresh(browser), fresh(country)), {})
                cell[fresh(customer)] = 1
            return built

        rows = [(f"br{i % 3}", f"co{i % 2}", f"cust{i % 5}") for i in range(30)]
        merged = ContingencyIndex(
            SPEC.categories, SPEC.entity_field, _merged(cells(rows[:15]), cells(rows[15:])), 30
        )
        assert len(merged.entities()) == 5
        _assert_names_shared(merged)


class TestIngestFile:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_header_route_matches_reference(self, tmp_path):
        lines = ["F,US,x1", "F,,x2", "bad", "S,UK,x1"]
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\n" + "\n".join(lines) + "\n")
        _assert_matches_lines_and_oracle(path, lines, header=True)

    def test_headerless_route(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "F,US,x1\nS,UK,x2\n")
        _, index = ingest_paths([path], SPEC, MAPPING, header=False, workers=1)
        assert index.total_records == 2

    def test_header_mismatch_raises(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "A,B,C\nF,US,x1\n")
        with pytest.raises(SchemaMismatch, match="does not match mapping"):
            ingest_paths([path], SPEC, MAPPING, header=True)

    def test_workers_agree_with_single_context(self, tmp_path):
        rows = [f"b{i % 7},c{i % 5},e{i % 11}" for i in range(5000)]
        rows[100] = "malformed"
        rows[4000] = "a,b,c,d,e"
        path = self._write(
            tmp_path, "log.csv", "Browser,Country,Customer\n" + "\n".join(rows) + "\n"
        )
        single = ingest_paths([path], SPEC, MAPPING, header=True, workers=1)
        assert (single[1].total_records, single[1].rejected_records) == (4998, 2)
        for workers in (2, 3, 8):
            _assert_same_aggregates(
                ingest_paths([path], SPEC, MAPPING, header=True, workers=workers), single
            )

    def test_worker_count_ignores_lines_appended_while_reading(self, tmp_path, monkeypatch):
        """A log still being written gives one index whatever the worker count.

        Every open appends ten lines, as a writer would between the reads.
        Each worker count reads the size the file had after its header was
        checked, so lines appended later count for none of them.
        """
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 1024)
        open_log = ingest_module._open_log

        def open_growing(path):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("F,US,late\n" * 10)
            return open_log(path)

        monkeypatch.setattr(ingest_module, "_open_log", open_growing)
        rows = "".join(f"b{i % 7},c{i % 5},e{i % 11}\n" for i in range(3000))
        indexes = {}
        for workers in (1, 2, 3):
            path = self._write(tmp_path, f"log{workers}.csv", "Browser,Country,Customer\n" + rows)
            _, indexes[workers] = ingest_paths([path], SPEC, MAPPING, workers=workers)
        assert indexes[1].total_records == 3010
        assert indexes[2] == indexes[1]
        assert indexes[3] == indexes[1]

    def test_worker_count_ignores_non_newline_separators(self, tmp_path, monkeypatch):
        """Only \\n, \\r\\n and a lone \\r end a line, whatever the worker count.

        Form feed, vertical tab, the information separators, NEL and U+2028
        sit inside fields here; ``str.splitlines`` would break lines at each.
        """
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 16)
        noise = ("\x0c", "\x1d", "\x1c", "\x85", "\x0b", "\u2028", "")
        endings = ("\n", "\r\n", "\r")
        parts = ["Browser,Country,Customer\n"]
        for i in range(3000):
            mark = noise[i % len(noise)]
            parts.append(f"b{i % 7}{mark}x,c{i % 5},e{mark}{i % 11}{endings[i % 3]}")
        path = self._write(tmp_path, "log.csv", "".join(parts))
        spec = AnalysisSpec(categories=("Browser", "Country"), entity_field="Customer", k=3)
        documents = {}
        for workers in (1, 2, 4):
            marginals, index = ingest_paths([path], spec, MAPPING, header=True, workers=workers)
            assert (index.total_records, index.rejected_records) == (3000, 0)
            baseline = generate_baseline(marginals, spec)
            documents[workers] = emit_report(recommend_all(index, baseline, spec))
        assert documents[2] == documents[1]
        assert documents[4] == documents[1]
        assert emit_report(oracle_recommend(path, spec)) == documents[1]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 16)
        body = "Browser,Country,Customer\nF,US,x1\nS,UK,x2\nF,UK,x2\n"
        plain = self._write(tmp_path, "plain.csv", body)
        marked = self._write(tmp_path, "marked.csv", "\ufeff" + body)
        assert resolve_mapping(marked).column_names == MAPPING.column_names
        for workers in (1, 2):
            _assert_same_aggregates(
                ingest_paths([marked], SPEC, MAPPING, header=True, workers=workers),
                ingest_paths([plain], SPEC, MAPPING, header=True, workers=1),
            )
        assert emit_report(oracle_recommend(marked, SPEC)) == emit_report(
            oracle_recommend(plain, SPEC)
        )

    def test_byte_order_mark_is_not_part_of_a_headerless_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 4)
        mapping = FieldMapping(("c1", "c2", "e"))
        spec = AnalysisSpec(categories=("c1", "c2"), entity_field="e")
        body = b"a,x,e1\na,x,e2\nb,y,e1\n"
        plain = tmp_path / "plain.csv"
        plain.write_bytes(body)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        packed = tmp_path / "marked.csv.gz"
        packed.write_bytes(gzip.compress(b"\xef\xbb\xbf" + body))
        expected = ingest_paths([plain], spec, mapping, header=False, workers=1)
        assert expected[1].cells[("a", "x")] == {"e1": 1, "e2": 1}
        for path, workers in ((marked, 1), (marked, 2), (packed, 1)):
            _assert_same_aggregates(
                ingest_paths([path], spec, mapping, header=False, workers=workers), expected
            )
        oracle = emit_report(oracle_recommend(marked, spec, header=False, columns=("c1", "c2", "e")))
        assert "\ufeff" not in oracle
        assert oracle == emit_report(
            oracle_recommend(plain, spec, header=False, columns=("c1", "c2", "e"))
        )

    def test_header_ended_by_lone_carriage_return(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 16)
        rows = "".join(f"S,UK,x{i % 3}\n" for i in range(200))
        path = tmp_path / "log.csv"
        path.write_bytes(("Browser,Country,Customer\rF,US,x1\n" + rows).encode())
        single = ingest_paths([path], SPEC, MAPPING, header=True, workers=1)
        assert single[1].total_records == 201
        _assert_same_aggregates(ingest_paths([path], SPEC, MAPPING, header=True, workers=2), single)

    def test_a_range_cut_short_raises_eof(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\n" + "F,US,x1\n" * 100)
        size = path.stat().st_size
        used = (0, 1, 2)
        with pytest.raises(EOFError, match=f"truncated while read: ended at byte {size}, "):
            ingest_module._count_range(path, size // 2, size + 8, True, MAPPING, used, {})
        with pytest.raises(EOFError, match="truncated while read"):
            ingest_module._count_range(path, size + 4, size + 8, True, MAPPING, used, {})

    def test_a_replaced_file_raises_eof(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\nF,US,x1\n")
        status = path.stat()
        size, used = status.st_size, (0, 1, 2)
        ingest_module._count_range(
            path, 0, size, True, MAPPING, used, {}, (status.st_dev, status.st_ino)
        )
        with pytest.raises(EOFError, match="replaced while read"):
            ingest_module._count_range(
                path, 0, size, True, MAPPING, used, {}, (status.st_dev, status.st_ino + 1)
            )

    def test_a_worker_reading_short_raises_with_the_path(self, tmp_path, monkeypatch):
        """A range past the end fails in its pool worker, and the parent names the input."""
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 16)
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\n" + "F,US,x1\n" * 100)
        monkeypatch.setattr(
            ingest_module, "_chunk_ranges", lambda size, workers: [(0, size), (size, size + 9)]
        )
        with pytest.raises(EOFError, match=f"^{re.escape(str(path))}: truncated while read"):
            ingest_paths([path], SPEC, MAPPING, header=True, workers=2)

    def test_a_truncated_gzip_beside_a_plain_file_fails_in_its_worker(
        self, tmp_path, monkeypatch, capsys
    ):
        """The pool worker reading the damaged file raises, and the message starts with its path.

        Its header decodes, in the first block, so only the worker reaches the cut.
        """
        monkeypatch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 16)
        text = "Browser,Country,Customer\n" + "".join(f"F,US,x{i}\n" for i in range(20_000))
        plain = self._write(tmp_path, "log.csv", text)
        packed = tmp_path / "log.csv.gz"
        data = gzip.compress(text.encode("utf-8"))
        packed.write_bytes(data[: len(data) // 2])
        with pytest.raises(EOFError, match=f"^{re.escape(str(packed))}: ") as raised:
            ingest_paths([plain, packed], SPEC, MAPPING, header=True, workers=2)
        # A pool re-raises a worker's exception with the worker's traceback as its cause.
        assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
        rc = main([
            "recommend", "--input", str(plain), "--input", str(packed),
            "--out", str(tmp_path / "out"), "--categories", "Browser,Country",
            "--entity", "Customer", "--threads", "2",
        ])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {packed}: ")

    def test_small_inputs_start_no_pool(self, tmp_path, monkeypatch):
        """Inputs under ``_MIN_CHUNK_BYTES`` in all are counted here, at any worker count."""
        one = self._write(tmp_path, "a.csv", "Browser,Country,Customer\n" + "F,US,x1\n" * 50)
        two = tmp_path / "b.csv.gz"
        two.write_bytes(gzip.compress(b"Browser,Country,Customer\n" + b"S,UK,x2\n" * 50))
        expected = ingest_paths([one, two], SPEC, MAPPING, header=True, workers=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _assert_same_aggregates(
            ingest_paths([one, two], SPEC, MAPPING, header=True, workers=4), expected
        )

    def test_no_trailing_newline(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\nF,US,x1")
        _, index = ingest_paths([path], SPEC, MAPPING, header=True, workers=1)
        assert index.total_records == 1

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"Browser,Country,Customer\r\nF,US,x1\r\nS,UK,x2\r\n")
        _, index = ingest_paths([path], SPEC, MAPPING, header=True, workers=1)
        assert index.cells[("F", "US")] == {"x1": 1}
        assert index.total_records == 2

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "log.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("Browser,Country,Customer\nF,US,x1\nF,US,x2\n")
        # one range, read to its end, whatever the worker count
        _, index = ingest_paths([path], SPEC, MAPPING, header=True, workers=4)
        assert index.cells[("F", "US")] == {"x1": 1, "x2": 1}

    def test_header_only_file(self, tmp_path):
        path = self._write(tmp_path, "log.csv", "Browser,Country,Customer\n")
        _, index = ingest_paths([path], SPEC, MAPPING, header=True, workers=4)
        assert index.total_records == 0
        assert index.cells == {}

    def test_multiple_paths_merge(self, tmp_path):
        one = self._write(tmp_path, "a.csv", "Browser,Country,Customer\nF,US,x1\n")
        two = self._write(tmp_path, "b.csv", "Browser,Country,Customer\nF,US,x1\nS,UK,x2\n")
        _, index = ingest_paths([one, two], SPEC, MAPPING, header=True, workers=1)
        assert index.cells[("F", "US")] == {"x1": 2}
        assert index.total_records == 3


def _repeating(element, max_size):
    """Lists drawn from a small pool of ``element`` values, so entries repeat."""
    return st.lists(element, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=max_size)
    )


# (column names, categories, entity).  With the entity column last and every
# other column a category, the counting loop finds a line's cell by the text
# before the entity: one to six categories, some out of column order.  The
# other layouts split every line: the entity first with an unused column
# between the two categories, the entity in the middle, and an unused column
# last.  The loop is written out once per category count and layout.
_LAYOUTS = {
    "entity-last-2": (("Browser", "Country", "Customer"), ("Browser", "Country"), "Customer"),
    "entity-last-1": (("Browser", "Customer"), ("Browser",), "Customer"),
    "entity-last-3": (("c1", "c2", "c3", "Customer"), ("c3", "c1", "c2"), "Customer"),
    "entity-last-4": (("c1", "c2", "c3", "c4", "Customer"), ("c1", "c2", "c3", "c4"), "Customer"),
    "entity-last-5": (
        ("c1", "c2", "c3", "c4", "c5", "Customer"), ("c5", "c3", "c1", "c2", "c4"), "Customer"
    ),
    "entity-last-6": (
        ("c1", "c2", "c3", "c4", "c5", "c6", "Customer"),
        ("c1", "c2", "c3", "c4", "c5", "c6"),
        "Customer",
    ),
    "entity-first": (
        ("Customer", "Browser", "Path", "Country"), ("Browser", "Country"), "Customer"
    ),
    "three-categories": (("c1", "c2", "Customer", "c3"), ("c1", "c2", "c3"), "Customer"),
    "five-categories": (
        ("c1", "c2", "c3", "c4", "c5", "Customer", "Path"),
        ("c5", "c3", "c1", "c2", "c4"),
        "Customer",
    ),
}
_name = st.sampled_from(["a", "b", "c", "Unknown", ""])
_pad = st.sampled_from([" ", "  ", "\t", "\u3000", ""])
# A name as stored, or padded, or blank, so one stored name is spelled several ways.
_spelled = st.one_of(
    _name, st.builds(lambda left, name, right: left + name + right, _pad, _name, _pad)
)
# Eight fields and a width offset: a line is the first width + offset fields,
# so now and then it has one field too few or too many.
_row = st.tuples(st.lists(_spelled, min_size=8, max_size=8), st.sampled_from([0, 0, 0, -1, 1]))


class TestBatchedCounting:
    """Lines read a few bytes at a time, with names spelled several ways, count exactly."""

    @pytest.mark.parametrize("block", [1, 2, 3, None])
    @settings(max_examples=40)
    @given(layout=st.sampled_from(list(_LAYOUTS)), rows=_repeating(_row, 40))
    def test_matches_reference(self, block, layout, rows):
        columns, categories, entity = _LAYOUTS[layout]
        spec = AnalysisSpec(categories, entity, p=1, k=3)
        mapping = FieldMapping(columns)
        lines = [",".join(fields[: len(columns) + offset]) for fields, offset in rows]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(ingest_module, "_BLOCK_BYTES", block)
            path = Path(tmp) / "log.csv"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            _assert_matches_lines_and_oracle(path, lines, header=False, spec=spec, mapping=mapping)


class TestCountingSource:
    """The counting loop is written out per category count; no mapping text reaches its source."""

    # Quotes, braces, ``#``, a backslash and a newline: each would break, or
    # change, generated source if it were pasted into it.
    _AWKWARD = ['"', "'", "{", "}", "#", "\\", "\n"]

    @pytest.mark.parametrize("delimiter", _AWKWARD)
    def test_awkward_mapping_counts_as_the_reference(self, delimiter):
        names = ('a"{b}', "#c'", "d\ne\\", "{0}", "ent}#")
        missing = '"}{#\n\\'
        mapping = FieldMapping(names, delimiter=delimiter, missing_token=missing)
        spec = AnalysisSpec(names[:4], names[4], p=1)
        rows = [["x", "", " y ", "x", "e1"], ["", "", "", "", ""], ["x", "z", "y", "", "e1"]]
        lines = [delimiter.join(row) for row in rows] + [delimiter.join(["x"] * 4)]
        _, index = ingest_lines(lines, spec, mapping)
        assert index.cells == {
            ("x", missing, "y", "x"): {"e1": 1},
            (missing, missing, missing, missing): {missing: 1},
            ("x", "z", "y", missing): {"e1": 1},
        }
        assert (index.total_records, index.rejected_records) == (3, 1)

    def test_source_depends_only_on_the_category_count(self):
        for arity, by_head in itertools.product(range(1, 7), (False, True)):
            source = ingest_module._counting_source(arity, by_head)
            # One key field per category, and no string literal or comment.
            assert source.count("fields[i") == arity
            assert not any(mark in source for mark in ('"', "'", "#"))
            assert ("rpartition" in source) is by_head
            counter = ingest_module._counter(arity, by_head)
            assert counter is ingest_module._counter(arity, by_head)

    def test_a_line_without_a_delimiter_is_not_a_blank_category(self):
        """With one category, ``",x"`` and ``"abc"`` both have an empty text before the entity.

        The second ``",x"``-shaped line remembers that empty text; ``"abc"``
        must still be split and rejected, not counted into the blank category.
        """
        mapping = FieldMapping(("Browser", "Customer"))
        spec = AnalysisSpec(("Browser",), "Customer")
        assert ingest_module._keyed_by_head(mapping, ingest_module._used_indexes(spec, mapping))
        _, index = ingest_lines([",x", ",y", "abc"], spec, mapping)
        assert (index.total_records, index.rejected_records) == (2, 1)
        assert index.cells == {("Unknown",): {"x": 1, "y": 1}}

    def test_the_body_follows_the_layout(self):
        """Only an entity-last layout with no unused column reads the text before the entity."""
        for name, (columns, categories, entity) in _LAYOUTS.items():
            mapping = FieldMapping(columns)
            used = ingest_module._used_indexes(AnalysisSpec(categories, entity), mapping)
            by_head = ingest_module._keyed_by_head(mapping, used)
            assert by_head is name.startswith("entity-last"), name


_noise = st.sampled_from(["", " ", "  ", "\t", "\v", "\f", "\u2028"])
_field = st.builds(
    lambda pad, value, inner, tail: pad + value + inner + tail,
    _noise,
    st.sampled_from(["", "a", "b", "c"]),
    st.sampled_from(["", "\v", "\f", "\u2028"]),
    _noise,
)
_record = st.lists(_field, min_size=3, max_size=3).map(",".join)
_malformed = st.sampled_from(["", "a", "a,b", "a,b,c,d", "\v,\f"])
_ending = st.sampled_from(["\n", "\r\n", "\r"])
# Bytes closing a record's last field: multi-byte, truncated and undecodable UTF-8.
_tail = st.sampled_from([b"", "é".encode(), "\U0001f600".encode(), b"\xe2\x82", b"\xff"])


class TestLineRule:
    """One definition of a line, whatever the worker count, compression or file split."""

    @settings(max_examples=15)
    @given(
        rows=_repeating(st.tuples(st.one_of(_record, _record, _malformed), _ending), 40),
        first=st.tuples(_record, _ending),
        header=st.booleans(),
        mark=st.booleans(),
        final_ending=st.booleans(),
        min_support=st.integers(1, 2),
        split=st.integers(0, 41),
    )
    def test_workers_and_oracle_agree(
        self, rows, first, header, mark, final_ending, min_support, split
    ):
        columns = ("c1", "c2", "e")
        spec = AnalysisSpec(("c1", "c2"), "e", p=(1, 2), k=3, min_support=min_support)
        mapping = FieldMapping(columns)
        lines = [line + ending for line, ending in [first, *rows]]
        if not final_ending:
            lines[-1] = lines[-1].rstrip("\r\n")
        prefix = ("\ufeff" if mark else "") + ("c1,c2,e\n" if header else "")
        cut = min(split, len(lines))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 8)
            tmp = Path(tmp)
            path = tmp / "log.csv"
            path.write_bytes((prefix + "".join(lines)).encode("utf-8"))
            packed = tmp / "log.csv.gz"
            packed.write_bytes(gzip.compress(path.read_bytes()))
            # each part is a file of its own: its own mark and header
            parts = [tmp / "part1.csv", tmp / "part2.csv"]
            for part, chunk in zip(parts, (lines[:cut], lines[cut:])):
                part.write_bytes((prefix + "".join(chunk)).encode("utf-8"))
            # plain byte ranges and a whole gzip file, counted by one pool
            mixed = [parts[0], tmp / "part2.csv.gz"]
            mixed[1].write_bytes(gzip.compress(parts[1].read_bytes()))
            documents = {}
            inputs = (("plain", [path]), ("gzip", [packed]), ("split", parts), ("mixed", mixed))
            for name, paths in inputs:
                for workers in (1, 2, 3, 4):
                    marginals, index = ingest_paths(
                        paths, spec, mapping, header=header, workers=workers
                    )
                    baseline = generate_baseline(marginals, spec)
                    documents[name, workers] = emit_report(recommend_all(index, baseline, spec))
            oracle = emit_report(oracle_recommend(path, spec, header=header, columns=columns))
        assert documents == dict.fromkeys(documents, oracle)
        assert "\ufeff" not in oracle

    @settings(max_examples=10)
    @given(
        rows=_repeating(st.tuples(st.one_of(_record, _malformed), _tail, _ending), 40),
        header=st.booleans(),
        mark=st.booleans(),
        block=st.integers(1, 7),
    )
    def test_byte_ranges_read_in_small_blocks(self, rows, header, mark, block):
        """Blocks that cut a BOM, lines, ``\\r\\n`` pairs or UTF-8 sequences change no count."""
        columns = ("c1", "c2", "e")
        spec = AnalysisSpec(("c1", "c2"), "e", p=(1, 2), k=3)
        mapping = FieldMapping(columns)
        body = b"".join(line.encode("utf-8") + tail + ending.encode() for line, tail, ending in rows)
        data = (
            (b"\xef\xbb\xbf" if mark else b"")
            + (b"c1,c2,e\n" if header else b"")
            + b"a,a,a\n"
            + body
        )
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest_module, "_MIN_CHUNK_BYTES", 8)
            patch.setattr(ingest_module, "_BLOCK_BYTES", block)
            path = Path(tmp) / "log.csv"
            path.write_bytes(data)
            packed = Path(tmp) / "log.csv.gz"
            packed.write_bytes(gzip.compress(data))
            oracle = emit_report(oracle_recommend(path, spec, header=header, columns=columns))
            _, whole = ingest_paths([path], spec, mapping, header=header, workers=1)
            for source, workers in ((path, 1), (path, 2), (path, 3), (path, 4), (packed, 1)):
                marginals, index = ingest_paths(
                    [source], spec, mapping, header=header, workers=workers
                )
                _assert_same_index(index, whole)
                baseline = generate_baseline(marginals, spec)
                report = emit_report(recommend_all(index, baseline, spec))
                assert report == oracle, (source.name, workers)
        assert "\ufeff" not in oracle

    def test_lone_cr_log_reads_in_linear_time(self, tmp_path, monkeypatch):
        """A range with no ``\\n`` is one long pending line, joined once, not once per block."""
        spec = AnalysisSpec(("c1", "c2"), "e", p=(1, 2), k=3)
        mapping = FieldMapping(("c1", "c2", "e"))
        used = (0, 1, 2)
        path = tmp_path / "log.csv"
        lines = "".join(f"c{i % 7},d{i % 5},e{i % 101}\r" for i in range(320_000))
        path.write_bytes(("c1,c2,e\r" + lines).encode("utf-8"))
        size = path.stat().st_size
        began = time.perf_counter()
        whole = ingest_module._count_range(path, 0, size, True, mapping, used, {})
        whole_s = time.perf_counter() - began
        monkeypatch.setattr(ingest_module, "_BLOCK_BYTES", 64)
        began = time.perf_counter()
        blocked = ingest_module._count_range(path, 0, size, True, mapping, used, {})
        blocked_s = time.perf_counter() - began
        assert blocked == whole
        assert whole[1:] == (320_000, 0)
        # Re-joining the pending bytes on each of the ~60k blocks would copy ~120 GB.
        assert blocked_s < 4 * whole_s + 0.5, (blocked_s, whole_s)
        _, single = ingest_paths([path], spec, mapping, header=True, workers=1)
        for workers in (2, 3, 4):
            _, index = ingest_paths([path], spec, mapping, header=True, workers=workers)
            _assert_same_index(index, single)


def test_sparse_log_matches_the_oracle(tmp_path):
    """A log of ``sparse_config``'s shape: few lines repeat the text before the entity.

    Most cohorts hold one entity, so most lines miss the remembered texts
    and take the split path; both worker counts must still report what the
    oracle does.
    """
    config = sparse_config(5, 20_000)
    log = tmp_path / "sparse.csv"
    generate_log(config, log)
    spec = config.analysis_spec()
    mapping = config.field_mapping()
    assert ingest_module._keyed_by_head(mapping, ingest_module._used_indexes(spec, mapping))
    oracle = emit_report(oracle_recommend(log, spec))
    for workers in (1, 2):
        marginals, index = ingest_paths([log], spec, mapping, header=True, workers=workers)
        single = sum(len(cell) == 1 for cell in index.cells.values())
        assert index.total_records == 20_000
        assert single > len(index.cells) * 0.8
        report = emit_report(recommend_all(index, generate_baseline(marginals, spec), spec))
        assert report == oracle, workers


def _traced_ingest(path, mapping):
    """``ingest_paths`` with 1 worker, and what it left held and peaked above that, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, index = ingest_paths([path], SPEC, mapping, header=True, workers=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return index, held - base, peak - held


class TestMemoryBound:
    """Ingest holds the index and the lines of one block, not a share of the log."""

    def test_traced_peak_stays_near_the_index(self, tmp_path):
        # 8,000 lines, each with a distinct unused 500-byte column: 4 MB of
        # log behind an index of 91 cells and 101 entities.
        mapping = FieldMapping(("Browser", "Country", "Request", "Customer"))
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(mapping.column_names) + "\n")
            for i in range(8000):
                handle.write(f"br{i % 7},co{i % 13},{i:0500d},cust{i % 101}\n")
        index, held, above = _traced_ingest(path, mapping)
        assert (index.total_records, len(index.cells), len(index.entities())) == (8000, 91, 101)
        assert held < 1 << 20
        assert above < 1 << 20

    def test_remembered_texts_stay_near_the_index(self, tmp_path):
        # 40,000 distinct lines, entity last: the 91 cells' texts before the
        # entity come in 15 padded spellings each, 1,365 in all.  Remembering
        # them adds about 0.1 MB to the block's lines; remembering one text
        # per line, not one per spelling, would add about 3 MB.
        pads = ("", " ", "  ", "\t", " \t ")
        path = tmp_path / "log.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(MAPPING.column_names) + "\n")
            for i in range(40_000):
                handle.write(f"{pads[i % 3]}br{i % 7},co{i % 13}{pads[i % 5]},cust{i % 101}\n")
        assert ingest_module._keyed_by_head(MAPPING, ingest_module._used_indexes(SPEC, MAPPING))
        index, held, above = _traced_ingest(path, MAPPING)
        assert (index.total_records, len(index.cells), len(index.entities())) == (40_000, 91, 101)
        assert held < 1 << 20
        assert above < 1 << 20


def test_zero_workers_means_one_per_usable_cpu(monkeypatch):
    """``cpu_count`` counts CPUs this process may not run on; the affinity set does not."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert ingest_module.resolve_workers(0) == 3
    assert ingest_module.resolve_workers(2) == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ingest_module.resolve_workers(0) == 64


class TestResolveMapping:
    def test_from_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b,c\n1,2,3\n")
        mapping = resolve_mapping(path)
        assert mapping.column_names == ("a", "b", "c")

    def test_positional(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1,2\n")
        mapping = resolve_mapping(path, header=False, columns=("x", "y"))
        assert mapping.column_names == ("x", "y")

    def test_positional_requires_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("1,2\n")
        with pytest.raises(Exception, match="columns must be configured"):
            resolve_mapping(path, header=False)
