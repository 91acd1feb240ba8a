"""Hand-built logs whose rank statistics are known exactly, shared across tests."""

from __future__ import annotations

import csv
import io

from comborank import AnalysisSpec, FieldMapping

# --- two tracked customers with fixed rank profiles over eight expected combos ---

ENTITY_A = "cust_a"
ENTITY_B = "cust_b"

# Per expected combination (lexicographic order): cohort size and the tracked
# customers' ranks (None = absent).  Counts decrease strictly with position,
# so position equals rank everywhere.
COHORT_SIZES = (40, 25, 50, 10, 20, 5, 40, 30)
BASELINE_RANKS_A = (38, 22, 45, None, None, None, 37, 26)
BASELINE_RANKS_B = (2, 1, 1, 3, 17, None, None, None)

NB1 = ("br1", "co8", "ct1")
NB2 = ("br8", "co2", "ct8")
NB1_SIZE, NB1_RANK_A, NB1_RANK_B = 12, 4, 10
NB2_SIZE, NB2_RANK_A, NB2_RANK_B = 55, 25, 50

RANK_PROFILE_COLUMNS = ("Browser", "Country", "ContentType", "Customer")
RANK_PROFILE_CATEGORIES = ("Browser", "Country", "ContentType")

# Expected-combination cohorts get a 10x count scale so the top-2 values per
# category stay the intended ones despite the off-baseline traffic.
_BASE_SCALE = 10


def _cohort_lines(
    combination: tuple[str, ...],
    size: int,
    placed: dict[int, str],
    scale: int,
) -> list[str]:
    lines: list[str] = []
    for position in range(1, size + 1):
        entity = placed.get(position, f"fill_{position:03d}")
        count = (size + 1 - position) * scale
        line = ",".join((*combination, entity))
        lines.extend([line] * count)
    return lines


def expected_combinations() -> list[tuple[str, str, str]]:
    return [
        (browser, country, ctype)
        for browser in ("br1", "br2")
        for country in ("co1", "co2")
        for ctype in ("ct1", "ct2")
    ]


def rank_profile_log() -> tuple[list[str], FieldMapping, AnalysisSpec]:
    """Data lines (no header) plus mapping and spec for the two-customer fixture."""
    lines: list[str] = []
    for combination, size, rank_a, rank_b in zip(
        expected_combinations(), COHORT_SIZES, BASELINE_RANKS_A, BASELINE_RANKS_B
    ):
        placed = {}
        if rank_a is not None:
            placed[rank_a] = ENTITY_A
        if rank_b is not None:
            placed[rank_b] = ENTITY_B
        lines.extend(_cohort_lines(combination, size, placed, _BASE_SCALE))
    lines.extend(
        _cohort_lines(NB1, NB1_SIZE, {NB1_RANK_A: ENTITY_A, NB1_RANK_B: ENTITY_B}, 1)
    )
    lines.extend(
        _cohort_lines(NB2, NB2_SIZE, {NB2_RANK_A: ENTITY_A, NB2_RANK_B: ENTITY_B}, 1)
    )
    mapping = FieldMapping(RANK_PROFILE_COLUMNS)
    spec = AnalysisSpec(
        categories=RANK_PROFILE_CATEGORIES, entity_field="Customer", p=2, k=5, min_support=1
    )
    return lines, mapping, spec


# --- one-category fixture with a known reciprocal-rank average -------------------

RECIPROCAL_ENTITY = "cust_x"
RECIPROCAL_RANKS = (2, 2, 10, None, 5)
_RECIPROCAL_SIZES = (3, 2, 12, 4, 6)


def reciprocal_profile_log() -> tuple[list[str], FieldMapping, AnalysisSpec]:
    """Five single-category cohorts; cust_x holds ranks (2, 2, 10, absent, 5)."""
    lines: list[str] = []
    for i, (size, rank) in enumerate(zip(_RECIPROCAL_SIZES, RECIPROCAL_RANKS), 1):
        placed = {rank: RECIPROCAL_ENTITY} if rank is not None else {}
        lines.extend(_cohort_lines((f"svc{i}",), size, placed, 1))
    mapping = FieldMapping(("Service", "Customer"))
    spec = AnalysisSpec(categories=("Service",), entity_field="Customer", p=5)
    return lines, mapping, spec


# --- tiny browser/country log -----------------------------------------------------

TINY_COLUMNS = ("Browser", "Country", "Customer")


def tiny_browser_log() -> tuple[list[str], FieldMapping, AnalysisSpec]:
    """Nine records; Browser counts F:5 S:3 C:1, Country counts US:6 UK:3."""
    lines = [
        "F,US,x1",
        "F,US,x2",
        "F,US,x1",
        "F,UK,x1",
        "F,UK,x2",
        "S,US,x1",
        "S,US,x2",
        "S,UK,x1",
        "C,US,x1",
    ]
    mapping = FieldMapping(TINY_COLUMNS)
    spec = AnalysisSpec(
        categories=("Browser", "Country"), entity_field="Customer", p=(2, 1)
    )
    return lines, mapping, spec


def wide_product_log() -> tuple[list[str], FieldMapping, AnalysisSpec]:
    """Two categories of 300 top values at p=(300, 300): 90,000 expected, 340 observed cells.

    Cell ``(a<i>, b<i>)`` holds ``e<i % 10>`` twice and ``e<(i + 1) % 10>``
    once; the 40 cells ``(a<j>, z<j>)`` lie outside the baseline.
    """
    lines = []
    for i in range(300):
        lines += [f"a{i:03d},b{i:03d},e{i % 10}"] * 2 + [f"a{i:03d},b{i:03d},e{(i + 1) % 10}"]
    lines += [f"a{j:03d},z{j:02d},e{j % 10}" for j in range(40)]
    return lines, FieldMapping(("C1", "C2", "E")), AnalysisSpec(("C1", "C2"), "E", p=(300, 300))


def _reference_csv(reports) -> str:
    """The CSV view as ``csv.writer`` writes rows built from the report fields."""
    text = io.StringIO()
    rows = csv.writer(text, lineterminator="\n")
    rows.writerow(
        ["entity", "mrr", "expected_rank", "combination", "distance", "rr", "rank",
         "cohort_size", "count"]
    )
    for r in sorted(reports, key=lambda r: r.entity):
        for item in r.items:
            rows.writerow([
                r.entity, f"{r.mrr:.6g}", f"{r.expected_rank:.6g}", "|".join(item.combination),
                f"{item.distance:.6g}", f"{item.rr:.6g}", item.rank, item.cohort_size, item.count,
            ])
    return text.getvalue()
