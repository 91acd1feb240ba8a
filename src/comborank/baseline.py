"""Expected-combination construction from marginal value counts.

The baseline set is the Cartesian product of each category's most frequent
values (the per-category count comes from the analysis spec), held as those
values and never built.  Everything observed outside it is a candidate for
anomaly scoring.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from math import prod

from .config import AnalysisSpec, ConfigError


class EmptyCategoryError(ValueError):
    """A category has no observed values, so no baseline can be built."""


class BaselineSet:
    """The expected combinations, held as their per-category top values.

    ``top_values[j]`` holds category ``categories[j]``'s selected values in
    frequency order (most frequent first), each value once.  The expected
    combinations are their Cartesian product: one value per category, in
    category order.  ``combinations()`` walks it; ``size`` counts it.
    """

    __slots__ = ("categories", "top_values")

    def __init__(
        self, categories: tuple[str, ...], top_values: tuple[tuple[str, ...], ...]
    ) -> None:
        if len(top_values) != len(categories):
            raise ConfigError("top_values must align with categories")
        self.categories = categories
        self.top_values = top_values

    @property
    def size(self) -> int:
        return prod(map(len, self.top_values))

    def combinations(self) -> Iterator[tuple[str, ...]]:
        """The product of each category's sorted values: sorted, as values are distinct."""
        return product(*map(sorted, self.top_values))


def top_p_values(marginals: dict[str, dict[str, int]], category: str, p: int) -> list[str]:
    """The category's ``p`` most frequent values, most frequent first.

    ``marginals`` maps each category to its ``{value: count}``, as ingest
    returns them.  Ties on count break toward the lexicographically smaller
    value so the selection is deterministic.  Fewer than ``p`` observed
    values is fine; all of them are returned.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if category not in marginals:
        raise ConfigError(f"unknown category {category!r}")
    ordered = sorted(marginals[category].items(), key=lambda item: (-item[1], item[0]))
    return [value for value, _ in ordered[:p]]


def generate_baseline(marginals: dict[str, dict[str, int]], spec: AnalysisSpec) -> BaselineSet:
    """The baseline: each category's top-p values, whose product is the expected set."""
    tops: list[tuple[str, ...]] = []
    for category, per_cat in zip(spec.categories, spec.p):
        values = top_p_values(marginals, category, per_cat)
        if not values:
            raise EmptyCategoryError(f"category {category!r} has no observed values")
        tops.append(tuple(values))
    return BaselineSet(tuple(spec.categories), tuple(tops))


def baseline_as_dict(baseline: BaselineSet) -> dict:
    """JSON-ready view of a baseline set; its combinations are listed in sorted order.

    ``cli._write_baseline`` streams this document's ``json.dumps`` text without building it.
    """
    return {
        "categories": list(baseline.categories),
        "top_values": dict(zip(baseline.categories, map(list, baseline.top_values))),
        "combinations": [list(c) for c in baseline.combinations()],
    }
