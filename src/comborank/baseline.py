"""Expected-combination construction from marginal value counts.

The baseline set is the Cartesian product of each category's most frequent
values (the per-category count comes from the analysis spec).  Everything
observed outside that product is a candidate for anomaly scoring.
"""

from __future__ import annotations

from itertools import product

from .config import AnalysisSpec, ConfigError
from .ingest import CategoryMarginals


class EmptyCategoryError(ValueError):
    """A category has no observed values, so no baseline can be built."""


class BaselineSet:
    """The expected combinations: per-category top values and their product.

    ``top_values[j]`` holds category ``categories[j]``'s selected values in
    frequency order (most frequent first).  ``combinations`` is their full
    Cartesian product; every member has one value per category, in category
    order.
    """

    __slots__ = ("categories", "top_values", "combinations")

    def __init__(
        self,
        categories: tuple[str, ...],
        top_values: tuple[tuple[str, ...], ...],
        combinations: frozenset[tuple[str, ...]],
    ) -> None:
        if len(top_values) != len(categories):
            raise ConfigError("top_values must align with categories")
        self.categories = categories
        self.top_values = top_values
        self.combinations = combinations

    @property
    def size(self) -> int:
        return len(self.combinations)

    def sorted_combinations(self) -> list[tuple[str, ...]]:
        return sorted(self.combinations)


def top_p_values(marginals: CategoryMarginals, category: str, p: int) -> list[str]:
    """The category's ``p`` most frequent values, most frequent first.

    Ties on count break toward the lexicographically smaller value so the
    selection is deterministic.  Fewer than ``p`` observed values is fine;
    all of them are returned.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if category not in marginals.counts:
        raise ConfigError(f"unknown category {category!r}")
    counts = marginals.counts[category]
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [value for value, _ in ordered[:p]]


def generate_baseline(marginals: CategoryMarginals, spec: AnalysisSpec) -> BaselineSet:
    """Build the expected-combination set: top-p values per category, crossed."""
    tops: list[tuple[str, ...]] = []
    for category, per_cat in zip(spec.categories, spec.p):
        values = top_p_values(marginals, category, per_cat)
        if not values:
            raise EmptyCategoryError(f"category {category!r} has no observed values")
        tops.append(tuple(values))
    combos = frozenset(product(*tops))
    return BaselineSet(tuple(spec.categories), tuple(tops), combos)


def baseline_as_dict(baseline: BaselineSet) -> dict:
    """JSON-ready view of a baseline set, fully sorted for stable output."""
    return {
        "categories": list(baseline.categories),
        "top_values": {
            category: list(values)
            for category, values in zip(baseline.categories, baseline.top_values)
        },
        "combinations": [list(c) for c in baseline.sorted_combinations()],
    }
