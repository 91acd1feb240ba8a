"""Synthetic log generation with a planted, machine-checkable ground truth.

Background traffic samples every column independently from a weighted
vocabulary (skewed weights by default, so a few values dominate each
category, as in real access logs).  Plants then append extra records for
chosen (entity, combination) pairs, sized relative to the combination's
background cohort so the pair lands far from the entity's usual rank.

Generation is fully determined by the config: same seed, same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..config import AnalysisSpec, ConfigError, FieldMapping

_WRITE_CHUNK = 100_000
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CategoryVocab:
    """One column's value universe with sampling weights (None = uniform)."""

    name: str
    values: tuple[str, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ConfigError("vocabulary name must be non-empty")
        if not self.values:
            raise ConfigError(f"vocabulary {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"vocabulary {self.name!r} has duplicate values")
        if self.weights is not None:
            weights = tuple(float(w) for w in self.weights)
            object.__setattr__(self, "weights", weights)
            if len(weights) != len(self.values):
                raise ConfigError(
                    f"vocabulary {self.name!r}: {len(weights)} weights for {len(self.values)} values"
                )
            if any(w <= 0 for w in weights):
                raise ConfigError(f"vocabulary {self.name!r}: weights must be positive")

    def probabilities(self) -> np.ndarray:
        if self.weights is None:
            return np.full(len(self.values), 1.0 / len(self.values))
        raw = np.asarray(self.weights, dtype=float)
        return raw / raw.sum()


@dataclass(frozen=True)
class PlantSpec:
    """One pair to force into anomaly: entity, target combination, inflation.

    The plant writes ``ceil(inflation * mean)`` extra records, where ``mean``
    is the background cohort's mean per-entity count (1.0 when the
    combination never occurs in the background).
    """

    entity: str
    combination: tuple[str, ...]
    inflation: float = 50.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "combination", tuple(self.combination))
        if not self.entity:
            raise ConfigError("plant entity must be non-empty")
        if self.inflation < 1.0:
            raise ConfigError(f"inflation must be >= 1, got {self.inflation}")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    categories: tuple[CategoryVocab, ...]
    entities: CategoryVocab
    total_entries: int
    planted: tuple[PlantSpec, ...] = ()
    delimiter: str = ","
    header: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "planted", tuple(self.planted))
        if self.total_entries < 1:
            raise ConfigError(f"total_entries must be >= 1, got {self.total_entries}")
        if not self.categories:
            raise ConfigError("need at least one category vocabulary")
        names = [v.name for v in self.categories] + [self.entities.name]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate column names in {names}")
        for plant in self.planted:
            if len(plant.combination) != len(self.categories):
                raise ConfigError(
                    f"plant combination {plant.combination} does not span "
                    f"{len(self.categories)} categories"
                )
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be a single character, got {self.delimiter!r}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.categories) + (self.entities.name,)

    def field_mapping(self, missing_token: str = "Unknown") -> FieldMapping:
        return FieldMapping(self.column_names, delimiter=self.delimiter, missing_token=missing_token)

    def analysis_spec(
        self, p: int | tuple[int, ...] = 2, k: int = 5, min_support: int = 1
    ) -> AnalysisSpec:
        return AnalysisSpec(
            categories=tuple(v.name for v in self.categories),
            entity_field=self.entities.name,
            p=p,
            k=k,
            min_support=min_support,
        )


@dataclass(frozen=True)
class PlantRecord:
    """One executed plant: what was targeted and how many lines were written."""

    entity: str
    combination: tuple[str, ...]
    inflation: float
    records: int


@dataclass(frozen=True)
class PlantManifest:
    """Ground truth of one generated log: seed, size, and executed plants."""

    seed: int
    total_entries: int
    planted: tuple[PlantRecord, ...]


def zipf_weights(count: int, exponent: float = 1.1) -> tuple[float, ...]:
    """Power-law weights: value i gets weight proportional to 1/(i+1)^exponent."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    raw = [1.0 / (i ** exponent) for i in range(1, count + 1)]
    total = sum(raw)
    return tuple(w / total for w in raw)


def _plant_sizes(
    config: GeneratorConfig,
    category_codes: list[np.ndarray],
    entity_codes: np.ndarray,
) -> list[int]:
    """Extra records per plant, from the background cohort's mean entity count."""
    sizes = []
    for plant in config.planted:
        mask: np.ndarray | None = None
        in_vocab = True
        for vocab, codes, value in zip(config.categories, category_codes, plant.combination):
            try:
                code = vocab.values.index(value)
            except ValueError:
                in_vocab = False
                break
            hit = codes == code
            mask = hit if mask is None else (mask & hit)
        mean = 1.0
        if in_vocab and mask is not None:
            cohort_total = int(mask.sum())
            if cohort_total:
                cohort_entities = int(np.unique(entity_codes[mask]).size)
                mean = cohort_total / cohort_entities
        sizes.append(max(1, math.ceil(plant.inflation * mean)))
    return sizes


def generate_log(
    config: GeneratorConfig,
    log_path: str | Path,
    manifest_path: str | Path | None = None,
) -> PlantManifest:
    """Write one synthetic log (and optionally its manifest); returns the manifest.

    The log holds ``total_entries`` background lines plus the planted lines,
    with planted lines appended after the background block.
    """
    log_path = Path(log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    n = config.total_entries
    vocabs = (*config.categories, config.entities)
    codes = [rng.choice(len(v.values), size=n, p=v.probabilities()) for v in vocabs]
    sizes = _plant_sizes(config, codes[:-1], codes[-1])
    value_arrays = [np.array(v.values, dtype=object) for v in vocabs]
    delimiter = config.delimiter
    with open(log_path, "w", encoding="utf-8", newline="") as out:
        if config.header:
            out.write(delimiter.join(config.column_names) + "\n")
        for start in range(0, n, _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, n)
            columns = [
                values[arr[start:stop]] for values, arr in zip(value_arrays, codes)
            ]
            out.write("\n".join(delimiter.join(row) for row in zip(*columns)))
            out.write("\n")
        for plant, records in zip(config.planted, sizes):
            line = delimiter.join((*plant.combination, plant.entity)) + "\n"
            out.write(line * records)
    manifest = PlantManifest(
        seed=config.seed,
        total_entries=n,
        planted=tuple(
            PlantRecord(plant.entity, plant.combination, plant.inflation, records)
            for plant, records in zip(config.planted, sizes)
        ),
    )
    if manifest_path is not None:
        Path(manifest_path).write_text(manifest_to_json(manifest), encoding="utf-8")
    return manifest


# --- JSON views ----------------------------------------------------------------

def _vocab_to_dict(vocab: CategoryVocab) -> dict:
    return {
        "name": vocab.name,
        "values": list(vocab.values),
        "weights": list(vocab.weights) if vocab.weights is not None else None,
    }


def _vocab_from_dict(data: dict) -> CategoryVocab:
    weights = data.get("weights")
    return CategoryVocab(
        data["name"],
        tuple(data["values"]),
        tuple(weights) if weights is not None else None,
    )


def config_to_json(config: GeneratorConfig) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "total_entries": config.total_entries,
        "delimiter": config.delimiter,
        "header": config.header,
        "categories": [_vocab_to_dict(v) for v in config.categories],
        "entity": _vocab_to_dict(config.entities),
        "planted": [
            {"entity": p.entity, "combination": list(p.combination), "inflation": p.inflation}
            for p in config.planted
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def config_from_json(text: str) -> GeneratorConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"generator config is not valid JSON: {exc}") from exc
    try:
        return GeneratorConfig(
            seed=int(doc["seed"]),
            categories=tuple(_vocab_from_dict(v) for v in doc["categories"]),
            entities=_vocab_from_dict(doc["entity"]),
            total_entries=int(doc["total_entries"]),
            planted=tuple(
                PlantSpec(p["entity"], tuple(p["combination"]), float(p.get("inflation", 50.0)))
                for p in doc.get("planted", ())
            ),
            delimiter=doc.get("delimiter", ","),
            header=doc.get("header", True),
        )
    except KeyError as exc:
        raise ConfigError(f"generator config is missing key {exc}") from exc


def manifest_to_json(manifest: PlantManifest) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": manifest.seed,
        "total_entries": manifest.total_entries,
        "planted": [
            {
                "entity": p.entity,
                "combination": list(p.combination),
                "inflation": p.inflation,
                "records": p.records,
            }
            for p in manifest.planted
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def manifest_from_json(text: str) -> PlantManifest:
    doc = json.loads(text)
    return PlantManifest(
        seed=doc["seed"],
        total_entries=doc["total_entries"],
        planted=tuple(
            PlantRecord(
                p["entity"], tuple(p["combination"]), p["inflation"], p["records"]
            )
            for p in doc["planted"]
        ),
    )


# --- ready-made configurations ---------------------------------------------------

def _numbered(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i:03d}" for i in range(count))


def synthetic_config(
    seed: int,
    *,
    category_sizes: Sequence[int] = (12, 8, 6, 5),
    entity_count: int = 48,
    total_entries: int = 20_000,
    category_exponent: float = 1.1,
    entity_exponent: float = 0.8,
    planted: Sequence[PlantSpec] = (),
    delimiter: str = ",",
    header: bool = True,
) -> GeneratorConfig:
    """A skewed multi-category workload; value index 0 is each column's head."""
    categories = tuple(
        CategoryVocab(
            f"cat{j + 1}",
            _numbered(f"c{j + 1}v", size),
            zipf_weights(size, category_exponent),
        )
        for j, size in enumerate(category_sizes)
    )
    entities = CategoryVocab(
        "entity", _numbered("e", entity_count), zipf_weights(entity_count, entity_exponent)
    )
    return GeneratorConfig(
        seed=seed,
        categories=categories,
        entities=entities,
        total_entries=total_entries,
        planted=tuple(planted),
        delimiter=delimiter,
        header=header,
    )


def planted_config(
    seed: int,
    *,
    n_plants: int = 1,
    inflation: float = 50.0,
    entity_count: int = 64,
    total_entries: int = 60_000,
    category_sizes: Sequence[int] = (14, 10, 8, 6),
) -> GeneratorConfig:
    """A workload with mid-tail entities planted into busy off-baseline combinations.

    Each plant targets a combination of head values except for one category,
    which uses its third value: busy enough for a full cohort, never in the
    top-2 product.  Planted entities sit in the popularity mid-tail so their
    baseline ranks are deep but their presence there is still near-certain.
    """
    if n_plants < 0:
        raise ConfigError(f"n_plants must be >= 0, got {n_plants}")
    if any(size < 3 for size in category_sizes):
        raise ConfigError("every category needs at least 3 values to plant against")
    config = synthetic_config(
        seed,
        category_sizes=category_sizes,
        entity_count=entity_count,
        total_entries=total_entries,
    )
    plants = []
    for i in range(n_plants):
        entity_idx = entity_count - entity_count // 4 - 1 - (3 * i) % (entity_count // 4)
        target_cat = i % len(config.categories)
        combination = tuple(
            vocab.values[2] if j == target_cat else vocab.values[0]
            for j, vocab in enumerate(config.categories)
        )
        plants.append(
            PlantSpec(config.entities.values[entity_idx], combination, inflation)
        )
    return GeneratorConfig(
        seed=config.seed,
        categories=config.categories,
        entities=config.entities,
        total_entries=config.total_entries,
        planted=tuple(plants),
        delimiter=config.delimiter,
        header=config.header,
    )


def bench_config(seed: int, total_entries: int) -> GeneratorConfig:
    """The benchmarking workload: four concentrated categories, 128 entities."""
    return synthetic_config(
        seed,
        category_sizes=(16, 12, 8, 6),
        entity_count=128,
        total_entries=total_entries,
        category_exponent=1.3,
        entity_exponent=0.9,
    )
