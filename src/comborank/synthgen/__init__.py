"""Synthetic workload generation and the brute-force reference analysis."""

from .generator import (
    CategoryVocab,
    GeneratorConfig,
    PlantManifest,
    PlantRecord,
    PlantSpec,
    bench_config,
    config_from_json,
    config_to_json,
    generate_log,
    manifest_from_json,
    manifest_to_json,
    planted_config,
    sparse_config,
    synthetic_config,
    zipf_weights,
)
from .oracle import oracle_recommend

__all__ = [
    "CategoryVocab",
    "GeneratorConfig",
    "PlantManifest",
    "PlantRecord",
    "PlantSpec",
    "bench_config",
    "config_from_json",
    "config_to_json",
    "generate_log",
    "manifest_from_json",
    "manifest_to_json",
    "oracle_recommend",
    "planted_config",
    "sparse_config",
    "synthetic_config",
    "zipf_weights",
]
