"""Discovery of anomalous categorical combinations in access logs.

The pipeline ingests delimited logs into a combination-by-entity index,
derives the expected combinations from per-category value frequencies, ranks
every entity inside each combination's cohort, and reports the combinations
where an entity sits furthest from its own baseline behaviour.

The chart names (``explain``, ``render_chart``, ``write_explanation``) live
in ``comborank.explain``, which only an ``explain`` run loads.
"""

from .baseline import (
    BaselineSet,
    EmptyCategoryError,
    generate_baseline,
    top_p_values,
)
from .config import (
    AnalysisSpec,
    ConfigError,
    FieldMapping,
    RunSettings,
    settings_from_file,
)
from .ingest import (
    ContingencyIndex,
    SchemaMismatch,
    ingest_lines,
    ingest_paths,
    resolve_mapping,
)
from .rankstats import mrr_from_ranks, rank_ordering
from .recommend import AnomalyItem, EntityAnomalyReport, recommend_all
from .reports import emit_report

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "AnomalyItem",
    "BaselineSet",
    "ConfigError",
    "ContingencyIndex",
    "EmptyCategoryError",
    "EntityAnomalyReport",
    "FieldMapping",
    "RunSettings",
    "SchemaMismatch",
    "emit_report",
    "generate_baseline",
    "ingest_lines",
    "ingest_paths",
    "mrr_from_ranks",
    "rank_ordering",
    "recommend_all",
    "resolve_mapping",
    "settings_from_file",
    "top_p_values",
]
