"""Discovery of anomalous categorical combinations in access logs.

The pipeline ingests delimited logs into a combination-by-entity index,
derives the expected combinations from per-category value frequencies, ranks
every entity inside each combination's cohort, and reports the combinations
where an entity sits furthest from its own baseline behaviour.
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
from .explain import (
    ChartData,
    emit_report,
    explain,
    parse_reports,
    render_chart,
    write_explanation,
)
from .ingest import (
    CategoryMarginals,
    ContingencyIndex,
    SchemaMismatch,
    ingest_lines,
    ingest_paths,
    merge_indexes,
    resolve_mapping,
)
from .rankstats import (
    baseline_stats,
    compute_distances,
    mrr_from_ranks,
    rank_ordering,
)
from .recommend import AnomalyItem, EntityAnomalyReport, recommend_all, top_k

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec",
    "AnomalyItem",
    "BaselineSet",
    "CategoryMarginals",
    "ChartData",
    "ConfigError",
    "ContingencyIndex",
    "EmptyCategoryError",
    "EntityAnomalyReport",
    "FieldMapping",
    "RunSettings",
    "SchemaMismatch",
    "baseline_stats",
    "compute_distances",
    "emit_report",
    "explain",
    "generate_baseline",
    "ingest_lines",
    "ingest_paths",
    "merge_indexes",
    "mrr_from_ranks",
    "parse_reports",
    "rank_ordering",
    "recommend_all",
    "render_chart",
    "resolve_mapping",
    "settings_from_file",
    "top_k",
    "top_p_values",
    "write_explanation",
]
