"""Discovery of anomalous categorical combinations in access logs.

The pipeline ingests delimited logs into a combination-by-entity index,
derives the expected combinations from per-category value frequencies, ranks
every entity inside each combination's cohort, and reports the combinations
where an entity sits furthest from its own baseline behaviour.
"""

from importlib import import_module

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
from .reports import emit_report

__version__ = "0.1.0"

# The chart names load the chart module on first use, so a run that draws no
# chart never compiles it (PEP 562).
_CHART_NAMES = ("ChartData", "explain", "render_chart", "write_explanation")


def __getattr__(name: str):
    if name not in _CHART_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    charts = import_module(".explain", __name__)
    # Loading the module bound its name here; the function takes it back.
    globals().update({chart_name: getattr(charts, chart_name) for chart_name in _CHART_NAMES})
    return globals()[name]


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
    "rank_ordering",
    "recommend_all",
    "render_chart",
    "resolve_mapping",
    "settings_from_file",
    "top_k",
    "top_p_values",
    "write_explanation",
]
