"""Run configuration: column mapping, analysis parameters, and the config file.

The config file is plain ``key = value`` lines with ``#`` comments:

    delimiter = ,
    header = true
    # columns is only needed when header = false
    columns = Browser,Country,ContentType,Customer
    categories = Browser,Country,ContentType
    entity = Customer
    p = 2            # one value, or one per category: 2,1,3
    k = 5
    min_support = 1
    missing_token = Unknown

Values are taken verbatim after stripping, so a delimiter of ``#`` cannot be
configured through the file (use ``\\t`` or ``tab`` for tab-separated logs).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

DEFAULT_MISSING_TOKEN = "Unknown"


class ConfigError(ValueError):
    """Rejected configuration: bad mapping, bad analysis parameters, or a bad config file."""


class FieldMapping:
    """Maps one delimited log line onto named columns.

    Empty fields are replaced by ``missing_token``, which then participates
    as an ordinary categorical value.
    """

    __slots__ = ("column_names", "delimiter", "missing_token")

    def __init__(
        self,
        column_names: Sequence[str],
        delimiter: str = ",",
        missing_token: str = DEFAULT_MISSING_TOKEN,
    ) -> None:
        names = tuple(column_names)
        if len(delimiter) != 1:
            raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")
        if not names:
            raise ConfigError("column_names must not be empty")
        if any(not name for name in names):
            raise ConfigError(f"column names must be non-empty, got {names}")
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate column names in {names}")
        if not missing_token:
            raise ConfigError("missing_token must be non-empty")
        self.column_names: tuple[str, ...] = names
        self.delimiter = delimiter
        self.missing_token = missing_token

    @property
    def column_count(self) -> int:
        return len(self.column_names)

    def index_of(self, column: str) -> int:
        try:
            return self.column_names.index(column)
        except ValueError:
            raise ConfigError(f"column {column!r} not in mapping {self.column_names}") from None


class AnalysisSpec:
    """Which columns to analyse and the cut-offs that shape the result.

    ``p`` gives, per category, how many of that category's most frequent
    values seed the expected-combination set; a lone integer is broadcast to
    every category.  ``k`` caps each entity's report and ``min_support``
    drops combinations whose total count is below it.
    """

    __slots__ = ("categories", "entity_field", "p", "k", "min_support")

    def __init__(
        self,
        categories: Sequence[str],
        entity_field: str,
        p: int | Sequence[int] = 2,
        k: int = 5,
        min_support: int = 1,
    ) -> None:
        cats = tuple(categories)
        if not cats:
            raise ConfigError("need at least one category")
        if any(not c for c in cats):
            raise ConfigError(f"category names must be non-empty, got {cats}")
        if len(set(cats)) != len(cats):
            raise ConfigError(f"duplicate categories in {cats}")
        if not entity_field:
            raise ConfigError("entity_field must be non-empty")
        if entity_field in cats:
            raise ConfigError(f"entity_field {entity_field!r} must not be a category")
        if isinstance(p, int):
            per_cat = (p,) * len(cats)
        else:
            per_cat = tuple(int(x) for x in p)
        if len(per_cat) != len(cats):
            raise ConfigError(f"p has {len(per_cat)} entries for {len(cats)} categories")
        if any(x < 1 for x in per_cat):
            raise ConfigError(f"every p entry must be >= 1, got {per_cat}")
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if min_support < 0:
            raise ConfigError(f"min_support must be >= 0, got {min_support}")
        self.categories: tuple[str, ...] = cats
        self.entity_field = entity_field
        self.p: tuple[int, ...] = per_cat
        self.k = k
        self.min_support = min_support

    def validate_mapping(self, mapping: FieldMapping) -> None:
        """Raise ConfigError unless every analysed column exists in the mapping."""
        for name in (*self.categories, self.entity_field):
            mapping.index_of(name)


class RunSettings:
    """Everything a run needs, merged from the config file and CLI flags.

    ``columns`` stays None when the log carries a header row; the mapping is
    then resolved from the first line of the first input file.
    """

    __slots__ = (
        "delimiter", "header", "columns", "missing_token", "categories", "entity", "p", "k",
        "min_support",
    )

    def __init__(
        self,
        delimiter: str = ",",
        header: bool = True,
        columns: tuple[str, ...] | None = None,
        missing_token: str = DEFAULT_MISSING_TOKEN,
        categories: tuple[str, ...] | None = None,
        entity: str | None = None,
        p: int | tuple[int, ...] = 2,
        k: int = 5,
        min_support: int = 1,
    ) -> None:
        self.delimiter = delimiter
        self.header = header
        self.columns = columns
        self.missing_token = missing_token
        self.categories = categories
        self.entity = entity
        self.p = p
        self.k = k
        self.min_support = min_support

    def analysis_spec(self) -> AnalysisSpec:
        if not self.categories or not self.entity:
            raise ConfigError("categories and entity must be set (config file or flags)")
        return AnalysisSpec(
            categories=self.categories,
            entity_field=self.entity,
            p=self.p,
            k=self.k,
            min_support=self.min_support,
        )


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def parse_delimiter(value: str) -> str:
    named = {"\\t": "\t", "tab": "\t", "comma": ",", "space": " ", "pipe": "|", "semicolon": ";"}
    out = named.get(value, value)
    if len(out) != 1:
        raise ConfigError(f"delimiter must be a single character, got {value!r}")
    return out


def parse_name_list(value: str, key: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in value.split(","))
    if not names or any(not n for n in names):
        raise ConfigError(f"{key} must be a comma-separated list of names, got {value!r}")
    return names


def parse_p(value: str) -> int | tuple[int, ...]:
    try:
        parts = tuple(int(part.strip()) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"p must be an integer or comma-separated integers, got {value!r}") from None
    return parts[0] if len(parts) == 1 else parts


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def settings_from_file(path: str | Path) -> RunSettings:
    """Load RunSettings from a key=value config file; unknown keys are errors."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    pairs = parse_key_values(text)
    settings = RunSettings()
    for key, value in pairs.items():
        if key == "delimiter":
            settings.delimiter = parse_delimiter(value)
        elif key == "header":
            settings.header = _parse_bool(value, key)
        elif key == "columns":
            settings.columns = parse_name_list(value, key)
        elif key == "missing_token":
            settings.missing_token = value
        elif key == "categories":
            settings.categories = parse_name_list(value, key)
        elif key == "entity":
            settings.entity = value
        elif key == "p":
            settings.p = parse_p(value)
        elif key == "k":
            settings.k = _parse_int(value, key)
        elif key == "min_support":
            settings.min_support = _parse_int(value, key)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return settings
