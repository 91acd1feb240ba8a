import pytest

from comborank.config import (
    AnalysisSpec,
    ConfigError,
    FieldMapping,
    RunSettings,
    parse_delimiter,
    parse_key_values,
    parse_name_list,
    parse_p,
    settings_from_file,
)
from comborank.ingest import ingest_lines


class TestFieldMapping:
    def test_basic(self):
        mapping = FieldMapping(("a", "b", "c"))
        assert mapping.column_count == 3
        assert mapping.index_of("b") == 1
        assert mapping.delimiter == ","
        assert mapping.missing_token == "Unknown"

    def test_accepts_list_input(self):
        mapping = FieldMapping(["a", "b"])
        assert mapping.column_names == ("a", "b")

    def test_unknown_column(self):
        with pytest.raises(ConfigError, match="not in mapping"):
            FieldMapping(("a", "b")).index_of("z")

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FieldMapping(("a", "a"))

    def test_rejects_empty_names(self):
        with pytest.raises(ConfigError):
            FieldMapping(("a", ""))
        with pytest.raises(ConfigError):
            FieldMapping(())

    def test_rejects_multichar_delimiter(self):
        with pytest.raises(ConfigError, match="single character"):
            FieldMapping(("a", "b"), delimiter="::")

    def test_rejects_empty_missing_token(self):
        with pytest.raises(ConfigError, match="missing_token"):
            FieldMapping(("a", "b"), missing_token="")


class TestAnalysisSpec:
    def test_broadcasts_scalar_p(self):
        spec = AnalysisSpec(categories=("a", "b", "c"), entity_field="e", p=2)
        assert spec.p == (2, 2, 2)

    def test_per_category_p(self):
        spec = AnalysisSpec(categories=("a", "b"), entity_field="e", p=(2, 1))
        assert spec.p == (2, 1)

    def test_p_length_mismatch(self):
        with pytest.raises(ConfigError, match="entries for"):
            AnalysisSpec(categories=("a", "b"), entity_field="e", p=(2, 1, 1))

    def test_entity_cannot_be_category(self):
        with pytest.raises(ConfigError, match="must not be a category"):
            AnalysisSpec(categories=("a", "b"), entity_field="a")

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(ConfigError):
            AnalysisSpec(categories=("a",), entity_field="e", p=0)
        with pytest.raises(ConfigError):
            AnalysisSpec(categories=("a",), entity_field="e", k=0)
        with pytest.raises(ConfigError):
            AnalysisSpec(categories=("a",), entity_field="e", min_support=-1)

    def test_rejects_duplicate_categories(self):
        with pytest.raises(ConfigError, match="duplicate"):
            AnalysisSpec(categories=("a", "a"), entity_field="e")

    def test_validate_mapping(self):
        """Ingest checks the analysed columns against the mapping before it reads a line."""
        spec = AnalysisSpec(categories=("a",), entity_field="e")
        ingest_lines([], spec, FieldMapping(("a", "e")))
        with pytest.raises(ConfigError, match="column 'e' not in mapping"):
            ingest_lines([], spec, FieldMapping(("a", "x")))


class TestKeyValueParsing:
    def test_comments_and_blanks(self):
        text = "\n# note\nk = v\n  other = 1  # trailing\n\n"
        assert parse_key_values(text) == {"k": "v", "other": "1"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_key_values("just words")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_key_values("= value")

    def test_delimiter_escapes(self):
        assert parse_delimiter("\\t") == "\t"
        assert parse_delimiter("tab") == "\t"
        assert parse_delimiter(";") == ";"
        with pytest.raises(ConfigError):
            parse_delimiter("ab")

    def test_name_list(self):
        assert parse_name_list("a, b ,c", "x") == ("a", "b", "c")
        with pytest.raises(ConfigError):
            parse_name_list("a,,b", "x")

    def test_parse_p(self):
        assert parse_p("3") == 3
        assert parse_p("2,1") == (2, 1)
        with pytest.raises(ConfigError):
            parse_p("two")


class TestSettingsFile:
    def test_full_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "delimiter = \\t\n"
            "header = false\n"
            "columns = a,b,e\n"
            "categories = a,b\n"
            "entity = e\n"
            "p = 2,1\n"
            "k = 3\n"
            "min_support = 4\n"
            "missing_token = NA\n"
        )
        settings = settings_from_file(path)
        assert settings.delimiter == "\t"
        assert settings.header is False
        assert settings.columns == ("a", "b", "e")
        assert settings.missing_token == "NA"
        spec = settings.analysis_spec()
        assert spec.p == (2, 1)
        assert spec.k == 3
        assert spec.min_support == 4

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("mystery = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            settings_from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            settings_from_file(tmp_path / "absent.conf")

    def test_spec_requires_categories_and_entity(self):
        with pytest.raises(ConfigError, match="categories and entity"):
            RunSettings().analysis_spec()
