"""Breakdown reporting tests."""

import pytest

from repro.evalkit.harness import breakdown, run_evaluation


@pytest.fixture(scope="module")
def run():
    return run_evaluation("all", limit=6)


class TestBreakdown:
    def test_template_partition_covers_all_engines(self, run):
        groups = breakdown(run, "template")
        total = sum(rows.total_sections.actual for _, rows in groups)
        assert total == run.rows.total_sections.actual

    def test_sections_dimension_labels(self, run):
        labels = {label for label, _ in breakdown(run, "sections")}
        assert labels <= {"single", "multi", "shared-table"}
        assert labels  # at least one group

    def test_junk_dimension(self, run):
        labels = {label for label, _ in breakdown(run, "junk")}
        assert labels <= {"with-junk", "clean"}

    def test_style_groups_sorted(self, run):
        labels = [label for label, _ in breakdown(run, "style")]
        assert labels == sorted(labels)

    def test_unknown_dimension_raises(self, run):
        with pytest.raises(ValueError):
            breakdown(run, "nonsense")

    def test_engine_metadata_recorded(self, run):
        for result in run.engines:
            assert result.template
            assert result.styles
            assert result.section_count >= 1


class TestCliBreakdown:
    def test_harness_main_with_breakdown(self, capsys):
        from repro.cli import main

        code = main(["eval", "--table", "1", "--limit", "2", "--breakdown", "template"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Breakdown by template" in out

    def test_eval_breakdown_and_csv_together(self, tmp_path, capsys):
        import csv

        from repro.cli import main

        path = tmp_path / "engines.csv"
        code = main([
            "eval", "--table", "1", "--limit", "2",
            "--breakdown", "style", "--csv", str(path),
        ])
        assert code == 0
        assert "Breakdown by style" in capsys.readouterr().out
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "engine_id"
        assert [row[0] for row in rows[1:]] == ["0", "1"]


class TestCsvExport:
    def test_csv_written(self, run, tmp_path):
        import csv

        from repro.evalkit.harness import write_engine_csv

        path = tmp_path / "engines.csv"
        write_engine_csv(run, str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(run.engines)
        assert rows[0]["engine_id"] == "0"
        assert 0.0 <= float(rows[0]["recall_total"]) <= 1.0

    def test_harness_main_csv(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "out.csv"
        code = main(["eval", "--table", "1", "--limit", "2", "--csv", str(path)])
        assert code == 0
        assert path.exists()
