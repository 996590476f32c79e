"""Evaluation kit tests: matching rules, metrics, harness."""

import pytest

from repro.core.model import ExtractedRecord, ExtractedSection, PageExtraction
from repro.evalkit.matching import (
    PARTIAL_RECORD_FRACTION,
    SectionMatch,
    grade_page,
    span_jaccard,
    span_overlap,
)
from repro.evalkit.metrics import EvalRows, RecordCounts, SectionCounts
from repro.evalkit.report import render_record_table, render_section_table
from repro.testbed.groundtruth import PageTruth, TruthSection


def extracted(span, record_spans, schema="S0"):
    records = tuple(
        ExtractedRecord(lines=("x",), line_span=s) for s in record_spans
    )
    return ExtractedSection(records=records, line_span=span, schema_id=schema)


def truth_section(sid, span, record_spans):
    return TruthSection(sid=sid, span=span, record_spans=tuple(record_spans))


def page_truth(sections):
    return PageTruth(page=None, sections=list(sections))


class TestSpans:
    def test_overlap(self):
        assert span_overlap((0, 5), (3, 8)) == 3
        assert span_overlap((0, 2), (5, 8)) == 0

    def test_jaccard(self):
        assert span_jaccard((0, 4), (0, 4)) == 1.0
        assert span_jaccard((0, 4), (5, 9)) == 0.0
        assert abs(span_jaccard((0, 4), (0, 9)) - 0.5) < 1e-9


class TestGrading:
    RECORDS = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]

    def test_perfect_section(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(sections=(extracted((1, 10), self.RECORDS),))
        grade = grade_page(extraction, truth)
        assert grade.perfect_count == 1
        assert grade.partial_count == 0
        assert grade.missed_truth == []

    def test_partial_section_above_60_percent(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(
            sections=(extracted((1, 8), self.RECORDS[:4]),)
        )
        grade = grade_page(extraction, truth)
        assert grade.perfect_count == 0
        assert grade.partial_count == 1

    def test_below_60_percent_not_partial(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(
            sections=(extracted((1, 6), self.RECORDS[:3]),)
        )
        grade = grade_page(extraction, truth)
        # 3/5 = 60% is not *more than* 60%
        assert grade.partial_count == 0

    def test_extra_record_blocks_perfect(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(
            sections=(extracted((1, 12), self.RECORDS + [(11, 12)]),)
        )
        grade = grade_page(extraction, truth)
        assert grade.perfect_count == 0
        assert grade.partial_count == 1  # all 5 true records extracted

    def test_wrong_record_boundaries_not_perfect(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        shifted = [(2, 3), (4, 5), (6, 7), (8, 9), (10, 10)]
        extraction = PageExtraction(sections=(extracted((1, 10), shifted),))
        grade = grade_page(extraction, truth)
        assert grade.perfect_count == 0
        assert grade.partial_count == 0

    def test_false_section_unmatched(self):
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(
            sections=(
                extracted((1, 10), self.RECORDS),
                extracted((20, 22), [(20, 22)]),
            )
        )
        grade = grade_page(extraction, truth)
        assert grade.perfect_count == 1
        assert sum(1 for m in grade.matches if m.truth is None) == 1

    def test_missed_truth_reported(self):
        truth = page_truth(
            [
                truth_section("s0", (1, 10), self.RECORDS),
                truth_section("s1", (12, 15), [(12, 13), (14, 15)]),
            ]
        )
        extraction = PageExtraction(sections=(extracted((1, 10), self.RECORDS),))
        grade = grade_page(extraction, truth)
        assert [t.sid for t in grade.missed_truth] == ["s1"]

    def test_one_to_one_matching(self):
        # two extracted sections cannot both match one truth section
        truth = page_truth([truth_section("s0", (1, 10), self.RECORDS)])
        extraction = PageExtraction(
            sections=(
                extracted((1, 10), self.RECORDS),
                extracted((1, 9), self.RECORDS[:4]),
            )
        )
        grade = grade_page(extraction, truth)
        matched = [m for m in grade.matches if m.truth is not None]
        assert len(matched) == 1


class TestMetrics:
    def test_section_counts_ratios(self):
        counts = SectionCounts(actual=100, extracted=90, perfect=70, partial=15)
        assert counts.recall_perfect == 0.70
        assert counts.recall_total == 0.85
        assert abs(counts.precision_perfect - 70 / 90) < 1e-9
        assert abs(counts.precision_total - 85 / 90) < 1e-9

    def test_zero_denominators(self):
        counts = SectionCounts()
        assert counts.recall_perfect == 0.0
        assert counts.precision_perfect == 0.0

    def test_record_counts(self):
        counts = RecordCounts(actual=200, extracted=195, correct=190)
        assert counts.recall == 0.95
        assert abs(counts.precision - 190 / 195) < 1e-9

    def test_eval_rows_totals(self):
        rows = EvalRows()
        rows.sample_sections.actual = 10
        rows.test_sections.actual = 7
        assert rows.total_sections.actual == 17

    def test_merge(self):
        a = EvalRows()
        a.sample_sections.perfect = 3
        b = EvalRows()
        b.sample_sections.perfect = 4
        a.merge(b)
        assert a.sample_sections.perfect == 7


class TestReport:
    def test_section_table_renders(self):
        rows = EvalRows()
        rows.sample_sections.merge(SectionCounts(10, 11, 8, 1))
        rows.test_sections.merge(SectionCounts(10, 10, 7, 2))
        table = render_section_table(rows, "Table X")
        assert "Table X" in table
        assert "S pgs" in table and "T pgs" in table and "Total" in table
        assert "80.0" in table  # sample perfect recall

    def test_record_table_renders(self):
        rows = EvalRows()
        rows.sample_records.merge(RecordCounts(100, 99, 98))
        table = render_record_table(rows, "Table 3")
        assert "98.0" in table


class TestHarnessSmoke:
    def test_evaluate_one_engine(self):
        from repro.evalkit.harness import evaluate_engine
        from repro.testbed import load_engine_pages

        result = evaluate_engine(load_engine_pages(0))
        total = result.rows.total_sections
        assert total.actual >= 10
        assert not result.failed
        assert result.build_seconds > 0

    def test_run_evaluation_subset(self):
        from repro.evalkit.harness import run_evaluation

        run = run_evaluation("single", limit=2)
        assert len(run.engines) == 2
        assert run.rows.total_sections.actual > 0


class TestParallelHarness:
    """--jobs N must reproduce the serial run bit for bit."""

    def test_parallel_rows_match_serial(self):
        from dataclasses import asdict

        from repro.evalkit.harness import run_evaluation
        from repro.obs import Observer

        serial_obs = Observer()
        serial = run_evaluation("all", limit=3, obs=serial_obs)
        parallel_obs = Observer()
        parallel = run_evaluation("all", limit=3, obs=parallel_obs, jobs=2)

        assert [e.engine_id for e in parallel.engines] == [
            e.engine_id for e in serial.engines
        ]
        assert [asdict(e.rows) for e in parallel.engines] == [
            asdict(e.rows) for e in serial.engines
        ]
        assert asdict(parallel.rows) == asdict(serial.rows)

        # The merged worker traces carry the same span structure and
        # counters as one serial observer.
        serial_stats = serial_obs.stats()
        parallel_stats = parallel_obs.stats()
        spans_s = {d["path"]: d for d in serial_stats["spans"]}
        spans_p = {d["path"]: d for d in parallel_stats["spans"]}
        assert set(spans_s) == set(spans_p)
        for path, span in spans_s.items():
            assert spans_p[path]["calls"] == span["calls"], path
            assert spans_p[path]["counters"] == span["counters"], path
        assert (
            parallel_stats["metrics"]["counters"]
            == serial_stats["metrics"]["counters"]
        )

    def test_jobs_larger_than_workload(self):
        from repro.evalkit.harness import run_evaluation

        run = run_evaluation("all", limit=2, jobs=8)
        assert len(run.engines) == 2
