"""Baseline tests: MDR and single-section ViNTs."""

from repro.baselines.mdr import mdr_extract
from repro.baselines.vints_single import SingleSectionMSE
from repro.evalkit.matching import grade_page
from repro.testbed import load_engine_pages
from tests.helpers import make_records, sample_pages, simple_result_page


class TestMdr:
    def test_finds_record_region(self):
        html = simple_result_page("apple", [("Web", make_records("Web", 5, "apple"))])
        extraction = mdr_extract(html)
        assert any(len(s) >= 4 for s in extraction.sections)

    def test_no_dynamic_static_distinction(self):
        # MDR reports the static nav region too (the paper's critique).
        html = (
            "<html><body>"
            + "".join(f'<div><a href="/{i}">Channel {i}</a></div>' for i in range(5))
            + "<ul>"
            + "".join(
                f'<li><a href="/r{i}">{w} title</a><br>snippet {w}</li>'
                for i, w in enumerate(["alpha", "bravo", "charlie", "delta"])
            )
            + "</ul></body></html>"
        )
        extraction = mdr_extract(html)
        assert len(extraction.sections) >= 2  # nav region + record region

    def test_two_record_minimum(self):
        html = (
            "<html><body><ul>"
            "<li><a href='/1'>only one</a><br>snippet</li>"
            "</ul></body></html>"
        )
        extraction = mdr_extract(html)
        assert all(len(s) >= 2 for s in extraction.sections)

    def test_empty_page(self):
        assert len(mdr_extract("<html><body><p>x</p></body></html>")) == 0

    def test_sections_in_document_order(self):
        ep = load_engine_pages(85, pages_per_engine=1)
        extraction = mdr_extract(ep.pages[0])
        spans = [s.line_span for s in extraction.sections]
        assert spans == sorted(spans)


class TestSingleSectionVints:
    def test_extracts_only_main_section(self):
        pages = sample_pages(
            ("apple", "banana", "cherry"), [("Web", 5), ("News", 3)]
        )
        wrapper = SingleSectionMSE().build_wrapper(pages)
        html, query = pages[0]
        extraction = wrapper.extract(html, query)
        assert len(extraction) == 1
        assert len(extraction.sections[0]) == 5  # the larger section

    def test_misses_secondary_sections_on_multi_engine(self):
        ep = load_engine_pages(85)
        wrapper = SingleSectionMSE().build_wrapper(ep.sample_set)
        misses = 0
        for i in range(len(ep.pages)):
            grade = grade_page(
                wrapper.extract(ep.pages[i], ep.queries[i]), ep.truths[i]
            )
            misses += len(grade.missed_truth)
        assert misses > 0  # by construction it cannot cover all sections
