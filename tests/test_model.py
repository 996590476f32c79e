"""Data model tests."""

from repro.core.model import (
    ExtractedRecord,
    ExtractedSection,
    PageExtraction,
    SectionInstance,
    section_to_extracted,
)
from repro.features.blocks import Block
from tests.helpers import render

PAGE = render(
    "<html><body><h2>Web</h2><ul>"
    "<li><a href='/1'>alpha</a><br>sn a</li>"
    "<li><a href='/2'>bravo</a><br>sn b</li>"
    "</ul><p>More</p></body></html>"
)


class TestSectionInstance:
    def instance(self):
        return SectionInstance(
            page=PAGE,
            block=Block(PAGE, 1, 4),
            records=[Block(PAGE, 1, 2), Block(PAGE, 3, 4)],
            lbm=0,
            rbm=5,
        )

    def test_span_properties(self):
        inst = self.instance()
        assert inst.start == 1 and inst.end == 4

    def test_marker_lines(self):
        inst = self.instance()
        assert inst.lbm_line.text == "Web"
        assert inst.rbm_line.text == "More"

    def test_no_markers(self):
        inst = SectionInstance(page=PAGE, block=Block(PAGE, 1, 4))
        assert inst.lbm_line is None and inst.rbm_line is None

    def test_record_spans(self):
        assert self.instance().record_spans() == [(1, 2), (3, 4)]


class TestConversion:
    def test_section_to_extracted(self):
        inst = SectionInstance(
            page=PAGE,
            block=Block(PAGE, 1, 4),
            records=[Block(PAGE, 1, 2), Block(PAGE, 3, 4)],
            lbm=0,
            rbm=5,
        )
        section = section_to_extracted(inst, schema_id="S9")
        assert section.schema_id == "S9"
        assert section.lbm_text == "Web"
        assert section.rbm_text == "More"
        assert len(section) == 2
        assert section.records[0].line_span == (1, 2)
        assert "alpha" in section.records[0].text


class TestExtractedTypes:
    def test_record_text_joins_lines(self):
        record = ExtractedRecord(lines=("title", "snippet"), line_span=(0, 1))
        assert record.text == "title / snippet"

    def test_record_text_skips_empty_lines(self):
        record = ExtractedRecord(lines=("title", ""), line_span=(0, 1))
        assert record.text == "title"

    def test_page_extraction_counts(self):
        sections = (
            ExtractedSection(
                records=(ExtractedRecord(("a",), (0, 0)),), line_span=(0, 0)
            ),
            ExtractedSection(
                records=(
                    ExtractedRecord(("b",), (2, 2)),
                    ExtractedRecord(("c",), (3, 3)),
                ),
                line_span=(2, 3),
            ),
        )
        extraction = PageExtraction(sections=sections)
        assert len(extraction) == 2
        assert extraction.record_count == 3
