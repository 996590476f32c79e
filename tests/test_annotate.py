"""Data annotation tests."""

from repro.core.annotate import annotate_record
from repro.core.model import ExtractedRecord
from tests.helpers import render


def record(*lines, span=None):
    return ExtractedRecord(lines=tuple(lines), line_span=span or (0, len(lines) - 1))


class TestRoleClassification:
    def test_title_and_snippet(self):
        ann = annotate_record(
            record(
                "Chronic asthma treatment guide",
                "A detailed overview of modern asthma treatments and outcomes.",
            )
        )
        assert ann.roles == ("title", "snippet")
        assert ann.title.startswith("Chronic")
        assert "overview" in ann.snippet

    def test_url_line(self):
        ann = annotate_record(
            record("Some result title", "http://www.example.com/a/b.html")
        )
        assert ann.roles[1] == "url"
        assert ann.url == "http://www.example.com/a/b.html"

    def test_www_url(self):
        ann = annotate_record(record("Title here", "www.example.org/page"))
        assert ann.roles[1] == "url"

    def test_date_line(self):
        ann = annotate_record(record("Title here", "4/10/2002"))
        assert ann.roles[1] == "date"
        assert ann.fields["date"] == "4/10/2002"

    def test_price_line(self):
        ann = annotate_record(record("Camera model X", "$129.99"))
        assert ann.roles[1] == "price"
        assert ann.fields["price"] == "$129.99"

    def test_inline_date_in_title_extracted(self):
        ann = annotate_record(record("News story title (7/30/2003)"))
        assert ann.fields.get("date") == "7/30/2003"

    def test_title_fallback_is_first_line(self):
        ann = annotate_record(record("xy"))
        assert ann.title == "xy"

    def test_multi_line_snippet_joined(self):
        ann = annotate_record(
            record(
                "Result title words",
                "First long descriptive sentence of the record.",
                "Second long descriptive sentence of the record.",
            )
        )
        assert "First long" in ann.snippet and "Second long" in ann.snippet


class TestWithRenderedPage:
    PAGE = render(
        "<html><body><ul>"
        "<li><a href='/1'>Linked title one</a><br>"
        "A reasonably long snippet describing the record.<br>"
        "<font color='green' size='2'>http://www.site.com/doc1</font></li>"
        "</ul></body></html>"
    )

    def test_line_types_sharpen_roles(self):
        rec = ExtractedRecord(
            lines=tuple(l.text for l in self.PAGE.lines), line_span=(0, 2)
        )
        ann = annotate_record(rec, self.PAGE)
        assert ann.roles == ("title", "snippet", "url")
