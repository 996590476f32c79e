"""Layout engine edge cases and robustness."""

from repro.render.layout import BODY_MARGIN
from tests.helpers import render
from repro.render.linetypes import LineType


def lines(markup):
    return render(f"<html><body>{markup}</body></html>").lines


class TestEmptyAndDegenerate:
    def test_empty_body(self):
        assert lines("") == []

    def test_empty_table_cell_skipped(self):
        out = lines("<table><tr><td>a</td><td></td><td>c</td></tr></table>")
        assert [l.text for l in out] == ["a", "c"]

    def test_empty_list_item_skipped(self):
        out = lines("<ul><li>a</li><li></li><li>c</li></ul>")
        assert [l.text for l in out] == ["a", "c"]

    def test_nested_empty_divs(self):
        out = lines("<div><div><div></div></div></div><p>x</p>")
        assert [l.text for l in out] == ["x"]

    def test_deeply_nested_content(self):
        markup = "<div>" * 30 + "deep" + "</div>" * 30
        out = lines(markup)
        assert out[0].text == "deep"


class TestEntitiesAndText:
    def test_entities_rendered_decoded(self):
        out = lines("<p>AT&amp;T &lt;tags&gt; &copy;</p>")
        assert out[0].text == "AT&T <tags> ©"

    def test_unicode_text(self):
        out = lines("<p>café 日本語</p>")
        assert "café" in out[0].text

    def test_very_long_line(self):
        out = lines(f"<p>{'word ' * 500}</p>")
        assert len(out) == 1  # no wrapping in the wide-viewport model
        assert out[0].width > 0


class TestTables:
    def test_row_without_cells(self):
        out = lines("<table><tr></tr><tr><td>x</td></tr></table>")
        assert [l.text for l in out] == ["x"]

    def test_cell_with_block_content(self):
        out = lines("<table><tr><td><p>one</p><p>two</p></td></tr></table>")
        assert [l.text for l in out] == ["one", "two"]

    def test_invalid_width_attribute_defaults(self):
        out = lines('<table><tr><td width="banana">a</td><td>b</td></tr></table>')
        assert out[1].position > out[0].position

    def test_three_level_table_nesting(self):
        out = lines(
            '<table><tr><td width="50">'
            '<table><tr><td width="50">'
            "<table><tr><td>deep</td></tr></table>"
            "</td></tr></table>"
            "</td></tr></table>"
        )
        assert out[0].text == "deep"
        assert out[0].position == BODY_MARGIN

    def test_th_renders_bold(self):
        out = lines("<table><tr><th>Header</th></tr></table>")
        assert any(a.bold for a in out[0].attrs)


class TestMixedContent:
    def test_inline_then_block_then_inline(self):
        out = lines("<div>before<p>middle</p>after</div>")
        assert [l.text for l in out] == ["before", "middle", "after"]

    def test_multiple_brs_no_empty_lines(self):
        out = lines("<p>a<br><br><br>b</p>")
        assert [l.text for l in out] == ["a", "b"]

    def test_hr_between_sections(self):
        out = lines("<p>a</p><hr><p>b</p>")
        assert [l.line_type for l in out] == [
            LineType.TEXT,
            LineType.HR,
            LineType.TEXT,
        ]

    def test_image_inside_link(self):
        out = lines('<p><a href="/x"><img src="i.gif"></a></p>')
        assert out[0].line_type == LineType.IMAGE

    def test_form_with_surrounding_text(self):
        out = lines("<form>Search: <input type='text' value='q'></form>")
        assert out[0].line_type == LineType.FORM
