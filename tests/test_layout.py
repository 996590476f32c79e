"""Layout engine tests: line formation, types, positions, attributes."""

from repro.render.layout import BODY_MARGIN, LIST_INDENT
from repro.render.linetypes import LineType
from tests.helpers import render


def lines(markup):
    return render(f"<html><body>{markup}</body></html>").lines


class TestLineFormation:
    def test_block_elements_start_new_lines(self):
        out = lines("<p>one</p><p>two</p>")
        assert [l.text for l in out] == ["one", "two"]

    def test_inline_elements_continue_line(self):
        out = lines("<p>hello <b>bold</b> world</p>")
        assert len(out) == 1
        assert out[0].text == "hello bold world"

    def test_br_breaks_line(self):
        out = lines("<p>one<br>two</p>")
        assert [l.text for l in out] == ["one", "two"]

    def test_whitespace_only_content_produces_no_line(self):
        assert lines("<p>   </p>") == []

    def test_line_numbers_sequential(self):
        out = lines("<p>a</p><p>b</p><p>c</p>")
        assert [l.number for l in out] == [0, 1, 2]

    def test_table_cells_are_separate_lines(self):
        out = lines("<table><tr><td>a</td><td>b</td></tr></table>")
        assert [l.text for l in out] == ["a", "b"]

    def test_list_items_are_separate_lines(self):
        out = lines("<ul><li>a</li><li>b</li></ul>")
        assert [l.text for l in out] == ["a", "b"]

    def test_script_and_style_invisible(self):
        out = lines("<script>var x=1;</script><style>p{}</style><p>real</p>")
        assert [l.text for l in out] == ["real"]

    def test_display_none_invisible(self):
        out = lines('<div style="display:none">hidden</div><p>shown</p>')
        assert [l.text for l in out] == ["shown"]

    def test_comment_invisible(self):
        out = lines("<p>a<!-- hidden -->b</p>")
        assert "hidden" not in out[0].text
        assert out[0].text.replace(" ", "") == "ab"


class TestLineTypes:
    def test_text_line(self):
        assert lines("<p>plain</p>")[0].line_type == LineType.TEXT

    def test_link_line(self):
        assert lines('<p><a href="/x">link</a></p>')[0].line_type == LineType.LINK

    def test_link_text_line(self):
        out = lines('<p><a href="/x">link</a> and text</p>')
        assert out[0].line_type == LineType.LINK_TEXT

    def test_heading_line(self):
        assert lines("<h2>header</h2>")[0].line_type == LineType.HEADING

    def test_hr_line(self):
        out = lines("<hr>")
        assert out[0].line_type == LineType.HR
        assert out[0].text == ""

    def test_image_line(self):
        assert lines('<p><img src="x.gif"></p>')[0].line_type == LineType.IMAGE

    def test_image_text_line(self):
        out = lines('<p><img src="x.gif"> caption</p>')
        assert out[0].line_type == LineType.IMAGE_TEXT

    def test_form_line(self):
        out = lines('<form><input type="text" value="q"><input type="submit" value="Go"></form>')
        assert out[0].line_type == LineType.FORM

    def test_select_options_not_rendered_as_text(self):
        out = lines("<form><select name='s'><option>one</option><option>two</option></select></form>")
        assert len(out) == 1
        assert out[0].line_type == LineType.FORM
        assert "one" not in out[0].text

    def test_anchor_without_href_is_text(self):
        assert lines("<p><a>nolink</a></p>")[0].line_type == LineType.TEXT


class TestPositions:
    def test_body_margin(self):
        assert lines("<p>x</p>")[0].position == BODY_MARGIN

    def test_list_indent(self):
        out = lines("<ul><li>item</li></ul>")
        assert out[0].position == BODY_MARGIN + LIST_INDENT

    def test_nested_list_indent_accumulates(self):
        out = lines("<ul><li>a<ul><li>inner</li></ul></li></ul>")
        inner = [l for l in out if l.text == "inner"][0]
        assert inner.position == BODY_MARGIN + 2 * LIST_INDENT

    def test_blockquote_indent(self):
        assert lines("<blockquote>q</blockquote>")[0].position == BODY_MARGIN + LIST_INDENT

    def test_dd_indent(self):
        out = lines("<dl><dt>term</dt><dd>def</dd></dl>")
        term, definition = out
        assert definition.position == term.position + LIST_INDENT

    def test_table_cell_offsets(self):
        out = lines(
            '<table><tr><td width="150">a</td><td>b</td></tr></table>'
        )
        assert out[0].position == BODY_MARGIN
        assert out[1].position == BODY_MARGIN + 150

    def test_percent_cell_width(self):
        out = lines('<table><tr><td width="25%">a</td><td>b</td></tr></table>')
        assert out[1].position == BODY_MARGIN + 200  # 25% of 800

    def test_margin_left_css(self):
        out = lines('<div style="margin-left: 30px">x</div>')
        assert out[0].position == BODY_MARGIN + 30

    def test_nested_table_positions(self):
        out = lines(
            '<table><tr><td width="100">nav</td><td>'
            "<table><tr><td>inner</td></tr></table>"
            "</td></tr></table>"
        )
        inner = [l for l in out if l.text == "inner"][0]
        assert inner.position == BODY_MARGIN + 100


class TestAttributes:
    def test_bold_attr_captured(self):
        line = lines("<p><b>bold text</b></p>")[0]
        assert any(a.bold for a in line.attrs)

    def test_mixed_attrs_in_one_line(self):
        line = lines("<p>plain <b>bold</b></p>")[0]
        styles = {a.style for a in line.attrs}
        assert styles == {"plain", "bold"}

    def test_link_color(self):
        line = lines('<p><a href="/x">link</a></p>')[0]
        assert any(a.color == "blue" and a.underline for a in line.attrs)

    def test_font_color_captured(self):
        line = lines('<p><font color="green">url text</font></p>')[0]
        assert any(a.color == "green" for a in line.attrs)


class TestDomLinks:
    def test_leaves_recorded(self):
        page = render("<html><body><p><a href='/x'>t</a> rest</p></body></html>")
        line = page.lines[0]
        assert len(line.leaves) == 2

    def test_line_range_of_element(self):
        page = render(
            "<html><body><ul><li>a</li><li>b</li></ul><p>c</p></body></html>"
        )
        ul = page.document.body.find("ul")
        assert page.line_range_of_element(ul) == (0, 1)

    def test_line_range_of_empty_element(self):
        page = render("<html><body><div></div><p>x</p></body></html>")
        empty = page.document.body.find("div")
        assert page.line_range_of_element(empty) is None

    def test_tag_path_of_line(self):
        page = render("<html><body><ul><li><a href='/'>x</a></li></ul></body></html>")
        assert page.lines[0].tag_path.c_tags == ("html", "body", "ul", "li", "a")
