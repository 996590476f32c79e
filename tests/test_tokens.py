"""Lexical behaviour of the scanner in ``parse_html``, checked on the DOM.

Tag and attribute names, attribute values, character references,
comments, the doctype and raw-text bodies, as the tree builder receives
them from the scanning loop.
"""

from repro.htmlmod.dom import Comment, Element, Text
from repro.htmlmod.parser import parse_html


def body_children(markup):
    return parse_html(markup).body.children


def texts(element):
    return [c.data for c in element.children if isinstance(c, Text)]


class TestBasicTokens:
    def test_start_and_end_tags(self):
        (p,) = body_children("<p>x</p>")
        assert p.tag == "p"
        assert texts(p) == ["x"]

    def test_tag_names_lowercased(self):
        (div,) = body_children("<DIV><A HREF='x'>t</A></DIV>")
        assert div.tag == "div"
        (a,) = div.children
        assert a.tag == "a"
        assert list(a.attrs.items()) == [("href", "x")]

    def test_attribute_without_value_becomes_empty_string(self):
        (tag,) = body_children("<input disabled>")
        assert tag.attrs == {"disabled": ""}
        assert tag.get("missing", "d") == "d"

    def test_attribute_quoting_styles(self):
        for markup in ('<a href="x">', "<a href='x'>", "<a href=x>"):
            (tag,) = body_children(markup)
            assert tag.get("href") == "x"

    def test_self_closing_tag_flagged(self):
        # ``<br/>`` and a self-closing non-void element take no children.
        (p,) = body_children("<p><br/>a<span/>b</p>")
        br, a, span, b = p.children
        assert (br.tag, br.children) == ("br", [])
        assert (span.tag, span.children) == ("span", [])
        assert (a.data, b.data) == ("a", "b")

    def test_entities_decoded(self):
        (p,) = body_children("<p>a &amp; b &lt;c&gt;</p>")
        assert texts(p) == ["a & b <c>"]

    def test_numeric_entities_decoded(self):
        (p,) = body_children("<p>&#65;&#x42;</p>")
        assert texts(p) == ["AB"]

    def test_attribute_entities_decoded(self):
        (a,) = body_children("<a href='/s?q=1&amp;n=&#50;' title=x&lt;y>t</a>")
        assert a.attrs == {"href": "/s?q=1&n=2", "title": "x<y"}

    def test_comment_token(self):
        (div,) = body_children("<div><!-- hello --></div>")
        (comment,) = div.children
        assert isinstance(comment, Comment)
        assert comment.data == " hello "

    def test_doctype_token(self):
        doc = parse_html("<!DOCTYPE html><html></html>")
        assert doc.doctype == "DOCTYPE html"


class TestRobustness:
    def test_unclosed_tag_at_eof(self):
        (p,) = body_children("<p>text")
        assert texts(p) == ["text"]

    def test_empty_input(self):
        doc = parse_html("")
        assert doc.doctype == ""
        assert doc.root.tag == "html"
        assert doc.root.children == []

    def test_plain_text_only(self):
        assert [c.data for c in body_children("just text")] == ["just text"]

    def test_stray_angle_bracket_degrades_to_text(self):
        # The ``<`` is a text node of its own, as html.parser reports it.
        (p,) = body_children("<p>1 < 2</p>")
        assert texts(p) == ["1 ", "<", " 2"]

    def test_script_content_not_tokenized_as_tags(self):
        body = "if (a<b) { x('<p>'); }"
        doc = parse_html(f"<script>{body}</script><p>after</p>")
        script = doc.root.find("script")
        assert texts(script) == [body]
        assert [e.tag for e in doc.root.iter_elements()] == ["html", "script", "body", "p"]

    def test_mixed_case_attributes_lowercased(self):
        (table,) = body_children('<table><tr><td WIDTH="5" Align="left">')
        td = table.find("td")
        assert isinstance(td, Element)
        assert list(td.attrs.items()) == [("width", "5"), ("align", "left")]
