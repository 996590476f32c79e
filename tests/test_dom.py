"""DOM node tests."""

from repro.htmlmod.dom import (
    Comment,
    Document,
    Element,
    Text,
    collapse_whitespace,
)


def small_tree():
    root = Element("html")
    body = Element("body")
    root.append(body)
    div = Element("div", {"class": "a b"})
    body.append(div)
    div.append_text("hello ")
    span = Element("span")
    div.append(span)
    span.append_text("world")
    return root, body, div, span


class TestCollapseWhitespace:
    def test_collapses_runs(self):
        assert collapse_whitespace("a \n\t b") == "a b"

    def test_strips_ends(self):
        assert collapse_whitespace("  x  ") == "x"

    def test_empty(self):
        assert collapse_whitespace("   ") == ""


class TestTreeGeometry:
    def test_parent_pointers_set_on_append(self):
        root, body, div, span = small_tree()
        assert span.parent is div
        assert div.parent is body

    def test_ancestors_order(self):
        root, body, div, span = small_tree()
        assert list(span.ancestors()) == [div, body, root]

    def test_root_method(self):
        root, _, _, span = small_tree()
        assert span.root() is root


class TestMutation:
    def test_insert(self):
        parent = Element("div")
        a = parent.append(Element("a"))
        b = Element("b")
        parent.insert(0, b)
        assert parent.children == [b, a]
        assert b.parent is parent

    def test_remove_detaches(self):
        parent = Element("div")
        child = parent.append(Element("a"))
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_reappend_moves_node(self):
        p1 = Element("div")
        p2 = Element("div")
        child = p1.append(Element("a"))
        p2.append(child)
        assert child.parent is p2
        assert p1.children == []


class TestTraversal:
    def test_iter_preorder(self):
        root, body, div, span = small_tree()
        tags = [n.tag for n in root.iter_elements()]
        assert tags == ["html", "body", "div", "span"]

    def test_find(self):
        root, *_ = small_tree()
        assert root.find("span").tag == "span"
        assert root.find("table") is None

    def test_find_all(self):
        root = Element("ul")
        for _ in range(3):
            root.append(Element("li"))
        assert len(root.find_all("li")) == 3

    def test_child_elements_skips_text(self):
        _, _, div, span = small_tree()
        assert div.child_elements() == [span]

    def test_iter_texts(self):
        root, *_ = small_tree()
        assert [t.data for t in root.iter_texts()] == ["hello ", "world"]


class TestContent:
    def test_text_content_collapses(self):
        root, *_ = small_tree()
        assert root.text_content() == "hello world"

    def test_subtree_size(self):
        root, *_ = small_tree()
        # html, body, div, text, span, text
        assert root.subtree_size() == 6

    def test_tag_signature_ignores_text(self):
        root, *_ = small_tree()
        assert root.tag_signature() == ("html", ("body", ("div", ("span",))))

    def test_classes(self):
        _, _, div, _ = small_tree()
        assert div.classes == ("a", "b")

    def test_comment_has_no_text_content(self):
        c = Comment("note")
        assert c.text_content() == ""


class TestDocument:
    def test_body_found(self):
        root, body, *_ = small_tree()
        assert Document(root).body is body

    def test_body_created_on_demand(self):
        doc = Document(Element("html"))
        body = doc.body
        assert body.tag == "body"
        assert doc.body is body

    def test_title(self):
        root = Element("html")
        head = Element("head")
        title = Element("title")
        title.append_text("  My   Page ")
        head.append(title)
        root.append(head)
        assert Document(root).title == "My Page"

    def test_title_missing(self):
        assert Document(Element("html")).title == ""
