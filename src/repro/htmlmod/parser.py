"""HTML tree construction.

Builds a :class:`repro.htmlmod.dom.Document` from the token stream produced
by :mod:`repro.htmlmod.tokens`.  Implements the subset of the HTML5 tree
construction rules that matters for result pages generated around 2006:

- void elements (``<br>``, ``<img>``, ``<hr>``, ...) never take children;
- implied end tags: an opening ``<li>`` closes an open ``<li>``, ``<tr>``
  closes ``<tr>``/``<td>``, a block element closes an open ``<p>``, etc.;
- stray end tags with no matching open element are ignored;
- an end tag for a non-innermost open element closes the intervening
  elements (simple "popping" recovery);
- missing ``<html>``/``<body>`` wrappers are synthesised;
- elements nest at most :data:`MAX_NESTING_DEPTH` deep; deeper markup
  raises :class:`NestingDepthError`.
"""

from __future__ import annotations

from typing import List

from repro.htmlmod.dom import Comment, Document, Element, Text
from repro.htmlmod.tokens import (
    CommentToken,
    DoctypeToken,
    EndTag,
    StartTag,
    TextToken,
    tokenize,
)

#: How deep elements may nest, counting the ``<html>`` root as depth 1.
#: Rendering and the tag-structure kernels walk the DOM recursively at
#: about two interpreter frames per level and overflow the default
#: recursion limit near 496 levels; result pages nest a few dozen.
MAX_NESTING_DEPTH = 256


class NestingDepthError(ValueError):
    """Markup nests elements deeper than :data:`MAX_NESTING_DEPTH`.

    The one error :func:`parse_html` raises: every entry point that
    parses a page (extraction, health checks, serving, the CLI) passes
    it through instead of overflowing the stack later on.
    """


#: Elements that never have content.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr", "spacer",
    }
)

#: tag -> set of open tags that an occurrence of ``tag`` implicitly closes.
#: Closing is applied repeatedly while the innermost open element is in the
#: set, so nested structures unwind correctly (e.g. a new <tr> closes an
#: open <td> and then the open <tr>).
IMPLIED_CLOSERS = {
    "li": {"li"},
    "dt": {"dt", "dd"},
    "dd": {"dt", "dd"},
    "tr": {"td", "th", "tr"},
    "td": {"td", "th"},
    "th": {"td", "th"},
    "thead": {"td", "th", "tr", "tbody", "tfoot"},
    "tbody": {"td", "th", "tr", "thead", "tfoot"},
    "tfoot": {"td", "th", "tr", "thead", "tbody"},
    "option": {"option"},
    "optgroup": {"option", "optgroup"},
    "p": {"p"},
    "table": {"p"},
    "div": {"p"},
    "ul": {"p"},
    "ol": {"p"},
    "dl": {"p"},
    "h1": {"p"},
    "h2": {"p"},
    "h3": {"p"},
    "h4": {"p"},
    "h5": {"p"},
    "h6": {"p"},
    "form": {"p"},
    "hr": {"p"},
    "blockquote": {"p"},
    "pre": {"p"},
}

#: Elements whose implicit closing must not propagate past these ancestors.
#: e.g. an <li> inside a nested <ul> must not close the outer <li>, and a
#: <td> of an inner table must not close the inner <tr>.
_SCOPE_BARRIERS = frozenset(
    {
        "table", "tbody", "thead", "tfoot", "tr", "td", "th",
        "ul", "ol", "dl", "div", "body", "html", "form", "select",
    }
)


class TreeBuilder:
    """Incremental DOM construction from HTML tokens."""

    def __init__(self) -> None:
        self.root = Element("html")
        self.doctype = ""
        self._stack: List[Element] = [self.root]
        self._saw_body = False

    # -- stack helpers ------------------------------------------------------
    @property
    def current(self) -> Element:
        return self._stack[-1]

    def _open(self, element: Element) -> None:
        if len(self._stack) >= MAX_NESTING_DEPTH:
            raise NestingDepthError(
                f"<{element.tag}> nests deeper than the "
                f"{MAX_NESTING_DEPTH}-element limit of the HTML parser"
            )
        self.current.append(element)
        self._stack.append(element)

    def _close_innermost(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    def _apply_implied_closers(self, tag: str) -> None:
        closers = IMPLIED_CLOSERS.get(tag)
        if not closers:
            return
        while len(self._stack) > 1:
            innermost = self.current.tag
            if innermost in closers:
                self._close_innermost()
                continue
            if innermost in _SCOPE_BARRIERS:
                break
            # Unwind formatting wrappers (<b>, <font>, ...) only when a
            # closable element sits below them *within the current scope*
            # — never look past a barrier, or an inner table's <tr> would
            # close the outer table's open <td>.
            closable_in_scope = False
            for element in reversed(self._stack[:-1]):
                if element.tag in closers:
                    closable_in_scope = True
                    break
                if element.tag in _SCOPE_BARRIERS:
                    break
            if closable_in_scope:
                self._close_innermost()
            else:
                break

    # -- token handling --------------------------------------------------------
    def start_tag(self, token: StartTag) -> None:
        tag = token.name
        if tag == "html":
            # Merge attributes into the synthesised root.
            for key, value in token.attrs:
                self.root.attrs.setdefault(key, value)
            return
        if tag == "body":
            body = self.root.find("body")
            if body is None:
                body = Element("body", dict(token.attrs))
                self.root.append(body)
            else:
                for key, value in token.attrs:
                    body.attrs.setdefault(key, value)
            # Reset stack to the body.
            self._stack = [self.root, body]
            self._saw_body = True
            return

        self._apply_implied_closers(tag)
        element = Element(tag, dict(token.attrs))
        if tag in VOID_ELEMENTS or token.self_closing:
            self._ensure_body_for_content(tag)
            self.current.append(element)
        else:
            self._ensure_body_for_content(tag)
            self._open(element)

    def _ensure_body_for_content(self, tag: str) -> None:
        """Route visible content under <body> even if <body> was omitted."""
        if tag in {"head", "title", "meta", "link", "base", "script", "style"}:
            return
        if self.current is self.root:
            body = self.root.find("body")
            if body is None:
                body = Element("body")
                self.root.append(body)
            self._stack.append(body)

    def end_tag(self, token: EndTag) -> None:
        tag = token.name
        if tag in VOID_ELEMENTS:
            return
        if tag in {"html", "body"}:
            body = self.root.find("body")
            self._stack = [self.root] + ([body] if body is not None and tag == "html" else [])
            if tag == "body" and body is not None:
                self._stack = [self.root, body]
            return
        # Find the nearest matching open element; an end tag never crosses
        # a <table> boundary (so a stray </tr> inside a nested table cannot
        # pop out to the outer table's row).
        for depth in range(len(self._stack) - 1, 0, -1):
            current_tag = self._stack[depth].tag
            if current_tag == tag:
                del self._stack[depth:]
                return
            if current_tag == "table" and tag != "table":
                return
        # No matching open element: ignore the stray end tag.

    def text(self, token: TextToken) -> None:
        if not token.data.strip():
            # Keep a single space between inline runs; drop pure formatting
            # whitespace at the top of the stack.
            if self.current.children and isinstance(self.current.children[-1], Text):
                return
            if self.current is self.root:
                return
            self.current.append(Text(" "))
            return
        self._ensure_body_for_content("#text")
        self.current.append(Text(token.data))

    def comment(self, token: CommentToken) -> None:
        if self.current is self.root:
            return
        self.current.append(Comment(token.data))

    def finish(self) -> Document:
        return Document(self.root, self.doctype)


def parse_html(markup: str) -> Document:
    """Parse an HTML string into a :class:`Document`.

    Recovers from malformed input by the rules in the module docstring;
    the only error is :class:`NestingDepthError`, for elements nested
    deeper than :data:`MAX_NESTING_DEPTH`.
    """
    builder = TreeBuilder()
    for token in tokenize(markup):
        if isinstance(token, StartTag):
            builder.start_tag(token)
        elif isinstance(token, EndTag):
            builder.end_tag(token)
        elif isinstance(token, TextToken):
            builder.text(token)
        elif isinstance(token, CommentToken):
            builder.comment(token)
        elif isinstance(token, DoctypeToken):
            builder.doctype = token.data
    return builder.finish()
