"""HTML parsing: one scanning loop that drives the tree builder.

:func:`parse_html` scans the markup with :meth:`str.find` and a few
precompiled regular expressions and calls :class:`TreeBuilder` straight
from the loop with plain arguments; no token objects are built.

- Text runs end at the next ``<`` and go through :func:`html.unescape`
  only when they contain ``&``.
- A common start tag (ASCII name, quoted or bare attribute values, each
  attribute after whitespace) is one :data:`_START_TAG` match, a plain
  end tag one :data:`_END_TAG` match.
- Everything else follows the procedure of the standard library's
  ``html.parser`` as of CPython 3.11.7, with copies of that release's
  patterns: later patch releases changed how it reads malformed markup,
  and the DOM must not depend on the interpreter.  Its quirks are kept:
  a start tag that ends in junk becomes raw (not unescaped) text, and a
  ``script``/``style`` body left open at end of input is dropped.
- Two are not.  Any other construct left open at end of input (no
  closer, or a quoted attribute value that never closes) is dropped
  with the rest of the input, as a browser hides it.  3.11.7 makes it
  text up to the next ``>`` or ``<`` and scans on; each further such
  construct then rescans the rest of the input, and parse time grows
  with the square of the input's length.  And an unknown or nameless
  ``<![`` section, on which 3.11.7 raises ``AssertionError``, is
  dropped through the next ``>``.

:mod:`repro.htmlmod.reference` drives the same builder from
``html.parser`` itself; it is the test oracle for the scanner.

:class:`TreeBuilder` implements the subset of the HTML5 tree
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

import re
from html import unescape
from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.htmlmod.dom import Comment, Document, Element, Text

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

#: Content that stays under the root when no ``<body>`` is open.
_HEAD_CONTENT = frozenset({"head", "title", "meta", "link", "base", "script", "style"})

#: Attribute (name, value) pairs in source order, names lowercased.
Attributes = Sequence[Tuple[str, str]]


class TreeBuilder:
    """Incremental DOM construction from tag, text and comment events.

    :func:`parse_html` and the reference parser both call it: it is the
    one home of the construction rules in the module docstring.
    """

    def __init__(self) -> None:
        self.root = Element("html")
        self.doctype = ""
        self._stack: List[Element] = [self.root]
        self._body: Optional[Element] = None

    def _enter_body(self) -> Element:
        """Open ``<body>`` under the root, synthesising it if omitted."""
        body = self._body
        if body is None:
            body = self._body = Element("body")
            body.parent = self.root
            self.root.children.append(body)
        self._stack.append(body)
        return body

    def _apply_implied_closers(self, closers: AbstractSet[str]) -> None:
        stack = self._stack
        while len(stack) > 1:
            innermost = stack[-1].tag
            if innermost in closers:
                stack.pop()
                continue
            if innermost in _SCOPE_BARRIERS:
                break
            # Unwind formatting wrappers (<b>, <font>, ...) only when a
            # closable element sits below them *within the current scope*
            # — never look past a barrier, or an inner table's <tr> would
            # close the outer table's open <td>.
            closable_in_scope = False
            for element in reversed(stack[:-1]):
                if element.tag in closers:
                    closable_in_scope = True
                    break
                if element.tag in _SCOPE_BARRIERS:
                    break
            if not closable_in_scope:
                break
            stack.pop()

    # -- events ------------------------------------------------------------
    def start_tag(self, tag: str, attrs: Attributes, self_closing: bool) -> None:
        """An opening tag; ``tag`` and attribute names are lowercase."""
        if tag == "html":
            # Merge attributes into the synthesised root.
            for key, value in attrs:
                self.root.attrs.setdefault(key, value)
            return
        if tag == "body":
            body = self._body
            if body is None:
                body = self._body = Element("body", attrs)
                body.parent = self.root
                self.root.children.append(body)
            else:
                for key, value in attrs:
                    body.attrs.setdefault(key, value)
            # Reset stack to the body.
            self._stack = [self.root, body]
            return

        closers = IMPLIED_CLOSERS.get(tag)
        if closers:
            self._apply_implied_closers(closers)
        stack = self._stack
        parent = stack[-1]
        if parent is self.root and tag not in _HEAD_CONTENT:
            parent = self._enter_body()
        element = Element(tag, attrs)
        if not self_closing and tag not in VOID_ELEMENTS:
            if len(stack) >= MAX_NESTING_DEPTH:
                raise NestingDepthError(
                    f"<{tag}> nests deeper than the "
                    f"{MAX_NESTING_DEPTH}-element limit of the HTML parser"
                )
            stack.append(element)
        element.parent = parent
        parent.children.append(element)

    def end_tag(self, tag: str) -> None:
        """A closing tag; ``tag`` is lowercase."""
        if tag in VOID_ELEMENTS:
            return
        stack = self._stack
        if tag == "html" or tag == "body":
            body = self._body
            self._stack = [self.root] if body is None else [self.root, body]
            return
        # Find the nearest matching open element; an end tag never crosses
        # a <table> boundary (so a stray </tr> inside a nested table cannot
        # pop out to the outer table's row).
        for depth in range(len(stack) - 1, 0, -1):
            current_tag = stack[depth].tag
            if current_tag == tag:
                del stack[depth:]
                return
            if current_tag == "table" and tag != "table":
                return
        # No matching open element: ignore the stray end tag.

    def text(self, data: str) -> None:
        """A run of character data, character references decoded."""
        parent = self._stack[-1]
        if not data.strip():
            # Keep a single space between inline runs; drop pure formatting
            # whitespace at the top of the stack, and empty runs (a
            # reference such as ``&#1;`` decodes to nothing).
            children = parent.children
            if not data or parent is self.root or (
                children and isinstance(children[-1], Text)
            ):
                return
            data = " "
        elif parent is self.root:
            parent = self._enter_body()
        node = Text(data)
        node.parent = parent
        parent.children.append(node)

    def comment(self, data: str) -> None:
        """A comment; dropped outside any element but the root."""
        parent = self._stack[-1]
        if parent is self.root:
            return
        node = Comment(data)
        node.parent = parent
        parent.children.append(node)

    def finish(self) -> Document:
        return Document(self.root, self.doctype)


# -- the scanner ----------------------------------------------------------

#: A whole common start tag: an ASCII name, then attributes each after
#: ASCII whitespace, with a double-quoted, single-quoted or bare value (a
#: bare value may hold ``/``, so ``<a href=x/>`` is not self-closing).
#: Groups: name, attribute source, ``/`` of a self-closing tag.
_START_TAG = re.compile(
    r"<([a-zA-Z][-.:_a-zA-Z0-9]*)"
    r"((?:[ \t\n\r\f]+[a-zA-Z_:][-.:_a-zA-Z0-9]*"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(?:\"[^\"]*\"|'[^']*'|[^\s\"'=>][^\s>]*))?)*)"
    r"[ \t\n\r\f]*(/?)>"
)
#: One attribute of :data:`_START_TAG`'s attribute source: name, value.
_ATTRIBUTE = re.compile(
    r"[ \t\n\r\f]+([a-zA-Z_:][-.:_a-zA-Z0-9]*)"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(\"[^\"]*\"|'[^']*'|[^\s\"'=>][^\s>]*))?"
)

# html.parser 3.11.7 patterns (``endtagfind`` doubles as the end-tag
# fast path; it is all of 3.11.7's end-tag handling when it matches).
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_STARTTAGOPEN = re.compile("<[a-zA-Z]")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_LOCATESTARTTAGEND = re.compile(
    r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""",
    re.VERBOSE,
)
#: what may follow an unfinished start tag that 3.11.7 reads as "left
#: open" rather than as junk
_START_TAG_OPEN_AT = frozenset("abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ")
# _markupbase 3.11.7: marked-section names and their closers
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_SECTION_CLOSE = dict.fromkeys(
    ("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")
)
_MARKED_SECTION_CLOSE.update(
    dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>"))
)
#: raw-text elements and the end tag that closes each body
_RAW_TEXT_END = {
    name: re.compile(r"</\s*%s\s*>" % name, re.I) for name in ("script", "style")
}


def _attributes(source: str) -> List[Tuple[str, str]]:
    """The attributes of a :data:`_START_TAG` match's attribute source."""
    attrs: List[Tuple[str, str]] = []
    for name, value in _ATTRIBUTE.findall(source):
        if value:
            if value[0] in "\"'":
                value = value[1:-1]
            if "&" in value:
                value = unescape(value)
        attrs.append((name.lower(), value))
    return attrs


def _start_tag_fallback(markup: str, i: int) -> Tuple[int, str, Attributes, bool]:
    """3.11.7's ``parse_starttag`` at ``markup[i:]``, which opens ``<`` + letter.

    Returns ``(end, tag, attrs, self_closing)``; ``end`` is -1 when the
    tag is left open at end of input, and ``tag`` is empty when
    ``markup[i:end]`` ends in junk and reads as raw text.
    """
    j = _LOCATESTARTTAGEND.match(markup, i).end()  # type: ignore[union-attr]
    following = markup[j : j + 1]
    if following == ">":
        end = j + 1
    elif following == "/":
        if not markup.startswith("/>", j):
            return -1, "", (), False
        end = j + 2
    elif not following or following in _START_TAG_OPEN_AT:
        return -1, "", (), False
    else:
        end = j

    match = _TAGFIND.match(markup, i + 1)
    tag = match.group(1).lower()  # type: ignore[union-attr]
    k = match.end()  # type: ignore[union-attr]
    attrs: List[Tuple[str, str]] = []
    while k < end:
        match = _ATTRFIND.match(markup, k)
        if match is None:
            break
        name, rest, value = match.group(1, 2, 3)
        if not rest:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if "&" in value:
            value = unescape(value)
        attrs.append((name.lower(), value))
        k = match.end()
    closing = markup[k:end].strip()
    if closing not in (">", "/>"):
        return end, "", (), False
    return end, tag, attrs, closing == "/>"


def _end_tag_fallback(markup: str, i: int, builder: TreeBuilder) -> int:
    """3.11.7's ``parse_endtag`` at a ``</`` that :data:`_END_TAG` rejects."""
    gt = markup.find(">", i + 1)
    if gt < 0:
        return -1
    match = _TAGFIND.match(markup, i + 2)
    if match is not None:
        # Whatever sits between the name and the ``>`` is ignored.
        builder.end_tag(match.group(1).lower())
    elif not markup.startswith("</>", i):
        builder.comment(markup[i + 2 : gt])
    return gt + 1


def _declaration(markup: str, i: int, builder: TreeBuilder) -> int:
    """3.11.7's ``parse_html_declaration`` at a ``<!`` that opens no comment."""
    if markup.startswith("<![", i):
        match = _DECLNAME.match(markup, i + 3)
        if match is not None:
            if match.end() == len(markup):
                return -1
            close = _MARKED_SECTION_CLOSE.get(match.group().strip().lower())
            if close is not None:
                match = close.search(markup, i + 3)
                return match.end() if match is not None else -1
        # 3.11.7 raises AssertionError on an unknown or nameless section;
        # drop it through the next ``>`` as it drops the known ones.
        gt = markup.find(">", i + 3)
        return gt + 1 if gt >= 0 else -1
    if markup[i : i + 9].lower() == "<!doctype":
        gt = markup.find(">", i + 9)
        if gt < 0:
            return -1
        builder.doctype = markup[i + 2 : gt]
        return gt + 1
    gt = markup.find(">", i + 2)  # a bogus comment
    if gt < 0:
        return -1
    builder.comment(markup[i + 2 : gt])
    return gt + 1


def parse_html(markup: str) -> Document:
    """Parse an HTML string into a :class:`Document`.

    Recovers from malformed input by the rules in the module docstring;
    on any ``str`` the only error is :class:`NestingDepthError`, for
    elements nested deeper than :data:`MAX_NESTING_DEPTH`.  Anything but
    a ``str`` raises :class:`TypeError`.
    """
    if not isinstance(markup, str):
        raise TypeError(f"parse_html needs str markup, not {type(markup).__name__}")
    builder = TreeBuilder()
    start_tag = builder.start_tag
    end_tag = builder.end_tag
    text = builder.text
    find = markup.find
    startswith = markup.startswith
    start_match = _START_TAG.match
    end_match = _END_TAG.match
    n = len(markup)
    i = 0
    raw_text = ""  # the open script/style element whose body is raw text
    while i < n:
        if raw_text:
            match = _RAW_TEXT_END[raw_text].search(markup, i)
            if match is None:
                break  # an unterminated raw-text body is dropped
            j = match.start()
            if i < j:
                text(markup[i:j])
            i = match.end()
            # The closer matches case-insensitively, so a non-ASCII
            # spelling (``</ſcript>``) stays body text.
            if end_match(markup, j) is None:
                text(markup[j:i])
            else:
                end_tag(raw_text)
                raw_text = ""
            continue

        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            data = markup[i:j]
            text(unescape(data) if "&" in data else data)
            if j == n:
                break
            i = j

        if startswith("</", i):
            match = end_match(markup, i)
            if match is not None:
                end_tag(match.group(1).lower())
                i = match.end()
                continue
            k = _end_tag_fallback(markup, i, builder)
        else:
            match = start_match(markup, i)
            if match is not None:
                tag, source, slash = match.groups()
                tag = tag.lower()
                start_tag(tag, _attributes(source) if source else (), bool(slash))
                if not slash and tag in _RAW_TEXT_END:
                    raw_text = tag
                i = match.end()
                continue
            if _STARTTAGOPEN.match(markup, i):
                k, tag, attrs, self_closing = _start_tag_fallback(markup, i)
                if k > 0:
                    if not tag:
                        text(markup[i:k])
                    else:
                        start_tag(tag, attrs, self_closing)
                        if not self_closing and tag in _RAW_TEXT_END:
                            raw_text = tag
            elif startswith("<!--", i):
                match = _COMMENT_CLOSE.search(markup, i + 4)
                if match is None:
                    k = -1
                else:
                    builder.comment(markup[i + 4 : match.start()])
                    k = match.end()
            elif startswith("<?", i):
                k = find(">", i + 2)  # a processing instruction, dropped
                if k >= 0:
                    k += 1
            elif startswith("<!", i):
                k = _declaration(markup, i, builder)
            else:
                text("<")
                k = i + 1
        if k < 0:
            break  # left open at end of input: dropped with the rest
        i = k
    return builder.finish()
