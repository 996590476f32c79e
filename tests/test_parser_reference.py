"""``parse_html`` against the ``html.parser`` reference, and pinned DOMs.

The scanner follows ``html.parser`` as of CPython 3.11.7.  Every corpus
page, every evolved page and generated tag soup must build the same DOM
as the reference (compared node by node with text-node boundaries and
parent links, not by ``serialize()``).  Markup that later ``html.parser``
releases read differently stays out of the comparison; its DOMs are
pinned in :data:`PINNED` and checked on every interpreter.  So are, in
:data:`DEPARTURES`, those of the markup on which ``parse_html`` departs
from 3.11.7: constructs left open at end of input and unknown ``<![``
sections.
"""

import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.htmlmod.parser import NestingDepthError, parse_html
from repro.htmlmod.reference import dom_outline, parse_html_reference
from repro.testbed import PAGES_PER_ENGINE, TOTAL_ENGINES, make_engine
from repro.testbed.evolution import MUTATIONS, load_evolving_pages
from tests.helpers import tag_soup

#: single- and multi-section engines whose evolving pages are compared
EVOLVING_ENGINES = (3, 40, 85, 100, 118)


def assert_same_dom(markup):
    assert dom_outline(parse_html(markup)) == dom_outline(
        parse_html_reference(markup)
    ), markup[:200]


@pytest.fixture(scope="module")
def corpus_pages():
    pages = []
    for engine_id in range(TOTAL_ENGINES):
        engine = make_engine(engine_id)
        pages.extend(engine.result_page(q) for q in engine.queries(PAGES_PER_ENGINE))
    return pages


def test_every_corpus_page_matches_reference(corpus_pages):
    assert len(corpus_pages) == 1190
    for markup in corpus_pages:
        assert_same_dom(markup)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_evolved_page_matches_reference(mutation):
    for engine_id in EVOLVING_ENGINES:
        for markup in load_evolving_pages(engine_id, mutation).pages:
            assert_same_dom(markup)


@settings(max_examples=400, deadline=None)
@given(tag_soup())
def test_tag_soup_matches_reference(markup):
    assert_same_dom(markup)


def _outline(text):
    """An expected :func:`dom_outline`, written as an indented block."""
    return [line[4:] for line in text.split("\n") if line.strip()]


#: (markup, expected outline) for constructs that later ``html.parser``
#: releases read differently from 3.11.7; ``parse_html`` keeps 3.11.7's DOM
PINNED = [
    (
        "<p>a<",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
          '<'
        """,
    ),
    (
        "<p>x &amp y &lt",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'x & y <'
        """,
    ),
    # a script/style body left open at end of input is dropped, and so
    # is one whose only end tag carries more than whitespace
    (
        "<p>a<script>var x = '<b>';",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
          <script>
        """,
    ),
    (
        "<style>b {}</style x>c",
        """
    #doctype ''
    <html>
      <style>
        """,
    ),
    # whitespace after ``</`` still names the end tag
    (
        "<p>a</ p>b<i>c</i\t>d",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        'b'
        <i>
          'c'
        'd'
        """,
    ),
    # \v and non-ASCII whitespace are not tag whitespace after the name
    (
        "<p\x0bclass=x>a</p>",
        """
    #doctype ''
    <html>
      <body>
        <p\x0bclass=x>
          'a'
        """,
    ),
    (
        "<p\xa0class=x>a</p>",
        """
    #doctype ''
    <html>
      <body>
        <p\xa0class=x>
          'a'
        """,
    ),
    # ... but they separate attributes
    (
        "<p class=x\x0bid=y title=z\xa0lang=en>a</p>",
        """
    #doctype ''
    <html>
      <body>
        <p class='x' id='y' title='z' lang='en'>
          'a'
        """,
    ),
    # any run of ``=`` introduces the value
    (
        "<a href==x title = = y>t</a>",
        """
    #doctype ''
    <html>
      <body>
        <a href='x' title='=' y=''>
          't'
        """,
    ),
    # a start tag that ends in junk is raw, not unescaped, text
    (
        "<a&amp;\x00b>x",
        """
    #doctype ''
    <html>
      <body>
        '<a&amp;'
        '\\x00b>x'
        """,
    ),
    # comment spellings HTML5 closes early: 3.11.7 waits for ``--\\s*>``
    (
        "<p>a<!-->b-->c<!-- d --!>e -->f",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
          #comment '>b'
          'c'
          #comment ' d --!>e '
          'f'
        """,
    ),
    # title keeps its markup
    (
        "<title>a<b>c</b></title>",
        """
    #doctype ''
    <html>
      <title>
        'a'
        <b>
          'c'
        """,
    ),
]

#: (markup, expected outline) where ``parse_html`` departs from 3.11.7
DEPARTURES = [
    # A construct left open at end of input is dropped with the rest of
    # the input.  3.11.7 makes it text up to the next ``>`` or ``<`` and
    # scans on, so each such construct rescans the rest of the input.
    (
        "<p>a<!-- b",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        '<p>a<div class="x',
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        "<p>a<b title='x>b</b><i>c</i>",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        "<p>a</p",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        "<p>a<?pi<!x",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        "<p>a<!DOCTYPE html",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    (
        "<p>a<![if x<b>c",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
        """,
    ),
    # 3.11.7 raises AssertionError on an unknown or nameless marked
    # section; all are dropped, known names through their closer, the
    # others through ``>``
    (
        "<p>a<![CDATA[b]]>c<![if !IE]>d<![endif]>e<![foo]>f<![ ]>g",
        """
    #doctype ''
    <html>
      <body>
        <p>
          'a'
          'c'
          'd'
          'e'
          'f'
          'g'
        """,
    ),
    (
        "<p><![ x",
        """
    #doctype ''
    <html>
      <body>
        <p>
        """,
    ),
    (
        "<![cdata[x",
        """
    #doctype ''
    <html>
        """,
    ),
]


@pytest.mark.parametrize("markup,expected", PINNED + DEPARTURES)
def test_pinned_dom(markup, expected):
    assert dom_outline(parse_html(markup)) == _outline(expected)


@pytest.mark.skipif(
    sys.version_info[:3] != (3, 11, 7),
    reason="the pinned DOMs are html.parser 3.11.7's",
)
@pytest.mark.parametrize("markup,expected", PINNED)
def test_pinned_dom_is_the_3_11_7_reference(markup, expected):
    assert dom_outline(parse_html_reference(markup)) == _outline(expected)


#: constructs that stay open to the end of the input when repeated
_OPEN_TO_END = ("<!--", "<?", "</", "<!x", "<![if x", "<a b", '<a b=">"', "<a b='")


@pytest.mark.parametrize("piece", _OPEN_TO_END)
def test_parse_time_is_linear_in_constructs_left_open(piece):
    def seconds(size):
        markup = piece * (size // len(piece))
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            parse_html(markup)
            best = min(best, time.perf_counter() - start)
        return best

    # 4x the input takes about 4x the time when linear, 16x when quadratic
    assert seconds(32_000) < 8 * seconds(8_000) + 0.001


#: fragments of the constructs the scanner branches on
_MARKUP_PIECES = (
    "<", "</", "<!", "<![", "<!--", "-->", "<?", ">", "/>", "]", "]]>",
    "CDATA[", "if ", "foo", "<!DOCTYPE", "<script>", "</script>", "<style>",
    "<p", "<a b=", "'", '"', "=", "&", "&#", ";", " ", "\t", "\x0b", "\x00",
    "\xa0", "x",
)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.lists(
            st.one_of(st.sampled_from(_MARKUP_PIECES), st.text(max_size=2)),
            max_size=20,
        ).map("".join),
    )
)
def test_any_str_raises_at_most_nesting_depth(markup):
    try:
        parse_html(markup)
    except NestingDepthError:
        pass


@pytest.mark.parametrize("markup", [None, b"<p>x</p>", 3])
def test_markup_that_is_not_str_raises_type_error(markup):
    with pytest.raises(TypeError):
        parse_html(markup)
