"""Shared builders for the test suite."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.htmlmod.dom import Element
from repro.htmlmod.parser import parse_html
from repro.render.layout import render_page
from repro.render.lines import RenderedPage


def render(markup: str) -> RenderedPage:
    """Parse and render an HTML snippet."""
    return render_page(parse_html(markup))


def all_leaf_line_range(
    page: RenderedPage, element: Element
) -> Optional[Tuple[int, int]]:
    """An element's line span by brute force: min/max over its subtree
    (the reference for ``RenderedPage.line_range_of_element``)."""
    leaf_line = page.leaf_line_map()
    numbers = [
        leaf_line[id(node)] for node in element.iter() if id(node) in leaf_line
    ]
    return (min(numbers), max(numbers)) if numbers else None


def simple_result_page(
    query: str,
    sections: Sequence[Tuple[str, Sequence[Tuple[str, str]]]],
    *,
    footer_link: bool = True,
) -> str:
    """A small hand-built result page: ``sections`` is a list of
    ``(header, [(title, snippet), ...])``."""
    parts: List[str] = [
        "<html><body>",
        '<div class="nav"><a href="/">Home</a> | <a href="/help">Help</a></div>',
        f"<p>Your search for {query} returned "
        f"{sum(len(r) for _, r in sections) * 9} matches</p>",
    ]
    for header, records in sections:
        parts.append(f"<h2>{header}</h2><ul>")
        for title, snippet in records:
            parts.append(
                f'<li><a href="/d/{title}">{title}</a> rank high<br>{snippet}</li>'
            )
        parts.append("</ul>")
        if footer_link:
            parts.append('<a href="/more">More results</a>')
    parts.append("<p>Copyright 2006 TestCorp</p></body></html>")
    return "".join(parts)


_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima",
]


def make_records(prefix: str, count: int, query: str) -> List[Tuple[str, str]]:
    """Deterministic (title, snippet) pairs echoing the query.

    Each record carries a distinct word so cleaned titles differ across
    pages (as real result titles do) — otherwise every title would clean
    to the same string and DSE would rightly treat them as template text.
    """
    salt = sum(ord(c) for c in query)
    return [
        (
            f"{prefix} {_WORDS[(i + salt) % len(_WORDS)]} "
            f"{_WORDS[(2 * i + salt) % len(_WORDS)]} result {i} about {query}",
            f"Snippet {_WORDS[(3 * i + salt + 5) % len(_WORDS)]} mentioning "
            f"{query} variant {i} with details",
        )
        for i in range(count)
    ]


def sample_pages(
    queries: Sequence[str],
    section_plan: Sequence[Tuple[str, int]],
) -> List[Tuple[str, str]]:
    """(html, query) sample pages; ``section_plan`` = [(header, n_records)]."""
    out: List[Tuple[str, str]] = []
    for query in queries:
        sections = [
            (header, make_records(header, count, query))
            for header, count in section_plan
        ]
        out.append((simple_result_page(query, sections), query))
    return out
