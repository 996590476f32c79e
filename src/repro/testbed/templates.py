"""Page chrome templates for the synthetic corpus.

A template builds the static/semi-dynamic frame of a result page — the
masthead, navigation, search box, result-count line and footer — and
returns the element into which the dynamic sections are rendered.  Three
layout families cover the common 2006 result-page shapes:

- ``simple``   — single column;
- ``sidebar``  — a layout table with a left navigation column;
- ``portal``   — heavy chrome with repeated nav link lines (a static
  repeating pattern that decoys MRE, per §5.1's "static contents with
  repeating patterns").
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.htmlmod.dom import Document, Element

NAV_LABELS = [
    "Home", "Advanced Search", "Preferences", "Help", "About Us",
    "Directory", "Submit a Site", "Contact", "Tools", "My Account",
]

FOOTER_LABELS = ["Privacy Policy", "Terms of Use", "Advertise", "Jobs", "Feedback"]


def _nav_links(labels: List[str], separator: str = " | ") -> Element:
    holder = Element("div", {"class": "nav"})
    for i, label in enumerate(labels):
        if i:
            holder.append_text(separator)
        link = Element("a", {"href": f"/{label.lower().replace(' ', '-')}"})
        link.append_text(label)
        holder.append(link)
    return holder


def _search_form(engine_name: str, query: str) -> Element:
    form = Element("form", {"action": "/search", "method": "get"})
    form.append(Element("input", {"type": "text", "name": "q", "value": query}))
    form.append(Element("input", {"type": "submit", "value": "Search"}))
    return form


def _count_line(query: str, total: int, rng: random.Random) -> Element:
    para = Element("p", {"class": "count"})
    bold = Element("b")
    bold.append_text(f"Your search for {query} returned {total * 7 + rng.randrange(7)} matches")
    para.append(bold)
    return para


def _footer(engine_name: str) -> Element:
    footer = Element("div", {"class": "footer"})
    footer.append(Element("hr"))
    small = Element("small")
    small.append_text(f"Copyright 2006 {engine_name}. All rights reserved.")
    footer.append(small)
    footer.append(_nav_links(FOOTER_LABELS, separator=" - "))
    return footer


def _masthead(engine_name: str) -> Element:
    head = Element("div", {"class": "masthead"})
    title = Element("h1")
    title.append_text(engine_name)
    head.append(title)
    return head


class PageTemplate:
    """Base template; subclasses place the chrome around a content area."""

    name = "base"

    def build(
        self,
        engine_name: str,
        query: str,
        total_records: int,
        rng: random.Random,
    ) -> Tuple[Document, Element]:
        """Create a document; return (document, section content parent)."""
        raise NotImplementedError


class SimpleTemplate(PageTemplate):
    """Single-column page."""

    name = "simple"

    def build(self, engine_name, query, total_records, rng):
        root = Element("html")
        head = Element("head")
        title = Element("title")
        title.append_text(f"{engine_name}: {query}")
        head.append(title)
        root.append(head)
        body = Element("body")
        root.append(body)

        body.append(_masthead(engine_name))
        body.append(_nav_links(NAV_LABELS[:4]))
        body.append(_search_form(engine_name, query))
        body.append(_count_line(query, total_records, rng))
        content = Element("div", {"class": "content"})
        body.append(content)
        body.append(_footer(engine_name))
        return Document(root), content


class SidebarTemplate(PageTemplate):
    """Layout table: left nav column + main content column."""

    name = "sidebar"

    def build(self, engine_name, query, total_records, rng):
        root = Element("html")
        head = Element("head")
        title = Element("title")
        title.append_text(f"{engine_name}: {query}")
        head.append(title)
        root.append(head)
        body = Element("body")
        root.append(body)

        body.append(_masthead(engine_name))
        table = Element("table", {"width": "100%"})
        row = Element("tr")
        table.append(row)

        nav_cell = Element("td", {"width": "150", "valign": "top"})
        nav_list = Element("ul")
        for label in NAV_LABELS[:6]:
            item = Element("li")
            link = Element("a", {"href": f"/{label.lower().replace(' ', '-')}"})
            link.append_text(label)
            item.append(link)
            nav_list.append(item)
        nav_cell.append(nav_list)
        row.append(nav_cell)

        main_cell = Element("td", {"valign": "top"})
        main_cell.append(_search_form(engine_name, query))
        main_cell.append(_count_line(query, total_records, rng))
        content = Element("div", {"class": "content"})
        main_cell.append(content)
        row.append(main_cell)

        body.append(table)
        body.append(_footer(engine_name))
        return Document(root), content


class PortalTemplate(PageTemplate):
    """Chrome-heavy page with a repeated-link block (MRE decoy)."""

    name = "portal"

    def build(self, engine_name, query, total_records, rng):
        root = Element("html")
        head = Element("head")
        title = Element("title")
        title.append_text(f"{engine_name} portal: {query}")
        head.append(title)
        root.append(head)
        body = Element("body")
        root.append(body)

        body.append(_masthead(engine_name))
        # Channel box: one identically styled link line per channel — a
        # static repeating pattern MRE will pick up and §5.3 must discard.
        channels = Element("div", {"class": "channels"})
        for label in NAV_LABELS[:6]:
            line = Element("div", {"class": "chan"})
            link = Element("a", {"href": f"/channel/{label.lower().replace(' ', '-')}"})
            link.append_text(f"{label} Channel")
            line.append(link)
            channels.append(line)
        body.append(channels)
        body.append(Element("hr"))

        body.append(_search_form(engine_name, query))
        body.append(_count_line(query, total_records, rng))
        content = Element("div", {"class": "content"})
        body.append(content)
        body.append(Element("hr"))
        body.append(_footer(engine_name))
        return Document(root), content


ALL_TEMPLATES: List[PageTemplate] = [SimpleTemplate(), SidebarTemplate(), PortalTemplate()]
