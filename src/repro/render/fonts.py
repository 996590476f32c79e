"""Approximate font metrics.

The layout engine needs rough text widths (for rendered line extents) and
line heights.  Real glyph metrics are unavailable offline, so we use
per-family average character widths expressed as a fraction of the font
size — the standard approximation for proportional faces — with a bold
widening factor.  These values are stable and deterministic, which is all
the extraction features require.
"""

from __future__ import annotations

from typing import Dict

from repro.render.styles import TextAttr

#: average advance width as a fraction of font size
_AVG_WIDTH_FACTOR: Dict[str, float] = {
    "times new roman": 0.48,
    "georgia": 0.50,
    "arial": 0.52,
    "helvetica": 0.52,
    "verdana": 0.58,
    "tahoma": 0.54,
    "courier new": 0.60,  # monospace
}

_DEFAULT_FACTOR = 0.50
_BOLD_FACTOR = 1.08


def char_width(attr: TextAttr) -> float:
    """Approximate advance width of an average character, in pixels."""
    factor = _AVG_WIDTH_FACTOR.get(attr.font, _DEFAULT_FACTOR)
    width = factor * attr.size
    if attr.bold:
        width *= _BOLD_FACTOR
    return width


def text_width(text: str, attr: TextAttr) -> float:
    """Approximate rendered width of ``text`` in pixels."""
    return len(text) * char_width(attr)
