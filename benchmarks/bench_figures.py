"""Figure regeneration benches.

The paper's Figures 1-11 are stage illustrations, not result plots:

- Fig. 1  a multi-section result page (healthcentral.com),
- Fig. 2  its DOM tree,
- Fig. 3  the sections/records/template line view,
- Fig. 4  the system overview,
- Fig. 5  the DSE algorithm,
- Figs. 6-8  MR/DS refinement cases,
- Fig. 9  the section-instance match graph,
- Figs. 10-11  Type 1 / Type 2 family tag structures.

``examples/paper_walkthrough.py`` renders each of them as text for a
Figure-1-shaped page; this bench drives the same stages programmatically,
times them, and asserts each stage produces the artifact the figure
depicts.
"""

from repro.core.dse import run_dse
from repro.core.family import Type1Family, Type2Family
from repro.core.grouping import group_section_instances
from repro.core.mre import extract_mrs
from repro.core.mse import MSE, build_wrapper
from repro.core.refine import refine_page
from repro.htmlmod.parser import parse_html
from repro.render.layout import render_page

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "paper_walkthrough",
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "paper_walkthrough.py",
)
walkthrough = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walkthrough)


def _samples():
    queries = ["knee pain", "pregnancy diet", "cholesterol"]
    plans = [
        {"Encyclopedia": 5, "Dr. Dean Edell": 1, "News": 5, "Peoples Pharmacy": 2},
        {"Encyclopedia": 4, "Dr. Dean Edell": 0, "News": 5, "Peoples Pharmacy": 3},
        {"Encyclopedia": 5, "Dr. Dean Edell": 2, "News": 3, "Peoples Pharmacy": 0},
    ]
    return [
        (walkthrough.healthcentral_page(q, plan), q)
        for q, plan in zip(queries, plans)
    ]


def test_figure_1_to_3_rendering(benchmark):
    """Fig. 1-3: the page renders into typed, positioned content lines."""
    markup, _ = _samples()[0]
    page = benchmark(lambda: render_page(parse_html(markup)))
    assert len(page.lines) > 20
    headers = [l for l in page.lines if l.text in walkthrough.TOPICS]
    assert len(headers) >= 3  # the section headers of Figure 1


def test_figure_5_dse(benchmark):
    """Fig. 5: CSBMs partition the page into dynamic sections."""
    samples = _samples()
    pages = [render_page(parse_html(m)) for m, _ in samples]
    queries = [q for _, q in samples]
    mrs = [extract_mrs(p) for p in pages]

    def run():
        return run_dse(pages, queries, mrs)

    csbms, dss = benchmark(run)
    assert all(dss[i] for i in range(len(pages)))
    # Most headers must be boundary markers.  (Sections present on too few
    # sample pages can miss the vote threshold — the walkthrough's small
    # article pools make this page deliberately hard.)
    header_lines = [
        l.number for l in pages[0].lines if l.text in walkthrough.TOPICS
    ]
    marked = sum(1 for n in header_lines if n in csbms[0])
    assert marked >= len(header_lines) / 2


def test_figures_6_to_8_refinement(benchmark):
    """Figs. 6-8: refinement yields disjoint sections inside the DSs."""
    samples = _samples()
    pages = [render_page(parse_html(m)) for m, _ in samples]
    queries = [q for _, q in samples]
    mrs = [extract_mrs(p) for p in pages]
    csbms, dss = run_dse(pages, queries, mrs)

    result = benchmark(refine_page, pages[0], mrs[0], dss[0], csbms[0])
    spans = sorted((s.start, s.end) for s in result.sections)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2  # disjoint


def test_figure_9_instance_graph(benchmark):
    """Fig. 9: cliques of matching instances across sample pages."""
    sections_per_page = MSE().analyze_pages(_samples())
    groups = benchmark(group_section_instances, sections_per_page)
    assert groups
    for group in groups:
        page_ids = [page_index for page_index, _ in group.members]
        assert len(page_ids) == len(set(page_ids))  # one instance per page


def test_figures_10_11_families(benchmark):
    """Figs. 10/11: structurally related wrappers fold into families."""
    engine = benchmark(build_wrapper, _samples())
    assert engine.wrappers
    assert any(
        isinstance(f, (Type1Family, Type2Family)) for f in engine.families
    )
