"""Serving path tests (page index, serve == extract + check_wrapper)."""

import json
from dataclasses import asdict

import pytest

from repro.core.mse import build_wrapper
from repro.core.verify import _section_dinr_key, check_wrapper
from repro.htmlmod import MAX_NESTING_DEPTH, NestingDepthError, parse_html
from repro.perf.kernels import DINR_MEMO, clear_kernel_caches
from repro.perf.serve import PageIndex, build_page_index, compile_wrapper
from repro.render.layout import render_page
from tests.helpers import (
    all_leaf_line_range,
    make_records,
    render,
    sample_pages,
    simple_result_page,
)


@pytest.fixture(scope="module")
def engine():
    pages = sample_pages(
        ("apple", "banana", "cherry"), [("Web", 4), ("News", 3)]
    )
    return build_wrapper(pages)


@pytest.fixture(scope="module")
def compiled(engine):
    return compile_wrapper(engine)


def unseen_pages():
    pages = [
        (
            simple_result_page(
                query,
                [
                    ("Web", make_records("Web", count, query)),
                    ("News", make_records("News", 3, query)),
                ],
            ),
            query,
        )
        for query, count in (("durian", 6), ("elderberry", 2), ("fig", 5))
    ]
    # A page with one section legitimately absent, and a drifted layout.
    pages.append(
        (
            simple_result_page(
                "grape", [("Web", make_records("Web", 4, "grape"))]
            ),
            "grape",
        )
    )
    pages.append(
        (
            "<html><body><table><tr><td>totally different "
            "layout</td></tr></table></body></html>",
            "kiwi",
        )
    )
    return pages


def extraction_doc(extraction):
    return json.dumps(asdict(extraction), sort_keys=True)


# -- the page index handle --------------------------------------------------


class TestPageIndex:
    def page(self):
        markup, _ = unseen_pages()[0]
        return render(markup)

    def test_span_of_matches_line_range(self):
        """Spans seen through an index are the page's element spans."""
        page = self.page()
        index = PageIndex(page)
        for node in page.document.root.iter_elements():
            assert index.page.line_range_of_element(node) == (
                all_leaf_line_range(page, node)
            )

    def test_span_of_cached(self):
        page = self.page()
        element = page.document.root
        first = PageIndex(page).page.line_range_of_element(element)
        assert page.line_range_of_element(element) is first


# -- compiled == interpreted parity -----------------------------------------


class TestCompiledParity:
    def test_extract_identical_on_unseen_pages(self, engine, compiled):
        for markup, query in unseen_pages():
            reference = engine.extract(markup, query)
            fast = compiled.extract(markup, query)
            assert extraction_doc(fast) == extraction_doc(reference)

    def test_serve_health_identical_to_check_wrapper(self, engine, compiled):
        for markup, query in unseen_pages():
            reference = check_wrapper(engine, markup, query)
            served = compiled.serve(markup, query)
            assert json.dumps(
                served.health.to_obj(), sort_keys=True
            ) == json.dumps(reference.to_obj(), sort_keys=True)

    def test_parity_on_evolved_pages(self, engine, compiled):
        """Parity holds as the engine's markup drifts (S4).

        Each mutation models one template evolution: extra chrome before
        the sections, a wrapper div pushing every path one level deeper,
        reordered sections, and records stripped down mid-page.
        """
        base, query = unseen_pages()[0]
        mutations = [
            base.replace(
                "<body>", "<body><div id='banner'><span>Ad</span></div>", 1
            ),
            base.replace("<body>", "<body><div class='wrap'>", 1).replace(
                "</body>", "</div></body>", 1
            ),
            base.replace("<h2>Web</h2>", "<h2>Shopping</h2>", 1),
            base.replace("<ul>", "<ul><li>sponsored filler</li>", 1),
            base.replace("<br>", " - ", 20),
        ]
        for markup in mutations:
            reference = engine.extract(markup, query)
            fast = compiled.extract(markup, query)
            assert extraction_doc(fast) == extraction_doc(reference)
            reference_health = check_wrapper(engine, markup, query)
            served = compiled.serve(markup, query)
            assert json.dumps(
                served.health.to_obj(), sort_keys=True
            ) == json.dumps(reference_health.to_obj(), sort_keys=True)

    def test_serve_index_reuses_one_render(self, engine, compiled):
        markup, query = unseen_pages()[0]
        index = build_page_index(markup, query)
        served = compiled.serve_index(index)
        assert extraction_doc(served.extraction) == extraction_doc(
            engine.extract(markup, query)
        )


# -- process-wide caches -----------------------------------------------------


class TestGenerationGuards:
    """Clearing the process-wide kernel caches never changes a result."""

    def test_compiled_wrapper_self_heals_after_clear(self, engine, compiled):
        markup, query = unseen_pages()[0]
        before = compiled.serve(markup, query)
        clear_kernel_caches()
        after = compiled.serve(markup, query)
        assert after == before
        assert extraction_doc(engine.extract(markup, query)) == (
            extraction_doc(after.extraction)
        )


# -- the parser's nesting budget ----------------------------------------------


def nest(markup, levels):
    """``markup`` with its body content wrapped in ``levels`` divs."""
    return markup.replace("<body>", "<body>" + "<div>" * levels, 1).replace(
        "</body>", "</div>" * levels + "</body>", 1
    )


class TestNestingBudget:
    # simple_result_page nests html > body > ul > li > a: wrapping the
    # body content in this many divs puts its <a> at the budget exactly.
    AT_BUDGET = MAX_NESTING_DEPTH - 5

    def test_pages_at_the_budget_induce_and_serve(self):
        pages = [
            (nest(markup, self.AT_BUDGET), query)
            for markup, query in sample_pages(
                ("apple", "banana", "cherry"), [("Web", 4), ("News", 3)]
            )
        ]
        document = parse_html(pages[0][0])
        assert max(
            len(list(element.ancestors())) + 1
            for element in document.root.iter_elements()
        ) == MAX_NESTING_DEPTH
        assert render_page(document).lines
        engine = build_wrapper(pages)
        markup, query = pages[0]
        served = compile_wrapper(engine).serve(markup, query)
        assert len(served.extraction.sections) == 2
        assert extraction_doc(served.extraction) == extraction_doc(
            engine.extract(markup, query)
        )

    def test_one_level_past_the_budget_raises_typed_error(self, engine):
        markup, query = unseen_pages()[0]
        too_deep = nest(markup, self.AT_BUDGET + 1)
        attempts = [
            lambda page: parse_html(page),
            lambda page: build_wrapper([(page, query), (page, query)]),
            lambda page: engine.extract(page, query),
            lambda page: check_wrapper(engine, page, query),
            lambda page: compile_wrapper(engine).serve(page, query),
        ]
        for page in (too_deep, "<div>" * 5000):
            for attempt in attempts:
                with pytest.raises(NestingDepthError):
                    attempt(page)
        assert issubclass(NestingDepthError, ValueError)


# -- the section-homogeneity memo key ---------------------------------------


class TestSectionDinrKey:
    def served_instances(self, engine, compiled):
        markup, query = unseen_pages()[0]
        index = build_page_index(markup, query)
        apps = compiled.apply_to_index(index)
        return [i for i in apps.wrapper_instances if i is not None]

    def test_key_is_page_independent(self, engine, compiled):
        """The same section line-up on two renders keys identically.

        The key must not capture object identities: serving re-renders
        every page, so a key that varied across renders would never hit.
        """
        markup, query = unseen_pages()[0]
        keys = []
        for _ in range(2):
            index = build_page_index(markup, query)
            apps = compiled.apply_to_index(index)
            keys.append(
                tuple(
                    _section_dinr_key(engine.config, instance)
                    for instance in apps.wrapper_instances
                    if instance is not None and len(instance.records) >= 2
                )
            )
        assert keys[0] == keys[1]
        assert keys[0]  # the fixture pages do have multi-record sections

    def test_distinct_sections_key_differently(self, engine, compiled):
        instances = self.served_instances(engine, compiled)
        keys = [
            _section_dinr_key(engine.config, instance)
            for instance in instances
        ]
        assert len(set(keys)) == len(keys)

    def test_memo_hit_returns_exact_dinr(self, engine):
        """A DINR_MEMO hit equals the freshly computed homogeneity."""
        compiled = compile_wrapper(engine)
        markup, query = unseen_pages()[0]
        clear_kernel_caches()
        cold = compiled.serve(markup, query).health
        hits_before = DINR_MEMO.hits
        warm = compiled.serve(markup, query).health
        assert DINR_MEMO.hits > hits_before
        assert json.dumps(warm.to_obj(), sort_keys=True) == json.dumps(
            cold.to_obj(), sort_keys=True
        )


# -- monitor integration ------------------------------------------------------


class TestMonitorServing:
    def test_serve_page_matches_interpreted_pair(self, engine):
        from repro.monitor import WrapperMonitor

        monitor = WrapperMonitor(engine)
        markup, query = unseen_pages()[0]
        served = monitor.serve_page(markup, query)
        assert extraction_doc(served.extraction) == extraction_doc(
            engine.extract(markup, query)
        )
        assert json.dumps(
            served.health.to_obj(), sort_keys=True
        ) == json.dumps(
            check_wrapper(engine, markup, query).to_obj(), sort_keys=True
        )
