"""End-to-end MSE tests: induction + extraction scenarios."""

import pytest

from repro.core.model import PageExtraction
from repro.core.mse import MSE, MSEConfig, build_wrapper
from tests.helpers import make_records, sample_pages, simple_result_page


def induce(plan, queries=("apple", "banana", "cherry")):
    return build_wrapper(sample_pages(queries, plan))


class TestInduction:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            build_wrapper([("<html><body></body></html>", "q")])

    def test_single_section_engine(self):
        engine = induce([("Web", 4)])
        assert len(engine.wrappers) >= 1

    def test_multi_section_engine(self):
        engine = induce([("Web", 4), ("News", 3), ("Images", 2)])
        lbms = {t for w in engine.wrappers for t in w.lbm_texts}
        assert {"web", "news", "images"} <= lbms

    def test_accepts_bare_html_strings(self):
        pages = [html for html, _ in sample_pages(("apple", "banana"), [("Web", 4)])]
        engine = build_wrapper(pages)
        assert engine.wrappers

    def test_from_samples_accepts_strings_and_pairs(self):
        from repro.obs import NULL_OBSERVER
        from repro.pipeline import InductionContext

        ctx = InductionContext.from_samples(
            ["<p>a</p>", ("<p>b</p>", "q")], MSEConfig(), NULL_OBSERVER
        )
        assert ctx.samples == [("<p>a</p>", ""), ("<p>b</p>", "q")]
        assert ctx.queries == ["", "q"]


class TestExtraction:
    def test_extraction_on_training_page(self):
        pages = sample_pages(("apple", "banana", "cherry"), [("Web", 4)])
        engine = build_wrapper(pages)
        extraction = engine.extract(*pages[0])
        assert isinstance(extraction, PageExtraction)
        assert len(extraction) == 1
        assert len(extraction.sections[0]) == 4

    def test_extraction_on_unseen_page_with_different_count(self):
        engine = induce([("Web", 4)])
        html = simple_result_page("durian", [("Web", make_records("Web", 7, "durian"))])
        extraction = engine.extract(html, "durian")
        assert extraction.record_count == 7

    def test_single_record_section_extracted(self):
        # the record-count strength of the method: even one record works
        engine = induce([("Web", 5), ("News", 2)], ("apple", "banana", "cherry"))
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 4, "durian")),
                ("News", make_records("News", 1, "durian")),
            ],
        )
        extraction = engine.extract(html, "durian")
        news = [s for s in extraction.sections if s.lbm_text == "News"]
        assert news and len(news[0]) == 1

    def test_absent_section_not_extracted(self):
        engine = induce([("Web", 4), ("News", 3)])
        html = simple_result_page("durian", [("Web", make_records("Web", 4, "durian"))])
        extraction = engine.extract(html, "durian")
        assert all(s.lbm_text != "News" for s in extraction.sections)

    def test_section_record_relationship_kept(self):
        engine = induce([("Web", 3), ("News", 3)])
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 2, "durian")),
                ("News", make_records("News", 5, "durian")),
            ],
        )
        extraction = engine.extract(html, "durian")
        counts = sorted(len(s) for s in extraction.sections)
        assert counts == [2, 5]
        assert extraction.record_count == 7

    def test_record_text_content(self):
        engine = induce([("Web", 4)])
        html = simple_result_page("durian", [("Web", make_records("Web", 3, "durian"))])
        extraction = engine.extract(html, "durian")
        first = extraction.sections[0].records[0]
        assert "result 0" in first.text
        assert first.lines  # per-line texts available

    def test_no_sections_on_empty_page(self):
        engine = induce([("Web", 4)])
        extraction = engine.extract("<html><body><p>maintenance</p></body></html>")
        assert len(extraction) == 0


class TestConfigSwitches:
    PAGES = sample_pages(("apple", "banana", "cherry"), [("Web", 5)])

    def test_no_refinement_mode_runs(self):
        engine = build_wrapper(self.PAGES, MSEConfig(use_refinement=False))
        extraction = engine.extract(*self.PAGES[0])
        assert extraction.record_count >= 3

    def test_no_granularity_mode_runs(self):
        engine = build_wrapper(self.PAGES, MSEConfig(use_granularity=False))
        assert engine.extract(*self.PAGES[0]).record_count >= 3

    def test_per_child_mining_mode_runs(self):
        engine = build_wrapper(self.PAGES, MSEConfig(mining_strategy="per-child"))
        assert engine.wrappers is not None

    def test_full_default_config(self):
        config = MSEConfig()
        assert config.use_families and config.use_refinement and config.use_granularity
        assert config.mining_strategy == "cohesion"


class TestAblationCounts:
    """Pin the ablation branches' section/record counts.

    ``use_refinement=False`` takes the mre-raw bypass (trust raw MRs,
    pending = DSs with no MR overlap); ``mining_strategy="per-child"``
    swaps Formula-7 cohesion for the finest tag partition in the mine
    stage.  Both paths were previously untested beyond "runs".
    """

    TWO_SECTIONS = sample_pages(
        ("apple", "banana", "cherry"), [("Web", 5), ("News", 2)]
    )

    def test_no_refinement_sections_are_raw_mrs(self):
        mse = MSE(MSEConfig(use_refinement=False))
        per_page = mse.analyze_pages(self.TWO_SECTIONS)
        # Raw MRE merges the adjacent Web and News runs into one 7-record
        # MR on every page; nothing is left pending for the miner.
        assert [
            [(s.origin, len(s.records)) for s in page] for page in per_page
        ] == [[("mre-raw", 7)]] * 3

    def test_no_refinement_collapses_sections_into_one_wrapper(self):
        engine = build_wrapper(
            self.TWO_SECTIONS, MSEConfig(use_refinement=False)
        )
        assert len(engine.wrappers) == 1
        assert engine.wrappers[0].typical_records == 7

    def test_refinement_splits_what_raw_mre_merges(self):
        # The control: with refinement on, the same pages yield the two
        # true sections — the §5.3 behaviour the ablation removes.
        engine = build_wrapper(self.TWO_SECTIONS, MSEConfig())
        assert sorted(w.typical_records for w in engine.wrappers) == [2, 5]
        extraction = engine.extract(*self.TWO_SECTIONS[0])
        assert len(extraction) == 2
        assert extraction.record_count == 7

    def test_per_child_matches_cohesion_when_nothing_pending(self):
        # Refinement leaves no pending DS on this corpus, so the mining
        # strategy never fires and both configs pin to the same counts.
        mse = MSE(MSEConfig(mining_strategy="per-child"))
        per_page = mse.analyze_pages(self.TWO_SECTIONS)
        assert [
            [(s.origin, len(s.records)) for s in page] for page in per_page
        ] == [[("refine", 5), ("refine", 2)]] * 3
        engine = build_wrapper(
            self.TWO_SECTIONS, MSEConfig(mining_strategy="per-child")
        )
        assert sorted(w.typical_records for w in engine.wrappers) == [2, 5]

    def test_mine_stage_dispatches_by_strategy(self):
        # Drive the mine step directly with a pending single-record DS:
        # cohesion keeps it whole, per-child fragments it.
        from repro.core.dse import DynamicSection
        from repro.pipeline import InductionContext, mine
        from tests.helpers import render

        page = render(
            "<html><body><div>"
            "<a href='/1'>only title here</a><br>the single snippet<br>"
            "<font color='green'>http://example.com/x</font>"
            "</div></body></html>"
        )
        counts = {}
        for strategy in ("cohesion", "per-child"):
            ctx = InductionContext.from_pages(
                [page], ["q"], MSEConfig(mining_strategy=strategy)
            )
            ctx.sections = [[]]
            ctx.pending = [[DynamicSection(page, 0, 2)]]
            mine(ctx)
            mined = ctx.sections[0]
            assert [s.origin for s in mined] == ["mined"]
            counts[strategy] = [len(s.records) for s in mined]
        assert counts == {"cohesion": [1], "per-child": [2]}


class TestDifferentLayouts:
    WORDS = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
        "hotel", "india", "juliet", "kilo", "lima",
    ]

    def words(self, query, n):
        # Words vary with the query (as real result content does); without
        # this, cleaned titles would be identical on every page and DSE
        # would correctly classify them as template text.
        salt = sum(ord(c) for c in query)
        return [self.WORDS[(salt + 2 * i) % len(self.WORDS)] for i in range(n)]

    def test_table_layout_engine(self):
        def page(query, n):
            rows = "".join(
                f"<tr><td><a href='/{i}'>{w} {query} title {i}</a></td>"
                f"<td>cell snippet {w} body</td></tr>"
                for i, w in enumerate(self.words(query, n))
            )
            return (
                f"<html><body><h1>Engine</h1><p>Results for {query}</p>"
                f"<h2>Found</h2><table><tbody>{rows}</tbody></table>"
                f"<p>Copyright</p></body></html>"
            )

        engine = build_wrapper(
            [(page("apple", 4), "apple"), (page("banana", 5), "banana"),
             (page("cherry", 4), "cherry")]
        )
        extraction = engine.extract(page("durian", 3), "durian")
        assert extraction.record_count == 3

    def test_flat_br_layout_engine(self):
        def page(query, n):
            body = "".join(
                f"<a href='/{i}'>{w} {query} title</a><br>flat snippet {w}<br>"
                for i, w in enumerate(self.words(query, n))
            )
            return (
                f"<html><body><h1>Engine</h1><h2>Results</h2>"
                f"<div>{body}</div><p>Copyright</p></body></html>"
            )

        engine = build_wrapper(
            [(page("apple", 4), "apple"), (page("banana", 5), "banana"),
             (page("cherry", 4), "cherry")]
        )
        extraction = engine.extract(page("durian", 3), "durian")
        assert extraction.record_count == 3
