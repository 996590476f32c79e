"""Section wrapper construction & application tests (§5.7)."""

from repro.core.dse import clean_page_lines
from repro.core.grouping import InstanceGroup, group_section_instances
from repro.core.mse import MSE
from repro.core.wrapper import (
    EngineWrapper,
    SeparatorRule,
    apply_section_wrapper,
    build_section_wrapper,
    partition_subtree_records,
)
from repro.htmlmod.parser import parse_html
from repro.render.layout import render_page
from tests.helpers import make_records, render, sample_pages, simple_result_page


def induced_wrappers(plan, queries=("apple", "banana", "cherry")):
    sections = MSE().analyze_pages(sample_pages(queries, plan))
    groups = group_section_instances(sections)
    wrappers = []
    for index, group in enumerate(groups):
        wrapper = build_section_wrapper(group, schema_id=f"S{index}")
        if wrapper is not None:
            wrappers.append(wrapper)
    return wrappers


class TestBuild:
    def test_wrapper_built_for_schema(self):
        wrappers = induced_wrappers([("Web", 4)])
        assert len(wrappers) >= 1
        w = wrappers[0]
        assert w.pref.tags[-1] == "ul"
        assert w.separator == SeparatorRule("child-start", "li")

    def test_lbm_texts_recorded(self):
        (w, *_) = induced_wrappers([("Web", 4)])
        assert "web" in w.lbm_texts

    def test_markers_outside_subtree(self):
        (w, *_) = induced_wrappers([("Web", 4)])
        assert not w.markers_inside

    def test_record_attrs_collected(self):
        (w, *_) = induced_wrappers([("Web", 4)])
        assert w.record_attrs  # title + snippet attrs

    def test_typical_records(self):
        (w, *_) = induced_wrappers([("Web", 4)])
        assert 3 <= w.typical_records <= 5


class TestApplication:
    def test_extracts_on_unseen_page(self):
        wrappers = induced_wrappers([("Web", 4)])
        html = simple_result_page("durian", [("Web", make_records("Web", 6, "durian"))])
        page = render(html)
        clean_page_lines(page, ["durian"])
        instance = apply_section_wrapper(wrappers[0], page)
        assert instance is not None
        assert len(instance.records) == 6

    def test_absent_schema_returns_none(self):
        wrappers = induced_wrappers([("Web", 4)])
        page = render("<html><body><p>nothing here</p></body></html>")
        clean_page_lines(page, [])
        assert apply_section_wrapper(wrappers[0], page) is None

    def test_marker_bounding_clips_foreign_records(self):
        # Build a wrapper whose pref resolves to a subtree containing two
        # sections; the markers must clip to the right one.
        wrappers = induced_wrappers([("Web", 4), ("News", 4)])
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 3, "durian")),
                ("News", make_records("News", 5, "durian")),
            ],
        )
        page = render(html)
        clean_page_lines(page, ["durian"])
        by_lbm = {next(iter(w.lbm_texts), ""): w for w in wrappers}
        web = apply_section_wrapper(by_lbm["web"], page)
        news = apply_section_wrapper(by_lbm["news"], page)
        assert web is not None and len(web.records) == 3
        assert news is not None and len(news.records) == 5
        assert web.end < news.start


class TestPartitionSubtreeRecords:
    PAGE = render(
        "<html><body><ul>"
        "<li><a href='/1'>alpha</a><br>sn a</li>"
        "<li><a href='/2'>bravo</a><br>sn b</li>"
        "</ul></body></html>"
    )

    def test_child_start(self):
        ul = self.PAGE.document.body.find("ul")
        records = partition_subtree_records(
            self.PAGE, ul, SeparatorRule("child-start", "li")
        )
        assert [(r.start, r.end) for r in records] == [(0, 1), (2, 3)]

    def test_per_child(self):
        ul = self.PAGE.document.body.find("ul")
        records = partition_subtree_records(self.PAGE, ul, SeparatorRule("per-child"))
        assert len(records) == 2

    def test_whole(self):
        ul = self.PAGE.document.body.find("ul")
        records = partition_subtree_records(self.PAGE, ul, SeparatorRule("whole"))
        assert [(r.start, r.end) for r in records] == [(0, 3)]

    def test_empty_subtree(self):
        page = render("<html><body><div></div><p>x</p></body></html>")
        div = page.document.body.find("div")
        assert partition_subtree_records(page, div, SeparatorRule("whole")) == []


class TestEngineWrapper:
    def test_extract_page_order(self):
        wrapper = EngineWrapper([])
        extraction = wrapper.extract("<html><body><p>x</p></body></html>")
        assert len(extraction) == 0

    def test_repr(self):
        assert "schemas=0" in repr(EngineWrapper([]))

    def test_dedup_prefers_confirmed_instances(self):
        from repro.core.wrapper import _dedup_instances
        from repro.core.model import SectionInstance
        from repro.features.blocks import Block

        page = render(
            "<html><body><p>a</p><p>b</p><p>c</p><p>d</p></body></html>"
        )
        confirmed = SectionInstance(
            page=page, block=Block(page, 1, 2), records=[Block(page, 1, 2)], score=2.0
        )
        monster = SectionInstance(
            page=page, block=Block(page, 0, 3), records=[Block(page, 0, 3)], score=0.0
        )
        kept = _dedup_instances([("big", monster), ("good", confirmed)])
        assert [k[0] for k in kept] == ["good"]

    def test_dedup_keeps_non_overlapping(self):
        from repro.core.wrapper import _dedup_instances
        from repro.core.model import SectionInstance
        from repro.features.blocks import Block

        page = render(
            "<html><body><p>a</p><p>b</p><p>c</p><p>d</p></body></html>"
        )
        first = SectionInstance(
            page=page, block=Block(page, 0, 1), records=[Block(page, 0, 1)]
        )
        second = SectionInstance(
            page=page, block=Block(page, 2, 3), records=[Block(page, 2, 3)]
        )
        kept = _dedup_instances([("a", first), ("b", second)])
        assert len(kept) == 2


class TestDedupTieBreaks:
    """The overlap-resolution order is part of the extraction contract.

    ``_dedup_instances`` resolves overlapping claims by score, then
    record count, then span length, then earlier start — these tests pin
    each tie-break level so a reordering (e.g. in the sweep-line
    rewrite) cannot silently change which section wins.
    """

    def page(self):
        return render(
            "<html><body>"
            + "".join(f"<p>line {i}</p>" for i in range(8))
            + "</body></html>"
        )

    def instance(self, page, start, end, n_records, score=0.0):
        from repro.core.model import SectionInstance
        from repro.features.blocks import Block

        width = (end - start + 1) // n_records
        records = [
            Block(
                page,
                start + i * width,
                start + (i + 1) * width - 1 if i < n_records - 1 else end,
            )
            for i in range(n_records)
        ]
        return SectionInstance(
            page=page,
            block=Block(page, start, end),
            records=records,
            score=score,
        )

    def kept_ids(self, instances):
        from repro.core.wrapper import _dedup_instances

        return [schema_id for schema_id, _ in _dedup_instances(instances)]

    def test_score_beats_record_count(self):
        page = self.page()
        scored = self.instance(page, 0, 3, 1, score=2.0)
        finer = self.instance(page, 0, 3, 4, score=0.0)
        assert self.kept_ids([("finer", finer), ("scored", scored)]) == [
            "scored"
        ]

    def test_record_count_beats_span_length(self):
        page = self.page()
        fine = self.instance(page, 0, 3, 4, score=1.0)
        coarse = self.instance(page, 0, 5, 2, score=1.0)
        assert self.kept_ids([("coarse", coarse), ("fine", fine)]) == ["fine"]

    def test_span_length_beats_start(self):
        page = self.page()
        wide = self.instance(page, 1, 5, 2, score=1.0)
        narrow = self.instance(page, 0, 3, 2, score=1.0)
        assert self.kept_ids([("narrow", narrow), ("wide", wide)]) == ["wide"]

    def test_earlier_start_is_final_tie_break(self):
        page = self.page()
        late = self.instance(page, 3, 5, 3, score=1.0)
        early = self.instance(page, 1, 3, 3, score=1.0)
        assert self.kept_ids([("late", late), ("early", early)]) == ["early"]

    def test_loser_of_overlap_does_not_block_disjoint_instance(self):
        """A dropped overlapper must not shadow later disjoint claims."""
        page = self.page()
        winner = self.instance(page, 0, 5, 3, score=2.0)
        loser = self.instance(page, 4, 7, 2, score=1.0)
        tail = self.instance(page, 6, 7, 2, score=0.5)
        kept = self.kept_ids(
            [("tail", tail), ("loser", loser), ("winner", winner)]
        )
        assert kept == ["winner", "tail"]
