"""Tests for the observability subsystem (repro.obs)."""

import io
import json

import pytest

from repro.core.mse import MSE, build_wrapper
from repro.features.blocks import Block
from repro.features.record_distance import RecordDistanceCache
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    read_jsonl,
    render_metrics,
    render_report,
    render_tree,
)
from repro.testbed import load_engine_pages
from tests.helpers import render


class FakeClock:
    """Deterministic seconds source for timing assertions."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestSpans:
    def test_span_records_wall_time(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("stage"):
            clock.advance(1.5)
        (node,) = obs.spans()
        assert node.name == "stage"
        assert node.calls == 1
        assert node.seconds == pytest.approx(1.5)

    def test_span_nesting_builds_tree(self):
        obs = Observer(clock=FakeClock())
        with obs.span("refine"):
            with obs.span("case3"):
                pass
            with obs.span("case4"):
                pass
        paths = [node.path for node in obs.spans()]
        assert paths == ["refine", "refine/case3", "refine/case4"]

    def test_same_name_spans_aggregate(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        for _ in range(3):
            with obs.span("mine"):
                clock.advance(0.25)
        (node,) = obs.spans()
        assert node.calls == 3
        assert node.seconds == pytest.approx(0.75)

    def test_counters_attribute_to_innermost_span(self):
        obs = Observer(clock=FakeClock())
        with obs.span("outer"):
            obs.count("outer.items", 2)
            with obs.span("inner"):
                obs.count("inner.items", 5)
        outer, inner = obs.spans()
        assert outer.counters == {"outer.items": 2}
        assert inner.counters == {"inner.items": 5}
        # The registry aggregates both regardless of span.
        assert obs.metrics.counters == {"outer.items": 2, "inner.items": 5}

    def test_counter_aggregation_across_calls(self):
        obs = Observer(clock=FakeClock())
        for amount in (1, 2, 3):
            with obs.span("dse"):
                obs.count("dse.csbms", amount)
        (node,) = obs.spans()
        assert node.counters == {"dse.csbms": 6}
        assert obs.metrics.counters["dse.csbms"] == 6


class TestMetricsRegistry:
    def test_count_gauge_observe(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        registry.gauge("g", 0.5)
        registry.observe("t", 0.1)
        registry.observe("t", 0.3)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["timings"]["t"]["count"] == 2
        assert snap["timings"]["t"]["total"] == pytest.approx(0.4)
        assert snap["timings"]["t"]["mean"] == pytest.approx(0.2)
        assert snap["timings"]["t"]["min"] == pytest.approx(0.1)
        assert snap["timings"]["t"]["max"] == pytest.approx(0.3)


class TestDisabledMode:
    def test_null_observer_is_noop(self):
        obs = NULL_OBSERVER
        assert obs.enabled is False
        with obs.span("anything"):
            obs.count("x")
            obs.gauge("g", 1)
            obs.observe("t", 0.1)
        # No state anywhere to assert on — the calls simply must not fail
        # and must not allocate per-call (the span is a shared singleton).
        assert obs.span("a") is obs.span("b")

    def test_pipeline_accepts_null_observer(self):
        engine_pages = load_engine_pages(3)
        wrapper = MSE(obs=NULL_OBSERVER).build_wrapper(engine_pages.sample_set)
        assert wrapper.wrappers


class TestJsonlRoundTrip:
    def _traced_observer(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("mre"):
            clock.advance(0.5)
            obs.count("mre.sections", 4)
        with obs.span("refine"):
            with obs.span("grow"):
                clock.advance(0.25)
        obs.gauge("record_distance_cache.hit_rate", 0.75)
        return obs

    def test_round_trip(self, tmp_path):
        obs = self._traced_observer()
        path = str(tmp_path / "trace.jsonl")
        obs.write_jsonl(path)
        doc = read_jsonl(path)
        assert doc["format"] == "repro-obs-trace"
        assert doc["spans"] == obs.stats()["spans"]
        assert doc["metrics"] == obs.metrics.snapshot()

    def test_round_trip_via_stream(self):
        obs = self._traced_observer()
        buffer = io.StringIO()
        obs.write_jsonl(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert all(json.loads(line) for line in lines)
        doc = read_jsonl(io.StringIO(buffer.getvalue()))
        assert [span["path"] for span in doc["spans"]] == [
            "mre",
            "refine",
            "refine/grow",
        ]

    def test_read_rejects_foreign_jsonl(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"event": "other"}\n')
        with pytest.raises(ValueError):
            read_jsonl(str(path))


class TestReport:
    def test_tree_and_metrics_render(self):
        clock = FakeClock()
        obs = Observer(clock=clock)
        with obs.span("dse"):
            clock.advance(0.1)
            obs.count("dse.csbms", 7)
        obs.gauge("hit_rate", 0.5)
        tree = render_tree(obs)
        assert "dse" in tree and "dse.csbms=7" in tree
        metrics = render_metrics(obs)
        assert "hit_rate" in metrics
        report = render_report(obs, "t")
        assert report.startswith("t (calls")

    def test_empty_observer_renders(self):
        obs = Observer(clock=FakeClock())
        assert "(no spans recorded)" in render_tree(obs)


PIPELINE_STAGES = (
    "render", "mre", "dse", "refine", "mine",
    "granularity", "grouping", "wrapper", "families",
)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def traced_induction(self):
        obs = Observer()
        engine_pages = load_engine_pages(85)
        wrapper = build_wrapper(engine_pages.sample_set, obs=obs)
        return obs, wrapper

    def test_one_span_per_pipeline_stage(self, traced_induction):
        obs, _ = traced_induction
        top_level = {node.name: node for node in obs.root.children.values()}
        assert set(top_level) == set(PIPELINE_STAGES)
        for node in top_level.values():
            assert node.calls == 1
            assert node.seconds >= 0.0

    def test_stage_counters_recorded(self, traced_induction):
        obs, wrapper = traced_induction
        counters = obs.metrics.counters
        assert counters["render.pages"] == 5
        assert counters["render.lines"] > 0
        assert counters["mre.sections"] > 0
        assert counters["dse.csbms"] > 0
        assert counters["refine.sections"] > 0
        assert counters["grouping.groups"] >= len(wrapper.wrappers)
        assert counters["wrapper.schemas"] == len(wrapper.wrappers)

    def test_cache_hit_rate_reported(self, traced_induction):
        obs, _ = traced_induction
        gauges = obs.metrics.gauges
        assert "record_distance_cache.hit_rate" in gauges
        assert 0.0 <= gauges["record_distance_cache.hit_rate"] <= 1.0
        assert gauges["record_distance_cache.hits"] + gauges[
            "record_distance_cache.misses"
        ] == obs.metrics.counters["cache.hits"] + obs.metrics.counters[
            "cache.misses"
        ]

    def test_extraction_spans(self):
        engine_pages = load_engine_pages(3)
        wrapper = build_wrapper(engine_pages.sample_set)
        obs = Observer()
        markup, query = engine_pages.test_set[0]
        extraction = wrapper.extract(markup, query, obs=obs)
        names = {node.name for node in obs.spans()}
        assert {"render", "families", "wrappers"} <= names
        assert obs.metrics.counters["extract.sections"] == len(extraction)

    def test_traced_run_matches_untraced(self):
        engine_pages = load_engine_pages(7)
        plain = build_wrapper(engine_pages.sample_set)
        traced = build_wrapper(engine_pages.sample_set, obs=Observer())
        markup, query = engine_pages.test_set[0]
        result_plain = plain.extract(markup, query)
        result_traced = traced.extract(markup, query)
        assert [s.line_span for s in result_plain.sections] == [
            s.line_span for s in result_traced.sections
        ]


class TestRecordDistanceCacheStats:
    def test_repeated_lookups_hit_the_cache(self):
        page = render(
            "<html><body>"
            "<p><a href='/a'>alpha</a> one</p>"
            "<p><a href='/b'>beta</a> two</p>"
            "</body></html>"
        )
        cache = RecordDistanceCache()
        b1 = Block(page, 0, 0)
        b2 = Block(page, 1, 1)
        first = cache.distance(b1, b2)
        assert (cache.hits, cache.misses) == (0, 1)
        # Same pair again, both orders: served from the cache.
        assert cache.distance(b1, b2) == first
        assert cache.distance(b2, b1) == first
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.hit_rate == pytest.approx(2 / 3)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 2

    def test_average_to_group_counts_lookups(self):
        page = render(
            "<html><body>"
            "<p><a href='/a'>alpha</a></p>"
            "<p><a href='/b'>beta</a></p>"
            "<p><a href='/c'>gamma</a></p>"
            "</body></html>"
        )
        cache = RecordDistanceCache()
        blocks = [Block(page, i, i) for i in range(3)]
        cache.average_to_group(blocks[0], blocks[1:])
        assert cache.misses == 2
        cache.average_to_group(blocks[0], blocks[1:])
        assert cache.hits == 2

    def test_fresh_cache_rate_is_zero(self):
        assert RecordDistanceCache().hit_rate == 0.0


class TestMergeStats:
    def test_metrics_merge_snapshot(self):
        source = MetricsRegistry()
        source.count("items", 3)
        source.gauge("rate", 0.5)
        source.observe("lap", 1.0)
        source.observe("lap", 3.0)

        target = MetricsRegistry()
        target.count("items", 2)
        target.observe("lap", 2.0)
        target.merge_snapshot(source.snapshot())

        snap = target.snapshot()
        assert snap["counters"]["items"] == 5
        assert snap["gauges"]["rate"] == 0.5
        lap = snap["timings"]["lap"]
        assert lap["count"] == 3
        assert lap["total"] == 6.0
        assert lap["min"] == 1.0 and lap["max"] == 3.0

    def test_merge_snapshot_empty_timing_keeps_min(self):
        target = MetricsRegistry()
        target.observe("lap", 2.0)
        target.merge_snapshot(
            {"timings": {"lap": {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}}}
        )
        assert target.timings["lap"].min == 2.0

    def test_observer_merge_stats_grafts_span_tree(self):
        worker = Observer(clock=FakeClock())
        with worker.span("build"):
            with worker.span("mre"):
                worker.count("mre.sections", 2)

        parent = Observer(clock=FakeClock())
        with parent.span("build"):
            with parent.span("mre"):
                parent.count("mre.sections", 1)
        parent.merge_stats(worker.stats())
        parent.merge_stats(worker.stats())

        by_path = {node.path: node for node in parent.spans()}
        assert by_path["build"].calls == 3
        mre = by_path["build/mre"]
        assert mre.calls == 3
        assert mre.counters["mre.sections"] == 5
        assert parent.metrics.counters["mre.sections"] == 5

    def test_merge_stats_into_empty_observer(self):
        worker = Observer(clock=FakeClock())
        with worker.span("render"):
            pass
        parent = Observer()
        parent.merge_stats(worker.stats())
        assert [node.path for node in parent.spans()] == ["render"]

    def test_merge_snapshot_empty_snapshot_is_noop(self):
        target = MetricsRegistry()
        target.count("items", 2)
        target.gauge("rate", 0.5)
        target.observe("lap", 1.0)
        before = target.snapshot()
        target.merge_snapshot({})
        target.merge_snapshot({"counters": {}, "gauges": {}, "timings": {}})
        assert target.snapshot() == before

    def test_merge_snapshot_disjoint_keys_union(self):
        target = MetricsRegistry()
        target.count("a", 1)
        target.observe("t1", 1.0)
        source = MetricsRegistry()
        source.count("b", 2)
        source.gauge("g", 9.0)
        source.observe("t2", 2.0)
        target.merge_snapshot(source.snapshot())
        snap = target.snapshot()
        assert snap["counters"] == {"a": 1, "b": 2}
        assert snap["gauges"] == {"g": 9.0}
        assert set(snap["timings"]) == {"t1", "t2"}
        assert snap["timings"]["t2"]["total"] == 2.0

    def test_merge_snapshot_repeated_merges_accumulate(self):
        source = MetricsRegistry()
        source.count("items", 3)
        source.observe("lap", 2.0)
        snapshot = source.snapshot()
        target = MetricsRegistry()
        for _ in range(3):
            target.merge_snapshot(snapshot)
        snap = target.snapshot()
        assert snap["counters"]["items"] == 9
        assert snap["timings"]["lap"]["count"] == 3
        assert snap["timings"]["lap"]["total"] == 6.0
        assert snap["timings"]["lap"]["min"] == 2.0
        assert snap["timings"]["lap"]["max"] == 2.0

    def test_rewritten_parent_carries_nested_children(self):
        # A harness nests a worker's spans under a host span by rewriting
        # only the *top-level* docs' parent; nested docs still name their
        # worker-relative parents and must follow the relocated subtree.
        worker = Observer(clock=FakeClock())
        with worker.span("mre"):
            with worker.span("sub"):
                worker.count("sub.items", 3)
        stats = worker.stats()
        for doc in stats["spans"]:
            if doc["parent"] == "":
                doc["parent"] = "fanout"

        host = Observer(clock=FakeClock())
        with host.span("fanout"):
            pass
        host.merge_stats(stats)
        assert [node.path for node in host.spans()] == [
            "fanout",
            "fanout/mre",
            "fanout/mre/sub",
        ]
        by_path = {node.path: node for node in host.spans()}
        assert by_path["fanout/mre/sub"].counters["sub.items"] == 3

    def test_grafted_spans_survive_jsonl_round_trip(self):
        # write -> read -> merge -> render_tree must keep the grafted
        # hierarchy: one tree rooted at the host span, no phantom roots.
        clock = FakeClock()
        worker = Observer(clock=clock)
        with worker.span("mre"):
            clock.advance(0.25)
            with worker.span("sub"):
                clock.advance(0.5)
        stats = worker.stats()
        for doc in stats["spans"]:
            if doc["parent"] == "":
                doc["parent"] = "fanout"
        host = Observer(clock=FakeClock())
        with host.span("fanout"):
            pass
        host.merge_stats(stats)

        buffer = io.StringIO()
        host.write_jsonl(buffer)
        doc = read_jsonl(io.StringIO(buffer.getvalue()))
        fresh = Observer(clock=FakeClock())
        fresh.merge_stats(doc)
        assert [node.path for node in fresh.spans()] == [
            "fanout",
            "fanout/mre",
            "fanout/mre/sub",
        ]
        tree = render_tree(fresh)
        assert "fanout" in tree and "sub" in tree
        # A split tree would render a phantom top-level "mre" root.
        top_level = [n.name for n in fresh.root.children.values()]
        assert top_level == ["fanout"]


class TestZeroSpanReport:
    def test_render_report_with_zero_span_observer(self):
        obs = Observer(clock=FakeClock())
        obs.count("items", 2)
        report = render_report(obs, "empty run")
        assert report.startswith("empty run (calls")
        assert "(no spans recorded)" in report
        assert "items" in report

    def test_render_report_fresh_observer(self):
        report = render_report(Observer(clock=FakeClock()), "fresh")
        assert "(no spans recorded)" in report
        assert "(none)" in render_metrics(Observer(clock=FakeClock()))


class TestSpanParents:
    def test_span_dict_carries_parent(self):
        obs = Observer()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        docs = {d["name"]: d for d in (s.to_dict() for s in obs.spans())}
        assert docs["outer"]["parent"] == ""
        assert docs["inner"]["parent"] == "outer"

    def test_merge_stats_grafts_by_parent(self):
        worker = Observer()
        with worker.span("mre"):
            worker.count("mre.sections", 2)
        stats = worker.stats()
        # Rewrite the parent to nest the worker's top-level span.
        for span in stats["spans"]:
            span["parent"] = "fanout"

        host = Observer()
        with host.span("fanout"):
            pass
        host.merge_stats(stats)
        paths = {s.path for s in host.spans()}
        assert "fanout/mre" in paths
