"""End-to-end tests: template evolution, drift detection, self-healing."""

import json

import pytest

from repro.cli import main
from repro.core.mse import build_wrapper
from repro.monitor import MonitorConfig, WrapperMonitor
from repro.monitor.service import RETRY_EVERY
from repro.obs import Observer, read_health_events
from repro.testbed import (
    MUTATIONS,
    SAMPLE_PAGES,
    evolve_engine,
    load_evolving_pages,
    make_engine,
)

#: single-section engine with headers: textbook target for every mutation
TEXTBOOK_ENGINE = 3
#: multi-section engine with a noisy marker baseline: the hard case
NOISY_ENGINE = 90


def run_monitor(engine_id, mutation, heal=False, config=None, **load_kwargs):
    """Induce from pre-mutation samples, monitor the rest of the stream."""
    evolving = load_evolving_pages(engine_id, mutation, **load_kwargs)
    wrapper = build_wrapper(evolving.sample_set)
    cfg = config or MonitorConfig(heal=heal)
    monitor = WrapperMonitor(wrapper, cfg)
    for markup, query in evolving.stream(SAMPLE_PAGES):
        monitor.observe_page(markup, query)
    return monitor, evolving.truth


class TestTemplateEvolution:
    def test_registry_names(self):
        assert set(MUTATIONS) == {
            "marker_rewrite", "style_swap", "section_drop", "header_retag",
        }

    def test_deterministic_workload(self):
        first = load_evolving_pages(TEXTBOOK_ENGINE, "marker_rewrite")
        second = load_evolving_pages(TEXTBOOK_ENGINE, "marker_rewrite")
        assert first.pages == second.pages
        assert first.queries == second.queries

    def test_pages_change_exactly_at_mutate_at(self):
        evolving = load_evolving_pages(
            TEXTBOOK_ENGINE, "marker_rewrite", mutate_at=8, total_pages=16
        )
        pristine = evolving.engine
        mutated = evolving.mutated
        for index, query in enumerate(evolving.queries):
            expected = (
                pristine if index < 8 else mutated
            ).result_page(query)
            assert evolving.pages[index] == expected

    def test_sample_set_is_pre_mutation(self):
        evolving = load_evolving_pages(
            TEXTBOOK_ENGINE, "style_swap", mutate_at=3, total_pages=10
        )
        assert len(evolving.sample_set) == 3
        pristine_pages = [
            evolving.engine.result_page(q) for q in evolving.queries[:3]
        ]
        assert [page for page, _ in evolving.sample_set] == pristine_pages

    def test_original_engine_untouched(self):
        engine = make_engine(TEXTBOOK_ENGINE)
        topics = [spec.topic for spec in engine.sections]
        evolve_engine(engine, "marker_rewrite")
        assert [spec.topic for spec in engine.sections] == topics

    def test_marker_rewrite_changes_headers(self):
        engine = make_engine(TEXTBOOK_ENGINE)
        mutated = evolve_engine(engine, "marker_rewrite")
        assert all(
            spec.topic.startswith("Featured ") for spec in mutated.sections
        )

    def test_section_drop_removes_last_schema(self):
        engine = make_engine(NOISY_ENGINE)
        mutated = evolve_engine(engine, "section_drop")
        assert len(mutated.sections) == len(engine.sections) - 1

    def test_noop_flags(self):
        shared = make_engine(84)
        assert shared.shared_table
        assert MUTATIONS["style_swap"].is_noop(shared)
        assert MUTATIONS["header_retag"].is_noop(shared)
        assert not MUTATIONS["marker_rewrite"].is_noop(shared)

    def test_drift_expected_reflects_noop_and_benign(self):
        benign = load_evolving_pages(TEXTBOOK_ENGINE, "header_retag")
        assert not benign.truth.drift_expected
        breaking = load_evolving_pages(TEXTBOOK_ENGINE, "style_swap")
        assert breaking.truth.drift_expected

    def test_rejects_unknown_mutation(self):
        with pytest.raises(ValueError):
            load_evolving_pages(TEXTBOOK_ENGINE, "no_such_mutation")

    def test_rejects_bad_mutate_at(self):
        with pytest.raises(ValueError):
            load_evolving_pages(TEXTBOOK_ENGINE, "style_swap", mutate_at=30)


class TestDriftDetection:
    @pytest.mark.parametrize("mutation", ["marker_rewrite", "style_swap"])
    def test_detects_breaking_mutation_within_bound(self, mutation):
        monitor, truth = run_monitor(TEXTBOOK_ENGINE, mutation)
        summary = monitor.summary()
        assert summary.drifts == 1
        detected_at = SAMPLE_PAGES + summary.drift_pages[0]
        latency = truth.detection_latency(detected_at)
        assert 0 <= latency <= 4
        # No false positive before the mutation.
        assert detected_at >= truth.mutate_at

    def test_section_drop_on_single_section_engine(self):
        monitor, truth = run_monitor(TEXTBOOK_ENGINE, "section_drop")
        summary = monitor.summary()
        assert truth.drift_expected
        assert summary.drifts == 1
        assert SAMPLE_PAGES + summary.drift_pages[0] >= truth.mutate_at

    def test_benign_mutation_never_alarms(self):
        monitor, truth = run_monitor(TEXTBOOK_ENGINE, "header_retag")
        assert not truth.drift_expected
        assert monitor.summary().drifts == 0
        assert monitor.state == "healthy"

    def test_mutation_free_stream_never_alarms(self):
        evolving = load_evolving_pages(
            TEXTBOOK_ENGINE, "marker_rewrite", mutate_at=24, total_pages=24
        )
        wrapper = build_wrapper(evolving.sample_set)
        monitor = WrapperMonitor(wrapper)
        for markup, query in evolving.stream(SAMPLE_PAGES):
            monitor.observe_page(markup, query)
        assert monitor.summary().drifts == 0

    def test_check_events_logged_per_page(self):
        monitor, _ = run_monitor(TEXTBOOK_ENGINE, "marker_rewrite")
        checks = monitor.log.of_kind("check")
        assert len(checks) == monitor.pages_seen
        assert [event["page"] for event in checks] == list(
            range(monitor.pages_seen)
        )
        assert all("windows" in event for event in checks)


class TestSelfHealing:
    def test_heal_recovers_textbook_engine(self):
        monitor, truth = run_monitor(TEXTBOOK_ENGINE, "style_swap", heal=True)
        summary = monitor.summary()
        assert summary.drifts == 1
        assert summary.heals == 1
        assert summary.state == "healthy"
        heals = monitor.log.of_kind("heal")
        assert heals[-1]["recovered"] is True
        assert heals[-1]["score"] >= monitor.config.threshold
        # Scores return to healthy after the swap.
        post_heal = [
            event["score"]
            for event in monitor.log.of_kind("check")
            if event["page"] > summary.heal_pages[0]
        ]
        assert post_heal and min(post_heal) >= monitor.config.threshold

    def test_failed_heal_keeps_old_wrapper_and_retries(self):
        # The noisy engine overestimates pages_since_change on its first
        # alarm, so the first re-induction mixes pre- and post-mutation
        # samples and must be rejected; a later retry heals.
        monitor, _ = run_monitor(NOISY_ENGINE, "marker_rewrite", heal=True)
        heals = monitor.log.of_kind("heal")
        assert len(heals) >= 2
        assert heals[0]["recovered"] is False
        assert heals[-1]["recovered"] is True
        assert monitor.state == "healthy"
        retry_gap = heals[1]["page"] - heals[0]["page"]
        assert retry_gap >= RETRY_EVERY

    def test_no_heal_without_flag(self):
        monitor, _ = run_monitor(TEXTBOOK_ENGINE, "style_swap", heal=False)
        summary = monitor.summary()
        assert summary.drifts == 1
        assert summary.reinductions == 0
        assert monitor.state == "drifted"

    def test_monitor_counts_into_observer(self):
        evolving = load_evolving_pages(TEXTBOOK_ENGINE, "style_swap")
        wrapper = build_wrapper(evolving.sample_set)
        obs = Observer()
        monitor = WrapperMonitor(wrapper, MonitorConfig(heal=True), obs=obs)
        for markup, query in evolving.stream(SAMPLE_PAGES):
            monitor.observe_page(markup, query)
        counters = obs.metrics.counters
        assert counters["monitor.pages"] == monitor.pages_seen
        assert counters["monitor.drifts"] == 1
        assert counters["monitor.heals"] == 1
        paths = [node.path for node in obs.spans()]
        assert "monitor" in paths
        assert "monitor/reinduce" in paths


class TestMonitorCli:
    def test_testbed_mode_detects_and_heals(self, tmp_path, capsys):
        events = str(tmp_path / "events.jsonl")
        summary_path = str(tmp_path / "summary.json")
        code = main([
            "monitor", "--testbed", str(TEXTBOOK_ENGINE),
            "--evolve", "style_swap", "--heal",
            "--events", events, "--json", summary_path,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DRIFT confirmed" in out
        assert "recovered" in out
        doc = json.loads(open(summary_path).read())
        assert doc["state"] == "healthy"
        assert doc["drifts"] == 1
        assert doc["detection_latency"] is not None
        assert doc["detection_latency"] <= 4
        assert doc["truth"]["mutation"] == "style_swap"
        log = read_health_events(events)
        assert log.of_kind("drift") and log.of_kind("heal")

    def test_testbed_mode_benign_control(self, capsys):
        code = main([
            "monitor", "--testbed", str(TEXTBOOK_ENGINE),
            "--evolve", "header_retag",
        ])
        assert code == 0
        assert "0 drift(s)" in capsys.readouterr().out

    def test_testbed_drift_without_heal_exits_nonzero(self, capsys):
        code = main([
            "monitor", "--testbed", str(TEXTBOOK_ENGINE),
            "--evolve", "style_swap",
        ])
        assert code == 1

    def test_file_mode(self, tmp_path, capsys):
        from repro.testbed import load_engine_pages

        pages = load_engine_pages(TEXTBOOK_ENGINE)
        wrapper_path = str(tmp_path / "w.json")
        args = []
        for index, (markup, query) in enumerate(pages.sample_set):
            path = tmp_path / f"page{index}.html"
            path.write_text(markup)
            args.append(f"{path}:{query}")
        assert main(["induce", "-o", wrapper_path] + args) == 0
        code = main(["monitor", "-w", wrapper_path] + args)
        assert code == 0
        assert "0 drift(s)" in capsys.readouterr().out

    def test_file_mode_requires_wrapper(self, capsys):
        assert main(["monitor", "page.html"]) == 2

    def test_unknown_mutation_is_usage_error(self, capsys):
        code = main([
            "monitor", "--testbed", "3", "--evolve", "bogus",
        ])
        assert code == 2

    def test_check_json_output(self, tmp_path):
        from repro.testbed import load_engine_pages

        pages = load_engine_pages(TEXTBOOK_ENGINE)
        wrapper_path = str(tmp_path / "w.json")
        args = []
        for index, (markup, query) in enumerate(pages.sample_set):
            path = tmp_path / f"page{index}.html"
            path.write_text(markup)
            args.append(f"{path}:{query}")
        assert main(["induce", "-o", wrapper_path] + args) == 0
        out = str(tmp_path / "health.json")
        markup, query = pages.sample_set[0]
        code = main([
            "check", "-w", wrapper_path, args[0].rsplit(":", 1)[0]
            if ":" in args[0] else args[0],
            "--query", query, "--json", out,
        ])
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["drifted"] is False
        assert doc["score"] == 1.0
        assert "marker_hit_found_rate" in doc["metrics"]
        assert doc["sections"][0]["status"] == "ok"
