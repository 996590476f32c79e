"""Tests for the health-telemetry primitives (repro.obs.health)."""

import io

import pytest

from repro.obs import (
    DriftAlarm,
    Ewma,
    HealthEventLog,
    HealthTracker,
    PageHinkley,
    RollingWindow,
    read_health_events,
)


class TestRollingWindow:
    def test_mean_over_partial_window(self):
        window = RollingWindow(4)
        window.update(1.0)
        window.update(3.0)
        assert window.mean == 2.0
        assert window.count == 2

    def test_old_values_evicted(self):
        window = RollingWindow(2)
        for value in (10.0, 1.0, 3.0):
            window.update(value)
        assert window.count == 2
        assert window.mean == 2.0

    def test_empty_window_mean_zero(self):
        assert RollingWindow(3).mean == 0.0

    def test_reset(self):
        window = RollingWindow(2)
        window.update(5.0)
        window.reset()
        assert window.count == 0
        assert window.mean == 0.0

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            RollingWindow(0)


class TestEwma:
    def test_seeded_by_first_value(self):
        ewma = Ewma(alpha=0.5)
        assert ewma.update(0.8) == 0.8
        assert ewma.value == 0.8

    def test_moves_toward_new_values(self):
        ewma = Ewma(alpha=0.5)
        ewma.update(1.0)
        assert ewma.update(0.0) == 0.5
        assert ewma.update(0.0) == 0.25

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)

    def test_reset(self):
        ewma = Ewma()
        ewma.update(1.0)
        ewma.reset()
        assert ewma.value == 0.0
        assert ewma.update(0.3) == 0.3


class TestPageHinkley:
    def test_stable_stream_never_alarms(self):
        detector = PageHinkley(delta=0.05, lambda_=1.0)
        for _ in range(50):
            assert not detector.update(1.0)
        assert detector.statistic == 0.0
        assert detector.pages_since_change == 0

    def test_downward_shift_alarms(self):
        detector = PageHinkley(delta=0.05, lambda_=1.0)
        for _ in range(10):
            detector.update(1.0)
        fired_at = None
        for page in range(10):
            if detector.update(0.2):
                fired_at = page
                break
        assert fired_at is not None
        assert fired_at <= 4

    def test_pages_since_change_tracks_shift_age(self):
        detector = PageHinkley(delta=0.05, lambda_=10.0)
        for _ in range(10):
            detector.update(1.0)
        for _ in range(3):
            detector.update(0.0)
        assert detector.pages_since_change == 3

    def test_single_dip_recovers(self):
        detector = PageHinkley(delta=0.05, lambda_=2.0)
        for _ in range(10):
            detector.update(1.0)
        detector.update(0.4)
        assert not detector.alarm
        for _ in range(10):
            detector.update(1.0)
        assert detector.statistic == 0.0

    def test_reset(self):
        detector = PageHinkley()
        for _ in range(5):
            detector.update(1.0)
        detector.update(0.0)
        detector.reset()
        assert detector.statistic == 0.0
        assert detector.pages_since_change == 0


class TestHealthTracker:
    def _healthy(self):
        return {"score": 1.0, "marker_hit_found_rate": 1.0,
                "homogeneous_rate": 1.0}

    def _broken(self):
        return {"score": 0.0, "marker_hit_found_rate": 0.0,
                "homogeneous_rate": 0.0}

    def test_healthy_stream_never_confirms(self):
        tracker = HealthTracker()
        for _ in range(30):
            assert tracker.update(self._healthy()) is None

    def test_shift_confirms_drift(self):
        tracker = HealthTracker()
        for _ in range(10):
            tracker.update(self._healthy())
        alarm = None
        for _ in range(8):
            alarm = tracker.update(self._broken())
            if alarm is not None:
                break
        assert isinstance(alarm, DriftAlarm)
        assert alarm.ewma < tracker.threshold
        assert alarm.pages_since_change >= 1

    def test_warmup_suppresses_confirmation(self):
        # A tracker attached to an already-broken wrapper reports bad
        # scores but must not claim it detected a *change*.
        tracker = HealthTracker(warmup=5)
        for _ in range(5):
            assert tracker.update(self._broken()) is None

    def test_healthy_average_suppresses_alarm(self):
        # PH can fire on a transient dip; the EWMA gate keeps a stream
        # whose average is still healthy from confirming.
        tracker = HealthTracker(threshold=0.2)
        for _ in range(10):
            tracker.update(self._healthy())
        mixed = {"score": 0.6, "marker_hit_found_rate": 0.6,
                 "homogeneous_rate": 0.6}
        for _ in range(10):
            assert tracker.update(mixed) is None

    def test_missing_streams_skipped(self):
        tracker = HealthTracker(streams=("score", "absent_metric"))
        for _ in range(5):
            tracker.update({"score": 1.0})
        snap = tracker.snapshot()
        assert snap["absent_metric"]["mean"] == 0.0
        assert snap["score"]["mean"] == 1.0

    def test_reset_forgets_history(self):
        tracker = HealthTracker()
        for _ in range(10):
            tracker.update(self._healthy())
        for _ in range(10):
            tracker.update(self._broken())
        tracker.reset()
        assert tracker.checks == 0
        assert all(
            snap == {"mean": 0.0, "ewma": 0.0, "ph": 0.0}
            for snap in tracker.snapshot().values()
        )

    def test_worst_stream_wins(self):
        tracker = HealthTracker(streams=("a", "b"))
        for _ in range(10):
            tracker.update({"a": 1.0, "b": 1.0})
        alarm = None
        for _ in range(10):
            # b collapses harder than a: its PH statistic grows faster.
            alarm = tracker.update({"a": 0.45, "b": 0.0})
            if alarm is not None:
                break
        assert alarm is not None
        assert alarm.stream == "b"


class TestHealthEventLog:
    def _sample_log(self):
        log = HealthEventLog(meta={"window": 8, "threshold": 0.6})
        log.append("check", page=0, score=1.0)
        log.append("drift", page=5, stream="score")
        log.append("heal", page=6, recovered=True)
        return log

    def test_of_kind_filters(self):
        log = self._sample_log()
        assert [e["page"] for e in log.of_kind("check")] == [0]
        assert log.of_kind("reinduce") == []

    def test_round_trip_via_stream(self):
        log = self._sample_log()
        buffer = io.StringIO()
        log.write_jsonl(buffer)
        loaded = read_health_events(io.StringIO(buffer.getvalue()))
        assert loaded.meta["format"] == "repro-health-events"
        assert loaded.meta["window"] == 8
        assert loaded.events == log.events

    def test_round_trip_via_path(self, tmp_path):
        log = self._sample_log()
        path = str(tmp_path / "health.jsonl")
        log.write_jsonl(path)
        loaded = read_health_events(path)
        assert loaded.events == log.events

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"event": "meta", "format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_health_events(str(path))
