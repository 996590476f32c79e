"""Continuous wrapper-health monitoring with self-healing re-induction.

The paper's wrappers are induced once and applied for months (§1's
metasearch maintenance loop); this package closes that loop.  A
:class:`WrapperMonitor` scores every served page via
:func:`repro.core.verify.check_wrapper`, aggregates the per-check
metrics into sliding windows with a Page–Hinkley change detector
(:mod:`repro.obs.health`), and — when drift is confirmed and healing is
enabled — re-induces the wrapper from recently served pages and
hot-swaps it in place, recording every step as a structured health
event.

    from repro.monitor import MonitorConfig, WrapperMonitor
    monitor = WrapperMonitor(wrapper, MonitorConfig(heal=True))
    for markup, query in served_pages:
        monitor.observe_page(markup, query)
    monitor.log.write_jsonl("health-events.jsonl")

The CLI front end is ``python -m repro monitor`` (see
:mod:`repro.cli`); the template-evolution knobs that verify detection
and recovery end-to-end live in :mod:`repro.testbed.evolution`.
"""

from repro.monitor.service import MonitorConfig, WrapperMonitor

__all__ = ["MonitorConfig", "WrapperMonitor"]
