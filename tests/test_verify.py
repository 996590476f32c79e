"""Wrapper health / drift detection tests."""

import pytest

from repro.core.mse import build_wrapper
from repro.core.verify import (
    check_wrapper,
    SectionHealth,
)
from tests.helpers import make_records, sample_pages, simple_result_page


@pytest.fixture(scope="module")
def engine():
    return build_wrapper(
        sample_pages(("apple", "banana", "cherry"), [("Web", 4), ("News", 3)])
    )


class TestHealthyPages:
    def test_training_like_page_healthy(self, engine):
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 5, "durian")),
                ("News", make_records("News", 3, "durian")),
            ],
        )
        health = check_wrapper(engine, html, "durian")
        assert health.score >= 0.9
        assert not health.drifted

    def test_absent_section_only_mild_penalty(self, engine):
        html = simple_result_page(
            "durian", [("Web", make_records("Web", 5, "durian"))]
        )
        health = check_wrapper(engine, html, "durian")
        assert not health.drifted
        absent = [s for s in health.sections if not s.found]
        assert absent  # News section missing counts as absent, not broken


class TestDriftedPages:
    def test_redesigned_page_flagged(self, engine):
        health = check_wrapper(
            engine, "<html><body><div>totally new layout</div></body></html>"
        )
        assert health.drifted

    def test_empty_wrapper_scores_zero(self):
        from repro.core.wrapper import EngineWrapper

        health = check_wrapper(EngineWrapper([]), "<html><body></body></html>")
        assert health.score == 0.0

    def test_wild_record_count_suspected(self, engine):
        # 40 records vs typical ~4 exceeds the plausibility band.
        html = simple_result_page(
            "durian", [("Web", make_records("Web", 40, "durian"))]
        )
        health = check_wrapper(engine, html, "durian")
        web = next(s for s in health.sections if s.found)
        assert web.record_count >= 30
        assert not web.healthy


class TestSectionHealth:
    def test_absent_not_healthy(self):
        assert not SectionHealth(schema_id="S0", found=False).healthy

    def test_incoherent_not_healthy(self):
        health = SectionHealth(
            schema_id="S0", found=True, record_count=4, typical_records=4,
            homogeneity=0.9,
        )
        assert not health.healthy

    def test_good_section_healthy(self):
        health = SectionHealth(
            schema_id="S0", found=True, record_count=5, typical_records=4,
            homogeneity=0.05,
        )
        assert health.healthy


class TestBulk:
    def test_mean_over_pages(self, engine):
        pages = [
            (
                simple_result_page(
                    q,
                    [
                        ("Web", make_records("Web", 4, q)),
                        ("News", make_records("News", 3, q)),
                    ],
                ),
                q,
            )
            for q in ("kiwi", "mango")
        ]
        scores = [check_wrapper(engine, markup, query).score for markup, query in pages]
        assert sum(scores) / len(scores) >= 0.9
