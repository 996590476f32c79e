"""Warm persistent Server pool tests (lifecycle, parity, crash recovery)."""

import json
import os
import signal
from dataclasses import asdict

import pytest

from repro.core.mse import build_wrapper
from repro.core.verify import check_wrapper
from repro.htmlmod import NestingDepthError
from repro.perf.serve import compile_wrapper, extract_many
from repro.perf.server import Server, auto_chunksize
from tests.helpers import make_records, sample_pages, simple_result_page


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
    """Unseen, evolved and markerless pages (the test_serve.py gauntlet)."""
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
    base, query = pages[0]
    # Evolved layouts: extra chrome, deeper wrap, renamed header, filler.
    pages.append(
        (
            base.replace(
                "<body>", "<body><div id='banner'><span>Ad</span></div>", 1
            ),
            query,
        )
    )
    pages.append(
        (
            base.replace("<body>", "<body><div class='wrap'>", 1).replace(
                "</body>", "</div></body>", 1
            ),
            query,
        )
    )
    pages.append(
        (base.replace("<ul>", "<ul><li>sponsored filler</li>", 1), query)
    )
    # One section legitimately absent, and a markerless drifted layout.
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


#: a page nested past the parser's budget
DEEP_PAGE = ("<div>" * 5000 + "deep", "deep")


def extraction_doc(extraction):
    return json.dumps(asdict(extraction), sort_keys=True)


def served_doc(served):
    return extraction_doc(served.extraction) + json.dumps(
        served.health.to_obj(), sort_keys=True
    )


def serial_extract_docs(engine, pages):
    return [[extraction_doc(engine.extract(m, q))] for m, q in pages]


def pooled_extract_docs(results):
    return [[extraction_doc(e) for e in page] for page in results]


# -- the chunking heuristic ---------------------------------------------------


class TestAutoChunksize:
    def test_targets_four_chunks_per_worker(self):
        assert auto_chunksize(64, 4) == 4
        assert auto_chunksize(100, 4) == 7

    def test_small_batches_round_up_to_one(self):
        assert auto_chunksize(3, 4) == 1
        assert auto_chunksize(1, 1) == 1

    def test_capped_for_huge_batches(self):
        assert auto_chunksize(100_000, 2) == 64

    def test_degenerate_inputs(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(10, 0) == 1


# -- lifecycle ----------------------------------------------------------------


class TestLifecycle:
    def test_start_submit_close(self, engine):
        pages = unseen_pages()
        server = Server([engine], jobs=2)
        server.start()
        assert server.workers_alive == 2
        got = server.extract(pages)
        assert len(got) == len(pages)
        server.close()
        assert server.workers_alive == 0

    def test_join_is_close(self, engine):
        server = Server([engine], jobs=1)
        server.start()
        server.join()
        assert server.workers_alive == 0

    def test_close_is_idempotent_and_safe_before_start(self, engine):
        server = Server([engine])
        server.close()
        server.close()

    def test_closed_server_rejects_batches(self, engine):
        server = Server([engine], jobs=1)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.extract(unseen_pages()[:1])
        with pytest.raises(RuntimeError, match="closed"):
            server.start()

    def test_needs_at_least_one_wrapper(self):
        with pytest.raises(ValueError, match="at least one wrapper"):
            Server([])

    def test_chunksize_validated(self, engine):
        with pytest.raises(ValueError, match="chunksize"):
            Server([engine], chunksize=0)

    def test_empty_batch_short_circuits(self, engine):
        with Server([engine], jobs=2) as server:
            assert server.extract([]) == []

    def test_context_manager_reuse_across_batches(self, engine):
        """Workers stay resident: two batches, same pool, same pids."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2) as server:
            first = server.extract(pages)
            pids = sorted(p.pid for p in server._workers.values())
            second = server.extract(list(reversed(pages)))
            assert sorted(p.pid for p in server._workers.values()) == pids
        assert pooled_extract_docs(first) == serial
        assert pooled_extract_docs(second) == list(reversed(serial))


# -- parity -------------------------------------------------------------------


class TestParity:
    def test_extract_byte_parity_with_serial(self, engine, compiled):
        """Pooled == serial interpreted == serial compiled, byte for byte,
        on unseen, evolved and markerless pages."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        fast = [[extraction_doc(compiled.extract(m, q))] for m, q in pages]
        assert fast == serial
        for jobs, chunksize in ((1, None), (2, None), (2, 1), (3, 2)):
            with Server([engine], jobs=jobs, chunksize=chunksize) as server:
                assert pooled_extract_docs(server.extract(pages)) == serial, (
                    jobs,
                    chunksize,
                )

    def test_serve_matches_check_wrapper(self, engine):
        pages = unseen_pages()
        reference = [
            extraction_doc(engine.extract(m, q))
            + json.dumps(check_wrapper(engine, m, q).to_obj(), sort_keys=True)
            for m, q in pages
        ]
        with Server([engine], jobs=2, chunksize=2) as server:
            served = server.serve(pages)
        assert [served_doc(page[0]) for page in served] == reference

    def test_priming_does_not_change_results(self, engine):
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, prime_pages=pages[:2]) as server:
            assert pooled_extract_docs(server.extract(pages)) == serial

    def test_wrapper_of_routes_pages(self, engine, compiled):
        pages = unseen_pages()[:4]
        with Server([engine, compiled], jobs=2) as server:
            got = server.extract(pages, wrapper_of=[1, 0, 1, 0])
        assert [len(page) for page in got] == [1, 1, 1, 1]
        serial = serial_extract_docs(engine, pages)
        assert pooled_extract_docs(got) == serial

    def test_wrapper_of_validated(self, engine):
        with Server([engine], jobs=1) as server:
            with pytest.raises(ValueError, match="one wrapper per page"):
                server.extract(unseen_pages()[:2], wrapper_of=[0])
            with pytest.raises(ValueError, match="out of range"):
                server.extract(unseen_pages()[:1], wrapper_of=[3])

    def test_deterministic_ordering(self, engine):
        """Result order matches page order on every run and chunking."""
        pages = unseen_pages() * 3
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=3, chunksize=1) as server:
            for _ in range(2):
                assert pooled_extract_docs(server.extract(pages)) == serial


# -- crash recovery -----------------------------------------------------------


class TestCrashRecovery:
    def test_respawn_no_lost_or_duplicate_pages(self, engine):
        pages = unseen_pages() * 2
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            victim = next(iter(server._workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            got = server.extract(pages)
            assert server.restarts >= 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(got) == serial
            respawned = [
                stats
                for stats in server.worker_stats.values()
                if "respawned_for" in stats
            ]
            assert respawned

    def test_stalled_worker_is_killed_and_replaced(self, engine, monkeypatch):
        """A silent-but-alive worker (wedged IPC) cannot deadlock a batch."""
        import repro.perf.server as server_mod

        monkeypatch.setattr(server_mod, "_STALL_POLLS", 5)
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            victim = next(iter(server._workers.values()))
            os.kill(victim.pid, signal.SIGSTOP)
            got = server.extract(pages)
            assert server.restarts >= 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(got) == serial

    def test_restart_budget_enforced(self, engine):
        server = Server([engine], jobs=1, max_restarts=0)
        server.start()
        victim = next(iter(server._workers.values()))
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="worker restarts"):
            server.extract(unseen_pages())
        assert server.workers_alive == 0


# -- error propagation --------------------------------------------------------


class TestErrors:
    def test_worker_exception_raises_with_traceback(self, engine):
        with Server([engine], jobs=1) as server:
            with pytest.raises(RuntimeError, match="failed on chunk"):
                server.extract([(None, "boom")])

    def test_pool_reusable_after_error(self, engine):
        """An aborted batch's stale chunks never leak into the next one."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            with pytest.raises(RuntimeError, match="failed on chunk"):
                server.extract([(None, "boom")] + pages)
            assert pooled_extract_docs(server.extract(pages)) == serial


class TestNestingDepth:
    def test_nesting_error_keeps_its_type(self, engine):
        """A too-deep page raises NestingDepthError, not the generic
        worker failure, and the pool keeps serving afterwards."""
        pages = unseen_pages()
        reference = [
            extraction_doc(engine.extract(m, q))
            + json.dumps(check_wrapper(engine, m, q).to_obj(), sort_keys=True)
            for m, q in pages
        ]
        with Server([engine], jobs=2, chunksize=1) as server:
            with pytest.raises(NestingDepthError, match="nests deeper") as info:
                server.serve([pages[0], DEEP_PAGE])
            assert "\n" not in str(info.value)
            assert "Traceback" in str(info.value.__cause__)
            served = server.serve(pages)
        assert [served_doc(page[0]) for page in served] == reference

    def test_too_deep_priming_page_is_skipped(self, engine):
        ok = unseen_pages()[0]
        with Server([engine], jobs=2, prime_pages=[DEEP_PAGE, ok]) as server:
            assert server.restarts == 0
            assert [
                stats["prime_pages"] for stats in server.worker_stats.values()
            ] == [1, 1]
            with pytest.raises(NestingDepthError):
                server.extract([DEEP_PAGE])


# -- telemetry ----------------------------------------------------------------


class TestTelemetry:
    def test_worker_stats_report_priming_and_final_warmth(self, engine):
        pages = unseen_pages()
        with Server([engine], jobs=2, prime_pages=pages[:3]) as server:
            server.extract(pages)
        assert set(server.worker_stats) == {0, 1}
        for stats in server.worker_stats.values():
            assert stats["prime_pages"] == 3
            assert "tree_memo" in stats["primed"]
            assert "dinr_memo" in stats["final"]

    def test_close_keeps_stats_of_workers_that_exit_during_a_poll(
        self, engine, monkeypatch
    ):
        """A worker that answers the shutdown sentinel and exits between
        an empty poll and the liveness check still reports its stats."""
        server = Server([engine], jobs=2).start()
        real_poll = Server._poll
        polls = []

        def poll_after_workers_exit(self):
            polls.append(None)
            if len(polls) == 1:
                for proc in self._workers.values():
                    proc.join(timeout=30)
                return None
            return real_poll(self)

        monkeypatch.setattr(Server, "_poll", poll_after_workers_exit)
        server.close()
        assert set(server.worker_stats) == {0, 1}
        for stats in server.worker_stats.values():
            assert "dinr_memo" in stats["final"]

    def test_observer_merges_worker_metrics(self, engine):
        from repro.obs import Observer

        obs = Observer()
        pages = unseen_pages()
        with Server(
            [engine], jobs=2, prime_pages=pages[:1], obs=obs
        ) as server:
            server.serve(pages)
        doc = obs.stats()
        metrics = doc["metrics"]
        gauges = metrics["gauges"]
        assert gauges["server.workers"] == 2.0
        assert "server.chunksize" in gauges
        assert any(
            name.startswith("server.worker.") and name.endswith("hit_rate")
            for name in gauges
        )
        assert metrics["counters"]["serve.pages"] == len(pages)


# -- the extract_many shim ----------------------------------------------------


class TestExtractManyShim:
    def test_jobs1_never_touches_the_pool(self, engine, monkeypatch):
        """The serial short-circuit must not even construct a Server."""
        import repro.perf.server as server_mod

        def explode(*args, **kwargs):
            raise AssertionError("jobs=1 must not build a Server")

        monkeypatch.setattr(server_mod, "Server", explode)
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        got = extract_many(pages, [engine], jobs=1)
        assert pooled_extract_docs(got) == serial
        # A single page also short-circuits, whatever jobs says.
        got = extract_many(pages[:1], [engine], jobs=4)
        assert pooled_extract_docs(got) == serial[:1]

    def test_pooled_shim_matches_serial(self, engine):
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        got = extract_many(pages, [engine], jobs=2, chunksize=2)
        assert pooled_extract_docs(got) == serial
