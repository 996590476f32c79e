"""Warm persistent Server pool tests (lifecycle, parity, crash recovery)."""

import json
import multiprocessing
import os
import signal
import time
from dataclasses import asdict

import pytest

from repro.core.mse import build_wrapper
from repro.core.verify import check_wrapper
from repro.htmlmod import NestingDepthError
from repro.obs import NULL_OBSERVER
from repro.perf.serve import compile_wrapper
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

#: a comment that pads a page past the 64 KiB pipe buffer: the executor's
#: queue feeder then blocks mid-write on every chunk until a worker reads
PIPE_PAD = "<!--" + "x" * 70_000 + "-->"


def padded(pages, pad=PIPE_PAD):
    return [(pad + markup, query) for markup, query in pages]


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

    def test_empty_batch_short_circuits(self, engine):
        with Server([engine], jobs=2) as server:
            assert server.extract([]) == []

    def test_context_manager_reuse_across_batches(self, engine):
        """Workers stay resident: two batches, same pool, same pids."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2) as server:
            first = server.extract(pages)
            pids = sorted(p.pid for p in server._processes())
            second = server.extract(list(reversed(pages)))
            assert sorted(p.pid for p in server._processes()) == pids
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
        # 9 pages: chunks of 3, 2 and 1 page at jobs 1, 2 and 3
        for jobs in (1, 2, 3):
            with Server([engine], jobs=jobs) as server:
                assert pooled_extract_docs(server.extract(pages)) == serial, jobs

    def test_serve_matches_check_wrapper(self, engine):
        pages = unseen_pages()
        reference = [
            extraction_doc(engine.extract(m, q))
            + json.dumps(check_wrapper(engine, m, q).to_obj(), sort_keys=True)
            for m, q in pages
        ]
        with Server([engine], jobs=2) as server:
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
        with Server([engine], jobs=3) as server:
            for _ in range(2):
                assert pooled_extract_docs(server.extract(pages)) == serial


# -- crash recovery -----------------------------------------------------------


def stop_every_worker_then_extract(engine, monkeypatch, pages):
    """SIGSTOP the whole pool, then require a one-second stall window to
    replace it and the batch to come back whole and in order."""
    import repro.perf.server as server_mod

    monkeypatch.setattr(server_mod, "_STALL_SECONDS", 1.0)
    serial = serial_extract_docs(engine, pages)
    with Server([engine], jobs=2) as server:
        for proc in server._processes():
            os.kill(proc.pid, signal.SIGSTOP)
        got = server.extract(pages)
        assert server.restarts >= 1
        assert server.workers_alive == 2
        assert pooled_extract_docs(got) == serial


class TestCrashRecovery:
    def test_respawn_no_lost_or_duplicate_pages(self, engine):
        pages = unseen_pages() * 2
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2) as server:
            victim = server._processes()[0]
            os.kill(victim.pid, signal.SIGKILL)
            got = server.extract(pages)
            assert server.restarts >= 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(got) == serial
            # the replacement workers reported their own priming
            assert len(server.worker_stats) > 2

    @pytest.mark.parametrize(
        "pad", ["", PIPE_PAD], ids=["small-chunks", "chunks-over-pipe-buffer"]
    )
    def test_worker_killed_mid_chunk_loses_no_page(
        self, engine, monkeypatch, tmp_path, pad
    ):
        """A worker that dies halfway through a chunk: the unfinished
        chunks are resubmitted, and every page arrives once, in order.
        Chunks over the pipe buffer leave the queue feeder stuck writing
        one that no worker will read, which must not wedge the restart."""
        import repro.perf.server as server_mod

        # 18 pages: chunks of 3 on 2 workers
        pages = padded(unseen_pages() * 2, pad)
        serial = serial_extract_docs(engine, pages)
        marker = str(tmp_path / "killed")
        real_index = server_mod.build_page_index
        calls = []  # per worker: each forked copy counts its own pages

        def index_or_die(markup, query="", obs=NULL_OBSERVER):
            calls.append(query)
            if len(calls) == 2:  # the second page of a worker's chunk
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass  # another worker already died once
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_index(markup, query, obs=obs)

        monkeypatch.setattr(server_mod, "build_page_index", index_or_die)
        with Server([engine], jobs=2) as server:
            got = server.extract(pages)
            assert server.restarts == 1
            assert server.workers_alive == 2
        assert os.path.exists(marker)
        assert pooled_extract_docs(got) == serial

    def test_worker_killed_mid_result_write_loses_no_page(
        self, engine, monkeypatch, tmp_path
    ):
        """A worker that dies halfway through sending a chunk's result
        leaves the executor waiting on a message that never completes
        (and holding a lock no other worker gets back): the stall window
        replaces the pool, and every page arrives once, in order."""
        import repro.perf.server as server_mod
        from multiprocessing.connection import Connection

        monkeypatch.setattr(server_mod, "_STALL_SECONDS", 1.0)
        pages = unseen_pages() * 2
        serial = serial_extract_docs(engine, pages)
        marker = str(tmp_path / "killed")
        real_index = server_mod.build_page_index
        real_send = Connection._send
        armed = []  # per worker: it has indexed a page of a batch

        def index_and_arm(markup, query="", obs=NULL_OBSERVER):
            armed.append(query)
            return real_index(markup, query, obs=obs)

        def send_half_then_die(conn, buf, *rest):
            if armed:  # only a worker sending a chunk's result
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass  # one death is enough
                else:
                    real_send(conn, bytes(buf)[: len(buf) // 2], *rest)
                    os.kill(os.getpid(), signal.SIGKILL)
            return real_send(conn, buf, *rest)

        monkeypatch.setattr(server_mod, "build_page_index", index_and_arm)
        monkeypatch.setattr(Connection, "_send", send_half_then_die)
        with Server([engine], jobs=2) as server:
            got = server.extract(pages)
            assert server.restarts == 1
            assert server.workers_alive == 2
        assert os.path.exists(marker)
        assert pooled_extract_docs(got) == serial

    def test_stalled_worker_is_killed_and_replaced(self, engine, monkeypatch):
        """Silent-but-alive workers (wedged IPC) cannot deadlock a batch.

        Every worker is stopped: the workers share one call queue, so a
        stopped idle worker that holds no chunk need not stall a batch.
        """
        stop_every_worker_then_extract(engine, monkeypatch, unseen_pages())

    def test_stall_with_chunks_over_the_pipe_buffer(self, engine, monkeypatch):
        """With every worker stopped, the queue feeder blocks writing a
        chunk larger than the pipe buffer; replacing the pool must not
        wait for that write."""
        stop_every_worker_then_extract(
            engine, monkeypatch, padded(unseen_pages())
        )

    def test_close_is_bounded_with_a_stopped_worker(self, engine, monkeypatch):
        """close() gives up on a stopped worker after one stall window;
        joining it, as a plain executor shutdown does, never returns."""
        import repro.perf.server as server_mod

        monkeypatch.setattr(server_mod, "_STALL_SECONDS", 2.0)
        server = Server([engine], jobs=2).start()
        victim = server._processes()[0]
        os.kill(victim.pid, signal.SIGSTOP)
        began = time.monotonic()
        server.close()
        assert time.monotonic() - began < 2 * server_mod._STALL_SECONDS
        assert server.workers_alive == 0
        assert not victim.is_alive()

    def test_restart_budget_enforced(self, engine, monkeypatch):
        import repro.perf.server as server_mod

        monkeypatch.setattr(server_mod, "_MAX_RESTARTS", 0)
        server = Server([engine], jobs=1)
        server.start()
        victim = server._processes()[0]
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="worker restarts"):
            server.extract(unseen_pages())
        assert server.workers_alive == 0


# -- error propagation --------------------------------------------------------


class TestErrors:
    def test_worker_exception_raises_with_traceback(self, engine):
        """A worker exception keeps the type serial extraction raises,
        with the worker traceback as its cause."""
        with pytest.raises(TypeError):
            engine.extract(None, "boom")
        with Server([engine], jobs=1) as server:
            with pytest.raises(TypeError) as info:
                server.extract([(None, "boom")])
        assert "Traceback" in str(info.value.__cause__)

    def test_pool_reusable_after_error(self, engine):
        """An aborted batch's stale chunks never leak into the next one."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2) as server:
            with pytest.raises(TypeError):
                server.extract([(None, "boom")] + pages)
            assert pooled_extract_docs(server.extract(pages)) == serial

    def test_error_leaves_only_the_chunks_in_flight(
        self, engine, monkeypatch, tmp_path
    ):
        """An error stops the batch submitting chunks, so the next batch
        (and close) waits behind at most the chunks already in flight,
        not behind the rest of the aborted batch."""
        import repro.perf.server as server_mod

        log = str(tmp_path / "indexed")
        real_index = server_mod.build_page_index

        def logged_index(markup, query="", obs=NULL_OBSERVER):
            with open(log, "a") as out:
                out.write(f"{query}\n")
            if query == "slow":
                time.sleep(0.02)
            return real_index(markup, query, obs=obs)

        monkeypatch.setattr(server_mod, "build_page_index", logged_index)
        slow = [(unseen_pages()[0][0], "slow")] * 63
        size = auto_chunksize(1 + len(slow), 2)  # 8 chunks of 8 pages
        with Server([engine], jobs=2) as server:
            with pytest.raises(TypeError):
                server.extract([(None, "boom")] + slow)
            server.extract(unseen_pages()[:1])
        with open(log) as lines:
            ran = [line.strip() for line in lines].count("slow")
        # in flight when the error came back: a chunk per worker plus
        # one queued (the failed chunk, boom page first, among them)
        assert ran <= (2 + 1) * size


    def test_bad_priming_page_is_rejected_up_front(self, engine):
        """A priming page that is not a (str, str) pair raises TypeError
        from the constructor; no worker is forked to fail on it."""
        before = multiprocessing.active_children()
        for page in [(None, "q"), ("<p>x</p>",), "<p>x</p>", ("<p>x</p>", 3)]:
            with pytest.raises(TypeError, match="priming page"):
                Server([engine], jobs=2, prime_pages=[page])
        assert multiprocessing.active_children() == before


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
        with Server([engine], jobs=2) as server:
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
