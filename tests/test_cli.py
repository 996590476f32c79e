"""CLI tests (python -m repro ...)."""

import json

import pytest

from repro.cli import _split_page_arg, main
from repro.obs import read_jsonl
from repro.testbed import load_engine_pages


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    engine_pages = load_engine_pages(85)
    sample_args = []
    for i, (markup, query) in enumerate(engine_pages.sample_set):
        path = root / f"sample{i}.html"
        path.write_text(markup, encoding="utf-8")
        sample_args.append(f"{path}:{query}")
    new_markup, new_query = engine_pages.test_set[0]
    new_page = root / "new.html"
    new_page.write_text(new_markup, encoding="utf-8")
    wrapper_path = root / "wrapper.json"
    return {
        "samples": sample_args,
        "new_page": str(new_page),
        "new_query": new_query,
        "wrapper": str(wrapper_path),
    }


class TestInduce:
    def test_induce_writes_wrapper(self, workspace, capsys):
        code = main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "section schema" in out
        assert json.loads(open(workspace["wrapper"]).read())["format"] == (
            "repro-mse-wrapper"
        )

    def test_induce_needs_two_pages(self, workspace, tmp_path):
        out = tmp_path / "w.json"
        code = main(["induce", "-o", str(out), workspace["samples"][0]])
        assert code == 2


class TestExtract:
    def test_extract_text_output(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(
            [
                "extract",
                "-w",
                workspace["wrapper"],
                workspace["new_page"],
                "--query",
                workspace["new_query"],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "record(s)" in out

    def test_extract_json_output(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(
            [
                "extract",
                "--json",
                "-w",
                workspace["wrapper"],
                workspace["new_page"],
                "--query",
                workspace["new_query"],
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        assert len(payload) == 1
        entry = payload[0]
        assert entry["page"] == workspace["new_page"]
        assert entry["query"] == workspace["new_query"]
        assert entry["seconds"] >= 0.0
        assert entry["sections"] and entry["sections"][0]["records"]
        assert "fields" in entry["sections"][0]["records"][0]

    def test_extract_multiple_pages(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        # Inline :query suffixes, as in induce/monitor page arguments.
        code = main(
            [
                "extract",
                "--json",
                "-w",
                workspace["wrapper"],
                f"{workspace['new_page']}:{workspace['new_query']}",
                workspace["samples"][0],
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert payload[0]["query"] == workspace["new_query"]
        assert all("seconds" in entry for entry in payload)
        assert all(entry["sections"] for entry in payload)

    def test_extract_jobs_matches_serial(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        page_args = [
            f"{workspace['new_page']}:{workspace['new_query']}",
            *workspace["samples"][:2],
        ]
        assert main(
            ["extract", "--json", "-w", workspace["wrapper"], *page_args]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["extract", "--json", "-w", workspace["wrapper"],
             "--jobs", "2", "--chunksize", "1", *page_args]
        ) == 0
        pooled = json.loads(capsys.readouterr().out)
        strip = lambda payload: [
            {k: entry[k] for k in ("page", "query", "sections")}
            for entry in payload
        ]
        assert strip(serial) == strip(pooled)
        # batch mode has no per-page wall-clock timing
        assert all("seconds" not in entry for entry in pooled)

    def test_extract_multiple_pages_text_headers(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(
            [
                "extract",
                "-w",
                workspace["wrapper"],
                f"{workspace['new_page']}:{workspace['new_query']}",
                workspace["samples"][0],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("== ") == 2
        assert "record(s)" in out


class TestServe:
    def test_serve_reports_throughput(self, workspace, tmp_path, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        report = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "-w",
                workspace["wrapper"],
                "--json",
                str(report),
                f"{workspace['new_page']}:{workspace['new_query']}",
                workspace["samples"][0],
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pages/sec" in out and "p99" in out
        doc = json.loads(report.read_text())
        assert doc["format"] == "repro-serve-report"
        assert len(doc["pages"]) == 2
        assert doc["pages_per_sec"] > 0
        assert doc["latency"]["p50_ms"] >= 0.0
        assert all(entry["records"] > 0 for entry in doc["pages"])

    def test_serve_pages_flag_and_jobs_match_serial(
        self, workspace, tmp_path, capsys
    ):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        serial = tmp_path / "serial.json"
        jobs = tmp_path / "jobs.json"
        page_args = [
            f"{workspace['new_page']}:{workspace['new_query']}",
            *workspace["samples"][:2],
        ]
        assert main(
            ["serve", "-w", workspace["wrapper"], "--json", str(serial),
             "--pages", *page_args]
        ) == 0
        assert main(
            ["serve", "-w", workspace["wrapper"], "--json", str(jobs),
             "--jobs", "2", "--pages", *page_args]
        ) == 0
        capsys.readouterr()
        a = json.loads(serial.read_text())
        b = json.loads(jobs.read_text())
        strip = lambda doc: [
            {k: entry[k] for k in ("page", "sections", "records")}
            for entry in doc["pages"]
        ]
        assert strip(a) == strip(b)
        # the pooled report documents the warm pool it ran on
        assert b["pool"]["workers"] == 2
        assert b["pool"]["restarts"] == 0
        assert b["pool"]["chunksize"] >= 1
        assert "pool" not in a

    def test_serve_chunksize_flag_matches_serial(
        self, workspace, tmp_path, capsys
    ):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        serial = tmp_path / "serial2.json"
        chunked = tmp_path / "chunked.json"
        page_args = [
            f"{workspace['new_page']}:{workspace['new_query']}",
            *workspace["samples"][:3],
        ]
        assert main(
            ["serve", "-w", workspace["wrapper"], "--json", str(serial),
             "--pages", *page_args]
        ) == 0
        assert main(
            ["serve", "-w", workspace["wrapper"], "--json", str(chunked),
             "--jobs", "2", "--chunksize", "1", "--pages", *page_args]
        ) == 0
        capsys.readouterr()
        a = json.loads(serial.read_text())
        b = json.loads(chunked.read_text())
        strip = lambda doc: [
            {k: entry[k] for k in ("page", "sections", "records")}
            for entry in doc["pages"]
        ]
        assert strip(a) == strip(b)
        assert b["pool"]["chunksize"] == 1

    def test_serve_without_pages_fails(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(["serve", "-w", workspace["wrapper"]])
        assert code == 2
        assert "need at least one page" in capsys.readouterr().err


class TestCheck:
    def test_check_ok(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(
            [
                "check",
                "-w",
                workspace["wrapper"],
                workspace["new_page"],
                "--query",
                workspace["new_query"],
            ]
        )
        out = capsys.readouterr().out
        assert "health score" in out
        assert code in (0, 1)

    def test_check_drifted(self, workspace, tmp_path, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        weird = tmp_path / "weird.html"
        weird.write_text("<html><body><p>redesign</p></body></html>")
        capsys.readouterr()
        code = main(["check", "-w", workspace["wrapper"], str(weird)])
        assert code == 1
        assert "DRIFTED" in capsys.readouterr().out


class TestDemoAndEval:
    def test_demo(self, capsys):
        code = main(["demo", "--engine-id", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "induced" in out and "extraction" in out

    def test_demo_reports_actual_sample_count(self, capsys):
        engine_pages = load_engine_pages(3)
        main(["demo", "--engine-id", "3"])
        out = capsys.readouterr().out
        assert f"from {len(engine_pages.sample_set)} sample pages" in out

    def test_eval_limited(self, capsys):
        code = main(["eval", "--table", "1", "--limit", "2"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out


class TestMissingPageFiles:
    """A missing/unreadable page file exits 2 with one stderr line."""

    def _assert_clean_failure(self, code, captured):
        assert code == 2
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "cannot read page file" in lines[0]
        assert "Traceback" not in captured.err

    def test_induce_missing_page(self, workspace, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(
            ["induce", "-o", str(out), workspace["samples"][0], "missing.html:q"]
        )
        self._assert_clean_failure(code, capsys.readouterr())
        assert not out.exists()

    def test_extract_missing_page(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(["extract", "-w", workspace["wrapper"], "missing.html"])
        self._assert_clean_failure(code, capsys.readouterr())

    def test_check_missing_page(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(["check", "-w", workspace["wrapper"], "missing.html"])
        self._assert_clean_failure(code, capsys.readouterr())

    def test_induce_unreadable_page(self, workspace, tmp_path, capsys):
        bad = tmp_path / "binary.html"
        bad.write_bytes(b"\xff\xfe\x00\x80garbage")
        out = tmp_path / "w.json"
        code = main(
            ["induce", "-o", str(out), workspace["samples"][0], f"{bad}:q"]
        )
        self._assert_clean_failure(code, capsys.readouterr())


class TestDeepNesting:
    """Markup nested past the parser's budget exits 2 with one line."""

    def _deep_page(self, tmp_path):
        deep = tmp_path / "deep.html"
        deep.write_text("<div>" * 5000 + "deep", encoding="utf-8")
        return str(deep)

    def _assert_clean_failure(self, code, captured):
        assert code == 2
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) == 1
        assert "nests deeper" in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["extract", "check", "serve"])
    def test_deep_page_exits_2(self, workspace, tmp_path, capsys, command):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        deep = self._deep_page(tmp_path)
        code = main([command, "-w", workspace["wrapper"], deep])
        self._assert_clean_failure(code, capsys.readouterr())

    def test_induce_deep_sample_exits_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "w.json"
        deep = self._deep_page(tmp_path)
        code = main(
            ["induce", "-o", str(out), workspace["samples"][0], f"{deep}:q"]
        )
        self._assert_clean_failure(code, capsys.readouterr())
        assert not out.exists()


class TestInducePipelineFlags:
    def test_jobs_and_checkpoint_resume_are_byte_identical(
        self, workspace, tmp_path, capsys
    ):
        serial = tmp_path / "serial.json"
        assert main(["induce", "-o", str(serial), *workspace["samples"]]) == 0

        jobs2 = tmp_path / "jobs2.json"
        assert main(
            ["induce", "--jobs", "2", "-o", str(jobs2), *workspace["samples"]]
        ) == 0

        ck = tmp_path / "ckpt"
        first = tmp_path / "ck.json"
        assert main(
            ["induce", "--checkpoint-dir", str(ck), "-o", str(first),
             *workspace["samples"]]
        ) == 0
        (ck / "stage-wrapper.json").unlink()
        resumed = tmp_path / "resumed.json"
        assert main(
            ["induce", "--checkpoint-dir", str(ck), "--resume",
             "-o", str(resumed), *workspace["samples"]]
        ) == 0

        reference = serial.read_text()
        assert jobs2.read_text() == reference
        assert first.read_text() == reference
        assert resumed.read_text() == reference

    def test_resume_requires_checkpoint_dir(self, workspace, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = main(["induce", "--resume", "-o", str(out), *workspace["samples"]])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err


class TestSplitPageArg:
    def test_plain_path(self):
        assert _split_page_arg("page.html") == ("page.html", "")

    def test_path_with_query(self):
        assert _split_page_arg("page.html:lunar eclipse") == (
            "page.html",
            "lunar eclipse",
        )

    def test_query_containing_colons(self):
        assert _split_page_arg("p.html:a:b:c") == ("p.html", "a:b:c")

    def test_windows_drive_letter(self):
        assert _split_page_arg(r"C:\pages\p.html:query") == (
            r"C:\pages\p.html",
            "query",
        )
        assert _split_page_arg(r"C:\pages\p.html") == (r"C:\pages\p.html", "")

    def test_directory_with_colon_in_name(self):
        # Only the suffix after the *last* ``.html:`` is the query, so a
        # path component that itself ends in ``.html:`` stays in the path.
        assert _split_page_arg("snap.html:v2/page.html:deep query") == (
            "snap.html:v2/page.html",
            "deep query",
        )

    def test_htm_extension(self):
        assert _split_page_arg("page.htm:old style") == ("page.htm", "old style")

    def test_case_insensitive_extension(self):
        assert _split_page_arg("PAGE.HTML:query") == ("PAGE.HTML", "query")

    def test_no_extension_colon_is_path(self):
        assert _split_page_arg("archive:page") == ("archive:page", "")


PIPELINE_STAGES = (
    "render", "mre", "dse", "refine", "mine",
    "granularity", "grouping", "wrapper", "families",
)


class TestTraceFlags:
    def test_induce_trace_writes_valid_jsonl(self, workspace, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "induce",
                "--trace",
                str(trace),
                "-o",
                workspace["wrapper"],
                *workspace["samples"],
            ]
        )
        assert code == 0
        capsys.readouterr()

        # Every line is standalone JSON.
        lines = trace.read_text(encoding="utf-8").strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records

        doc = read_jsonl(str(trace))
        assert doc["format"] == "repro-obs-trace"
        top_level = [
            span for span in doc["spans"] if "/" not in span["path"]
        ]
        names = [span["name"] for span in top_level]
        assert sorted(names) == sorted(PIPELINE_STAGES)
        for span in top_level:
            assert span["calls"] == 1
            assert span["seconds"] >= 0.0
        # Stage counters and the cache hit-rate gauge made it to disk.
        by_name = {span["name"]: span for span in top_level}
        assert by_name["render"]["counters"]["render.pages"] == 5
        assert "record_distance_cache.hit_rate" in doc["metrics"]["gauges"]

    def test_induce_stats_prints_report(self, workspace, capsys):
        code = main(
            ["induce", "--stats", "-o", workspace["wrapper"], *workspace["samples"]]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "induce trace" in err
        for stage in PIPELINE_STAGES:
            assert stage in err

    def test_extract_trace(self, workspace, tmp_path, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        trace = tmp_path / "extract.jsonl"
        code = main(
            [
                "extract",
                "--trace",
                str(trace),
                "-w",
                workspace["wrapper"],
                workspace["new_page"],
                "--query",
                workspace["new_query"],
            ]
        )
        assert code == 0
        doc = read_jsonl(str(trace))
        names = {span["name"] for span in doc["spans"]}
        assert {"render", "families", "wrappers"} <= names

    def test_check_stats_metrics_breakdown(self, workspace, capsys):
        main(["induce", "-o", workspace["wrapper"], *workspace["samples"]])
        capsys.readouterr()
        code = main(
            [
                "check",
                "--stats",
                "-w",
                workspace["wrapper"],
                workspace["new_page"],
                "--query",
                workspace["new_query"],
            ]
        )
        assert code in (0, 1)
        captured = capsys.readouterr()
        assert "checks:" in captured.out
        metrics_line = next(
            line for line in captured.err.splitlines()
            if line.startswith("metrics: ")
        )
        metrics = json.loads(metrics_line[len("metrics: "):])
        for key in (
            "score", "sections", "found_rate", "healthy_rate",
            "homogeneous_rate", "count_plausible_rate", "marker_hit_rate",
        ):
            assert key in metrics

    def test_eval_trace_and_stats(self, tmp_path, capsys):
        trace = tmp_path / "eval.jsonl"
        code = main(
            [
                "eval", "--table", "1", "--limit", "2",
                "--trace", str(trace), "--stats",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "eval trace" in err
        doc = read_jsonl(str(trace))
        names = {span["name"] for span in doc["spans"]}
        assert set(PIPELINE_STAGES) <= names
        assert doc["metrics"]["gauges"]["eval.engines"] == 2
