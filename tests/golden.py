"""Golden digests of the program's output on the default corpus.

``tests/golden.json`` holds the sha256 of:

- the Tables 1-3 text, i.e. the stdout of ``python -m repro eval
  --table all``;
- per engine, its wrapper JSON as ``repro induce`` writes it, induced
  from the engine's five sample pages;
- per engine, its ten pages' extraction and health documents: the
  ``sections`` that ``repro extract --json`` writes and the document
  that ``repro check --json`` writes (timing and page paths left out).

``tests/test_golden.py`` recomputes every digest and names the engines
whose digests moved.  Regenerate the file from the repository root with

    PYTHONPATH=src python -m tests.golden

only when a change alters output on purpose, and say in CHANGES.md which
digests moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.cli import _section_payload, main
from repro.core.mse import build_wrapper
from repro.core.serialize import wrapper_to_json
from repro.core.verify import check_wrapper
from repro.perf.serve import compile_wrapper
from repro.testbed.corpus import engine_ids, load_engine_pages

GOLDEN = Path(__file__).with_name("golden.json")

#: the command that regenerates :data:`GOLDEN`
REGENERATE = "PYTHONPATH=src python -m tests.golden"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables_text() -> str:
    """The stdout of ``python -m repro eval --table all``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--table", "all"]) == 0
    return out.getvalue()


def engine_digests(engine_id: int) -> Tuple[Dict[str, str], List[int]]:
    """One engine's wrapper and page digests, plus the indices of the
    pages where ``CompiledWrapper.serve`` differs from ``extract`` +
    ``check_wrapper``."""
    engine_pages = load_engine_pages(engine_id)
    wrapper = build_wrapper(engine_pages.sample_set)
    compiled = compile_wrapper(wrapper)
    documents: List[Dict[str, Any]] = []
    serve_mismatches: List[int] = []
    for index, (markup, query) in enumerate(
        zip(engine_pages.pages, engine_pages.queries)
    ):
        extraction = wrapper.extract(markup, query)
        health = check_wrapper(wrapper, markup, query)
        served = compiled.serve(markup, query)
        if (
            asdict(served.extraction) != asdict(extraction)
            or served.health.to_obj() != health.to_obj()
        ):
            serve_mismatches.append(index)
        documents.append(
            {
                "sections": [
                    _section_payload(section) for section in extraction.sections
                ],
                "health": health.to_obj(),
            }
        )
    digests = {
        "wrapper": _sha256(wrapper_to_json(wrapper)),
        "pages": _sha256(json.dumps(documents, sort_keys=True)),
    }
    return digests, serve_mismatches


def compute() -> Tuple[Dict[str, Any], Dict[str, List[int]]]:
    """The golden document for the current code, plus every engine's
    serve mismatches (engine id -> page indices; empty when none)."""
    engines: Dict[str, Dict[str, str]] = {}
    mismatches: Dict[str, List[int]] = {}
    for engine_id in engine_ids("all"):
        engines[str(engine_id)], pages = engine_digests(engine_id)
        if pages:
            mismatches[str(engine_id)] = pages
    document = {
        "regenerate": REGENERATE,
        "tables": _sha256(tables_text()),
        "engines": engines,
    }
    return document, mismatches


def load() -> Dict[str, Any]:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write(document: Dict[str, Any]) -> None:
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    golden, serve_mismatches = compute()
    if serve_mismatches:
        raise SystemExit(
            f"serve differs from extract + check_wrapper: {serve_mismatches}"
        )
    write(golden)
    print(f"wrote {GOLDEN} ({len(golden['engines'])} engines)")
