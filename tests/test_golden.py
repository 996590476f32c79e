"""Byte identity as a test: Tables 1-3, every engine's wrapper and every
page's extraction and health match the digests in ``tests/golden.json``.

See ``tests/golden.py`` for what each digest covers and for the one
command that regenerates the file.
"""

import pytest

from tests import golden


@pytest.fixture(scope="module")
def computed():
    return golden.compute()


@pytest.fixture(scope="module")
def expected():
    return golden.load()


def moved(expected, actual, key):
    """Engine ids whose ``key`` digest differs, in engine-id order."""
    ids = sorted(set(expected["engines"]) | set(actual["engines"]), key=int)
    return [
        engine_id
        for engine_id in ids
        if expected["engines"].get(engine_id, {}).get(key)
        != actual["engines"].get(engine_id, {}).get(key)
    ]


def test_tables_digest(computed, expected):
    actual, _ = computed
    assert actual["tables"] == expected["tables"], (
        "the Tables 1-3 text moved; regenerate with "
        f"`{golden.REGENERATE}` only if that is intended"
    )


def test_wrapper_digests(computed, expected):
    actual, _ = computed
    engines = moved(expected, actual, "wrapper")
    assert not engines, f"wrapper JSON moved for engines {', '.join(engines)}"


def test_page_digests(computed, expected):
    actual, _ = computed
    engines = moved(expected, actual, "pages")
    assert not engines, (
        f"extraction or health JSON moved for engines {', '.join(engines)}"
    )


def test_serve_equals_extract_and_check(computed):
    _, mismatches = computed
    assert not mismatches, (
        "CompiledWrapper.serve differs from extract + check_wrapper "
        f"(engine: page indices): {mismatches}"
    )
