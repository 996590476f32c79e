"""Wrapper serialization tests."""

import copy
import json

import pytest

from repro.core.mse import build_wrapper
from repro.core.serialize import (
    WrapperFormatError,
    load_wrapper,
    save_wrapper,
    wrapper_from_json,
    wrapper_to_json,
)
from repro.testbed import load_engine_pages
from tests.helpers import make_records, sample_pages, simple_result_page


@pytest.fixture(scope="module")
def engine():
    pages = sample_pages(
        ("apple", "banana", "cherry"), [("Web", 4), ("News", 3)]
    )
    return build_wrapper(pages)


class TestRoundTrip:
    def test_json_is_valid(self, engine):
        payload = json.loads(wrapper_to_json(engine))
        assert payload["format"] == "repro-mse-wrapper"
        assert payload["version"] == 1

    def test_wrappers_survive(self, engine):
        restored = wrapper_from_json(wrapper_to_json(engine))
        assert len(restored.wrappers) == len(engine.wrappers)
        for a, b in zip(engine.wrappers, restored.wrappers):
            assert a.schema_id == b.schema_id
            assert str(a.pref) == str(b.pref)
            assert a.separator == b.separator
            assert a.lbm_texts == b.lbm_texts
            assert a.lbm_attrs == b.lbm_attrs
            assert a.record_attrs == b.record_attrs
            assert a.typical_records == b.typical_records
            assert a.markers_inside == b.markers_inside

    def test_families_survive(self, engine):
        restored = wrapper_from_json(wrapper_to_json(engine))
        assert len(restored.families) == len(engine.families)
        for a, b in zip(engine.families, restored.families):
            assert type(a) is type(b)
            assert a.member_ids == b.member_ids
            assert a.lbm_attrs == b.lbm_attrs

    def test_extraction_identical_after_round_trip(self, engine):
        restored = wrapper_from_json(wrapper_to_json(engine))
        html = simple_result_page(
            "durian",
            [
                ("Web", make_records("Web", 5, "durian")),
                ("News", make_records("News", 2, "durian")),
            ],
        )
        original = engine.extract(html, "durian")
        reloaded = restored.extract(html, "durian")
        assert [s.line_span for s in original.sections] == [
            s.line_span for s in reloaded.sections
        ]
        assert [r.line_span for s in original.sections for r in s.records] == [
            r.line_span for s in reloaded.sections for r in s.records
        ]

    def test_file_round_trip(self, engine, tmp_path):
        path = tmp_path / "wrapper.json"
        save_wrapper(engine, str(path))
        restored = load_wrapper(str(path))
        assert len(restored.wrappers) == len(engine.wrappers)

    def test_empty_marker_sets_survive(self, engine):
        """A wrapper without boundary markers round-trips losslessly.

        Markerless wrappers are legal (§5.7 markers are optional
        evidence) and the serving path compiles them to empty lookup
        tables — the serialized form must preserve the emptiness rather
        than dropping or null-ing the fields.
        """
        from dataclasses import replace

        from repro.core.wrapper import EngineWrapper

        bare = EngineWrapper(
            [
                replace(
                    wrapper,
                    lbm_texts=set(),
                    rbm_texts=set(),
                    lbm_attrs=frozenset(),
                    rbm_attrs=frozenset(),
                )
                for wrapper in engine.wrappers
            ],
            families=[],
            config=engine.config,
        )
        restored = wrapper_from_json(wrapper_to_json(bare))
        for a, b in zip(bare.wrappers, restored.wrappers):
            assert b.lbm_texts == set()
            assert b.rbm_texts == set()
            assert b.lbm_attrs == frozenset()
            assert b.rbm_attrs == frozenset()
            assert a.markers_inside == b.markers_inside
            assert a.typical_records == b.typical_records

    def test_markers_inside_and_typical_records_survive(self, engine):
        from dataclasses import replace

        from repro.core.wrapper import EngineWrapper

        flipped = EngineWrapper(
            [
                replace(
                    wrapper,
                    markers_inside=not wrapper.markers_inside,
                    typical_records=wrapper.typical_records + 7,
                )
                for wrapper in engine.wrappers
            ],
            families=[],
            config=engine.config,
        )
        restored = wrapper_from_json(wrapper_to_json(flipped))
        for a, b in zip(flipped.wrappers, restored.wrappers):
            assert a.markers_inside == b.markers_inside
            assert a.typical_records == b.typical_records

    def test_compiled_round_trip_extraction_identical(self, engine):
        """compile_wrapper(load(save(w))) == w.extract, byte for byte."""
        from dataclasses import asdict

        from repro.perf.serve import compile_wrapper

        restored = wrapper_from_json(wrapper_to_json(engine))
        compiled = compile_wrapper(restored)
        html = simple_result_page(
            "elderberry", [("Web", make_records("Web", 4, "elderberry"))]
        )
        assert json.dumps(
            asdict(compiled.extract(html, "elderberry")), sort_keys=True
        ) == json.dumps(
            asdict(engine.extract(html, "elderberry")), sort_keys=True
        )


class TestErrors:
    def test_not_json(self):
        with pytest.raises(WrapperFormatError):
            wrapper_from_json("this is not json {")

    def test_wrong_format_marker(self):
        with pytest.raises(WrapperFormatError):
            wrapper_from_json(json.dumps({"format": "something-else"}))

    def test_unknown_version(self, engine):
        payload = json.loads(wrapper_to_json(engine))
        payload["version"] = 999
        with pytest.raises(WrapperFormatError):
            wrapper_from_json(json.dumps(payload))

    def test_unknown_family_type(self, engine):
        payload = json.loads(wrapper_to_json(engine))
        if payload["families"]:
            payload["families"][0]["type"] = 7
            with pytest.raises(WrapperFormatError):
                wrapper_from_json(json.dumps(payload))


def _paths(node, path=()):
    """The path of every value in a JSON document, at every depth."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _decodes_or_format_error(payload):
    try:
        wrapper_from_json(json.dumps(payload))
    except WrapperFormatError:
        pass


class TestMalformedDocuments:
    """Decoding a damaged real wrapper either succeeds or raises
    WrapperFormatError; no KeyError, TypeError or AttributeError escapes."""

    @pytest.fixture(scope="class")
    def payload(self):
        # Engine 81's wrapper has two section wrappers and a type-2
        # family, so every key of the format occurs in it.
        samples = load_engine_pages(81).sample_set
        return json.loads(wrapper_to_json(build_wrapper(samples)))

    def _edited(self, payload, path, value=None):
        doc = copy.deepcopy(payload)
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc

    def test_every_missing_key(self, payload):
        paths = [path for path in _paths(payload) if isinstance(path[-1], str)]
        assert len(paths) > 50
        for path in paths:
            _decodes_or_format_error(self._edited(payload, path))

    def test_every_container_of_the_wrong_type(self, payload):
        swaps = 0
        for path in _paths(payload):
            value = payload
            for step in path:
                value = value[step]
            if not isinstance(value, (dict, list)):
                continue
            for wrong in ({} if isinstance(value, list) else [], 0, "x"):
                swaps += 1
                _decodes_or_format_error(self._edited(payload, path, wrong))
        assert swaps > 50

    def test_missing_key_chains_the_cause(self, payload):
        doc = self._edited(payload, ("wrappers", 0, "pref", "tags"))
        with pytest.raises(WrapperFormatError) as info:
            wrapper_from_json(json.dumps(doc))
        assert isinstance(info.value.__cause__, KeyError)
