"""Wrapper persistence: engine wrappers <-> JSON.

Wrappers are induced offline from sample pages and applied online for
months (the paper's metasearch scenario); they must survive a process
restart.  This module gives every wrapper component a stable JSON form:

    >>> text = wrapper_to_json(engine_wrapper)
    >>> engine_wrapper = wrapper_from_json(text)

The format is versioned; loading rejects unknown versions rather than
guessing.
"""

from __future__ import annotations

import json
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.core.family import SectionFamily, Type1Family, Type2Family
from repro.core.wrapper import EngineWrapper, SectionWrapper, SeparatorRule
from repro.features.config import FeatureConfig
from repro.render.styles import TextAttr
from repro.tagpath.paths import MergedTagPath

FORMAT_VERSION = 1


class WrapperFormatError(ValueError):
    """Raised when a serialized wrapper cannot be decoded."""


# -- encoding ---------------------------------------------------------------


def _attr_to_obj(attr: TextAttr) -> Dict[str, Any]:
    return {
        "font": attr.font,
        "size": attr.size,
        "style": attr.style,
        "color": attr.color,
        "underline": attr.underline,
    }


def _attrs_to_obj(attrs: Iterable[TextAttr]) -> List[Dict[str, Any]]:
    return [_attr_to_obj(a) for a in sorted(attrs, key=str)]


def _pref_to_obj(pref: MergedTagPath) -> Dict[str, Any]:
    return {
        "tags": list(pref.tags),
        "fixed": list(pref.fixed_counts),
        "observed": [sorted(counts) for counts in pref.observed_counts],
    }


def _wrapper_to_obj(wrapper: SectionWrapper) -> Dict[str, Any]:
    return {
        "schema_id": wrapper.schema_id,
        "pref": _pref_to_obj(wrapper.pref),
        "separator": {"kind": wrapper.separator.kind, "tag": wrapper.separator.tag},
        "lbm_texts": sorted(wrapper.lbm_texts),
        "rbm_texts": sorted(wrapper.rbm_texts),
        "lbm_attrs": _attrs_to_obj(wrapper.lbm_attrs),
        "rbm_attrs": _attrs_to_obj(wrapper.rbm_attrs),
        "record_attrs": _attrs_to_obj(wrapper.record_attrs),
        "typical_records": wrapper.typical_records,
        "markers_inside": wrapper.markers_inside,
    }


def _family_to_obj(family: SectionFamily) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "type": 1 if isinstance(family, Type1Family) else 2,
        "family_id": family.family_id,
        "member_ids": list(family.member_ids),
        "separator": {"kind": family.separator.kind, "tag": family.separator.tag},
        "lbm_attrs": _attrs_to_obj(family.lbm_attrs),
        "rbm_attrs": _attrs_to_obj(family.rbm_attrs),
        "pref": _pref_to_obj(family.pref),
    }
    if isinstance(family, Type2Family):
        obj["member_positions"] = [
            {"key": list(key), "schema": schema}
            for key, schema in sorted(family.member_positions.items())
        ]
    return obj


def engine_to_obj(engine: EngineWrapper) -> Dict[str, Any]:
    """The versioned JSON-serializable payload of an engine wrapper."""
    return {
        "format": "repro-mse-wrapper",
        "version": FORMAT_VERSION,
        "wrappers": [_wrapper_to_obj(w) for w in engine.wrappers],
        "families": [_family_to_obj(f) for f in engine.families],
    }


def wrapper_to_json(engine: EngineWrapper, indent: int = 2) -> str:
    """Serialize an engine wrapper to a JSON string."""
    return json.dumps(engine_to_obj(engine), indent=indent)


# -- decoding ------------------------------------------------------------------


def _attr_from_obj(obj: Dict[str, Any]) -> TextAttr:
    return TextAttr(
        font=obj["font"],
        size=obj["size"],
        style=obj["style"],
        color=obj["color"],
        underline=obj["underline"],
    )


def _attrs_from_obj(items: Iterable[Dict[str, Any]]) -> FrozenSet[TextAttr]:
    return frozenset(_attr_from_obj(o) for o in items)


def _pref_from_obj(obj: Dict[str, Any]) -> MergedTagPath:
    return MergedTagPath(
        tags=obj["tags"],
        fixed_counts=[None if c is None else int(c) for c in obj["fixed"]],
        observed_counts=[set(counts) for counts in obj["observed"]],
    )


def _wrapper_from_obj(obj: Dict[str, Any]) -> SectionWrapper:
    return SectionWrapper(
        schema_id=obj["schema_id"],
        pref=_pref_from_obj(obj["pref"]),
        separator=SeparatorRule(obj["separator"]["kind"], obj["separator"]["tag"]),
        lbm_texts=set(obj["lbm_texts"]),
        rbm_texts=set(obj["rbm_texts"]),
        lbm_attrs=_attrs_from_obj(obj["lbm_attrs"]),
        rbm_attrs=_attrs_from_obj(obj["rbm_attrs"]),
        record_attrs=_attrs_from_obj(obj["record_attrs"]),
        typical_records=obj["typical_records"],
        markers_inside=obj["markers_inside"],
    )


def _family_from_obj(obj: Dict[str, Any]) -> SectionFamily:
    common = dict(
        member_ids=tuple(obj["member_ids"]),
        separator=SeparatorRule(obj["separator"]["kind"], obj["separator"]["tag"]),
        lbm_attrs=_attrs_from_obj(obj["lbm_attrs"]),
        rbm_attrs=_attrs_from_obj(obj["rbm_attrs"]),
        family_id=obj["family_id"],
        pref=_pref_from_obj(obj["pref"]),
    )
    if obj["type"] == 1:
        return Type1Family(**common)
    if obj["type"] == 2:
        positions = {
            tuple(item["key"]): item["schema"]
            for item in obj.get("member_positions", [])
        }
        return Type2Family(member_positions=positions, **common)
    raise WrapperFormatError(f"unknown family type {obj['type']!r}")


def engine_from_obj(
    payload: Dict[str, Any], config: Optional[FeatureConfig] = None
) -> EngineWrapper:
    """Decode an engine wrapper from an :func:`engine_to_obj` payload.

    Any other document, including one with a missing key or a container
    of the wrong type, raises :class:`WrapperFormatError` with the
    decoding error as its cause.
    """
    if not isinstance(payload, dict) or payload.get("format") != "repro-mse-wrapper":
        raise WrapperFormatError("not a repro MSE wrapper document")
    if payload.get("version") != FORMAT_VERSION:
        raise WrapperFormatError(
            f"unsupported wrapper format version {payload.get('version')!r}"
        )
    try:
        wrappers = [_wrapper_from_obj(o) for o in payload["wrappers"]]
        families = [_family_from_obj(o) for o in payload["families"]]
    except KeyError as exc:
        raise WrapperFormatError(f"missing key {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise WrapperFormatError(f"malformed wrapper document: {exc}") from exc
    if config is not None:
        return EngineWrapper(wrappers, families, config)
    return EngineWrapper(wrappers, families)


def wrapper_from_json(text: str) -> EngineWrapper:
    """Deserialize an engine wrapper from :func:`wrapper_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrapperFormatError(f"not valid JSON: {exc}") from exc
    return engine_from_obj(payload)


def save_wrapper(engine: EngineWrapper, path: str) -> None:
    """Write a wrapper to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(wrapper_to_json(engine))


def load_wrapper(path: str) -> EngineWrapper:
    """Read a wrapper from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return wrapper_from_json(handle.read())
