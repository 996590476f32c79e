"""Staged pipeline tests: codecs, checkpoints, resume, run identity.

The load-bearing invariant of ``repro.pipeline`` is that fresh and
checkpoint-resumed inductions produce bit-identical wrappers; these
tests pin it on the synthetic corpus, plus the resume
semantics (deleting one stage's artifacts re-runs exactly that stage
and its dependents, growing the sample set reuses page-local work).
"""

import json
import os

import pytest

from repro.core.mse import MSE, MSEConfig
from repro.core.serialize import (
    ds_from_obj,
    ds_to_obj,
    mr_from_obj,
    mr_to_obj,
    section_instance_from_obj,
    section_instance_to_obj,
    wrapper_to_json,
)
from repro.core.dse import DynamicSection
from repro.core.model import SectionInstance
from repro.core.mre import TentativeMR
from repro.features.blocks import Block
from repro.obs import Observer
from repro.pipeline import ArtifactStore, InductionContext, config_key, page_id
from tests.helpers import render, sample_pages

SAMPLES = sample_pages(("apple", "banana", "cherry"), [("Web", 4), ("News", 3)])
GROWN = SAMPLES + sample_pages(("durian",), [("Web", 4), ("News", 3)])

ALL_STAGES = (
    "render", "mre", "dse", "refine", "mine",
    "granularity", "grouping", "wrapper", "families",
)


def induce_json(**kwargs):
    obs = kwargs.pop("obs", None) or Observer()
    samples = kwargs.pop("samples", SAMPLES)
    engine = MSE(kwargs.pop("config", None), obs=obs, **kwargs).build_wrapper(samples)
    return wrapper_to_json(engine), obs


def span_names(obs):
    return [span.name for span in obs.spans()]


# -- artifact codecs --------------------------------------------------------


class TestCodecs:
    MARKUP = SAMPLES[0][0]

    def roundtrip(self, obj):
        # Through actual JSON text, as the store does.
        return json.loads(json.dumps(obj))

    def test_mr_roundtrip_against_rerendered_page(self):
        page = render(self.MARKUP)
        mr = TentativeMR(page=page, records=[Block(page, 3, 5), Block(page, 6, 8)])
        clone = mr_from_obj(self.roundtrip(mr_to_obj(mr)), render(self.MARKUP))
        assert [(r.start, r.end) for r in clone.records] == [(3, 5), (6, 8)]
        assert (clone.start, clone.end) == (mr.start, mr.end)

    def test_ds_roundtrip(self):
        page = render(self.MARKUP)
        ds = DynamicSection(page, 4, 9, lbm=3, rbm=10)
        clone = ds_from_obj(self.roundtrip(ds_to_obj(ds)), page)
        assert (clone.start, clone.end, clone.lbm, clone.rbm) == (4, 9, 3, 10)

    def test_ds_roundtrip_without_markers(self):
        page = render(self.MARKUP)
        clone = ds_from_obj(
            self.roundtrip(ds_to_obj(DynamicSection(page, 2, 6))), page
        )
        assert clone.lbm is None and clone.rbm is None

    def test_section_instance_roundtrip(self):
        page = render(self.MARKUP)
        instance = SectionInstance(
            page=page,
            block=Block(page, 3, 8),
            records=[Block(page, 3, 5), Block(page, 6, 8)],
            lbm=2,
            rbm=9,
            origin="refined",
            score=0.25,
        )
        clone = section_instance_from_obj(
            self.roundtrip(section_instance_to_obj(instance)), page
        )
        assert (clone.block.start, clone.block.end) == (3, 8)
        assert [(r.start, r.end) for r in clone.records] == [(3, 5), (6, 8)]
        assert (clone.lbm, clone.rbm, clone.origin, clone.score) == (
            2, 9, "refined", 0.25,
        )


# -- identity: serial / checkpointed ----------------------------------------


class TestRunIdentity:
    def test_checkpointed_matches_serial(self, tmp_path):
        serial, _ = induce_json()
        checkpointed, _ = induce_json(checkpoint_dir=str(tmp_path))
        assert checkpointed == serial

    def test_checkpoint_writes_all_stage_files(self, tmp_path):
        induce_json(checkpoint_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "manifest.json" in names
        # render and the select hook are never checkpointed
        assert names == ["manifest.json"] + [
            f"stage-{s}.json"
            for s in sorted(ALL_STAGES)
            if s != "render"
        ]


# -- resume semantics -------------------------------------------------------


class TestResume:
    def test_full_resume_runs_only_render(self, tmp_path):
        first, _ = induce_json(checkpoint_dir=str(tmp_path))
        resumed, obs = induce_json(checkpoint_dir=str(tmp_path), resume=True)
        assert resumed == first
        assert span_names(obs) == ["render"]

    def test_deleting_one_stage_reruns_it_and_dependents(self, tmp_path):
        first, _ = induce_json(checkpoint_dir=str(tmp_path))
        os.unlink(tmp_path / "stage-mine.json")
        resumed, obs = induce_json(checkpoint_dir=str(tmp_path), resume=True)
        assert resumed == first
        assert span_names(obs) == [
            "render", "mine", "granularity", "grouping", "wrapper", "families"
        ]

    def test_deleting_a_barrier_reruns_downstream(self, tmp_path):
        first, _ = induce_json(checkpoint_dir=str(tmp_path))
        os.unlink(tmp_path / "stage-grouping.json")
        resumed, obs = induce_json(checkpoint_dir=str(tmp_path), resume=True)
        assert resumed == first
        assert span_names(obs) == ["render", "grouping", "wrapper", "families"]

    def test_without_resume_flag_recomputes_everything(self, tmp_path):
        induce_json(checkpoint_dir=str(tmp_path))
        again, obs = induce_json(checkpoint_dir=str(tmp_path))
        assert set(ALL_STAGES) <= set(span_names(obs))

    def test_growing_sample_set_reuses_page_local_artifacts(self, tmp_path):
        induce_json(checkpoint_dir=str(tmp_path))
        grown, obs = induce_json(
            samples=GROWN, checkpoint_dir=str(tmp_path), resume=True
        )
        fresh, _ = induce_json(samples=GROWN)
        assert grown == fresh
        # MRE re-ran for the one new page only; the DSE barrier saw the
        # changed page set and re-ran, dragging its dependents with it.
        mre = next(s for s in obs.spans() if s.name == "mre")
        assert mre.calls == 1
        assert mre.counters["mre.sections"] <= 4
        assert "dse" in span_names(obs)
        # The store now holds artifacts for all four pages.
        doc = json.loads((tmp_path / "stage-mre.json").read_text())
        assert len(doc["pages"]) == 4

    def test_config_change_invalidates_store(self, tmp_path):
        induce_json(checkpoint_dir=str(tmp_path))
        changed, obs = induce_json(
            config=MSEConfig(use_families=False),
            checkpoint_dir=str(tmp_path),
            resume=True,
        )
        # Nothing reused: every stage ran again under the new config.
        assert set(ALL_STAGES) <= set(span_names(obs))
        fresh, _ = induce_json(config=MSEConfig(use_families=False))
        assert changed == fresh


# -- the store itself -------------------------------------------------------


class TestArtifactStore:
    CONFIG = MSEConfig()

    def test_page_saves_merge(self, tmp_path):
        store = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a", "b"])
        store.save_pages("mre", {"a": {"mrs": []}})
        store.save_pages("mre", {"b": {"mrs": [1]}})
        assert store.load_pages("mre") == [{"mrs": []}, {"mrs": [1]}]

    def test_missing_pages_load_as_none(self, tmp_path):
        store = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a", "b"])
        store.save_pages("mre", {"a": {"mrs": []}})
        assert store.load_pages("mre") == [{"mrs": []}, None]

    def test_barrier_keyed_by_page_set(self, tmp_path):
        store = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a", "b"])
        store.save_barrier("dse", {"x": 1})
        assert store.load_barrier("dse") == {"x": 1}
        grown = ArtifactStore.open(
            str(tmp_path), self.CONFIG, ["a", "b", "c"], resume=True
        )
        assert grown.load_barrier("dse") is None
        # ...but per-page artifacts survive the growth.
        store.save_pages("mre", {"a": 1, "b": 2})
        assert grown.load_pages("mre") == [1, 2, None]

    def test_open_without_resume_wipes(self, tmp_path):
        store = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a"])
        store.save_barrier("dse", {"x": 1})
        reopened = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a"])
        assert reopened.load_barrier("dse") is None

    def test_resume_with_other_config_wipes(self, tmp_path):
        store = ArtifactStore.open(str(tmp_path), self.CONFIG, ["a"])
        store.save_barrier("dse", {"x": 1})
        other = ArtifactStore.open(
            str(tmp_path), MSEConfig(use_granularity=False), ["a"], resume=True
        )
        assert other.load_barrier("dse") is None

    def test_config_key_is_canonical(self):
        assert config_key(MSEConfig()) == config_key(MSEConfig())
        assert config_key(MSEConfig()) != config_key(
            MSEConfig(mining_strategy="per-child")
        )


# -- context identity -------------------------------------------------------


class TestContext:
    def test_page_id_depends_on_query_and_markup(self):
        assert page_id("<html>", "a") == page_id("<html>", "a")
        assert page_id("<html>", "a") != page_id("<html>", "b")
        assert page_id("<html>", "a") != page_id("<html><p>", "a")

    def test_context_without_html_has_no_page_ids(self):
        ctx = InductionContext.from_pages(
            [render(SAMPLES[0][0])], ["q"], MSEConfig()
        )
        assert ctx.page_ids() is None

    def test_context_from_samples(self):
        ctx = InductionContext.from_samples(SAMPLES, MSEConfig())
        assert ctx.page_count == len(SAMPLES)
        assert ctx.queries == [q for _, q in SAMPLES]
        ids = ctx.page_ids()
        assert ids is not None and len(set(ids)) == len(SAMPLES)


# -- observer parent field --------------------------------------------------


class TestSpanParents:
    def test_span_dict_carries_parent(self):
        obs = Observer()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        docs = {d["name"]: d for d in (s.to_dict() for s in obs.spans())}
        assert docs["outer"]["parent"] == ""
        assert docs["inner"]["parent"] == "outer"

    def test_merge_stats_grafts_by_parent(self):
        worker = Observer()
        with worker.span("mre"):
            worker.count("mre.sections", 2)
        stats = worker.stats()
        # Rewrite the parent to nest the worker's top-level span.
        for span in stats["spans"]:
            span["parent"] = "fanout"

        host = Observer()
        with host.span("fanout"):
            pass
        host.merge_stats(stats)
        paths = {s.path for s in host.spans()}
        assert "fanout/mre" in paths
