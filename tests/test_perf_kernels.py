"""The repro.perf fast kernels must agree exactly with the references.

Every optimisation in the perf layer (trimmed edit distance,
bitmask Dtal, memoized tree/forest distance, cached diversity, the
fingerprint fast paths inside ``record_distance``) claims *score
identity* with the naive formula implementations — these property tests
are that claim, on randomized inputs.
"""

import importlib
import random

from hypothesis import given, settings, strategies as st

from repro.algorithms.string_edit import (
    edit_distance,
    edit_distance_reference,
    normalized_edit_distance,
)
from repro.algorithms.tree_edit import (
    OrderedTree,
    forest_distance,
    forest_signature,
    tree_signature,
)
from repro.core.mse import MSEConfig
from repro.features.blocks import Block
from repro.features.cohesion import record_diversity, section_cohesion
from repro.features.config import DEFAULT_CONFIG
from repro.features.line_distance import line_distance, text_attr_distance
from repro.features.record_distance import (
    RecordDistanceCache,
    _record_distance_reference,
    record_distance,
)
from repro.htmlmod.parser import parse_html
from repro.perf.fingerprints import (
    ATTR_INTERNER,
    block_fingerprint,
    masked_attr_distance,
)
from repro.perf.kernels import (
    FOREST_MEMO,
    PairMemo,
    clear_kernel_caches,
    fast_forest_distance,
    kernel_cache_stats,
)
from repro.render.layout import render_page
from repro.render.styles import TextAttr
from tests.helpers import all_leaf_line_range

# -- strategies -------------------------------------------------------------

symbols = st.integers(min_value=0, max_value=5)
sequences = st.lists(symbols, max_size=12).map(tuple)


@st.composite
def trees(draw, depth=3):
    label = draw(st.sampled_from("abcd"))
    if depth == 0:
        return (label,)
    children = draw(st.lists(trees(depth=depth - 1), max_size=3))
    return (label, *children)


@st.composite
def forests(draw):
    return [OrderedTree.from_tuple(spec) for spec in draw(st.lists(trees(), max_size=3))]


attr_sets = st.frozensets(
    st.builds(
        TextAttr,
        size=st.sampled_from([10, 12, 14]),
        style=st.sampled_from(["plain", "bold", "italic"]),
        underline=st.booleans(),
    ),
    max_size=4,
)


@st.composite
def random_page(draw):
    """A small rendered page with enough lines for multi-line blocks."""
    n = draw(st.integers(min_value=3, max_value=6))
    items = []
    for i in range(n):
        word = "abcdef"[i % 6]
        body = f"<li><a href='/{i}'>{word} item {i}</a>"
        if draw(st.booleans()):
            body += f"<br>snippet {word} text {i}"
        if draw(st.booleans()):
            body = body.replace("<a ", "<a style='font-weight:bold' ", 1)
        items.append(body + "</li>")
    markup = f"<html><body><ul>{''.join(items)}</ul></body></html>"
    return render_page(parse_html(markup))


def random_block(draw, page):
    start = draw(st.integers(min_value=0, max_value=len(page.lines) - 1))
    end = draw(st.integers(min_value=start, max_value=len(page.lines) - 1))
    return Block(page, start, end)


#: leaf fragments: text, inline markup, void elements, unrendered nodes
_LEAF_FRAGMENTS = (
    "word",
    "<a href='/x'>link</a> tail",
    "<b>bold</b>",
    "<br>",
    "<img src='i.gif'>",
    "<hr>",
    "<input value='go'>",
    "<span style='display:none'>hidden</span>",
    "<div></div>",
)


@st.composite
def fragment(draw, depth=3):
    """Markup nesting lists, tables, blocks and display:none subtrees."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAF_FRAGMENTS))
    kids = draw(st.lists(fragment(depth=depth - 1), min_size=1, max_size=3))
    kind = draw(st.sampled_from(("ul", "table", "hidden", "div", "p")))
    if kind == "ul":
        return "<ul>" + "".join(f"<li>{kid}</li>" for kid in kids) + "</ul>"
    if kind == "table":
        cells = "".join(f"<td>{kid}</td>" for kid in kids)
        return f"<table><tr>{cells}</tr><tr><td>next row</td></tr></table>"
    if kind == "hidden":
        return "<div style='display:none'>" + "".join(kids) + "</div>"
    return f"<{kind}>" + "".join(kids) + f"</{kind}>"


@st.composite
def structured_page(draw):
    body = "".join(draw(st.lists(fragment(), min_size=1, max_size=4)))
    return render_page(parse_html(f"<html><body>{body}</body></html>"))


# -- edit distance ----------------------------------------------------------


class TestEditDistanceFast:
    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_matches_reference_default_costs(self, s1, s2):
        assert edit_distance(s1, s2) == edit_distance_reference(s1, s2)

    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_matches_reference_custom_cost(self, s1, s2):
        def cost(a, b):
            return abs(a - b) / 5.0

        assert edit_distance(s1, s2, substitution_cost=cost) == (
            edit_distance_reference(s1, s2, substitution_cost=cost)
        )

    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_nonzero_equal_substitution_cost(self, s1, s2):
        # Equal items may have nonzero substitution cost; trimming must
        # not fire then (an existing threshold test depends on this).
        def cost(a, b):
            return 0.2

        assert edit_distance(s1, s2, substitution_cost=cost) == (
            edit_distance_reference(s1, s2, substitution_cost=cost)
        )

    def test_trim_only_pays_for_the_difference(self):
        # A long shared prefix/suffix must not change the score.
        base = tuple(range(200))
        edited = base[:100] + (999,) + base[101:]
        assert edit_distance(base, edited) == 1.0


# -- Dtal bitmasks ----------------------------------------------------------


class TestAttrMasks:
    @settings(max_examples=200, deadline=None)
    @given(attr_sets, attr_sets)
    def test_masked_distance_equals_frozenset_distance(self, a1, a2):
        m1 = ATTR_INTERNER.mask(a1)
        m2 = ATTR_INTERNER.mask(a2)
        assert masked_attr_distance(m1, m2) == text_attr_distance(a1, a2)

    def test_interner_reuses_masks(self):
        attrs = frozenset([TextAttr(style="bold")])
        assert ATTR_INTERNER.mask(attrs) is ATTR_INTERNER.mask(frozenset(attrs))


# -- tree / forest memoization ----------------------------------------------


class TestForestMemo:
    @settings(max_examples=100, deadline=None)
    @given(forests(), forests())
    def test_matches_reference(self, f1, f2):
        clear_kernel_caches()
        assert fast_forest_distance(f1, f2) == forest_distance(f1, f2)
        # and again, now served from the memo
        assert fast_forest_distance(f1, f2) == forest_distance(f1, f2)

    @settings(max_examples=50, deadline=None)
    @given(forests())
    def test_signature_equality_means_zero(self, f):
        clone = [OrderedTree.from_tuple(_spec(t)) for t in f]
        assert forest_signature(f) == forest_signature(clone)
        assert fast_forest_distance(f, clone) == 0.0

    def test_signature_is_postorder_unique(self):
        # (a(b c)) vs (a(b(c))): same label multiset, different shape.
        t1 = OrderedTree.from_tuple(("a", ("b",), ("c",)))
        t2 = OrderedTree.from_tuple(("a", ("b", ("c",))))
        assert tree_signature(t1) != tree_signature(t2)
        assert len(tree_signature(t1)) == t1.size()

    def test_memo_hits_are_counted(self):
        clear_kernel_caches()
        f1 = [OrderedTree.from_tuple(("a", ("b",)))]
        f2 = [OrderedTree.from_tuple(("a", ("c",)))]
        fast_forest_distance(f1, f2)
        before = FOREST_MEMO.hits
        fast_forest_distance(f1, f2)
        assert FOREST_MEMO.hits == before + 1
        stats = kernel_cache_stats()
        assert stats["forest_memo"]["hits"] >= 1


def _spec(tree):
    return (tree.label, *[_spec(c) for c in tree.children])


class TestPairMemo:
    def test_stats_cover_every_kernel_cache(self):
        stats = kernel_cache_stats()
        for name in (
            "tree_memo",
            "forest_memo",
            "record_memo",
            "dinr_memo",
            "attr_interner",
            "tuple_interner",
        ):
            assert name in stats

    def test_clear_resets_dinr_memo(self):
        from repro.perf.kernels import DINR_MEMO

        DINR_MEMO.store(("config", "key"), 0.25)
        assert DINR_MEMO.get(("config", "key")) == 0.25
        clear_kernel_caches()
        assert DINR_MEMO.get(("config", "key")) is None
        assert len(DINR_MEMO) == 0

    def test_symmetric_lookup(self):
        memo = PairMemo("t")
        a, b = ("a",), ("b",)
        key, found = memo.lookup(a, b)
        assert found is None
        memo.store(key, 1.5)
        key2, found2 = memo.lookup(b, a)
        assert key2 == key and found2 == 1.5
        assert memo.hits == 1 and memo.misses == 1

    def test_bounded(self):
        memo = PairMemo("t", max_entries=2)
        for i in range(5):
            key, _ = memo.lookup((i,), (i, i))
            memo.store(key, float(i))
        assert len(memo) <= 2


# -- feature-layer fast paths -----------------------------------------------


class TestFeatureFastPaths:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_record_distance_matches_reference(self, data):
        page = data.draw(random_page())
        b1 = random_block(data.draw, page)
        b2 = random_block(data.draw, page)
        fast = record_distance(b1, b2)
        ref = _record_distance_reference(b1, b2)
        assert fast == ref

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_identical_line_fast_path(self, data):
        page = data.draw(random_page())
        for line in page.lines:
            assert line_distance(line, line) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_identical_block_fast_path(self, data):
        page = data.draw(random_page())
        block = random_block(data.draw, page)
        twin = Block(page, block.start, block.end)
        assert record_distance(block, twin) == 0.0
        assert _record_distance_reference(block, twin) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cached_diversity_matches_formula(self, data):
        page = data.draw(random_page())
        cache = RecordDistanceCache(DEFAULT_CONFIG)
        block = random_block(data.draw, page)
        expected = record_diversity(block, DEFAULT_CONFIG)
        assert cache.diversity(block) == expected
        assert cache.diversity(block) == expected  # memoized second ask
        assert cache.diversity_hits == 1 and cache.diversity_misses == 1
        stats = cache.stats()
        assert stats["diversity_hit_rate"] == 0.5
        assert stats["diversity_entries"] == 1

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_cohesion_same_with_and_without_cache(self, data):
        page = data.draw(random_page())
        blocks = [
            random_block(data.draw, page)
            for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
        ]
        with_cache = section_cohesion(
            blocks, DEFAULT_CONFIG, RecordDistanceCache(DEFAULT_CONFIG)
        )
        without = section_cohesion(blocks, DEFAULT_CONFIG)
        assert with_cache == without

    def test_fingerprint_cached_on_block(self):
        page = render_page(
            parse_html("<html><body><p>one</p><p>two</p></body></html>")
        )
        block = Block(page, 0, len(page.lines) - 1)
        fp = block_fingerprint(block)
        assert block_fingerprint(block) is fp
        assert len(fp.type_codes) == len(block)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_element_signature_matches_tree_signature(self, data):
        """Single-walk DOM signatures == reference via OrderedTree."""
        from repro.htmlmod.dom import Element
        from repro.perf.fingerprints import element_tree_signature

        page = data.draw(random_page())
        for node in page.document.root.iter():
            if isinstance(node, Element):
                reference = tree_signature(
                    OrderedTree.from_tuple(node.tag_signature())
                )
                assert element_tree_signature(node) == reference

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_page(), structured_page()))
    def test_line_range_matches_all_leaf_reference(self, page):
        """The cached two-search element spans == the subtree min/max.

        ``line_range_of_element`` leans on the same document-order
        invariant as ``span_forest``: it stops at the first and the last
        rendered node of the subtree instead of visiting all of them.
        """
        for element in page.document.root.iter_elements():
            expected = all_leaf_line_range(page, element)
            assert page.line_range_of_element(element) == expected
            assert page.line_range_of_element(element) == expected  # cached

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_span_forest_matches_all_leaf_reference(self, data):
        """The two-chain span fast paths == the all-leaves reference.

        ``span_forest`` and ``span_subtree`` both lean on the
        document-order invariant (pre-order rendering => contiguous leaf
        runs per subtree) to consider only the first and last span leaf;
        the reference below works from every leaf.
        """
        from repro.render.lines import deepest_common_ancestor

        page = data.draw(random_page())
        block = random_block(data.draw, page)
        leaves = []
        for line in page.lines[block.start : block.end + 1]:
            leaves.extend(line.leaves)
        reference_subtree = (
            deepest_common_ancestor(leaves) if leaves else None
        )
        assert page.span_subtree(block.start, block.end) is reference_subtree
        forest = page.span_forest(block.start, block.end)
        if reference_subtree is None:
            assert forest == []
        elif forest != [reference_subtree]:
            # The forest is a consecutive run of the ancestor's element
            # children (unrendered middles included), covering the span.
            children = [
                child
                for child in reference_subtree.children
                if child in forest
            ]
            assert children == forest


# -- end to end -------------------------------------------------------------


class TestEndToEnd:
    def test_wrapper_induction_identical_with_fast_kernels(self, monkeypatch):
        """Induction and extraction are unchanged when every Drec runs
        through the reference kernels instead of the fingerprint path."""
        from repro.evalkit.harness import evaluate_engine
        from repro.testbed.corpus import load_engine_pages

        # The package re-exports the function under the module's name.
        record_distance_module = importlib.import_module(
            "repro.features.record_distance"
        )

        engine_pages = load_engine_pages(83)  # multi-section engine
        fast = evaluate_engine(engine_pages, MSEConfig())
        clear_kernel_caches()
        monkeypatch.setattr(
            record_distance_module,
            "record_distance",
            _record_distance_reference,
        )
        ref = evaluate_engine(engine_pages, MSEConfig())
        assert fast.rows == ref.rows
        assert fast.failed == ref.failed
