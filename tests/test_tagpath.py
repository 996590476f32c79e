"""Tag path tests: construction, Formula 1, merging, navigation."""

import pytest

from repro.htmlmod.parser import parse_html
from repro.tagpath.paths import MergedTagPath, PathStep, TagPath

MARKUP = (
    "<html><body>"
    "<table><tr><td>first</td></tr></table>"
    "<table><tr><td>a</td><td>b</td><td>c</td></tr></table>"
    "<div><p>x</p><p>y</p></div>"
    "</body></html>"
)


def doc():
    return parse_html(MARKUP)


class TestConstruction:
    def test_path_to_element(self):
        document = doc()
        td = document.body.find("td")
        path = TagPath.to_node(td)
        assert path.c_tags == ("html", "body", "table", "tr", "td")
        assert [step.s_count for step in path.steps] == [0, 0, 0, 0, 0]

    def test_s_counts_count_element_siblings_only(self):
        document = doc()
        tds = document.body.find_all("td")
        path = TagPath.to_node(tds[3])  # third td of the second table
        assert path.steps[-1] == PathStep("td", 2)
        assert path.steps[2] == PathStep("table", 1)

    def test_path_to_text_node_ends_at_parent(self):
        document = doc()
        td = document.body.find("td")
        text = td.children[0]
        assert TagPath.to_node(text) == TagPath.to_node(td)

    def test_detached_node_raises(self):
        from repro.htmlmod.dom import Text

        with pytest.raises(ValueError):
            TagPath.to_node(Text("loose"))

    def test_total_s(self):
        document = doc()
        tds = document.body.find_all("td")
        assert TagPath.to_node(tds[3]).total_s == 3  # table@1 + td@2

    def test_str_representation(self):
        document = doc()
        path = TagPath.to_node(document.body.find("td"))
        assert str(path) == "{html}@0/{body}@0/{table}@0/{tr}@0/{td}@0"


class TestCompatibilityAndDistance:
    def test_same_tags_compatible(self):
        document = doc()
        tds = document.body.find_all("td")
        assert TagPath.to_node(tds[0]).compatible(TagPath.to_node(tds[1]))

    def test_different_tags_incompatible(self):
        document = doc()
        td = TagPath.to_node(document.body.find("td"))
        p = TagPath.to_node(document.body.find("p"))
        assert not td.compatible(p)

    def test_distance_zero_for_identical(self):
        document = doc()
        path = TagPath.to_node(document.body.find("td"))
        assert path.distance(path) == 0.0

    def test_distance_formula_one(self):
        document = doc()
        tds = document.body.find_all("td")
        p0 = TagPath.to_node(tds[0])  # total_s = 0
        p3 = TagPath.to_node(tds[3])  # table@1, td@2 -> total_s = 3
        # numerator = |0-1| + |0-2| = 3; denominator = max(0, 3) = 3
        assert p0.distance(p3) == 1.0

    def test_distance_symmetric(self):
        document = doc()
        tds = document.body.find_all("td")
        p0, p1 = TagPath.to_node(tds[0]), TagPath.to_node(tds[1])
        assert p0.distance(p1) == p1.distance(p0)

    def test_distance_incompatible_raises(self):
        document = doc()
        td = TagPath.to_node(document.body.find("td"))
        p = TagPath.to_node(document.body.find("p"))
        with pytest.raises(ValueError):
            td.distance(p)

    def test_distance_degenerate_no_s_steps(self):
        path = TagPath([PathStep("html", 0), PathStep("body", 0)])
        other = TagPath([PathStep("html", 0), PathStep("body", 0)])
        assert path.distance(other) == 0.0


class TestResolve:
    def test_resolve_roundtrip(self):
        document = doc()
        for td in document.body.find_all("td"):
            path = TagPath.to_node(td)
            assert path.resolve(document.root) is td

    def test_resolve_missing_returns_none(self):
        document = doc()
        path = TagPath(
            [PathStep("html", 0), PathStep("body", 0), PathStep("table", 5)]
        )
        assert path.resolve(document.root) is None

    def test_resolve_wrong_tag_returns_none(self):
        document = doc()
        path = TagPath([PathStep("html", 0), PathStep("span", 0)])
        assert path.resolve(document.root) is None


class TestMergedTagPath:
    def test_merge_identical_paths_stays_fixed(self):
        document = doc()
        path = TagPath.to_node(document.body.find("td"))
        merged = MergedTagPath.merge([path, path])
        assert all(c is not None for c in merged.fixed_counts)

    def test_merge_divergent_level_becomes_flexible(self):
        document = doc()
        tds = document.body.find_all("td")
        merged = MergedTagPath.merge([TagPath.to_node(tds[0]), TagPath.to_node(tds[3])])
        assert merged.fixed_counts[2] is None  # table level varied
        assert merged.fixed_counts[4] is None  # td level varied
        assert merged.observed_counts[2] == {0, 1}

    def test_merge_incompatible_raises(self):
        document = doc()
        td = TagPath.to_node(document.body.find("td"))
        p = TagPath.to_node(document.body.find("p"))
        with pytest.raises(ValueError):
            MergedTagPath.merge([td, p])

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            MergedTagPath.merge([])

    def test_find_fixed(self):
        document = doc()
        td = document.body.find("td")
        merged = MergedTagPath.merge([TagPath.to_node(td)])
        assert merged.find(document.root) == [td]

    def test_find_flexible_matches_all_positions(self):
        document = doc()
        tds = document.body.find_all("td")
        merged = MergedTagPath.merge([TagPath.to_node(tds[0]), TagPath.to_node(tds[3])])
        assert merged.find(document.root) == tds  # all 4, document order

    def test_find_with_slack(self):
        document = doc()
        tds = document.body.find_all("td")
        merged = MergedTagPath.merge([TagPath.to_node(tds[1])])  # td@0 of table@1
        found = merged.find(document.root, slack=2)
        assert tds[1] in found and tds[3] in found

    def test_matches_concrete_path(self):
        document = doc()
        tds = document.body.find_all("td")
        merged = MergedTagPath.merge([TagPath.to_node(tds[0]), TagPath.to_node(tds[3])])
        assert merged.matches(TagPath.to_node(tds[1]))
        p = TagPath.to_node(document.body.find("p"))
        assert not merged.matches(p)

    def test_matches_respects_fixed_levels(self):
        document = doc()
        tds = document.body.find_all("td")
        merged = MergedTagPath.merge([TagPath.to_node(tds[0])])
        assert not merged.matches(TagPath.to_node(tds[3]))
        assert merged.matches(TagPath.to_node(tds[3]), slack=2)

    def test_find_wrong_root_tag(self):
        document = doc()
        merged = MergedTagPath.merge([TagPath.to_node(document.body.find("td"))])
        assert merged.find(document.body) == []
