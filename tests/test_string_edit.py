"""String edit distance tests (exact values + metric properties)."""

from hypothesis import given, strategies as st

from repro.algorithms.string_edit import edit_distance, normalized_edit_distance

short_text = st.text(alphabet="abcd", max_size=12)


class TestKnownValues:
    def test_classic_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3.0

    def test_identical(self):
        assert edit_distance("abc", "abc") == 0.0

    def test_empty_vs_nonempty(self):
        assert edit_distance("", "abc") == 3.0
        assert edit_distance("abc", "") == 3.0

    def test_both_empty(self):
        assert edit_distance("", "") == 0.0

    def test_single_substitution(self):
        assert edit_distance("abc", "axc") == 1.0

    def test_works_on_lists(self):
        assert edit_distance([1, 2, 3], [1, 3]) == 1.0


class TestCustomCosts:
    def test_substitution_cost_function(self):
        def cost(a, b):
            return 0.0 if a == b else 0.5

        assert edit_distance("ab", "ax", substitution_cost=cost) == 0.5

    def test_asymmetric_costs_respect_direction(self):
        # replacing an item of seq1 with one of seq2 must not be confused
        # by the internal swap that keeps the shorter sequence inner.
        def cost(a, b):
            if a == b:
                return 0.0
            return 0.1 if (a, b) == ("a", "b") else 5.0

        assert abs(edit_distance("a", "bbb", substitution_cost=cost) - 2.1) < 1e-9
        assert edit_distance("bbb", "a", substitution_cost=cost) == 4.0

    def test_fractional_substitution_beats_indel_pair(self):
        def cost(a, b):
            return 0.2

        assert edit_distance("a", "b", substitution_cost=cost) == 0.2


class TestNormalized:
    def test_range_unit_costs(self):
        assert normalized_edit_distance("abc", "xyz") == 1.0
        assert normalized_edit_distance("abc", "abc") == 0.0

    def test_empty_pair_is_zero(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_one_empty(self):
        assert normalized_edit_distance("", "ab") == 1.0

    @given(short_text, short_text)
    def test_bounds(self, s1, s2):
        d = normalized_edit_distance(s1, s2)
        assert 0.0 <= d <= 1.0

    @given(short_text, short_text)
    def test_symmetry(self, s1, s2):
        assert abs(
            normalized_edit_distance(s1, s2) - normalized_edit_distance(s2, s1)
        ) < 1e-12


class TestMetricProperties:
    @given(short_text, short_text)
    def test_symmetry_unnormalized(self, s1, s2):
        assert edit_distance(s1, s2) == edit_distance(s2, s1)

    @given(short_text)
    def test_identity(self, s):
        assert edit_distance(s, s) == 0.0

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c) + 1e-9

    @given(short_text, short_text)
    def test_upper_bound_is_longer_length(self, s1, s2):
        assert edit_distance(s1, s2) <= max(len(s1), len(s2))

    @given(short_text, short_text)
    def test_lower_bound_is_length_difference(self, s1, s2):
        assert edit_distance(s1, s2) >= abs(len(s1) - len(s2))
