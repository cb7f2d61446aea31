from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dimlab.cantor_pair import (
    DigitFunction,
    EnumerationLimitExceeded,
    brute_force_mesh_count,
    closed_form_counts,
    evaluate,
)
from dimlab.spaces import DigitVector

from conftest import traced_peak_mib
from oracles import enumerate_graph, mesh_count_2d, mesh_count_sets

F = DigitFunction.ODD_DIGITS
G = DigitFunction.EVEN_DIGITS
S = DigitFunction.SUM

cantor_points = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12).map(
    lambda ds: DigitVector(tuple(ds)).value)


class TestEvaluate:
    def test_odd_reader(self):
        assert evaluate(F, DigitVector((1, 0, 1, 0)).value) == Fraction(4, 9)

    def test_even_reader(self):
        assert evaluate(G, DigitVector((1, 0, 1, 0)).value) == 0

    def test_sum(self):
        assert evaluate(S, DigitVector((1, 1)).value) == Fraction(2, 3)
        assert evaluate(F, DigitVector((1, 1)).value) == Fraction(1, 3)
        assert evaluate(G, DigitVector((1, 1)).value) == Fraction(1, 3)

    @given(cantor_points)
    def test_sum_is_pointwise_sum(self, x):
        assert evaluate(S, x) == evaluate(F, x) + evaluate(G, x)

    @given(cantor_points)
    def test_values_in_unit_interval(self, x):
        for fn in (F, G, S):
            assert 0 <= evaluate(fn, x) <= 1


class TestEnumerateGraph:
    def test_depth_one_odd(self):
        gr = enumerate_graph(F, 1)
        assert gr.points == ((Fraction(0), Fraction(0)),
                             (Fraction(1, 3), Fraction(1, 3)))

    def test_depth_two_even(self):
        gr = enumerate_graph(G, 2)
        assert gr.points == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 9), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(0)),
            (Fraction(1, 3) + Fraction(1, 9), Fraction(1, 3)),
        )

    def test_depth_two_sum_values(self):
        gr = enumerate_graph(S, 2)
        assert sorted(v for _, v in gr.points) == [
            Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]

    def test_cardinality_and_injectivity(self):
        gr = enumerate_graph(F, 8)
        assert len(gr.points) == 256
        assert len(set(gr.points)) == 256

    def test_matches_evaluate(self):
        # both against f, g and f + g summed as Fractions straight from
        # the definition, at every digit string of depth 1..9
        def reference(fn, digits):
            odd = sum(Fraction(a, 3 ** ((i + 1) // 2))
                      for i, a in enumerate(digits, 1) if i % 2)
            even = sum(Fraction(a, 3 ** (i // 2))
                       for i, a in enumerate(digits, 1) if i % 2 == 0)
            return {F: odd, G: even, S: odd + even}[fn]

        for depth in range(1, 10):
            for fn in (F, G, S):
                gr = enumerate_graph(fn, depth)
                for bits, point in enumerate(gr.points):
                    dv = DigitVector(tuple((bits >> (depth - 1 - i)) & 1
                                           for i in range(depth)))
                    want = reference(fn, dv.digits)
                    assert point == (dv.value, want)
                    assert evaluate(fn, dv.value) == want

    def test_limit_refusal(self):
        with pytest.raises(EnumerationLimitExceeded):
            enumerate_graph(F, 25)
        # the library's counter enumerates depth 4n: n = 7 is depth 28
        with pytest.raises(EnumerationLimitExceeded):
            brute_force_mesh_count(S, 7)


class TestMeshCounts:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_match_closed_forms(self, n):
        want = closed_form_counts(n)
        got = (brute_force_mesh_count(F, n),
               brute_force_mesh_count(G, n),
               brute_force_mesh_count(S, n))
        assert got == want

    def test_closed_form_values(self):
        assert closed_form_counts(1) == (8, 8, 16)
        assert closed_form_counts(2) == (64, 64, 160)
        assert closed_form_counts(3) == (512, 512, 1792)

    def test_depth16_anchor(self):
        # one extra depth anchors the closed forms beyond the small cases
        assert brute_force_mesh_count(F, 4) == 8 ** 4
        assert brute_force_mesh_count(S, 4) == 4 ** 4 * (3 ** 4 + 1)

    def test_g_symmetry(self):
        for n in (1, 2, 3):
            assert (brute_force_mesh_count(F, n)
                    == brute_force_mesh_count(G, n))

    def test_fast_path_matches_generic_mesh_counter(self):
        # the dedicated integer counter agrees with the rational one on
        # the same enumerated points plus their tail completions, which
        # add half a cell to f and to g and a full cell to f + g
        for n in (1, 2):
            xtail = Fraction(1, 2 * 3 ** (4 * n))
            for fn, vtail in ((F, Fraction(1, 2 * 9 ** n)),
                              (G, Fraction(1, 2 * 9 ** n)),
                              (S, Fraction(1, 9 ** n))):
                gr = enumerate_graph(fn, 4 * n)
                pts = list(gr.points)
                pts += [(x + xtail, v + vtail) for x, v in gr.points]
                assert (mesh_count_2d(pts, n)
                        == brute_force_mesh_count(fn, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_equal_the_set_enumeration(self, n):
        for fn in (F, G, S):
            assert brute_force_mesh_count(fn, n) == mesh_count_sets(fn, n)

    def test_sum_count_memory(self):
        # tracemalloc peak in MiB on numpy 2.4: 1.14 measured for the
        # 131 072 sorted int64 keys, 7.87 when a Python set held the cells
        assert traced_peak_mib(lambda: brute_force_mesh_count(S, 4)) <= 3.0

    def test_truncation_alone_undercounts_sum(self):
        # without the tail completions the top cell of each column is missed
        gr = enumerate_graph(S, 4)
        assert mesh_count_2d(gr.points, 1) == 12
        assert brute_force_mesh_count(S, 1) == 16

    def test_dimension_gap(self):
        f_series = [(n, closed_form_counts(n)[0]) for n in range(2, 7)]
        s_series = [(n, closed_form_counts(n)[2]) for n in range(2, 7)]
        from dimlab.estimators import ScaleSeries, box_dim_estimate
        f_fit = box_dim_estimate(ScaleSeries(tuple(f_series), 9), "full-fit")
        s_fit = box_dim_estimate(ScaleSeries(tuple(s_series), 9), "full-fit")
        assert s_fit.slope - f_fit.slope >= 0.15

