import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimlab import cantor_pair, energy, estimators
from dimlab.energy import (
    TAIL_LEVELS,
    RandomFieldSample,
    build_nested_family,
    eval_field,
    expected_energy_check,
    graph_measure,
    kernel_bound_check,
    kernel_constant,
    kernel_integral,
    kernel_integrals,
    kernel_q_slope,
    ladder_pairs,
    minimal_level_depth,
    natural_leaf_measure,
    pair_expectation_check,
)
from dimlab.rng import stable_generator
from dimlab.spaces import DigitVector, cantor_digits, cantor_numerators

from conftest import traced_peak_mib
from oracles import (
    anchor_pairs,
    kernel_centered_bound,
    kernel_closed_form_u1,
    kernel_constant_gammaln,
    kernel_dblquad,
    kernel_integral_one_case,
    kernel_quad,
    kernel_refined_2d,
    locate_by_hull,
    node_value,
    pair_mean,
    tail_value,
)


def _prefix(piece, t):
    """The depth-t digit prefix of a piece's cylinder, read off its anchor."""
    digits = cantor_digits(piece.anchor)
    return digits + (0,) * (t - len(digits))


def _piece_point(fam, piece, offset_digits):
    """The point of a leaf whose digits extend its prefix by the given ones."""
    t = fam.level_depths[len(piece.path) - 1]
    return piece.anchor + DigitVector(offset_digits).value / 3 ** t


class TestNestedFamily:
    def test_minimal_depths(self):
        # smallest triadic depth with 3**-t <= 2**-(n*n)
        assert [minimal_level_depth(n) for n in (1, 2, 3, 4)] == [1, 3, 6, 11]

    def test_depth_one_two_pieces(self):
        fam = build_nested_family((2,))
        assert len(fam.levels[0]) == 2
        assert all(p.diameter <= Fraction(1, 2) for p in fam.levels[0])

    def test_diameter_condition_all_levels(self, nested_family_depth3):
        fam = nested_family_depth3
        for n, level in enumerate(fam.levels, start=1):
            for piece in level:
                assert piece.diameter <= Fraction(1, 2 ** (n * n))

    def test_disjoint_and_nested(self, nested_family_depth3):
        fam = nested_family_depth3
        for t, level in zip(fam.level_depths, fam.levels):
            for i, a in enumerate(level):
                for b in level[i + 1:]:
                    # distinct same-level cylinders never share a prefix
                    assert _prefix(a, t) != _prefix(b, t)
        for t, d, child_level, parent_level in zip(
                fam.level_depths[1:], fam.level_depths, fam.levels[1:],
                fam.levels):
            for child in child_level:
                parent = next(p for p in parent_level
                              if p.path == child.path[:-1])
                assert _prefix(child, t)[:d] == _prefix(parent, d)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            build_nested_family((2,) * 5)

    def test_branching_capacity_validated(self):
        with pytest.raises(ValueError):
            build_nested_family((2, 5))
        fam = build_nested_family((2, 4))
        assert len(fam.leaves()) == 8

    def test_locate(self, nested_family_depth3):
        fam = nested_family_depth3
        leaf = fam.leaves()[3]
        x = leaf.anchor
        assert fam.locate(x) == leaf.path
        outside = DigitVector((0, 1, 1)).value
        assert len(fam.locate(outside)) < fam.depth

    def test_locate_keeps_paths_not_errors(self):
        fam = build_nested_family((2, 2))
        x = fam.leaves()[1].anchor
        path = fam.locate(x)
        assert fam.locate(x) is path
        for bad in (Fraction(1, 2), Fraction(2, 3)):
            for _ in range(2):
                with pytest.raises(ValueError):
                    fam.locate(bad)
        # the kept paths are no part of the family's value
        other = build_nested_family((2, 2))
        assert fam == other and hash(fam) == hash(other)
        assert repr(fam) == repr(other)

    def test_locate_matches_digit_prefixes(self, nested_family_depth3):
        # the hull test places every Cantor point with two digits past the
        # deepest level where its digits meet the pieces' prefixes
        fam = nested_family_depth3
        depth = fam.level_depths[-1] + 2
        for m in cantor_numerators(depth):
            x = Fraction(m, 3 ** depth)
            digits = cantor_digits(x)
            digits += (0,) * (depth - len(digits))
            path = ()
            for t, level in zip(fam.level_depths, fam.levels):
                hits = [p.path for p in level if _prefix(p, t) == digits[:t]]
                if not hits:
                    break
                path = hits[0]
            assert fam.locate(x) == path

    def test_locate_matches_hull_scan(self):
        # every valid branching of depth <= 3 with factors <= 4: anchors,
        # anchors nudged by one digit (a 2 digit leaves the set), deep
        # points inside leaves, and values off the set, which both refuse
        rnd = random.Random(25)
        depths = [minimal_level_depth(n) for n in (1, 2, 3)]
        caps = [min(4, 2 ** (hi - lo))
                for lo, hi in zip([0] + depths, depths)]
        families = [build_nested_family(b) for depth in (1, 2, 3)
                    for b in itertools.product(
                        *(range(1, c + 1) for c in caps[:depth]))]
        assert len(families) == 2 + 2 * 4 + 2 * 4 * 4
        off = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 9), Fraction(1, 7)]
        for fam in families:
            xs = []
            for level in fam.levels:
                for piece in level:
                    xs.append(piece.anchor)
                    xs += [piece.anchor + Fraction(1, 3 ** j)
                           for j in range(1, fam.point_depth + 3)]
            t = fam.level_depths[-1]
            for leaf in fam.leaves():
                tail = [rnd.randrange(2) for _ in range(fam.point_depth - t)]
                xs.append(_piece_point(fam, leaf, tail))
            for x in xs + off:
                try:
                    want = locate_by_hull(fam, x)
                except ValueError:
                    with pytest.raises(ValueError):
                        fam.locate(x)
                else:
                    assert fam.locate(x) == want, (fam.branching, x)


class TestRandomField:
    def test_values_on_level_grid(self, nested_family_depth3):
        fam = nested_family_depth3
        sample = RandomFieldSample(fam, seed=1)
        for level in (1, 2, 3):
            for piece in fam.levels[level - 1]:
                (v,) = node_value(sample, level, piece.path)
                assert v in (Fraction(0), Fraction(1, 2 ** level))

    def test_node_values_uniform(self, nested_family_depth3):
        fam = nested_family_depth3
        piece = fam.levels[1][2]
        hits = sum(
            node_value(RandomFieldSample(fam, seed=("u", t)), 2,
                       piece.path)[0] == 0
            for t in range(4000)
        )
        assert abs(hits / 4000 - 0.5) <= 0.03

    def test_same_seed_same_field(self, nested_family_depth3):
        fam = nested_family_depth3
        a = RandomFieldSample(fam, seed="s")
        b = RandomFieldSample(fam, seed="s")
        x = fam.leaves()[2].anchor
        assert eval_field(a, x) == eval_field(b, x)

    def test_kept_draws_are_no_part_of_the_sample(self,
                                                  nested_family_depth3):
        fam = nested_family_depth3
        used = RandomFieldSample(fam, seed=4, d=2)
        eval_field(used, fam.leaves()[0].anchor)
        other = RandomFieldSample(fam, seed=4, d=2)
        assert used == other and hash(used) == hash(other)
        assert repr(used) == repr(other)

    def test_same_piece_shares_coarse_levels(self, nested_family_depth3):
        # two points of one leaf differ only in tail contributions
        fam = nested_family_depth3
        sample = RandomFieldSample(fam, seed=3)
        leaf = fam.leaves()[0]
        x = leaf.anchor
        y = _piece_point(fam, leaf, (1,))
        tree_x = sum(
            node_value(sample, lv, leaf.path[:lv])[0] for lv in (1, 2, 3))
        tail = lambda p: tail_value(sample, p)[0]
        assert eval_field(sample, x)[0] - tail(x) == tree_x
        assert eval_field(sample, y)[0] - tail(y) == tree_x

    def test_sibling_leaves_share_levels_below_split(self,
                                                     nested_family_depth3):
        # same level-2 piece, different level-3 children: the level-1
        # and level-2 contributions coincide, everything deeper differs
        fam = nested_family_depth3
        sample = RandomFieldSample(fam, seed=12)
        a, b = fam.leaves()[0], fam.leaves()[1]
        assert a.path[:2] == b.path[:2] and a.path != b.path
        shared = sum(node_value(sample, lv, a.path[:lv])[0] for lv in (1, 2))
        for leaf in (a, b):
            x = leaf.anchor
            rest = (node_value(sample, 3, leaf.path)[0]
                    + tail_value(sample, x)[0])
            assert eval_field(sample, x)[0] == shared + rest

    def test_field_bounded(self, nested_family_depth3):
        fam = nested_family_depth3
        sample = RandomFieldSample(fam, seed=8)
        for leaf in fam.leaves():
            (v,) = eval_field(sample, leaf.anchor)
            assert 0 <= v < 1  # sum of 2**-n grids never reaches 1

    @pytest.mark.parametrize("seed", [0, "abc", ("t", 3)])
    @pytest.mark.parametrize("d", [1, 2])
    def test_integer_sum_equals_fraction_sum(self, nested_family_depth3,
                                             seed, d):
        # the reference adds every node and tail value as a Fraction
        fam = nested_family_depth3
        sample = RandomFieldSample(fam, seed=seed, d=d)
        off_tree = DigitVector((0, 1, 1)).value
        assert len(fam.locate(off_tree)) == 1
        points = [leaf.anchor for leaf in fam.leaves()]
        points += [_piece_point(fam, fam.leaves()[3], (1, 0, 1)), off_tree]
        for x in points:
            path = fam.locate(x)
            values = [node_value(sample, lv, path[:lv])
                      for lv in range(1, len(path) + 1)]
            values.append(tail_value(sample, x))
            want = tuple(sum((v[c] for v in values), Fraction(0))
                         for c in range(d))
            assert eval_field(sample, x) == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_tail_is_one_draw_per_coordinate(self, nested_family_depth3,
                                             monkeypatch, d):
        # the tail levels' 22 fair bits are one uniform integer below
        # 2**22, drawn once per coordinate beside one draw per node level;
        # a fresh sample per point, since a sample keeps the node draws it
        # made
        fam = nested_family_depth3
        top = fam.depth + TAIL_LEVELS
        draws = []
        real = energy.stable_index

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(energy, "stable_index", counting)
        points = [leaf.anchor for leaf in fam.leaves()]
        points += [_piece_point(fam, fam.leaves()[5], (1, 1)),
                   DigitVector((0, 1, 1)).value]
        for x in points:
            path = fam.locate(x)
            sample = RandomFieldSample(fam, seed=5, d=d)
            del draws[:]
            value = eval_field(sample, x)
            assert len(draws) == d * (len(path) + 1)
            nodes = [node_value(sample, lv, path[:lv])
                     for lv in range(1, len(path) + 1)]
            for c in range(d):
                u = real(1 << TAIL_LEVELS, 5, "tail",
                         (x.numerator, x.denominator), c)
                assert value[c] - sum(v[c] for v in nodes) == Fraction(
                    u, 2 ** top)


class TestGraphMeasure:
    @pytest.mark.parametrize("d", [1, 2])
    def test_pieces_drawn_once_per_sample(self, nested_family_depth3,
                                          monkeypatch, d):
        # the 8 leaves of depth 3 share 2 + 4 + 8 = 14 pieces: one graph
        # draws 8 tails and 14 pieces per coordinate, not 8 * (3 + 1)
        fam = nested_family_depth3
        nu = natural_leaf_measure(fam)
        fresh = tuple(base + eval_field(RandomFieldSample(fam, 9, d), pt)
                      for pt, base in zip(nu.points, nu.coords))
        draws = []
        real = energy.stable_index

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(energy, "stable_index", counting)
        gm = graph_measure(nu, RandomFieldSample(fam, 9, d))
        assert len(draws) == len(set(draws)) == d * (8 + 14)
        assert gm.coords == fresh

    def test_mass_conserved_and_atoms_distinct(self, nested_family_depth3):
        fam = nested_family_depth3
        nu = natural_leaf_measure(fam)
        gm = graph_measure(nu, RandomFieldSample(fam, seed=2))
        assert sum(gm.weights, Fraction(0)) == 1
        assert gm.weights == nu.weights
        assert len(set(gm.coords)) == len(gm.coords)

    def test_drift_arity_must_match_d(self, nested_family_depth3):
        # a one-coordinate drift on a d = 2 field is refused everywhere,
        # not truncated by zip or applied to both coordinates
        fam = nested_family_depth3
        one = lambda p: (p,)
        arity = r"drift has 1 coordinate\(s\), d = 2"
        with pytest.raises(ValueError, match=arity):
            graph_measure(natural_leaf_measure(fam),
                          RandomFieldSample(fam, 0, 2), one)
        with pytest.raises(ValueError, match=arity):
            expected_energy_check(fam, t=0.5, s=0.6, trials=1, seed=0,
                                  c_hat=1.0, drift=one, d=2)
        with pytest.raises(ValueError, match=arity):
            pair_expectation_check(fam, t=0.5, s=0.6, trials=16, seed=0,
                                   d=2, drift=one)

    def test_graph_energy_dominates_base(self, nested_family_depth3):
        # graph distances dominate base distances, so the energy drops
        fam = nested_family_depth3
        nu = natural_leaf_measure(fam)
        gm = graph_measure(nu, RandomFieldSample(fam, seed=2))
        for s in (0.6, 1.5):
            assert (estimators.discrete_energy(gm, s)
                    <= estimators.discrete_energy(nu, s) + 1e-12)


class TestKernelBound:
    def test_spot_value_closed_form(self):
        # oracle: 2 * int_0^1 (1-t)/(1+t^2) dt = pi/2 - ln 2
        oracle = 2 * (math.pi / 4 - math.log(2) / 2)
        val, err = kernel_integral(1.0, 1.0, 0.0, 1.0, 1)
        assert val == pytest.approx(oracle, abs=1e-10)
        assert err < 1e-6

    def test_gauss_rules_are_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss
        for rule, n in ((energy._G16, 16), (energy._G8, 8)):
            nodes, weights = leggauss(n)
            assert rule[0].tolist() == nodes.tolist()
            assert rule[1].tolist() == weights.tolist()

    def test_cli_import_loads_no_numpy_polynomial(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, dimlab.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('numpy.polynomial')))")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_batches_match_one_case_at_a_time(self):
        # == on value and error estimate: a batch makes each case's float
        # operations and sums in the order the case alone makes them.  The
        # batches are those of `dimlab kernel` at d = 1 and 2 (the sweep,
        # then kernel_q_slope's q values, per u), the spot check, and
        # peaks narrow enough for 42 to 52 panels
        qs = [0.5 ** k for k in range(1, 9)]
        sweep = [(p, q, theta) for p in qs for q in qs
                 for theta in (0.0, 0.3, 2.0)]
        slope = [(0.5, 0.5 ** k, 0.0) for k in range(1, 13)]
        narrow = [(1.0, 2.0 ** -k, theta) for k in (20, 24)
                  for theta in (0.0, 0.3, (0.3,))]
        batches = [(1, u, cases) for u in (0.75, 1.0, 1.5)
                   for cases in (sweep, slope)]
        batches += [(2, u, cases) for u in (1.25, 1.5, 2.0)
                    for cases in (sweep, slope)]
        batches += [(1, 1.0, [(1.0, 1.0, 0.0)]), (1, 1.0, narrow),
                    (1, 1.5, narrow + sweep[:5])]
        for d, u, cases in batches:
            got = kernel_integrals(cases, u, d)
            want = [kernel_integral_one_case(p, q, theta, u, d)
                    for p, q, theta in cases]
            assert got == want, (d, u)
        assert max(len(energy._axis_cuts(p, q, 0.3)) - 1
                   for p, q, _ in narrow) > 40

    def test_batch_refuses_any_bad_case(self):
        good = (0.5, 0.5, 0.0)
        for bad in ((0.0, 0.5, 0.0), (0.5, 1.5, 0.0), (0.5, 0.5, (0.1,))):
            with pytest.raises(ValueError):
                kernel_integrals([good, bad], 1.5, 2)
        assert kernel_integrals([], 1.0, 1) == []

    def test_constants(self):
        assert kernel_constant(1, 1.0) == pytest.approx(math.pi)
        assert kernel_constant(1, 1.5) == pytest.approx(2.0)
        assert kernel_constant(2, 1.5) == pytest.approx(2 * math.pi)

    def test_constant_matches_gammaln(self):
        for u in (0.75, 1.0, 1.5):
            assert math.isclose(kernel_constant(1, u),
                                kernel_constant_gammaln(u), rel_tol=1e-12)

    def test_matches_quad_on_report_grid(self):
        # the grid `dimlab kernel` sweeps: with q >= 2**-8 every peak is
        # wide enough for adaptive quadrature to resolve
        qs = [0.5 ** k for k in range(1, 9)]
        for u in (0.75, 1.0, 1.5):
            for p in qs:
                for q in qs:
                    for theta in (0.0, 0.3, 2.0):
                        val, _ = kernel_integral(p, q, theta, u, 1)
                        want = kernel_quad(p, q, theta, u)
                        assert math.isclose(val, want, rel_tol=1e-12), (
                            u, p, q, theta, val, want)

    # peaks of width q <= 1e-5 away from w = 0, where adaptive
    # quadrature is off by 100%, 23% and 100%
    @pytest.mark.parametrize("p, q, theta", [
        (0.9, 1e-6, -0.45), (0.6, 4e-6, 0.37), (0.75, 5e-6, 0.33)])
    def test_narrow_peak_off_breakpoint_closed_form(self, p, q, theta):
        val, err = kernel_integral(p, q, theta, 1.0, 1)
        want = kernel_closed_form_u1(p, q, theta)
        assert math.isclose(val, want, rel_tol=1e-9)
        assert err < 1e-9 * want

    def test_bound_holds_on_sweep(self):
        for u in (0.75, 1.0, 1.5):
            for p in (0.5, 0.125):
                for q in (0.5, 0.03125):
                    for theta in (0.0, 0.3, 2.0):
                        rep = kernel_bound_check(p, q, theta, u, 1)
                        assert rep.passed, (u, p, q, theta, rep.ratio)

    def test_far_translation_monotone(self):
        for u in (1.0, 1.5):
            p, q = 0.25, 0.125
            base, _ = kernel_integral(p, q, 0.0, u, 1)
            for theta in (2 * p + 10 * q, 1.5, 3.0):
                shifted, _ = kernel_integral(p, q, theta, u, 1)
                assert shifted <= base

    def test_clamped_translation_bound(self):
        for theta in (0.0, 0.4, 2.0):
            for (p, q) in ((0.5, 0.25), (0.125, 0.0625)):
                val, _ = kernel_integral(p, q, theta, 1.0, 1)
                assert val <= kernel_centered_bound(p, q, 1.0) * (1 + 1e-9)

    def test_vacuous_exponent_rejected(self):
        with pytest.raises(ValueError):
            kernel_bound_check(0.5, 0.5, 0.0, 0.5, 1)
        with pytest.raises(ValueError):
            kernel_constant(2, 1.0)

    def test_unsupported_dimension_rejected(self):
        # refused before the u check, which d = 3 with u = 2 would pass
        with pytest.raises(ValueError, match=r"d in \{1, 2\}, got d = 3"):
            kernel_integral(0.5, 0.5, 0.0, 2.0, 3)
        with pytest.raises(ValueError, match=r"d in \{1, 2\}, got d = 3"):
            kernel_constant(3, 1.0)

    def test_q_slope_settles(self):
        qs = [0.5 ** k for k in range(1, 13)]
        assert abs(kernel_q_slope(1, 1.0, 0.5, qs)) <= 0.1

    def test_ratio_drift_within_factor_two(self):
        # halving q at fixed p: past the first octave the ratio stays
        # within 2x of itself and stops growing (it settles toward the
        # comparison constant instead of drifting with q)
        ratios = [kernel_bound_check(1.0, 0.5 ** k, 0.0, 1.0, 1).ratio
                  for k in range(2, 9)]
        assert max(ratios) / min(ratios) <= 2.0
        assert ratios[-1] / ratios[-2] <= 1.02

    def test_two_dimensional_path(self):
        rep = kernel_bound_check(0.5, 0.5, (0.1, 0.0), 1.5, 2)
        assert rep.passed
        assert rep.error_estimate < 1e-9 * rep.integral

    def test_two_dimensional_matches_dblquad(self):
        # p, q >= 2**-4, where adaptive quadrature resolves the peak
        for u in (1.25, 1.5, 2.0):
            for p in (0.5, 0.0625):
                for q in (0.5, 0.0625):
                    for theta in (0.0, 0.3, (0.1, 0.0)):
                        val, _ = kernel_integral(p, q, theta, u, 2)
                        want = kernel_dblquad(p, q, theta, u)
                        assert math.isclose(val, want, rel_tol=1e-12), (
                            u, p, q, theta, val, want)

    def test_two_dimensional_matches_refined_rule(self):
        # the grid `dimlab kernel --d 2` sweeps, against 24 nodes on
        # every panel halved
        qs = [0.5 ** k for k in range(1, 9)]
        for u in (1.25, 1.5, 2.0):
            for p in qs:
                for q in qs:
                    for theta in (0.0, 0.3, 2.0):
                        val, _ = kernel_integral(p, q, theta, u, 2)
                        want = kernel_refined_2d(p, q, theta, u)
                        assert math.isclose(val, want, rel_tol=1e-13), (
                            u, p, q, theta, val, want)

    def test_two_dimensional_symmetry(self):
        # I(t1, t2) = I(t2, t1) = I(-t1, t2): swapping or reflecting a
        # coordinate of the translation leaves the integral unchanged
        for p, q in ((0.5, 0.25), (0.125, 2 ** -8)):
            for t1, t2 in ((0.3, 0.1), (2.0, -0.3), (1e-3, 0.0)):
                val, _ = kernel_integral(p, q, (t1, t2), 1.5, 2)
                for theta in ((t2, t1), (-t1, t2)):
                    other, _ = kernel_integral(p, q, theta, 1.5, 2)
                    assert math.isclose(other, val, rel_tol=1e-14)


class TestHalton:
    def test_cli_import_loads_no_scipy_stats(self):
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, dimlab.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy')))")
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestPairExpectation:
    def test_ladder_is_stable(self, nested_family_depth3):
        rep = pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                     trials=1 << 19, seed=0)
        assert rep.passed
        assert rep.stability_ratio <= 2.0
        rhos = [r.rho for r in rep.pairs]
        assert max(rhos) / min(rhos) >= 100

    def test_cross_piece_pairs_independent_window(self, nested_family_depth3):
        # different first-level pieces: the value difference is a full
        # unit-window difference, symmetric around zero
        fam = nested_family_depth3
        pairs = anchor_pairs(fam)
        cross = [(x, y) for x, y in pairs
                 if fam.locate(x)[0] != fam.locate(y)[0]]
        rep = pair_expectation_check(fam, t=0.5, s=0.6, trials=4096, seed=1,
                                     pairs=cross[:4])
        for r in rep.pairs:
            assert r.separating_level == 0
            assert r.mean > 0

    def test_expectation_floor(self, nested_family_depth3):
        # every sampled value is at least the zero-difference mass times
        # rho**-(t+d), so the mean respects the deterministic floor
        fam = nested_family_depth3
        (x, y) = ladder_pairs(fam)[0]
        rho = abs(float(x) - float(y))
        rep = pair_expectation_check(fam, t=0.5, s=0.6, trials=1 << 16,
                                     seed=2, pairs=[(x, y)])
        assert rep.pairs[0].mean > 0
        assert rep.pairs[0].mean <= rho ** -1.5  # cap is the zero-gap value

    @pytest.mark.parametrize("d, theta", [
        (1, (0.0,)), (1, (0.375,)), (2, (0.0, 0.0)), (2, (-0.3, 1.25)),
    ])
    def test_pair_mean_is_the_out_of_place_expression(
            self, nested_family_depth3, d, theta):
        # the in-place pair mean keeps every draw and float operation
        fam = nested_family_depth3
        for x, y in ladder_pairs(fam) + anchor_pairs(fam)[:3]:
            args = (fam, x, y, theta, 0.5, d, 4096, "inplace")
            assert energy._pair_mean(*args) == pair_mean(*args)

    @pytest.mark.parametrize("d, theta", [
        (1, (0.0,)), (1, (0.3,)), (2, (0.0, 0.0)), (2, (0.3, -0.3)),
    ])
    def test_pair_draws_match_two_int64_calls(self, monkeypatch, d, theta):
        # one buffer of raw Philox words per coordinate reads the stream
        # as the two int64 calls of the oracle do, at every window width
        # from a same-leaf pair (22 bits) to a level-0 pair at depth 4
        # (26 bits) and at odd trial counts, where x's draws end in the
        # middle of a word: the draws and the means are the same
        fam = build_nested_family((2, 2, 2, 2))
        anchors = [leaf.anchor for leaf in fam.leaves()]
        pairs = [ladder_pairs(fam)[0],
                 *((anchors[0], anchors[k]) for k in (1, 2, 4, 8))]
        assert [fam.depth - energy._separating_level(fam, x, y) + TAIL_LEVELS
                for x, y in pairs] == [22, 23, 24, 25, 26]
        drawn = []

        class Spy:
            def __init__(self, *key):
                self.real = stable_generator(*key).bit_generator
                self.bit_generator = self

            def random_raw(self, *args, **kwargs):
                out = self.real.random_raw(*args, **kwargs)
                drawn.append(out.copy())
                return out

        for (x, y), trials in itertools.product(pairs, (1, 4095, 4096)):
            args = (fam, x, y, theta, 0.5, d, trials, ("int32", d))
            want = pair_mean(*args)
            drawn.clear()
            with monkeypatch.context() as m:
                m.setattr(energy, "stable_generator", Spy)
                assert energy._pair_mean(*args) == want
            bits = fam.depth - energy._separating_level(fam, x, y) + TAIL_LEVELS
            rng = stable_generator(("int32", d), "pair",
                                   (x.numerator, x.denominator),
                                   (y.numerator, y.denominator))
            assert len(drawn) == d
            for got in drawn:
                assert got.shape == (trials,)
                values = (got.view(np.uint32) >> (32 - bits)).reshape(2, -1)
                for row in values:
                    assert row.tolist() == rng.integers(
                        0, 1 << bits, size=trials, dtype=np.int64).tolist()

    def test_pair_draws_do_not_depend_on_byte_order(
            self, nested_family_depth3, monkeypatch):
        # raw words stored big-endian, as a big-endian host holds them,
        # give the same draws and so the same mean
        fam = nested_family_depth3
        x, y = ladder_pairs(fam)[0]
        args = (fam, x, y, (0.3, -0.3), 0.5, 2, 4095, "order")
        want = energy._pair_mean(*args)

        class BigEndian:
            def __init__(self, *key):
                self.real = stable_generator(*key).bit_generator
                self.bit_generator = self

            def random_raw(self, *args, **kwargs):
                return self.real.random_raw(*args, **kwargs).astype(">u8")

        monkeypatch.setattr(energy, "stable_generator", BigEndian)
        assert energy._pair_mean(*args) == want

    def test_pair_mean_holds_one_buffer(self, nested_family_depth3):
        # at d = 1 the raw words, their differences and the accumulator
        # share one buffer of 2**20 float64s, 8 MiB; two buffers were 16
        fam = nested_family_depth3
        x, y = ladder_pairs(fam)[0]
        peak = traced_peak_mib(lambda: energy._pair_mean(
            fam, x, y, (0.0,), 0.5, 1, 1 << 20, "peak"))
        assert peak < 8.5

    @pytest.mark.parametrize("rungs", [1, 2])
    def test_separations_within_two_decades_fail(self, nested_family_depth3,
                                                 rungs):
        # one or two rungs span 1x or 3x: the decade maxima agree, but the
        # separations do not sweep two orders of magnitude
        fam = nested_family_depth3
        rep = pair_expectation_check(fam, t=0.5, s=0.6, trials=64, seed=0,
                                     pairs=ladder_pairs(fam)[:rungs])
        assert rep.stability_ratio == 1.0
        assert not rep.passed

    def test_no_pairs_refused(self, nested_family_depth3):
        # refused up front: max() of no separations raised before
        for pairs in ([], iter([])):
            with pytest.raises(ValueError, match="at least one pair"):
                pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                       trials=16, seed=0, pairs=pairs)

    def test_coincident_pair_rejected(self, nested_family_depth3):
        fam = nested_family_depth3
        x = fam.leaves()[0].anchor
        with pytest.raises(ValueError):
            pair_expectation_check(fam, t=0.5, s=0.6, trials=16, seed=0,
                                   pairs=[(x, x)])

    def test_bad_exponents_rejected(self, nested_family_depth3):
        with pytest.raises(ValueError):
            pair_expectation_check(nested_family_depth3, t=0.7, s=0.6,
                                   trials=16, seed=0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_refused(self, nested_family_depth3, trials):
        # refused up front: 0 trials took the mean of an empty slice, and
        # a negative count reached numpy's array constructor
        with pytest.raises(ValueError, match="at least one trial"):
            pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                   trials=trials, seed=0)

    def test_drift_moves_every_coordinate(self, nested_family_depth3):
        # a drift in the second coordinate alone pushes the d = 2 value
        # differences apart, so the kernel mean drops
        fam = nested_family_depth3
        leaves = fam.leaves()
        kw = dict(t=0.5, s=0.6, trials=4096, seed=9, d=2,
                  pairs=[(leaves[0].anchor, leaves[-1].anchor)])
        plain = pair_expectation_check(fam, **kw)
        drifted = pair_expectation_check(
            fam, drift=lambda p: (0, 4 * p), **kw)
        assert drifted.pairs[0].mean < plain.pairs[0].mean

    def test_drift_keeps_constant_comparable(self, nested_family_depth3):
        drift = lambda p: (cantor_pair.evaluate(
            cantor_pair.DigitFunction.ODD_DIGITS, p),)
        plain = pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                       trials=1 << 18, seed=5)
        drifted = pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                         trials=1 << 18, seed=5, drift=drift)
        assert drifted.passed
        assert drifted.c_hat <= 2 * plain.c_hat


class TestExpectedEnergy:
    def test_two_atom_bound(self):
        # atoms a unit apart: the integrand never exceeds 1, so the
        # average energy stays below twice the weight product
        fam = build_nested_family((2,))
        x = Fraction(0)
        y = DigitVector((1,) * fam.point_depth).value
        nu = estimators.DiscreteMeasure(
            (x, y), (Fraction(1, 2), Fraction(1, 2)), ((x,), (y,)))
        # rescale: these two atoms are 1/2 apart; bound is 2*(1/4)*rho**-1.5
        rho = float(y - x)
        check = expected_energy_check(fam, t=0.5, s=0.6, trials=64, seed=0,
                                      c_hat=10.0, measure=nu)
        assert check.empirical <= 0.5 * rho ** -1.5

    def test_natural_measure_bound_depth2_and_3(self, nested_family_depth3):
        rep = pair_expectation_check(nested_family_depth3, t=0.5, s=0.6,
                                     trials=1 << 18, seed=3)
        fam2 = build_nested_family((2, 2))
        for fam in (fam2, nested_family_depth3):
            check = expected_energy_check(fam, t=0.5, s=0.6, trials=120,
                                          seed=4, c_hat=rep.c_hat)
            assert check.passed

    def test_depth8_endpoint_measure_bounded(self, nested_family_depth3):
        from conftest import cantor_endpoint_measure
        values = []
        for m in (6, 7, 8):
            nu = cantor_endpoint_measure(m)
            check = expected_energy_check(nested_family_depth3, t=0.5, s=0.6,
                                          trials=30, seed=6, c_hat=20.0,
                                          measure=nu)
            values.append(check.empirical)
        assert max(values) / min(values) <= 2.0

    def test_drift_uniformity(self, nested_family_depth3):
        drift = lambda p: (cantor_pair.evaluate(
            cantor_pair.DigitFunction.ODD_DIGITS, p),)
        plain = expected_energy_check(nested_family_depth3, t=0.5, s=0.6,
                                      trials=100, seed=8, c_hat=18.0)
        drifted = expected_energy_check(nested_family_depth3, t=0.5, s=0.6,
                                        trials=100, seed=8, c_hat=18.0,
                                        drift=drift)
        assert plain.passed and drifted.passed

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_refused(self, nested_family_depth3, trials):
        # refused up front: 0 trials divided by zero, and -3 reported a
        # passed check with an empirical energy of -0.0
        with pytest.raises(ValueError, match="at least one trial"):
            expected_energy_check(nested_family_depth3, t=0.5, s=0.6,
                                  trials=trials, seed=0, c_hat=18.0)
