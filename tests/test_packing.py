import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimlab import estimators, packing, spaces
from dimlab.packing import (
    ExactSearchLimitExceeded,
    max_packing_exact,
    max_packing_greedy,
    occupied_cell_count,
)
from dimlab.spaces import (
    ResolutionNet,
    build_net,
    harmonic_sequence,
    product_with_cube,
    triadic_cantor,
    unit_interval,
)

from conftest import NET_SPACES, built_nets, traced_peak_mib
from oracles import greedy_packing_rows, mesh_count_2d, product_rows


def _net_from_values(values):
    return ResolutionNet(unit_interval(), 8,
                         tuple(sorted(Fraction(v) for v in values)))


def _brute_force_max(points, delta):
    points = list(points)
    for r in range(len(points), 0, -1):
        for sub in itertools.combinations(points, r):
            if all(abs(a - b) > delta for a, b in itertools.combinations(sub, 2)):
                return r
    return 0


THREE_POINTS = [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),)]


class TestGreedy:
    def test_three_points_delta_04(self):
        delta = Fraction(2, 5)
        for kernel in (packing.greedy_packing_coords,
                       packing.exact_packing_coords):
            assert kernel(THREE_POINTS, delta) == [0, 1, 2]

    def test_three_points_delta_06(self):
        delta = Fraction(3, 5)
        for kernel in (packing.greedy_packing_coords,
                       packing.exact_packing_coords):
            assert kernel(THREE_POINTS, delta) == [0, 2]  # 0 and 1

    @pytest.mark.parametrize("space, scale", [
        (triadic_cantor(), 4),    # 32 points
        (triadic_cantor(), 5),    # 64 points
        (unit_interval(), 5),     # 33 points
        (harmonic_sequence(), 5),  # 33 points
    ], ids=["triadic_cantor-4", "triadic_cantor-5", "unit_interval-5",
            "harmonic_sequence-5"])
    def test_greedy_matches_exact_on_1d_net(self, space, scale):
        # the ascending sweep is a maximum packing on 1-D nets, which is
        # what makes every witness layer's k_n exact
        net = build_net(space, scale)
        assert net.size() <= packing.EXACT_SEARCH_LIMIT
        rows = net.coord_rows()
        for n in range(scale + 1):
            assert (len(max_packing_greedy(net, n))
                    == len(max_packing_exact(net, n)))
            for delta in (Fraction(1, 2 ** n), Fraction(3, 2 ** (n + 2))):
                assert (len(packing.greedy_packing_coords(rows, delta))
                        == len(packing.exact_packing_coords(rows, delta)))

    def test_witness_is_strict_packing(self):
        net = build_net(triadic_cantor(), 5)
        res = max_packing_greedy(net, 5)
        delta = Fraction(1, 32)
        assert all(abs(a - b) > delta
                   for a, b in itertools.combinations(res, 2))
        assert res == tuple(sorted(set(res)))

    def test_empty_net_rejected(self):
        net = ResolutionNet(unit_interval(), 3, ())
        with pytest.raises(ValueError):
            max_packing_greedy(net, 1)

    @pytest.mark.parametrize("delta", [0, -2, Fraction(-1, 3)])
    def test_nonpositive_delta_rejected(self, delta):
        # no packing scale is defined there, so both row kernels refuse it
        for rows in ([(0,), (1,)], [(0, 0), (1, 0)]):
            for kernel in (packing.greedy_packing_coords,
                           packing.exact_packing_coords):
                with pytest.raises(ValueError, match="positive"):
                    kernel(rows, delta)

    @pytest.mark.parametrize("d", [1, 2])
    def test_nan_delta_rejected(self, d):
        # NaN compares false either way, so a "delta <= 0" test lets it
        # through, and each greedy kernel would keep every point
        rows = [(0.1 * k,) + (0.0,) * (d - 1) for k in range(3)]
        with pytest.raises(ValueError, match="^packing scale delta must be "
                                             "positive, got nan$"):
            packing.greedy_packing_coords(rows, float("nan"))
        with pytest.raises(ValueError, match="^packing scale delta must be "
                                             "positive, got nan$"):
            packing.greedy_packing_counts(np.array([rows]), float("nan"), 3)

    def test_product_net_counted_not_expanded(self):
        # a product, nested or not, has no net, so no packer ever sees
        # one; TestOccupiedCells counts its cells, also of 129**3 points
        for space in (product_with_cube(triadic_cantor(), 1),
                      product_with_cube(
                          product_with_cube(unit_interval(), 1), 1)):
            with pytest.raises(spaces.UnsupportedSpaceError):
                build_net(space, 1)
            with pytest.raises(spaces.UnsupportedSpaceError):
                estimators.packing_count_series(space, [0, 1, 2])

    def test_maximality(self):
        # no skipped net point can extend the greedy witness
        net = build_net(unit_interval(), 6)
        res = max_packing_greedy(net, 4)
        delta = Fraction(1, 16)
        for p in net.points:
            assert any(abs(p - w) <= delta for w in res)


def _all_pairs_greedy(rows, delta):
    """Reference greedy: ascending order, keep a row iff every kept row
    is more than delta away, comparing each candidate with all of them."""
    chosen = []
    for i in sorted(range(len(rows)), key=rows.__getitem__):
        if all(sum((a - b) ** 2 for a, b in zip(rows[i], rows[j])) > delta ** 2
               for j in chosen):
            chosen.append(i)
    return chosen


class TestOneDimensionalSweep:
    # The window kernel on 1-D rows against the all-pairs reference; the
    # names are kept so that the test ids stay stable.
    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_grid_hash_on_nets(self, space, n):
        rows = build_net(space, n).coord_rows()
        for delta in (Fraction(1, 2 ** n), Fraction(1, 2 ** (n - 1))):
            assert (packing.greedy_packing_coords(rows, delta)
                    == _all_pairs_greedy(rows, delta))

    def test_duplicates_and_exact_ties(self):
        # ties at exactly delta and repeated coordinates are both rejected
        vals = [0, 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
                Fraction(5, 8), Fraction(3, 4), Fraction(3, 4), 1]
        rows = [(Fraction(v),) for v in vals]
        for delta in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            got = packing.greedy_packing_coords(rows, delta)
            assert got == _all_pairs_greedy(rows, delta)
        assert [rows[i][0] for i in got] == [0, Fraction(5, 8)]


class TestGallopingSweep:
    # On one axis the sweep gallops past the rows within reach of the last
    # kept row; the oracle's sweep, which tests every row against reach,
    # is the reference.

    @pytest.mark.parametrize("kind", ["int", "Fraction", "float"])
    def test_matches_the_linear_sweep(self, kind):
        make = {"int": lambda k: k, "Fraction": lambda k: Fraction(k, 8),
                "float": lambda k: k / 8}[kind]
        rnd = random.Random(len(kind))
        for _ in range(200):
            # a few distinct values make long runs of ties within reach
            top = rnd.choice((4, 24, 400))
            rows = sorted((make(rnd.randrange(top)),)
                          for _ in range(rnd.randrange(1, 80)))
            delta = make(rnd.randrange(1, 16))
            arrays = [np.array(rows, dtype=object)]
            if kind != "Fraction":
                arrays.append(np.array(rows))
            for stop in (None, 1, 2, 5):
                want = greedy_packing_rows(rows, delta, stop=stop)
                assert (packing.greedy_packing_coords(rows, delta, stop=stop)
                        == want)
                for arr in arrays:
                    assert packing.greedy_packing_coords(
                        arr, delta, stop=stop) == want

    def test_float_delta_below_the_spacing(self):
        # away from 0, x + 5e-324 == x: reach is the kept row itself, so
        # each distinct value is kept once, but for 5e-324, which is
        # exactly delta above 0.0
        rnd = random.Random(7)
        values = (0.0, 5e-324, 1e-320, 0.5, 1.0, 1.5, 2.0)
        rows = sorted((rnd.choice(values),) for _ in range(200))
        assert 1.0 + 5e-324 == 1.0
        for stop in (None, 1, 2, 5):
            assert (packing.greedy_packing_coords(rows, 5e-324, stop=stop)
                    == greedy_packing_rows(rows, 5e-324, stop=stop))
        kept = packing.greedy_packing_coords(rows, 5e-324)
        assert len(kept) == 6
        assert {rows[i] for i in kept} == set(rows) - {(5e-324,)}

    def test_harmonic_net_comparisons(self):
        # the harmonic net crowds toward 0, so most rows lie within reach
        # of a kept one: the sweep compares about 450 times, not 8 192
        calls = []

        class Counted(Fraction):
            def __lt__(self, other):
                calls.append(1)
                return Fraction.__lt__(self, other)

            def __le__(self, other):
                calls.append(1)
                return Fraction.__le__(self, other)

            def __gt__(self, other):
                calls.append(1)
                return Fraction.__gt__(self, other)

            def __ge__(self, other):
                calls.append(1)
                return Fraction.__ge__(self, other)

        rows = build_net(harmonic_sequence(), 13).coord_rows()
        counted = [(Counted(x),) for (x,) in rows]
        delta = Fraction(1, 2 ** 12)
        kept = packing.greedy_packing_coords(counted, delta)
        assert (len(rows), len(kept)) == (8193, 118)
        assert 0 < len(calls) <= 1000
        assert kept == greedy_packing_rows(rows, delta)


class TestWindowKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["int", "Fraction", "float"])
    def test_matches_all_pairs_reference(self, dim, kind):
        # coordinates on a coarse lattice, so exact ties at delta and
        # duplicate rows are frequent; float rows stay dyadic, hence exact
        make = {"int": lambda k: k, "Fraction": lambda k: Fraction(k, 8),
                "float": lambda k: k / 8}[kind]
        rnd = random.Random(dim * 10 + len(kind))
        for _ in range(150):
            rows = [tuple(make(rnd.randrange(0, 24)) for _ in range(dim))
                    for _ in range(rnd.randrange(1, 50))]
            rows += rnd.sample(rows, rnd.randrange(len(rows) + 1))
            rows.sort()
            delta = make(rnd.randrange(1, 16))
            got = packing.greedy_packing_coords(rows, delta)
            assert got == _all_pairs_greedy(rows, delta)
            # a stopped sweep keeps exactly the prefix of the full one
            for stop in (1, (len(got) + 1) // 2, len(got), len(got) + 1):
                assert (packing.greedy_packing_coords(rows, delta, stop=stop)
                        == got[:stop])

    def test_float_rows(self):
        def count(rows, delta):
            return len(packing.greedy_packing_coords(rows, delta))
        assert count([(0.0,), (0.5,), (1.0,)], 0.4) == 3
        assert count([(0.0,), (0.25,)], 0.25) == 1  # tie excluded
        assert count([(0.0,)] * 6, 0.1) == 1
        # unit square corners at delta below the side length
        pts = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        assert count(pts, 0.9) == 4
        assert count(pts, 1.2) == 2  # only a diagonal survives

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_counts_match_the_row_kernel(self, dim):
        # dyadic lattice points, so ties at delta and duplicates are common
        rng = np.random.default_rng(dim)
        for delta in (0.125, 0.25, 0.75):
            block = rng.integers(0, 12, size=(200, 30, dim)) / 8
            full = [len(packing.greedy_packing_coords(
                sorted(map(tuple, trial)), delta)) for trial in block.tolist()]
            assert (packing.greedy_packing_counts(block, delta, stop=30)
                    .tolist() == full)
            for stop in (1, 3, 30):
                assert (packing.greedy_packing_counts(block, delta, stop)
                        .tolist() == [min(c, stop) for c in full])

    def test_block_counts_exclude_a_pair_exactly_delta_apart(self):
        delta = 0.625  # 5/8, the hypotenuse of (3/8, 4/8)
        block = np.array([
            [[0.0, 0.0], [0.625, 0.0], [1.25, 0.0]],   # delta apart in x
            [[0.0, 0.0], [0.0, 0.625], [0.0, 0.0]],    # delta apart in y
            [[0.5, 0.5], [0.875, 1.0], [0.0, 0.0]],    # delta on a diagonal
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],      # all kept
        ])
        assert packing.greedy_packing_counts(
            block, delta, stop=3).tolist() == [2, 1, 2, 3]
        for trial, want in zip(block.tolist(), [2, 1, 2, 3]):
            assert len(packing.greedy_packing_coords(
                sorted(map(tuple, trial)), delta)) == want

    @pytest.mark.parametrize("kind", ["int64", "object", "float-near-ties"])
    def test_line_block_counts_are_exact(self, kind):
        # the one-axis body compares the values as given.  Integers past
        # 2**53 sit 1 apart, where a float64 cast would merge them; the
        # near-tie floats sit delta * (1 +- k 2**-52) apart, where
        # (x - kept)**2 <= delta**2 and x <= kept + delta disagree
        rng = np.random.default_rng(len(kind))
        if kind == "float-near-ties":
            cases = []
            for delta in (0.1, 0.3, 1 / 3, 0.7):
                gaps = delta * (1 + rng.integers(-4, 5, size=(500, 12))
                                * 2.0 ** -52)
                gaps[:, 0] = rng.random(500)
                cases.append((np.cumsum(gaps, axis=1), delta))
        else:
            values = 2 ** 60 + rng.integers(0, 40, size=(500, 12))
            block = values if kind == "int64" else values.astype(object)
            cases = [(block, delta) for delta in (1, 2, 5)]
        for block, delta in cases:
            block = rng.permuted(block, axis=1)
            for stop in (1, 3, 12):
                want = [len(packing.greedy_packing_coords(
                    sorted((x,) for x in trial), delta, stop))
                    for trial in block.tolist()]
                got = packing.greedy_packing_counts(block[:, :, None], delta,
                                                    stop)
                assert got.tolist() == want, (delta, stop)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_blocks_count_nothing(self, dim):
        # no trials give no counts; trials of no points count 0 each
        for shape, want in (((0, 5, dim), []), ((3, 0, dim), [0, 0, 0]),
                            ((0, 0, dim), [])):
            got = packing.greedy_packing_counts(np.zeros(shape), 0.5, 2)
            assert got.tolist() == want

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_block_counts_refuse_non_finite_points(self, dim, bad):
        # a NaN compares false, so it would pass as a kept point or hide
        # one; integer and object blocks are not tested
        block = np.zeros((2, 3, dim))
        block[1, 0, 0] = bad
        with pytest.raises(ValueError, match="^packing points must be "
                                             "finite$"):
            packing.greedy_packing_counts(block, 0.5, 9)
        ints = np.array([[[0] * dim, [2] * dim, [4] * dim]])
        for dtype in (np.int64, object):
            got = packing.greedy_packing_counts(ints.astype(dtype), 1, 9)
            assert got.tolist() == [3]

    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    def test_net_rows_ascending(self, space):
        # max_packing_greedy hands the net's rows to the kernel as they
        # are: the window only sees every conflict if they ascend
        for n in range(1, 8):
            rows = build_net(space, n).coord_rows()
            assert all(a < b for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("space, depth", [(triadic_cantor(), 4),
                                              (unit_interval(), 3)],
                             ids=["triadic_cantor", "unit_interval"])
    def test_fraction_rows_match_hand_scaled_integers(self, space, depth):
        # rows compared as given pick the same points as the same rows
        # scaled by hand to integers over their common denominator, in
        # the one ascending order that product_rows builds
        axis = [Fraction(k, 2 ** depth) for k in range(2 ** depth + 1)]
        rows = product_rows(build_net(space, depth), axis, 1)
        assert rows == sorted(rows)
        scale = math.lcm(2 ** 4, *(c.denominator for r in rows for c in r))
        int_rows = [tuple(int(c * scale) for c in row) for row in rows]
        for n in range(5):
            delta = Fraction(1, 2 ** n)
            assert (packing.greedy_packing_coords(rows, delta)
                    == packing.greedy_packing_coords(int_rows,
                                                     int(delta * scale)))


# coordinate k of a row, by kind.  The wide arrays hold int64 entries
# near 2**61 and Python ints near 2**62, whose squared differences pass
# 2**63 and would overflow silently if the kernel did int64 arithmetic
COORD_KINDS = {
    "int": (lambda k: k, None),
    "Fraction": (lambda k: Fraction(k, 8), None),
    "float": (lambda k: k / 8, None),
    "int64": (lambda k: k, np.int64),
    "int64-wide": (lambda k: 2 ** 61 + k * 2 ** 56, np.int64),
    "object-wide": (lambda k: 2 ** 62 + k * 2 ** 58, object),
}


def _assert_matches_row_sweep(rows, delta, dtype=None):
    """The kernel's indices equal the row sweep's on ``rows`` sorted (as
    an array of ``dtype`` if given), for ``stop`` in {None, 1, half the
    count, the count, one above it}."""
    rows = sorted(rows)
    full = greedy_packing_rows(rows, delta)
    arg = np.array(rows, dtype=dtype) if dtype else rows
    for stop in (None, 1, (len(full) + 1) // 2, len(full), len(full) + 1):
        assert (packing.greedy_packing_coords(arg, delta, stop=stop)
                == greedy_packing_rows(rows, delta, stop=stop))


class TestColumnSweep:
    # the column sweep against the row-by-row sweep it replaced, which
    # reads every input as a list of Python tuples
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(COORD_KINDS))
    def test_matches_the_row_sweep(self, dim, kind):
        make, dtype = COORD_KINDS[kind]
        rnd = random.Random(f"columns-{dim}-{kind}")
        for _ in range(40):
            rows = [tuple(make(rnd.randrange(0, 24)) for _ in range(dim))
                    for _ in range(rnd.randrange(1, 40))]
            rows += rnd.sample(rows, rnd.randrange(len(rows) + 1))
            delta = make(rnd.randrange(1, 16)) - make(0)
            _assert_matches_row_sweep(rows, delta, dtype)

    @pytest.mark.parametrize("kind", list(COORD_KINDS))
    def test_clustered_rows_match_the_row_sweep(self, kind):
        # the second-axis window on crowded windows: first coordinates
        # within half of delta, so every chosen row stays in the window,
        # with up to 21 of them at once; and on three axes three second
        # coordinates, so rows tied there share the window (apart in the
        # third) and a leaving row must be found among its ties.  Indices
        # stay below 64, where the int64-wide rows fit
        make, dtype = COORD_KINDS[kind]
        rnd = random.Random(f"clusters-{kind}")
        delta = make(2) - make(0)
        for _ in range(4):
            for dim in (2, 3):
                rows = [tuple(make(rnd.randrange(0, k)) for k in
                              (2, 63, 12)[:dim])
                        for _ in range(rnd.randrange(1, 100))]
                _assert_matches_row_sweep(rows, delta, dtype)
            rows = [(make(rnd.randrange(0, 16)), make(rnd.randrange(0, 3)),
                     make(rnd.randrange(0, 60)))
                    for _ in range(rnd.randrange(1, 100))]
            rows += rnd.sample(rows, rnd.randrange(len(rows) + 1))
            _assert_matches_row_sweep(rows, delta, dtype)

    @pytest.mark.parametrize("delta", [0.25, 0.1, 0.3, 2.5e-7, 1e-150,
                                       1e-170, 1e200])
    def test_float_offsets_of_delta_and_one_ulp(self, delta):
        # rows whose second-axis offset from a row at y0 is delta, 2 delta
        # or 3 delta, as rounded, and one ulp either side, at first-axis
        # offsets 0 and a little under delta: the band [y - 2 delta,
        # y + 2 delta] must hold whatever the squared-distance test
        # flags.  At 1e-170 delta**2 rounds to 0 and at 1e200 it
        # overflows; there a row 3 delta away is flagged too
        probes = []
        for y0 in (0.0, 0.5, 0.7, -3.0):
            for off in (delta, -delta, 2 * delta, -2 * delta, 3 * delta,
                        -3 * delta):
                y = y0 + off
                for dy in (math.nextafter(y, -math.inf), y,
                           math.nextafter(y, math.inf)):
                    for dx in (0.0, delta * 0.999):
                        probes.append(((0.0, y0), (dx, dy)))
                        _assert_matches_row_sweep(
                            [(0.0, y0), (dx, dy)], delta)
                        _assert_matches_row_sweep(
                            [(0.0, y0, 0.0), (dx, dy, 0.0)], delta)
        rows = [row for pair in probes for row in pair]
        random.Random(f"ulps-{delta}").shuffle(rows)
        _assert_matches_row_sweep(rows, delta)

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_int64_rows_match_the_row_sweep(self, dim, data):
        rows = sorted(data.draw(st.lists(
            st.tuples(*[st.integers(-2 ** 40, 2 ** 40)] * dim),
            min_size=1, max_size=30)))
        delta = data.draw(st.integers(1, 2 ** 41))
        stop = data.draw(st.none() | st.integers(1, 31))
        arr = np.array(rows, dtype=np.int64)
        assert (packing.greedy_packing_coords(arr, delta, stop=stop)
                == greedy_packing_rows(rows, delta, stop=stop))

    @pytest.mark.parametrize("kind", list(COORD_KINDS))
    def test_descending_rows_refused(self, kind):
        # on two axes a row below the one before it raises, whether its
        # first coordinate is lower or tied with a lower second one; equal
        # rows ascend.  Only rows the sweep reads are checked, so a row
        # after the stop goes unread
        make, dtype = COORD_KINDS[kind]
        delta = make(1) - make(0)

        def arg(rows):
            rows = [tuple(make(v) for v in row) for row in rows]
            return np.array(rows, dtype=dtype) if dtype else rows

        for rows, bad in [([(1, 0), (0, 0)], 1),
                          ([(0, 1), (0, 0)], 1),
                          ([(0, 0), (2, 0), (1, 5)], 2),
                          ([(0, 0), (3, 1), (3, 0)], 2),
                          ([(0, 0, 1), (0, 0, 0)], 1)]:
            with pytest.raises(ValueError,
                               match=f"^rows must ascend: row {bad} is "
                                     f"below row {bad - 1}$"):
                packing.greedy_packing_coords(arg(rows), delta)
        assert packing.greedy_packing_coords(arg([(0, 0), (0, 0)]),
                                             delta) == [0]
        assert packing.greedy_packing_coords(arg([(0, 0), (4, 0), (1, 0)]),
                                             delta, stop=2) == [0, 1]

    @pytest.mark.parametrize("stop", [0, -1])
    def test_stop_below_one_refused(self, stop):
        # both kernels refuse it alike, before any point is compared
        with pytest.raises(ValueError, match="stop must be at least 1"):
            packing.greedy_packing_coords([(0,), (1,)], 1, stop=stop)
        with pytest.raises(ValueError, match="stop must be at least 1"):
            packing.greedy_packing_counts(np.zeros((2, 3, 1)), 1.0, stop)


class TestExact:
    def test_single_point(self):
        net = _net_from_values([Fraction(1, 3)])
        assert len(max_packing_exact(net, 5)) == 1

    def test_interval_power_of_two(self, monkeypatch):
        # packing numbers of the interval: strict spacing forces 2**n; the
        # 65-point net at n = 3 needs a limit above the default 64
        monkeypatch.setattr(packing, "EXACT_SEARCH_LIMIT", 70)
        for n in (1, 2, 3):
            net = build_net(unit_interval(), 2 * n)
            assert len(max_packing_exact(net, n)) == 2 ** n

    def test_tie_distance_excluded(self):
        net = _net_from_values([0, Fraction(1, 4)])
        assert len(max_packing_exact(net, 2)) == 1  # exactly 2**-2 apart

    def test_limit_refusal(self):
        net = build_net(unit_interval(), 7)
        with pytest.raises(ExactSearchLimitExceeded):
            max_packing_exact(net, 3)
        # the row kernel refuses before comparing any pair: these rows
        # would raise TypeError on the first subtraction
        rows = [(object(),)] * (packing.EXACT_SEARCH_LIMIT + 1)
        with pytest.raises(ExactSearchLimitExceeded):
            packing.exact_packing_coords(rows, 1)

    def test_limit_read_at_call_time(self, monkeypatch):
        # every reader of EXACT_SEARCH_LIMIT takes its value at call time
        monkeypatch.setattr(packing, "EXACT_SEARCH_LIMIT", 8)
        values = [Fraction(k, 16) for k in range(9)]
        assert len(max_packing_exact(_net_from_values(values[:8]), 3)) == 3
        with pytest.raises(ExactSearchLimitExceeded,
                           match="^9 points exceed the exact search "
                                 "limit of 8$"):
            max_packing_exact(_net_from_values(values), 3)
        with pytest.raises(ExactSearchLimitExceeded):
            packing.exact_packing_coords([(v,) for v in values], 1)

    @pytest.mark.parametrize("make_net", [
        lambda: build_net(harmonic_sequence(), 7),
    ], ids=["harmonic-7"])
    def test_limit_refused_before_expansion(self, make_net, monkeypatch):
        net = make_net()

        def fail(self):
            raise AssertionError("net expanded before the limit check")

        monkeypatch.setattr(ResolutionNet, "coord_rows", fail)
        limit = packing.EXACT_SEARCH_LIMIT
        with pytest.raises(ExactSearchLimitExceeded,
                           match=f"^{net.size()} points exceed the exact "
                                 f"search limit of {limit}$"):
            max_packing_exact(net, 6)

    def test_matches_brute_force_random(self):
        rnd = random.Random(17)
        for _ in range(80):
            vals = sorted(set(Fraction(rnd.randrange(0, 128), 128)
                              for _ in range(rnd.randrange(2, 10))))
            delta = Fraction(rnd.randrange(1, 20), 64)
            assert (len(packing.exact_packing_coords([(v,) for v in vals],
                                                     delta))
                    == _brute_force_max(vals, delta))

    def test_independent_set_core_fuzz(self):
        # the folding + clique-cover search against subset enumeration,
        # on arbitrary graphs rather than just geometric ones
        from dimlab.packing import _max_independent_set

        def brute(adj, m):
            best = 0
            for r in range(m, 0, -1):
                for sub in itertools.combinations(range(m), r):
                    if all(not adj[a] >> b & 1
                           for i, a in enumerate(sub) for b in sub[i + 1:]):
                        return r
            return best

        rnd = random.Random(99)
        for _ in range(120):
            m = rnd.randrange(1, 11)
            adj = [0] * m
            for i in range(m):
                for j in range(i + 1, m):
                    if rnd.random() < rnd.choice([0.15, 0.5, 0.85]):
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            mask = _max_independent_set(adj, m)
            chosen = [i for i in range(m) if mask >> i & 1]
            assert all(not adj[a] >> b & 1
                       for x, a in enumerate(chosen) for b in chosen[x + 1:])
            assert len(chosen) == brute(adj, m)

    def test_exact_on_planar_points(self):
        # 2-d euclidean instances on exact coordinate rows
        rnd = random.Random(31)
        for _ in range(25):
            rows = sorted({
                (Fraction(rnd.randrange(0, 9), 8),
                 Fraction(rnd.randrange(0, 9), 8))
                for _ in range(rnd.randrange(2, 8))
            })
            delta = Fraction(rnd.randrange(2, 10), 8)
            exact = len(packing.exact_packing_coords(rows, delta))
            greedy = len(packing.greedy_packing_coords(rows, delta))
            assert greedy <= exact
            best = 0
            for r in range(len(rows), 0, -1):
                for sub in itertools.combinations(rows, r):
                    if all(sum((u - v) ** 2 for u, v in zip(a, b)) > delta ** 2
                           for i, a in enumerate(sub) for b in sub[i + 1:]):
                        best = r
                        break
                if best:
                    break
            assert exact == best


class TestPackingInvariants:
    def test_monotone_in_scale(self):
        net = build_net(triadic_cantor(), 6)
        counts = [len(max_packing_exact(net, n)) for n in (2, 3, 4, 5)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_subnet_monotone(self):
        net = build_net(triadic_cantor(), 4)
        sub = ResolutionNet(triadic_cantor(), 4, net.points[::3])
        for n in (2, 3):
            assert (len(max_packing_exact(sub, n))
                    <= len(max_packing_exact(net, n)))

    def test_sandwich(self):
        # greedy at scale n is maximal, so it covers at 2**-n and any
        # 2**-(n-1) packing injects into it; and greedy <= exact
        for n in (3, 4):
            net = build_net(triadic_cantor(), n + 1)
            greedy_n = len(max_packing_greedy(net, n))
            exact_prev = len(max_packing_exact(net, n - 1))
            exact_n = len(max_packing_exact(net, n))
            assert exact_prev <= greedy_n <= exact_n

    def test_projection_graph_dominates_base(self):
        net = build_net(triadic_cantor(), 4)
        rnd = random.Random(4)
        rows = [(p, Fraction(rnd.randrange(0, 32), 32))
                for p in net.points]
        for n in (2, 3):
            delta = Fraction(1, 2 ** n)
            base = packing.greedy_packing_coords(
                [(p,) for p in net.points], delta)
            graph = packing.greedy_packing_coords(sorted(rows), delta)
            assert len(graph) >= len(base)


class TestIntegerNets:
    # The net counters read a built net's integers; a hand-built net of
    # the same Fractions goes through the coordinate rows instead.

    @pytest.mark.parametrize("space", NET_SPACES, ids=lambda sp: sp.kind)
    def test_counters_match_fraction_net(self, space):
        # n runs one past the net's scale, where the lattice reach
        # den >> n is 0 on the interval
        for net, hand in built_nets(space):
            for n in range(net.scale_index + 2):
                kept = max_packing_greedy(net, n)
                assert kept == max_packing_greedy(hand, n)
                assert all(type(x) is Fraction for x in kept)
                assert (occupied_cell_count(net, n)
                        == occupied_cell_count(hand, n))

    def test_harmonic_series_memory(self):
        # the count at n = 19 gallops over the 2**20 + 1 point net,
        # making only the Fractions it probes and keeps
        out = []
        peak = traced_peak_mib(lambda: out.append(
            estimators.packing_count_series(harmonic_sequence(), [19])))
        assert out[0].entries == ((19, 1346),)
        assert peak < 4.0


class TestMeshCount:
    def test_single_point(self):
        assert mesh_count_2d([(Fraction(0), Fraction(0))], 3) == 1

    def test_half_open_boundary(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(1, 9), Fraction(0))]
        assert mesh_count_2d(pts, 1) == 2

    def test_interior_no_split(self):
        pts = [(Fraction(1, 100), Fraction(0)), (Fraction(2, 100), Fraction(0))]
        assert mesh_count_2d(pts, 1) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mesh_count_2d([], 1)


class TestOccupiedCells:
    def test_interval_cells(self):
        net = build_net(unit_interval(), 3)
        assert occupied_cell_count(net, 3) == 9  # 8 interior cells + {1}

    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    def test_matches_fraction_floor_division(self, space):
        # nets of every scale m <= 10 against cells of every n <= 10: at
        # m >= n every interval point, and on the harmonic net every 1/2**j,
        # lies on a cell edge
        for m in range(11):
            net = build_net(space, m)
            for n in range(11):
                width = Fraction(1, 2 ** n)
                assert occupied_cell_count(net, n) == len(
                    {x // width for (x,) in net.coord_rows()})

    def test_edges_and_negative_points(self):
        net = _net_from_values([-1, Fraction(-1, 2), Fraction(-1, 3), 0,
                                Fraction(1, 4), Fraction(1, 3),
                                Fraction(1, 2), Fraction(3, 4), 1])
        for n in range(11):
            width = Fraction(1, 2 ** n)
            assert occupied_cell_count(net, n) == len(
                {x // width for x in net.points})
        assert occupied_cell_count(net, 1) == 5  # cells -2 .. 2

    def test_product_factorization_matches_direct(self):
        # cell_count_series counts a product from its base net alone; the
        # direct count floors every row of the expanded product, its axis
        # built here by hand
        for space in (triadic_cantor(), unit_interval()):
            for d in (1, 2):
                series = estimators.cell_count_series(
                    product_with_cube(space, d), range(1, 5))
                for n, count in series.entries:
                    axis = [Fraction(k, 2 ** n) for k in range(2 ** n + 1)]
                    direct = len({
                        tuple((c.numerator * 2 ** n) // c.denominator
                              for c in row)
                        for row in product_rows(build_net(space, n), axis, d)
                    })
                    assert count == direct

    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    def test_nested_product_counts_as_flat(self, space):
        # (K x [0,1]**a) x [0,1]**b is K x [0,1]**(a + b)
        scales = range(0, 7)
        for a, b in ((1, 1), (1, 2), (2, 1)):
            nested = product_with_cube(product_with_cube(space, a), b)
            assert (estimators.cell_count_series(nested, scales)
                    == estimators.cell_count_series(
                        product_with_cube(space, a + b), scales))

    def test_product_beyond_materialization_limit(self, monkeypatch):
        # only the 129-point base net is built for a product of 129**3
        built = []

        def build(space, n):
            built.append(space)
            return build_net(space, n)

        monkeypatch.setattr(estimators, "build_net", build)
        series = estimators.cell_count_series(
            product_with_cube(unit_interval(), 2), [7])
        assert 129 ** 3 > spaces.MAX_MATERIALIZED_POINTS
        assert series.entries == ((7, 129 ** 3),)
        assert built == [unit_interval()]
