import itertools
import math
import random
from fractions import Fraction

import pytest

from dimlab import packing, spaces
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
    triadic_cantor,
    unit_interval,
)

from oracles import mesh_count_2d, product_rows


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
                assert (len(packing.greedy_packing_coords(rows, delta,
                                                          presorted=True))
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

    def test_product_net_counted_not_expanded(self):
        # a product net refuses to become points or rows, also through
        # the net packers, even below the exact search limit;
        # TestOccupiedCells counts the cells of one of 129**3 points
        net = spaces.product_net(build_net(triadic_cantor(), 1), 1, 1)
        assert net.size() == 8 * 3 <= packing.EXACT_SEARCH_LIMIT
        for expand in (ResolutionNet.point_list, ResolutionNet.coord_rows,
                       lambda net: max_packing_greedy(net, 1),
                       lambda net: max_packing_exact(net, 1)):
            with pytest.raises(spaces.UnsupportedSpaceError):
                expand(net)

    def test_product_net_beyond_limit_refused(self):
        net = spaces.product_net(build_net(unit_interval(), 7), 2, 7)
        assert net.size() > spaces.MAX_MATERIALIZED_POINTS
        with pytest.raises(spaces.UnsupportedSpaceError):
            max_packing_greedy(net, 7)
        with pytest.raises(ExactSearchLimitExceeded):
            max_packing_exact(net, 7)

    def test_maximality(self):
        # no skipped net point can extend the greedy witness
        net = build_net(unit_interval(), 6)
        res = max_packing_greedy(net, 4)
        delta = Fraction(1, 16)
        for p in net.point_list():
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
            assert (packing.greedy_packing_coords(rows, delta, presorted=True)
                    == _all_pairs_greedy(rows, delta))

    def test_matches_grid_hash_on_shuffled_rows(self):
        rows = build_net(harmonic_sequence(), 6).coord_rows()
        random.Random(5).shuffle(rows)
        for n in (2, 4, 6):
            delta = Fraction(1, 2 ** n)
            assert (packing.greedy_packing_coords(rows, delta)
                    == _all_pairs_greedy(rows, delta))

    def test_duplicates_and_exact_ties(self):
        # ties at exactly delta and repeated coordinates are both rejected
        vals = [0, 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
                Fraction(5, 8), Fraction(3, 4), Fraction(3, 4), 1]
        rows = [(Fraction(v),) for v in reversed(vals)]
        for delta in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            got = packing.greedy_packing_coords(rows, delta)
            assert got == _all_pairs_greedy(rows, delta)
        assert [rows[i][0] for i in got] == [0, Fraction(5, 8)]


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
            delta = make(rnd.randrange(1, 16))
            got = packing.greedy_packing_coords(rows, delta)
            assert got == _all_pairs_greedy(rows, delta)
            # a stopped sweep keeps exactly the prefix of the full one
            for stop in (1, (len(got) + 1) // 2, len(got), len(got) + 1):
                assert (packing.greedy_packing_coords(rows, delta, stop=stop)
                        == got[:stop])
            order = sorted(range(len(rows)), key=rows.__getitem__)
            ordered = [rows[i] for i in order]
            assert got == [order[i] for i in packing.greedy_packing_coords(
                ordered, delta, presorted=True)]

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

    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    def test_net_rows_ascending(self, space):
        # max_packing_greedy passes presorted=True: the window only sees
        # every conflict if the rows come in ascending order
        for n in range(1, 8):
            rows = build_net(space, n).coord_rows()
            assert all(a < b for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("space, depth", [(triadic_cantor(), 4),
                                              (unit_interval(), 3)],
                             ids=["triadic_cantor", "unit_interval"])
    def test_fraction_rows_match_hand_scaled_integers(self, space, depth):
        # rows compared as given pick the same points as the same rows
        # scaled by hand to integers over their common denominator
        net = spaces.product_net(build_net(space, depth), 1, depth)
        rows = product_rows(*net.factors)
        scale = math.lcm(2 ** 4, *(c.denominator for r in rows for c in r))
        int_rows = [tuple(int(c * scale) for c in row) for row in rows]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        for n in range(5):
            delta = Fraction(1, 2 ** n)
            got = packing._greedy_indices(rows, order, delta)
            assert got == packing._greedy_indices(int_rows, order,
                                                  int(delta * scale))
            assert got == packing.greedy_packing_coords(rows, delta)


class TestExact:
    def test_single_point(self):
        net = _net_from_values([Fraction(1, 3)])
        assert len(max_packing_exact(net, 5)) == 1

    def test_interval_power_of_two(self):
        # packing numbers of the interval: strict spacing forces 2**n
        for n in (1, 2, 3):
            net = build_net(unit_interval(), 2 * n)
            assert len(max_packing_exact(net, n, limit=70)) == 2 ** n

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

    @pytest.mark.parametrize("make_net", [
        lambda: build_net(harmonic_sequence(), 7),
        lambda: spaces.product_net(build_net(unit_interval(), 6), 2, 6),
    ], ids=["harmonic-7", "interval-product-6"])
    def test_limit_refused_before_expansion(self, make_net, monkeypatch):
        net = make_net()

        def fail(self):
            raise AssertionError("net expanded before the limit check")

        monkeypatch.setattr(ResolutionNet, "point_list", fail)
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
                for p in net.point_list()]
        for n in (2, 3):
            delta = Fraction(1, 2 ** n)
            base = packing.greedy_packing_coords(
                [(p,) for p in net.point_list()], delta, presorted=True)
            graph = packing.greedy_packing_coords(sorted(rows), delta,
                                                  presorted=True)
            assert len(graph) >= len(base)


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

    def test_product_factorization_matches_direct(self):
        # every product net is factored, so the direct count over its
        # expanded rows is an independent check of the factorization
        for space in (triadic_cantor(), unit_interval()):
            for d in (1, 2):
                net = spaces.product_net(build_net(space, 3), d, 3)
                assert net.points is None
                for n in (1, 2, 3):
                    direct = len({
                        tuple((c.numerator * 2 ** n) // c.denominator
                              for c in row)
                        for row in product_rows(*net.factors)
                    })
                    assert occupied_cell_count(net, n) == direct

    def test_product_beyond_materialization_limit(self):
        net = spaces.product_net(build_net(unit_interval(), 7), 2, 7)
        assert net.size() == 129 ** 3 > spaces.MAX_MATERIALIZED_POINTS
        assert occupied_cell_count(net, 7) == 129 ** 3
        with pytest.raises(spaces.UnsupportedSpaceError):
            net.point_list()
