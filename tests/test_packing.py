import itertools
import random
from fractions import Fraction

import pytest

from dimlab import packing, spaces
from dimlab.packing import (
    ExactSearchLimitExceeded,
    max_packing_exact,
    max_packing_greedy,
    mesh_count_2d,
    occupied_cell_count,
)
from dimlab.spaces import (
    ResolutionNet,
    build_net,
    harmonic_sequence,
    triadic_cantor,
    unit_interval,
)


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


class TestGreedy:
    def test_three_points_delta_04(self):
        net = _net_from_values([0, Fraction(1, 2), 1])
        res = max_packing_greedy(net, delta=Fraction(2, 5))
        assert res.count == 3

    def test_three_points_delta_06(self):
        net = _net_from_values([0, Fraction(1, 2), 1])
        res = max_packing_greedy(net, delta=Fraction(3, 5))
        assert res.count == 2
        assert res.witness == (Fraction(0), Fraction(1))

    def test_greedy_matches_exact_on_cantor_net(self):
        net = build_net(triadic_cantor(), 4)  # 32 points
        g = max_packing_greedy(net, 3)
        e = max_packing_exact(net, 3)
        assert g.count == e.count

    def test_witness_is_strict_packing(self):
        net = build_net(triadic_cantor(), 5)
        res = max_packing_greedy(net, 5)
        delta = Fraction(1, 32)
        vals = [p.value for p in res.witness]
        assert all(abs(a - b) > delta
                   for a, b in itertools.combinations(vals, 2))
        assert res.count == len(res.witness)

    def test_empty_net_rejected(self):
        net = ResolutionNet(unit_interval(), 3, ())
        with pytest.raises(ValueError):
            max_packing_greedy(net, 1)

    def test_maximality(self):
        # no skipped net point can extend the greedy witness
        net = build_net(unit_interval(), 6)
        res = max_packing_greedy(net, 4)
        delta = Fraction(1, 16)
        for p in net.point_list():
            assert any(abs(p - w) <= delta for w in res.witness)


def _grid_hash_greedy(rows, delta, order):
    """The integer-scaled grid-hash greedy, the reference for the 1-D sweep."""
    int_rows, dscaled = packing._scaled_rows(rows, delta)
    return packing._greedy_indices(int_rows, order, dscaled)


class TestOneDimensionalSweep:
    @pytest.mark.parametrize("space", [unit_interval(), triadic_cantor(),
                                       harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_grid_hash_on_nets(self, space, n):
        rows = build_net(space, n).coord_rows()
        order = list(range(len(rows)))
        for delta in (Fraction(1, 2 ** n), Fraction(1, 2 ** (n - 1))):
            assert (packing.greedy_packing_coords(rows, delta, presorted=True)
                    == _grid_hash_greedy(rows, delta, order))

    def test_matches_grid_hash_on_shuffled_rows(self):
        rows = build_net(harmonic_sequence(), 6).coord_rows()
        random.Random(5).shuffle(rows)
        order = sorted(range(len(rows)), key=rows.__getitem__)
        for n in (2, 4, 6):
            delta = Fraction(1, 2 ** n)
            assert (packing.greedy_packing_coords(rows, delta)
                    == _grid_hash_greedy(rows, delta, order))

    def test_duplicates_and_exact_ties(self):
        # ties at exactly delta and repeated coordinates are both rejected
        vals = [0, 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
                Fraction(5, 8), Fraction(3, 4), Fraction(3, 4), 1]
        rows = [(Fraction(v),) for v in reversed(vals)]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        for delta in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            got = packing.greedy_packing_coords(rows, delta)
            assert got == _grid_hash_greedy(rows, delta, order)
        assert [rows[i][0] for i in got] == [0, Fraction(5, 8)]


class TestExact:
    def test_single_point(self):
        net = _net_from_values([Fraction(1, 3)])
        assert max_packing_exact(net, 5).count == 1

    def test_interval_power_of_two(self):
        # packing numbers of the interval: strict spacing forces 2**n
        for n in (1, 2, 3):
            net = build_net(unit_interval(), 2 * n)
            assert max_packing_exact(net, n, limit=70).count == 2 ** n

    def test_tie_distance_excluded(self):
        net = _net_from_values([0, Fraction(1, 4)])
        assert max_packing_exact(net, 2).count == 1  # exactly 2**-2 apart

    def test_limit_refusal(self):
        net = build_net(unit_interval(), 7)
        with pytest.raises(ExactSearchLimitExceeded):
            max_packing_exact(net, 3)

    def test_matches_brute_force_random(self):
        rnd = random.Random(17)
        for _ in range(80):
            vals = sorted(set(Fraction(rnd.randrange(0, 128), 128)
                              for _ in range(rnd.randrange(2, 10))))
            net = _net_from_values(vals)
            delta = Fraction(rnd.randrange(1, 20), 64)
            assert (max_packing_exact(net, delta=delta).count
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
        # 2-d euclidean instances through the product-space coordinates
        rnd = random.Random(31)
        space = spaces.product_with_cube(unit_interval(), 1)
        for _ in range(25):
            pts = list({
                (Fraction(rnd.randrange(0, 9), 8),
                 (Fraction(rnd.randrange(0, 9), 8),))
                for _ in range(rnd.randrange(2, 8))
            })
            net = ResolutionNet(space, 3, tuple(sorted(pts)))
            delta = Fraction(rnd.randrange(2, 10), 8)
            exact = max_packing_exact(net, delta=delta)
            greedy = max_packing_greedy(net, delta=delta)
            assert greedy.count <= exact.count
            rows = [net.coords(p) for p in pts]
            best = 0
            for r in range(len(pts), 0, -1):
                for sub in itertools.combinations(rows, r):
                    if all(sum((u - v) ** 2 for u, v in zip(a, b)) > delta ** 2
                           for i, a in enumerate(sub) for b in sub[i + 1:]):
                        best = r
                        break
                if best:
                    break
            assert exact.count == best

    def test_point_cloud_instance(self):
        cloud = spaces.finite_point_cloud(
            "abcd",
            [[0, 3, 4, 5], [3, 0, 3, 4], [4, 3, 0, 3], [5, 4, 3, 0]],
        )
        net = build_net(cloud, 0)
        assert max_packing_exact(net, delta=Fraction(3)).count == 2
        assert max_packing_greedy(net, delta=Fraction(2)).count == 4


class TestPackingInvariants:
    def test_monotone_in_scale(self):
        net = build_net(triadic_cantor(), 6)
        counts = [max_packing_exact(net, n).count for n in (2, 3, 4, 5)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_subnet_monotone(self):
        net = build_net(triadic_cantor(), 4)
        sub = ResolutionNet(triadic_cantor(), 4, net.points[::3])
        for n in (2, 3):
            assert (max_packing_exact(sub, n).count
                    <= max_packing_exact(net, n).count)

    def test_sandwich(self):
        # greedy at scale n is maximal, so it covers at 2**-n and any
        # 2**-(n-1) packing injects into it; and greedy <= exact
        for n in (3, 4):
            net = build_net(triadic_cantor(), n + 1)
            greedy_n = max_packing_greedy(net, n).count
            exact_prev = max_packing_exact(net, n - 1).count
            exact_n = max_packing_exact(net, n).count
            assert exact_prev <= greedy_n <= exact_n

    def test_projection_graph_dominates_base(self):
        net = build_net(triadic_cantor(), 4)
        rnd = random.Random(4)
        rows = [(p.value, Fraction(rnd.randrange(0, 32), 32))
                for p in net.point_list()]
        for n in (2, 3):
            delta = Fraction(1, 2 ** n)
            base = packing.greedy_packing_coords(
                [(p.value,) for p in net.point_list()], delta, presorted=True)
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
        base = build_net(triadic_cantor(), 3)
        net = spaces.product_net(base, 1, 3)
        factored = occupied_cell_count(net, 3)
        direct = len({
            tuple((c.numerator * 8) // c.denominator for c in net.coords(p))
            for p in net.point_list()
        })
        assert factored == direct
