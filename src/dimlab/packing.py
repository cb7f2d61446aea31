"""Packing counts and mesh-cell counts on exact point sets.

A delta-packing is a point set whose pairwise distances strictly exceed
delta.  Two counters are provided:

* a deterministic greedy counter (maximal, not maximum) that inserts
  points in ascending lexicographic coordinate order and therefore
  reproduces exactly across runs; on one-dimensional point sets the
  sweep it performs is in fact optimal;
* an exact branch-and-bound counter for instances up to a configured
  size, used both directly and as the correctness oracle for greedy.

All comparisons are exact, so a distance tie (exactly equal to delta) is
never misclassified: one-dimensional greedy sweeps compare Fractions,
everything else works on integer-scaled coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .spaces import FINITE_POINT_CLOUD, ResolutionNet

EXACT_SEARCH_LIMIT = 64


class ExactSearchLimitExceeded(RuntimeError):
    """Instance too large for exact search; the caller should use greedy."""


@dataclass(frozen=True)
class PackingResult:
    """A packing witness: pairwise distances all strictly exceed delta."""

    scale_index: int | None
    delta: Fraction
    count: int
    witness: tuple
    method: str


def _resolve_delta(n, delta) -> tuple[int | None, Fraction]:
    if delta is None:
        if n is None:
            raise ValueError("need a scale index n or an explicit delta")
        return n, Fraction(1, 2 ** n)
    return n, Fraction(delta)


def _scaled_rows(rows: list[tuple[Fraction, ...]], delta: Fraction):
    """Rescale rational coordinates to integers; returns (rows, delta_scaled)."""
    scale = delta.denominator
    for row in rows:
        for c in row:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    int_rows = [tuple(int(c * scale) for c in row) for row in rows]
    return int_rows, int(delta * scale)


def _sorted_order(rows):
    return sorted(range(len(rows)), key=rows.__getitem__)


def _greedy_indices(int_rows, order, dscaled: int) -> list[int]:
    """Greedy maximal packing over integer rows, insertion in ``order``.

    Candidates are hashed into delta-sized grid cells; a conflicting
    chosen point (distance <= delta) always lies in a neighboring cell.
    """
    d2 = dscaled * dscaled
    dim = len(int_rows[order[0]]) if order else 0
    offsets = list(itertools.product((-1, 0, 1), repeat=dim))
    buckets: dict[tuple, list[int]] = {}
    chosen = []
    for idx in order:
        row = int_rows[idx]
        cell = tuple(c // dscaled for c in row)
        ok = True
        for off in offsets:
            near = buckets.get(tuple(c + o for c, o in zip(cell, off)))
            if not near:
                continue
            for j in near:
                other = int_rows[j]
                s = 0
                for a, b in zip(row, other):
                    s += (a - b) * (a - b)
                if s <= d2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            chosen.append(idx)
            buckets.setdefault(cell, []).append(idx)
    return chosen


def greedy_packing_coords(
    rows: list[tuple[Fraction, ...]],
    delta: Fraction,
    presorted: bool = False,
) -> list[int]:
    """Indices of a greedy maximal delta-packing of the coordinate rows.

    ``presorted`` declares the rows already in ascending order, which the
    insertion order (and on 1-D rows the sweep) relies on.
    """
    if not rows:
        raise ValueError("empty point set")
    delta = Fraction(delta)
    order = list(range(len(rows))) if presorted else _sorted_order(rows)
    if len(rows[0]) == 1:
        return _sweep_indices(rows, order, delta)
    int_rows, dscaled = _scaled_rows(rows, delta)
    return _greedy_indices(int_rows, order, dscaled)


def _sweep_indices(rows, order, delta: Fraction) -> list[int]:
    """Greedy packing of 1-D rows visited in ascending order.

    Every chosen point lies at or below the candidate, so the nearest
    one is the last chosen: the candidate is kept iff it lies strictly
    beyond that point plus delta.
    """
    chosen = [order[0]]
    bound = rows[order[0]][0] + delta
    for idx in order[1:]:
        x = rows[idx][0]
        if x > bound:
            chosen.append(idx)
            bound = x + delta
    return chosen


def max_packing_greedy(net: ResolutionNet, n: int | None = None, *,
                       delta=None) -> PackingResult:
    """Greedy maximal 2**-n packing of a net (or explicit delta).

    The result is maximal (no net point can be added), hence at least
    the 2**-n covering number of the net and at most the true maximum.
    """
    n, delta = _resolve_delta(n, delta)
    pts = net.point_list()
    if not pts:
        raise ValueError("empty net")
    if net.space.kind == FINITE_POINT_CLOUD:
        chosen = _cloud_greedy(net, delta)
    else:
        rows = net.coord_rows()
        chosen = greedy_packing_coords(rows, delta, presorted=True)
    return PackingResult(n, delta, len(chosen),
                         tuple(pts[i] for i in chosen), "greedy")


def _cloud_greedy(net: ResolutionNet, delta: Fraction) -> list[int]:
    table = net.space.cloud_table
    chosen = []
    for i in net.point_list():
        if all(table[i][j] > delta for j in chosen):
            chosen.append(i)
    return chosen


def exact_packing_coords(rows: list[tuple[Fraction, ...]], delta: Fraction,
                         limit: int = EXACT_SEARCH_LIMIT) -> list[int]:
    """Indices of a true maximum delta-packing of the coordinate rows."""
    m = len(rows)
    if m == 0:
        raise ValueError("empty point set")
    if m > limit:
        raise ExactSearchLimitExceeded(
            f"{m} points exceed the exact search limit of {limit}"
        )
    int_rows, dscaled = _scaled_rows(rows, Fraction(delta))
    d2 = dscaled * dscaled
    conflict = [
        [
            sum((a - b) * (a - b) for a, b in zip(r1, r2)) <= d2
            for r2 in int_rows
        ]
        for r1 in int_rows
    ]
    best_mask = _max_independent_set(_adjacency_masks(conflict), m)
    return [i for i in range(m) if best_mask >> i & 1]


def _adjacency_masks(conflict) -> list[int]:
    m = len(conflict)
    adj = []
    for i in range(m):
        mask = 0
        for j in range(m):
            if i != j and conflict[i][j]:
                mask |= 1 << j
        adj.append(mask)
    return adj


def max_packing_exact(net: ResolutionNet, n: int | None = None, *,
                      delta=None,
                      limit: int = EXACT_SEARCH_LIMIT) -> PackingResult:
    """True maximum 2**-n packing via branch and bound.

    Works on the compatibility graph where two points conflict when
    their distance is <= delta; a packing is an independent set of the
    conflict graph.  Refuses instances larger than ``limit``.
    """
    n, delta = _resolve_delta(n, delta)
    pts = net.point_list()
    m = len(pts)
    if m == 0:
        raise ValueError("empty net")
    if net.space.kind == FINITE_POINT_CLOUD:
        if m > limit:
            raise ExactSearchLimitExceeded(
                f"{m} points exceed the exact search limit of {limit}"
            )
        table = net.space.cloud_table
        conflict = [[table[a][b] <= delta for b in pts] for a in pts]
        best_mask = _max_independent_set(_adjacency_masks(conflict), m)
        chosen = [i for i in range(m) if best_mask >> i & 1]
    else:
        chosen = exact_packing_coords(net.coord_rows(), delta, limit)
    return PackingResult(n, delta, len(chosen),
                         tuple(pts[i] for i in chosen), "exact")


def _max_independent_set(adj: list[int], m: int) -> int:
    """Maximum independent set of a small graph given as adjacency bitmasks.

    Deterministic: candidates of degree 0 or 1 are folded in outright
    (always optimal-preserving), then the search branches on the
    candidate of largest remaining degree, include branch first.
    Geometric conflict graphs mostly collapse under the foldings alone.
    """
    full = (1 << m) - 1

    # greedy incumbent, fewest conflicts first
    order = sorted(range(m), key=lambda i: (bin(adj[i]).count("1"), i))
    inc_mask = 0
    blocked = 0
    for i in order:
        if not blocked >> i & 1:
            inc_mask |= 1 << i
            blocked |= adj[i] | 1 << i
    best = [inc_mask, bin(inc_mask).count("1")]

    def recurse(cand: int, cur_mask: int, cur_count: int):
        folded = True
        while folded:
            folded = False
            c = cand
            while c:
                bit = c & -c
                c &= c - 1
                i = bit.bit_length() - 1
                deg_mask = adj[i] & cand
                if deg_mask == 0 or deg_mask & (deg_mask - 1) == 0:
                    cand &= ~(deg_mask | bit)
                    cur_mask |= bit
                    cur_count += 1
                    folded = True
                    break
        if cand == 0:
            if cur_count > best[1]:
                best[0], best[1] = cur_mask, cur_count
            return
        # clique-cover bound: an independent set meets each clique once
        cliques = []
        cover = 0
        c = cand
        while c:
            bit = c & -c
            c &= c - 1
            i = bit.bit_length() - 1
            for t in range(len(cliques)):
                if cliques[t] & bit:
                    cliques[t] &= adj[i]
                    break
            else:
                cliques.append(adj[i])
                cover += 1
        if cur_count + cover <= best[1]:
            return
        pick, pick_deg = -1, -1
        c = cand
        while c:
            i = (c & -c).bit_length() - 1
            deg = bin(adj[i] & cand).count("1")
            if deg > pick_deg:
                pick, pick_deg = i, deg
            c &= c - 1
        bit = 1 << pick
        recurse(cand & ~(adj[pick] | bit), cur_mask | bit, cur_count + 1)
        recurse(cand & ~bit, cur_mask, cur_count)

    recurse(full, 0, 0)
    return best[0]


def mesh_count_2d(points, n: int) -> int:
    """Number of half-open 9**-n mesh squares meeting a planar point set.

    The squares are [k*9**-n, (k+1)*9**-n) x [m*9**-n, (m+1)*9**-n); the
    cell of a point is found by exact rational floor division.
    """
    if not points:
        raise ValueError("empty point set")
    scale = 9 ** n
    cells = set()
    for x, y in points:
        fx, fy = Fraction(x), Fraction(y)
        cells.add((
            (fx.numerator * scale) // fx.denominator,
            (fy.numerator * scale) // fy.denominator,
        ))
    return len(cells)


def occupied_cell_count(net: ResolutionNet, n: int) -> int:
    """Number of half-open 2**-n grid cells occupied by the net's points.

    For a lazily represented product net the count factorizes exactly:
    the cell of (b, z) is (cell(b), cell(z_1), ..., cell(z_d)) and the
    point set is a full Cartesian product, so occupied cells are the
    product of the per-factor occupied cells.
    """
    if net.points is None:
        base_net, axis, d = net.factors
        axis_cells = _distinct_cells([(z,) for z in axis], n)
        return occupied_cell_count(base_net, n) * axis_cells ** d
    return _distinct_cells(net.coord_rows(), n)


def _distinct_cells(rows, n: int) -> int:
    scale = 2 ** n
    cells = set()
    for row in rows:
        cells.add(tuple((c.numerator * scale) // c.denominator for c in row))
    return len(cells)
