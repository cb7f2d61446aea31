"""Packing counts and mesh-cell counts on exact point sets.

A delta-packing is a point set whose pairwise distances strictly exceed
delta.  Two counters are provided:

* a deterministic greedy counter (maximal, not maximum) that inserts
  points in ascending lexicographic coordinate order and therefore
  reproduces exactly across runs.  One kernel serves every dimension: a
  sorted window sweep that compares a candidate only with the chosen
  points whose first coordinate lies within delta below its own.  On
  one-dimensional point sets that window is the last chosen point, and
  the sweep is in fact optimal.  It can stop once a given number of
  points is kept, which decides whether a count reaches a threshold;
* an exact branch-and-bound counter for instances up to a configured
  size, used both directly and as the correctness oracle for greedy.

The kernels compare the numbers they are given as they are, and squared
distances against ``delta * delta``.  On ``int`` or ``Fraction`` rows
every comparison is exact, so a distance tie (exactly equal to delta) is
never misclassified; callers that pack many instances over one common
denominator (the event check) pass integer rows and an integer delta.
The saturation Monte Carlo passes ``float`` rows; on its dyadic grid
values, shifted by the built-in adversaries, they are exact as well.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .spaces import ResolutionNet

EXACT_SEARCH_LIMIT = 64


class ExactSearchLimitExceeded(RuntimeError):
    """Instance too large for exact search; the caller should use greedy."""


def _positive(delta):
    if delta <= 0:
        raise ValueError(f"packing scale delta must be positive, got {delta}")
    return delta


def _cell(row, width) -> tuple[int, ...]:
    """Index of the half-open grid cell of side ``width`` holding the row."""
    return tuple(c // width for c in row)


def _sorted_order(rows):
    return sorted(range(len(rows)), key=rows.__getitem__)


def _greedy_indices(rows, order, delta, stop=None) -> list[int]:
    """Greedy maximal packing of rows inserted in ascending ``order``.

    ``reach`` holds each chosen row's first coordinate plus delta and is
    non-decreasing, so a conflicting chosen row (distance <= delta) is
    among the trailing ones whose reach is at least the candidate's
    first coordinate; only those are compared.  On 1-D rows reaching is
    conflicting, so no distance is computed there.  The sweep returns
    once ``stop`` rows are chosen.
    """
    d2 = delta * delta
    flat = len(rows[order[0]]) == 1
    chosen: list[int] = []
    reach = []
    for idx in order:
        row = rows[idx]
        x = row[0]
        k = len(chosen)
        while k and reach[k - 1] >= x:
            k -= 1
            if flat:
                break
            s = 0
            for a, b in zip(row, rows[chosen[k]]):
                s += (a - b) * (a - b)
            if s <= d2:
                break
        else:
            chosen.append(idx)
            if len(chosen) == stop:
                break
            reach.append(x + delta)
    return chosen


def greedy_packing_coords(rows, delta, presorted: bool = False,
                          stop: int | None = None) -> list[int]:
    """Indices of a greedy maximal delta-packing of the coordinate rows.

    Rows and delta are ``int``, ``Fraction`` or ``float`` and are
    compared as given.  ``presorted`` declares the rows already in
    ascending order, which the kernel's window relies on.

    With a positive ``stop`` the sweep returns as soon as ``stop`` rows
    are kept.  Rows are kept in the same ascending order either way, so
    the result is the first ``min(stop, count)`` indices of the full
    packing: enough to decide whether the count reaches ``stop``.
    """
    if not rows:
        raise ValueError("empty point set")
    _positive(delta)
    order = list(range(len(rows))) if presorted else _sorted_order(rows)
    return _greedy_indices(rows, order, delta, stop)


def max_packing_greedy(net: ResolutionNet, n: int) -> tuple:
    """The kept points, ascending, of a greedy 2**-n packing of a 1-D net.

    The packing is maximal (no net point can be added), hence at least
    the 2**-n covering number of the net and at most the true maximum.
    A product net raises ``UnsupportedSpaceError``; rows at any other
    delta go to :func:`greedy_packing_coords`.
    """
    rows = net.coord_rows()
    chosen = greedy_packing_coords(rows, Fraction(1, 2 ** n), presorted=True)
    return tuple(net.points[i] for i in chosen)


def exact_packing_coords(rows, delta,
                         limit: int = EXACT_SEARCH_LIMIT) -> list[int]:
    """Indices of a true maximum delta-packing of the coordinate rows.

    Rows and delta are ``int`` or ``Fraction``, compared exactly as given.
    Two rows conflict when their distance is <= delta, and a packing is
    an independent set of that conflict graph.  More than ``limit`` rows
    are refused before any pair is compared.
    """
    if not rows:
        raise ValueError("empty point set")
    d2 = _positive(delta) * delta
    m = len(rows)
    _check_limit(m, limit)
    adj = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if sum((a - b) * (a - b) for a, b in zip(rows[i], rows[j])) <= d2:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best_mask = _max_independent_set(adj, m)
    return [i for i in range(m) if best_mask >> i & 1]


def max_packing_exact(net: ResolutionNet, n: int, *,
                      limit: int = EXACT_SEARCH_LIMIT) -> tuple:
    """The kept points, ascending, of a true maximum 2**-n packing of a
    1-D net, found by branch and bound.

    A net of more than ``limit`` points is refused from its size alone,
    before any row is built; a product net raises ``UnsupportedSpaceError``.
    Rows at any other delta go to :func:`exact_packing_coords`.
    """
    _check_limit(net.size(), limit)
    rows = net.coord_rows()
    chosen = exact_packing_coords(rows, Fraction(1, 2 ** n), limit)
    return tuple(net.points[i] for i in chosen)


def _check_limit(m: int, limit: int) -> None:
    if m > limit:
        raise ExactSearchLimitExceeded(
            f"{m} points exceed the exact search limit of {limit}"
        )


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


def occupied_cell_count(net: ResolutionNet, n: int) -> int:
    """Number of half-open 2**-n grid cells occupied by the net's points.

    On a product net the count factorizes exactly: the cell of (b, z)
    is (cell(b), cell(z_1), ..., cell(z_d)) and the point set is a full
    Cartesian product, so occupied cells are the product of the
    per-factor occupied cells.
    """
    if net.factors is not None:
        base_net, axis, d = net.factors
        axis_cells = _distinct_cells([(z,) for z in axis], n)
        return occupied_cell_count(base_net, n) * axis_cells ** d
    return _distinct_cells(net.coord_rows(), n)


def _distinct_cells(rows, n: int) -> int:
    width = Fraction(1, 2 ** n)
    return len({_cell(row, width) for row in rows})
