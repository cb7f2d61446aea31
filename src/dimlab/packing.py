"""Packing counts and grid-cell counts on exact point sets.

A delta-packing is a point set whose pairwise distances strictly exceed
delta.  Two counters are provided:

* a deterministic greedy counter (maximal, not maximum) that inserts
  points in ascending lexicographic coordinate order and therefore
  reproduces exactly across runs.  One kernel serves every dimension: a
  sorted window sweep that compares a candidate only with the chosen
  points whose first coordinate lies within delta below its own.  It
  sweeps coordinate columns, one Python list per axis read from the
  rows (a tuple sequence or an int64 or object array, so the event
  check hands over its integer rows as they are; an array of two or
  more axes is converted only as far as the sweep reads), ascending as
  given (it does not sort), and a distance is the first-axis difference
  squared plus the other axes' in order.  On one-dimensional point sets
  the window is the last chosen
  point, the sweep is in fact optimal, and it gallops past the points
  within reach instead of comparing each.  On two or more axes the
  window is also sorted on the second axis, and a candidate is compared
  only with the window's points within 2 delta of it there: a superset
  of those within delta, wide enough that float rounding cannot push a
  flagged point outside it (see :func:`greedy_packing_coords`).  It can
  stop once a given number of points is kept, which decides whether a
  count reaches a threshold;
* an exact branch-and-bound counter for instances of at most
  ``EXACT_SEARCH_LIMIT`` points (read at call time), used both directly
  and as the correctness oracle for greedy.

The kernels compare the numbers they are given as they are, and squared
distances against ``delta * delta``.  On ``int`` or ``Fraction`` rows
every comparison is exact, so a distance tie (exactly equal to delta) is
never misclassified; callers that pack many instances over one common
denominator (the event check) pass integer rows and an integer delta.

:func:`greedy_packing_counts` is the same greedy sweep over a block of
float point sets at once, one candidate per trial per step, which the
saturation Monte Carlo uses to count a block of trials.  Its float
comparisons are exact on that Monte Carlo's dyadic grid values, shifted
by the built-in adversaries.

:func:`occupied_cell_count` counts the 2**-n grid cells a net meets.
Every net is one-dimensional; a product with a cube has no net.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .spaces import ResolutionNet

EXACT_SEARCH_LIMIT = 64


class ExactSearchLimitExceeded(RuntimeError):
    """Instance too large for exact search; the caller should use greedy."""


def _positive(delta):
    if delta <= 0:
        raise ValueError(f"packing scale delta must be positive, got {delta}")
    return delta


def _check_stop(stop) -> None:
    if stop is not None and stop < 1:
        raise ValueError(f"packing stop must be at least 1, got {stop}")


def greedy_packing_coords(rows, delta, stop: int | None = None) -> list[int]:
    """Indices of a greedy maximal delta-packing of the coordinate rows.

    ``rows`` is a sequence of coordinate tuples or a 2-D numpy array
    (int64 or object), in ascending lexicographic order: the rows are
    inserted in the order given, and the window below finds every
    conflict only when they ascend.  Callers sort once where the rows
    are built (``build_net`` and the event check build them ascending).
    On two or more axes a row below the one before it raises
    ``ValueError``: the sweep compares each first coordinate it reads
    with the previous one, and whole rows only on a tie.  The one-axis
    gallop skips most rows unread, so it does not check; a separate pass
    would cost a comparison per row, about 10 ms over the 23 925 net
    rows of one pass of the benchmark's geometry workload (6% of that
    pass, 2-core x86 host).  Rows and delta are ``int``, ``Fraction``
    or ``float`` and are compared as given.  The sweep reads one Python
    list per axis: ``zip(*rows)`` for a sequence, and for an array
    ``.T.tolist()``, so an int64 entry becomes a Python int and a
    squared distance cannot overflow.  An array of two or more axes is converted in doubling
    blocks just ahead of the sweep, so a stopped sweep converts at most
    about twice the prefix it read; one axis is converted at once.

    The window is the chosen rows whose reach, first coordinate plus
    delta, is at least the candidate's first coordinate; reach is
    non-decreasing, so the window is a suffix of the chosen rows and a
    conflicting row (distance <= delta) is in it.  On one axis reaching
    is conflicting, and the window is the last chosen row:
    :func:`_greedy_line` gallops to the first row beyond its reach.  On
    the 2**-n packings of the 2**-(n+1) nets that takes 450 comparisons
    where testing each row takes 8 192 (harmonic, n = 12), 1 788 for
    2 047 (Cantor, n = 13) and 4 096 either way (interval, n = 11, a
    third of the rows kept).  On two or more axes the window's rows are
    also kept in a list sorted on the second axis (ties in the order
    chosen, so a leaving row is the first of its ties), and a candidate
    at second coordinate y is compared, first-axis difference squared
    plus the other axes' in order, only with the rows of second
    coordinate in [y - 2 delta, y + 2 delta].
    Every row the test flags is there: on exact numbers a row outside
    is more than 2 delta from y.  On floats a row below the rounded
    y - 2 delta is at least 2 delta below y exactly, so its rounded
    second-axis difference is at least 2 delta and its rounded square
    at least the rounded 4 delta**2, which exceeds the rounded
    delta**2 whenever that is positive and finite; the sum only adds
    non-negative terms, and above the band is symmetric.  When delta**2
    rounds to 0 or overflows, the band is the whole window.  A candidate
    inside a ball of chosen rows thus costs a bisection and the rows it
    actually meets, not the whole window.

    With ``stop`` (at least 1) the sweep returns as soon as ``stop``
    rows are kept: the first ``min(stop, count)`` indices of the full
    packing, enough to decide whether the count reaches ``stop``.
    """
    if len(rows) == 0:
        raise ValueError("empty point set")
    d2 = _positive(delta) * delta
    _check_stop(stop)
    array = isinstance(rows, np.ndarray)
    if array and rows.shape[1] > 1:
        cols = [[] for _ in range(rows.shape[1])]
        order = _converted_prefixes(rows, cols)
    else:
        cols = rows.T.tolist() if array else list(zip(*rows))
        if len(cols) == 1:
            return _greedy_line(cols[0], delta, stop)
        order = range(len(rows))
    xs, ys, *more = cols
    chosen: list[int] = []
    band = delta + delta if 0 < d2 < math.inf else math.inf
    reach = []
    lo = 0                   # the window is chosen[lo:]
    leave = math.inf         # reach[lo], or inf while the window is empty
    win_y: list = []         # its second coordinates, ascending
    win_j: list[int] = []    # its row indices, in the same order
    last = -math.inf         # the previous row's first coordinate
    for idx in order:
        x = xs[idx]
        if x <= last and (x < last or [c[idx] for c in cols]
                          < [c[idx - 1] for c in cols]):
            raise ValueError(f"rows must ascend: row {idx} is below row "
                             f"{idx - 1}")
        last = x
        while x > leave:
            p = bisect_left(win_y, ys[chosen[lo]])
            del win_y[p], win_j[p]
            lo += 1
            leave = reach[lo] if lo < len(reach) else math.inf
        y = ys[idx]
        for j in win_j[bisect_left(win_y, y - band):
                       bisect_right(win_y, y + band)]:
            t = x - xs[j]
            s = t * t
            t = y - ys[j]
            s += t * t
            for col in more:
                t = col[idx] - col[j]
                s += t * t
            if s <= d2:
                break
        else:
            chosen.append(idx)
            if len(chosen) == stop:
                break
            reach.append(x + delta)
            if not win_y:
                leave = reach[-1]
            p = bisect_right(win_y, y)
            win_y.insert(p, y)
            win_j.insert(p, idx)
    return chosen


def _greedy_line(xs, delta, stop) -> list[int]:
    """The sweep of :func:`greedy_packing_coords` on one axis, galloping.

    Once the row at place i of the ascending xs is kept, the next kept
    row is the first beyond its reach x_i + delta.  Rows i + 1, i + 3,
    i + 7, ... are probed until one lies beyond reach or the rows run
    out, and ``bisect_right`` finds the first row beyond it in the last
    gap.  A run of g rows within reach costs about 2 log2(g)
    comparisons, not g.
    """
    n = len(xs)
    chosen = []
    i = 0
    while True:
        chosen.append(i)
        if len(chosen) == stop:
            return chosen
        reach = xs[i] + delta
        lo = hi = i + 1
        while hi < n and xs[hi] <= reach:
            lo = hi + 1
            hi += hi - i + 1
        i = bisect_right(xs, reach, lo, min(hi, n))
        if i == n:
            return chosen


def _converted_prefixes(rows: np.ndarray, cols: list[list]):
    """Yield the row indices in order, first appending each block of rows
    to ``cols`` (one Python list per axis); blocks double from 64 rows."""
    start = 0
    while start < len(rows):
        end = min(len(rows), max(64, 2 * start))
        for col, part in zip(cols, rows[start:end].T.tolist()):
            col.extend(part)
        yield from range(start, end)
        start = end


def greedy_packing_counts(points, delta, stop: int):
    """Greedy packing counts, capped at ``stop``, of a block of trials.

    ``points`` is a float array of shape (B, m, d): B trials of m finite
    points in R**d, in any order.  Entry b of the result is
    ``len(greedy_packing_coords(sorted(map(tuple, points[b])), delta,
    stop=stop))``, and ``stop`` below 1 is refused the same way: each
    trial's points are sorted lexicographically and taken in turn, and
    a candidate is kept iff fewer than ``stop`` points are kept and no
    kept point lies within squared distance <= delta**2; ``stop = m``
    counts a whole packing.  The scalar kernel sweeps one trial's
    coordinate columns a candidate at a time; this loop takes candidate
    j of every trial at once, for j < m, vectorised over trials.  A
    candidate is compared with the first ``count.max()`` kept slots
    only, and the unfilled slots hold inf, which is never near.
    """
    pts = np.asarray(points, dtype=float)
    d2 = _positive(delta) * delta
    _check_stop(stop)
    trials, m, d = pts.shape
    # np.lexsort sorts by its last key first
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)
    pts = np.take_along_axis(pts, order[..., None], axis=1)
    kept = np.full((trials, min(m, stop), d), np.inf)
    count = np.zeros(trials, dtype=np.intp)
    for j in range(m):
        cand = pts[:, j]
        diff = kept[:, :count.max()] - cand[:, None]
        diff *= diff
        keep = ~(diff.sum(axis=2) <= d2).any(axis=1)
        keep &= count < stop
        rows = np.flatnonzero(keep)
        kept[rows, count[rows]] = cand[rows]
        count[rows] += 1
    return count


def max_packing_greedy(net: ResolutionNet, n: int) -> tuple:
    """The kept points, ascending, of a greedy 2**-n packing of a net.

    The packing is maximal (no net point can be added), hence at least
    the 2**-n covering number of the net and at most the true maximum.
    The net's rows ascend, as the kernel requires; rows at any other
    delta go to :func:`greedy_packing_coords`.
    """
    rows = net.coord_rows()
    chosen = greedy_packing_coords(rows, Fraction(1, 2 ** n))
    return tuple(net.points[i] for i in chosen)


def exact_packing_coords(rows, delta) -> list[int]:
    """Indices of a true maximum delta-packing of the coordinate rows.

    Rows and delta are ``int`` or ``Fraction``, compared exactly as given.
    Two rows conflict when their distance is <= delta, and a packing is
    an independent set of that conflict graph.  More than
    ``EXACT_SEARCH_LIMIT`` rows are refused before any pair is compared.
    """
    if not rows:
        raise ValueError("empty point set")
    d2 = _positive(delta) * delta
    m = len(rows)
    _check_limit(m)
    adj = [0] * m
    for i, j in itertools.combinations(range(m), 2):
        if sum((a - b) * (a - b) for a, b in zip(rows[i], rows[j])) <= d2:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    best_mask = _max_independent_set(adj, m)
    return [i for i in range(m) if best_mask >> i & 1]


def max_packing_exact(net: ResolutionNet, n: int) -> tuple:
    """The kept points, ascending, of a true maximum 2**-n packing of a
    net, found by branch and bound.

    A net of more than ``EXACT_SEARCH_LIMIT`` points is refused from its
    size alone, before any row is built.  Rows at any other delta go to
    :func:`exact_packing_coords`.
    """
    _check_limit(net.size())
    rows = net.coord_rows()
    chosen = exact_packing_coords(rows, Fraction(1, 2 ** n))
    return tuple(net.points[i] for i in chosen)


def _check_limit(m: int) -> None:
    if m > EXACT_SEARCH_LIMIT:
        raise ExactSearchLimitExceeded(
            f"{m} points exceed the exact search limit of {EXACT_SEARCH_LIMIT}"
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
    """Number of half-open 2**-n grid cells [k 2**-n, (k+1) 2**-n)
    occupied by the net's points.  The cell of x = p / q is the integer
    floor (p * 2**n) // q, which is x // 2**-n without building a
    ``Fraction`` per point.  A product's cells are counted from its base
    net by ``estimators.cell_count_series``.
    """
    return len({(x.numerator << n) // x.denominator
                for (x,) in net.coord_rows()})
