"""Packing counts and grid-cell counts on exact point sets.

A delta-packing is a point set whose pairwise distances strictly exceed
delta.  Two counters are provided:

* a deterministic greedy counter (maximal, not maximum) that inserts
  points in ascending lexicographic coordinate order, as given (it does
  not sort), and therefore reproduces exactly across runs.  Its window
  sweep compares a candidate only with the chosen points whose first
  coordinate lies within delta below its own: on one axis the last
  chosen point, which it gallops past (the sweep is optimal there), and
  on two or more axes those of a band of the window sorted on the
  second axis (see :func:`greedy_packing_coords`).  It can stop once a
  given number of points is kept, which decides whether a count
  reaches a threshold;
* an exact branch-and-bound counter for instances of at most
  ``EXACT_SEARCH_LIMIT`` points (read at call time).  No count the
  package reports runs it: tests use it as the correctness oracle for
  greedy, and the benchmark binds it by name.

The kernels compare the numbers they are given as they are, and squared
distances against ``delta * delta``.  On ``int`` or ``Fraction`` rows
every comparison is exact, so a distance tie (exactly equal to delta) is
never misclassified; callers that pack many instances over one common
denominator (the event check) pass integer rows and an integer delta.

:func:`greedy_packing_counts` counts a block of point sets at once: the
saturation Monte Carlo's trials, and the d = 1 event check's balls.
Each entry point has one body per axis count: gallop or window sweep
for the scalar kernel, sorted steps or candidate columns for the
blocked one, which compares one axis in the block's own dtype, exactly
as the scalar kernel does, and two or more in float64.

:func:`occupied_cell_count` counts the 2**-n grid cells a net meets.
Every net is one-dimensional; a product with a cube has no net.  The
net counters, :func:`max_packing_greedy` and :func:`occupied_cell_count`,
read a built net's integer points (``spaces.LatticePoints`` and
``spaces.HarmonicPoints``) without coordinate rows, and make a
``Fraction`` only for a kept or probed point.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from .spaces import HarmonicPoints, LatticePoints, ResolutionNet

EXACT_SEARCH_LIMIT = 64


class ExactSearchLimitExceeded(RuntimeError):
    """Instance too large for exact search; the caller should use greedy."""


def _positive(delta):
    # NaN compares false either way, so only "not > 0" refuses it
    if not delta > 0:
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
    are built (a net's points and the event check's rows ascend as
    built).  On two or more axes a row below the one before it raises
    ``ValueError``: the sweep compares each first coordinate it reads
    with the previous one, and whole rows only on a tie.  The one-axis
    gallop skips most rows unread, so it does not check: a separate
    pass would cost a comparison per row where the gallop reads about
    2 log2(g) of a run of g rows.  Rows and delta are ``int``, ``Fraction``
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
    two or more axes the window's rows are also kept in a list sorted
    on the second axis (ties in the order chosen, so a leaving row is
    the first of its ties), and a candidate
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
    """The sweep of :func:`greedy_packing_coords` on one axis, galloping;
    :func:`max_packing_greedy` runs it on a built net's points directly.

    ``xs`` is any ascending sequence that ``bisect`` can index.  Once
    the row at place i of xs is kept, the next kept
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

    ``points`` is an array of shape (B, m, d): B trials of m finite
    points in R**d, in any order; a float block holding NaN or inf is
    refused.  Entry b of the result is
    ``len(greedy_packing_coords(sorted(map(tuple, points[b])), delta,
    stop=stop))``, and ``stop`` below 1 is refused the same way; an
    empty block or trial counts nothing.  One axis takes sorted steps
    in the block's own dtype (int64, object or float): from each
    trial's least value, at most stop - 1 steps over all trials keep
    the first value beyond kept + delta, the gallop's test, so the
    counts equal the scalar kernel's exactly.  Two or more axes take
    candidate columns in float64: candidate j of every trial, for
    j < m, is compared by squared distance against delta**2 with the
    first ``count.max()`` kept slots (unfilled slots hold inf).
    """
    pts = np.asarray(points)
    d2 = _positive(delta) * delta
    _check_stop(stop)
    if pts.dtype.kind == "f" and not np.isfinite(pts).all():
        raise ValueError("packing points must be finite")
    trials, m, d = pts.shape
    count = np.zeros(trials, dtype=np.intp)
    if not pts.size:
        return count
    if d == 1:
        xs = np.sort(pts[:, :, 0], axis=1)
        starts = np.arange(0, trials * m, m)
        kept = xs[:, 0]
        count += 1
        for step in range(1, stop):
            # per trial, the place of the first value beyond kept + delta;
            # a trial with none keeps its last value and finds none again
            at = (xs <= (kept + delta)[:, None]).sum(axis=1)
            more = at < m
            count += more
            if step == stop - 1 or not more.any():
                break
            kept = xs.ravel().take(starts + np.minimum(at, m - 1))
        return count
    pts = pts.astype(float, copy=False)
    # np.lexsort sorts by its last key first
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)
    pts = np.take_along_axis(pts, order[..., None], axis=1)
    kept = np.full((trials, min(m, stop), d), np.inf)
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
    A built net's points ascend, and :func:`_greedy_line` gallops over
    them without coordinate rows: over a :class:`LatticePoints`'s
    numerators with the integer reach den >> n (an integer difference
    is at most den / 2**n exactly when it is at most its floor), and
    over a :class:`HarmonicPoints` itself, which makes only the points
    the gallop probes.  A net built by hand, and rows at any other
    delta, go through :func:`greedy_packing_coords`.
    """
    pts = net.points
    if isinstance(pts, LatticePoints):
        chosen = _greedy_line(pts.nums, pts.den >> n, None)
    elif isinstance(pts, HarmonicPoints):
        chosen = _greedy_line(pts, Fraction(1, 2 ** n), None)
    else:
        chosen = greedy_packing_coords(net.coord_rows(), Fraction(1, 2 ** n))
    return tuple(map(pts.__getitem__, chosen))


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
    floor (p << n) // q, which is x // 2**-n.  A built net's integers
    are read as they are, p over the lattice's one denominator or 1 over
    each harmonic q, with 0 in cell 0, so no ``Fraction`` is made; a net
    built by hand is read through its coordinate rows.  A product's
    cells are counted from its base net by
    ``estimators.cell_count_series``.
    """
    pts = net.points
    if isinstance(pts, LatticePoints):
        den = pts.den
        return len({(p << n) // den for p in pts.nums})
    if isinstance(pts, HarmonicPoints):
        return len({0} | {(1 << n) // q for q in range(1, pts.top + 1)})
    return len({(x.numerator << n) // x.denominator
                for (x,) in net.coord_rows()})
