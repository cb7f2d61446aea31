"""Layered random-function construction and its Monte Carlo checks.

Layer n places a value grid

    S_n = 2**(-n+3) * {0, ..., floor(2**n / n**2)}**d

over a 2**-n packing {x_k} of the base space.  Around each packing
point, ell_n nearby "satellite" points receive shared random grid
values (the same value X_i goes to the i-th satellite of every ball),
and the values are spread to the rest of the space by a triangular bump
of radius r_n, giving a continuous layer function that vanishes on all
earlier layers' satellites and stays inside 8 * n**-2 * [0,1]**d.

The two probabilistic checks:

* ``simulate_saturation_failure``: how often do ell_n grid draws,
  shifted by an adversary that sees only the past, fail to contain a
  full-size 2**-n packing of values.  The adversary, a causal map,
  shifts a bounded block of trials' draws in one call, and
  ``packing.greedy_packing_counts`` counts the block's points;
* ``EventChecker`` / ``event_fraction``: how often does the graph of the
  summed layers plus a drift carry at least N_n(K) * 2**(n d) * n**-2d
  packing points at scale 2**-n.  A trial's sample draws the grid
  indices of layers 1..n from one ``rng.stable_generator`` stream, in
  layer order, so it is a prefix of the same seed's sample over more
  layers.  A check builds the graph rows as integers over one
  denominator (see :class:`EventChecker`) and counts them with one
  certificate per dimension.  At d = 1 that is the paper's per-ball
  saturation: each ball's y-separated count, capped at s_n, summed in
  full over the k_n balls (which do not interact) by the saturation
  kernel, ``packing.greedy_packing_counts``.  At every d >= 2 the
  greedy sweep counts the rows up to ceil(threshold).

A layer is sized (grid, k_n, m_n, ell_n and the ball centres, a
:class:`LayerSize`) before its satellites are placed; the saturation
check reads only the sizes.  A placed layer's satellites are integers
over ``den``, a power of 3 on the Cantor set and of 2 on the interval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import packing
# stable_index is unused; the benchmark self-test reads it (ROADMAP item 1)
from .rng import stable_generator, stable_index
from .spaces import (
    NetDepthError,
    SpaceDescriptor,
    TRIADIC_CANTOR,
    UNIT_INTERVAL,
    build_net,
    cantor_net_depth,
    cantor_numerators,
    ceil_log3_pow2,
    drift_at,
)

SATELLITE_DEPTH_CAP = 64
# Largest k_n * ell_n a layer may place.  Layer cost grows about 5x per n
# (Cantor d = 1: 1 056 satellites at n = 7, 7 680 at n = 8, 36 288 at
# n = 9), and the event check builds one row per satellite, which the
# ball certificate counts at d = 1 and the sweep packs at d >= 2.
MAX_LAYER_SATELLITES = 10_000
WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile
# Largest trials * ell_n grid indices the saturation Monte Carlo draws
# at once (d floats per index in each of draws, shifts and points); at
# ell_n = 3 375 (interval, d = 3, 200 trials) 2**17 takes 0.8-1.1 s and
# 51 MB peak RSS, 2**18 0.7-0.8 s and 61 MB.
SATURATION_BLOCK = 1 << 18


@dataclass(frozen=True)
class LayerSize:
    """The sizes of layer n, fixed before any satellite is placed."""

    space: SpaceDescriptor
    n: int
    d: int
    grid: tuple[tuple[Fraction, ...], ...]
    s_n: int
    k_n: int
    m_n: int
    ell_n: int
    packing_points: tuple  # the ball centres, ascending


@dataclass(frozen=True)
class LayerSpec(LayerSize):
    """One randomization layer: its sizes, satellites and bump radius."""

    eps_n: Fraction
    den: int  # layers 1..n's common denominator: a power of 3 or of 2
    satellites: tuple[tuple[int, ...], ...]  # [k][i] -> numerator over den
    bump_radius: Fraction
    sat_values: tuple[tuple[int, int], ...]  # sorted (numerator, i)


@dataclass(frozen=True)
class WitnessSample:
    """One sampled assignment of grid values to all layers, by grid index."""

    layers: tuple[LayerSpec, ...]
    indices: tuple[tuple[int, ...], ...]  # [layer][i] -> index into its grid


@dataclass(frozen=True)
class EventReport:
    """The verdict of one event check at layer n.

    ``graph_count`` is the count of the packing the check certified,
    capped at ceil(threshold), and ``holds`` is ``graph_count >=
    threshold``.  ``method`` names the certificate: "ball" at d = 1,
    the per-ball saturation count, and "greedy" at d >= 2, the greedy
    sweep.  Either count is that of a valid packing, so a maximum
    packing reaches it too: a check that holds is proven, and one that
    does not is only not certified, the conservative side of the event.
    """

    n: int
    graph_count: int
    threshold: Fraction
    holds: bool
    method: str


def value_grid(n: int, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """The layer-n value grid, a 2**(-n+2) packing of size >= 2**(nd)/n**2d."""
    step = Fraction(8, 2 ** n)
    top = (2 ** n) // (n * n)
    axis = [step * j for j in range(top + 1)]
    return tuple(itertools.product(axis, repeat=d))


def replication_exponent(s_n: int, k_n: int, n: int) -> int:
    """Minimal m >= 1 with (1 - 1/s_n)**m <= 1 / (s_n * k_n * 2**n), that
    is (s_n - 1)**m * c <= s_n**m with c = s_n * k_n * 2**n, decided in
    integers a few steps from a float estimate of m."""
    if s_n == 1:
        return 1
    c = s_n * k_n * 2 ** n
    m = max(1, math.ceil(math.log(c) / -math.log1p(-1 / s_n)))
    while m > 1 and (s_n - 1) ** (m - 1) * c <= s_n ** (m - 1):
        m -= 1
    while (s_n - 1) ** m * c > s_n ** m:
        m += 1
    return m


def _size_layer(space: SpaceDescriptor, n: int, d: int) -> LayerSize:
    """The sizes and ball centres of layer n, or NetDepthError.

    The ball centres are the kept points, ascending, of one greedy 2**-n
    packing of the base net at scale n + 1, and k_n is their number.  The
    base is one-dimensional, where the ascending sweep is a maximum
    packing, so k_n is exactly the net's packing number N_n(K).  Sizing
    a layer places no satellite.  It refuses the layer when k_n * ell_n
    exceeds ``MAX_LAYER_SATELLITES``: first on k_floor * s_n, with
    k_floor a lower bound on k_n from n alone, so an oversized n or d is
    refused before the base net is built, m_n is found or the value grid
    is built.
    """
    if space.kind not in (TRIADIC_CANTOR, UNIT_INTERVAL):
        raise ValueError("layers are built over the Cantor set or the interval")
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    s_n = (2 ** n // (n * n) + 1) ** d
    # the sweep keeps every third point of the interval's 2**-(n+1) grid;
    # on the Cantor set the 2**t depth-t points, for the largest t with
    # 3**t < 2**n, are net points at least 3**-t > 2**-n apart
    k_floor = (2 ** (n + 1) // 3 + 1 if space.kind == UNIT_INTERVAL
               else 2 ** (ceil_log3_pow2(n) - 1))
    # m_n >= 1, so k_floor * s_n <= k_n * ell_n
    if k_floor * s_n > MAX_LAYER_SATELLITES:
        raise _oversized(space, n, d, f"k_n * ell_n >= k_n * s_n >= "
                                      f"{k_floor} * {s_n} = {k_floor * s_n}")
    centers = packing.max_packing_greedy(build_net(space, n + 1), n)
    k_n = len(centers)
    m_n = replication_exponent(s_n, k_n, n)
    ell_n = s_n * m_n
    if k_n * ell_n > MAX_LAYER_SATELLITES:
        raise _oversized(space, n, d, f"k_n * ell_n = "
                                      f"{k_n} * {ell_n} = {k_n * ell_n}")
    return LayerSize(space, n, d, value_grid(n, d), s_n, k_n, m_n, ell_n,
                     centers)


def _oversized(space, n, d, count) -> NetDepthError:
    return NetDepthError(
        f"layer {n} of the {space.kind} (d = {d}) needs {count} "
        f"satellites, above the limit of {MAX_LAYER_SATELLITES}"
    )


def _place_layer(size: LayerSize, earlier: Sequence[LayerSpec]) -> LayerSpec:
    """Place the satellites of a layer sized by :func:`_size_layer`.

    ``earlier`` holds the already-built lower layers, so the new
    satellites avoid every previous satellite set exactly.  A ball has
    more candidates than it needs plus every satellite placed before it,
    so the sizes alone fix each ball's depth; the last is the deepest, so
    the depth cap and ``den`` are settled before any ball is placed.
    """
    space, n, ell_n = size.space, size.n, size.ell_n
    centers = size.packing_points
    delta = Fraction(1, 2 ** n)
    if size.k_n == 1:
        eps = delta  # no separation constraint with a single ball
    else:
        # the centres are a strict 2**-n packing, so every gap exceeds delta
        eps = (min(b - a for a, b in zip(centers, centers[1:])) - delta) / 3

    # ball k (from 1) keeps ell_n of its at least c_k candidates, more
    # than it needs plus every satellite placed before it
    placed = sum(lay.k_n * lay.ell_n for lay in earlier)
    counts = [placed + k * ell_n + 1 for k in range(1, size.k_n + 1)]
    if space.kind == TRIADIC_CANTOR:
        # the centre's cylinder, once its tail spread 3**-t / 2 <= eps,
        # extended by bit_length(c) digits
        base, t = 3, cantor_net_depth(n + 1)
        while Fraction(1, 3 ** t) > 2 * eps:
            t += 1
        depths = [t + c.bit_length() for c in counts]
    else:
        # a ladder away from the nearer end of [0, 1] whose c rungs lie
        # within eps: the least t >= 1 with 2**t >= ceil(c / eps)
        base = 2
        depths = [max(1, (math.ceil(c / eps) - 1).bit_length())
                  for c in counts]
    if depths[-1] > SATELLITE_DEPTH_CAP:
        raise NetDepthError(
            f"cannot place {ell_n} satellites within eps={eps} below depth "
            f"{SATELLITE_DEPTH_CAP}; a deeper net is required"
        )
    den = max([base ** depths[-1]] + [lay.den for lay in earlier])
    excluded = {p * (den // lay.den) for lay in earlier
                for p, _ in lay.sat_values}

    satellites = []
    for center, depth in zip(centers, depths):
        c = center.numerator * (den // center.denominator)
        step = den // base ** depth
        if base == 3:
            cands = (c + m * step for m in cantor_numerators(depth - t))
        else:
            cands = itertools.count(c, step if center + eps <= 1 else -step)
        ball = tuple(itertools.islice((p for p in cands if p not in excluded),
                                      ell_n))
        satellites.append(ball)
        excluded.update(ball)

    # satellite values are distinct, so the index never breaks a tie
    sat_values = tuple(sorted((p, i) for ball in satellites
                              for i, p in enumerate(ball)))

    # a new satellite's nearest other satellite, of any layer, is its
    # neighbour in the sorted union, which ``excluded`` now holds
    new = {v for v, _ in sat_values}
    union = sorted(excluded)
    bump_radius = Fraction(min([eps * den] + [
        b - a for a, b in zip(union, union[1:]) if a in new or b in new]),
        4 * den)

    return LayerSpec(**vars(size), eps_n=eps, den=den,
                     satellites=tuple(satellites), bump_radius=bump_radius,
                     sat_values=sat_values)


def build_layers(space: SpaceDescriptor, d: int, n_max: int) -> tuple[LayerSpec, ...]:
    """Layers 1..n_max.  Every layer is sized first, so an oversized one
    is refused before any satellite is placed."""
    sizes = [_size_layer(space, n, d) for n in range(1, n_max + 1)]
    layers: list[LayerSpec] = []
    for size in sizes:
        layers.append(_place_layer(size, layers))
    return tuple(layers)


def largest_layer(space: SpaceDescriptor, d: int) -> int:
    """Largest n_max that :func:`build_layers` accepts for the space and d.

    Layers are only sized, so no satellite is placed.  A refused layer 1
    raises its ``NetDepthError``.
    """
    for n in itertools.count(1):
        try:
            _size_layer(space, n, d)
        except NetDepthError:
            if n == 1:
                raise
            return n - 1


def sample_witness(layers: Sequence[LayerSpec], seed) -> WitnessSample:
    """Draw the shared grid values X_i for every layer, uniformly on S_n.

    The sample keeps the drawn grid indices.  All of them come from one
    ``stable_generator`` stream keyed (seed, "witness"), read layer by
    layer in list order: two samples with the same seed agree entry for
    entry, and a sample over ``layers[:n]`` is the first n layers of a
    sample over any longer list of layers that starts with them.
    """
    if len({l.space for l in layers}) > 1 or len({l.d for l in layers}) > 1:
        raise ValueError("layers must share one space and one dimension")
    highs = [lay.s_n for lay in layers for _ in range(lay.ell_n)]
    drawn = stable_generator(seed, "witness").integers(highs).tolist()
    starts = itertools.accumulate((lay.ell_n for lay in layers), initial=0)
    return WitnessSample(tuple(layers), tuple(
        tuple(drawn[a:a + lay.ell_n]) for a, lay in zip(starts, layers)))


def event_threshold(layer: LayerSpec) -> Fraction:
    return Fraction(layer.k_n * 2 ** (layer.n * layer.d),
                    layer.n ** (2 * layer.d))


class EventChecker:
    """Reusable graph-packing event check for one layer and drift.

    A graph row is (x, drift(x) + the layers' bump values at x).  x and
    every layer's satellites are integers over layer n's den q, which
    every lower layer's den divides; a drift alone receives x as the
    Fraction x / q.  So the nearest layer-l satellite (as
    ``_bump_terms`` in ``tests/oracles.py`` finds it) comes from one
    ``np.searchsorted`` of all points in the layer's ascending keys: of
    the keys on either side the nearer, a tie to the lower one.  With
    layer l's bump radius a/b, the bump at distance dist/q reaches x iff
    b dist < a q, tested as dist <= (a q - 1) // b, a product-free form
    that cannot overflow; its weight times the grid step 8 / 2**l is
    8 (a q - b dist) / (2**l a q): all of layer l's coefficients share
    the denominator 2**l a q.  One LCM of 2**n, the (x, drift) denominators and these n
    layer denominators puts every row over one denominator, and the
    checker keeps the integer numerators:

    * ``points``: the layer's satellites, numerators over q, in
      ascending x, the row order;
    * ``base``: the (x, drift) rows, and ``delta``: 2**-n;
    * ``row``, ``slot`` and ``coef``: one sparse entry per point and
      layer whose bump reaches the point, all layers' entries together:
      the point's row, the bump's satellite as a slot (layer l's
      satellite i is slot ell_1 + ... + ell_(l-1) + i, its place among
      the sample's indices laid end to end) and the bump's coefficient,
      with ``at``, the entry's places in the flattened rows;
    * ``grid_j``: every layer's grid, layer after layer, as integer
      vectors j (a coordinate of layer l is 8 j / 2**l), and
      ``grid_start``: per entry, where its layer's rows begin, so a
      drawn index selects j;
    * ``ball_rows``: a (k_n, ell_n) array, the row of each ball's
      satellites, found with one ``np.searchsorted`` of the layer's
      satellites in ``points``.  The ball centres are a strict 2**-n
      packing and every satellite lies within eps_n = (least centre
      gap - 2**-n) / 3 of its centre, so rows of different balls are
      more than delta apart in x: the per-ball certificate of ``check``.

    Integer rows pack exactly like the rational ones.  One width bound,
    from the sizes alone, gives every array one dtype: ``int64`` when q,
    every radius denominator b and max|base| + sum over l of
    (8 denom / 2**l) floor(2**l / l**2) are below 2**62, ``object``
    (Python ints) otherwise, as when the drift brings a large denominator.
    A drift of another arity than the layers' d raises ValueError.
    """

    def __init__(self, layers: Sequence[LayerSpec], n: int,
                 drift: Callable | None = None):
        if n < 1 or n > len(layers):
            raise ValueError(
                f"layer {n} not built: layers 1..{len(layers)} are")
        self.layers = tuple(layers[:n])
        self.layer = self.layers[-1]
        self.n = n
        self.d = self.layer.d
        self.threshold = event_threshold(self.layer)
        # every layer's satellites as integers over layer n's den q;
        # sat_values ascends in x, and x values are distinct: the row order
        q = self.layer.den
        sats = [tuple(zip(*lay.sat_values)) for lay in self.layers]
        keys = [[num * (q // lay.den) for num in values]
                for lay, (values, _) in zip(self.layers, sats)]
        self.points = keys[-1]
        drifts = (list(zip(*(drift_at(drift, Fraction(x, q), self.d)
                             for x in self.points))) if drift
                  else [(0,) * len(self.points)] * self.d)
        # the x denominators divide q, which divides every 2**l a q term
        denom = math.lcm(2 ** n, *{v.denominator for col in drifts
                                   for v in col},
                         *(2 ** lay.n * lay.bump_radius.numerator * q
                           for lay in self.layers))
        self.delta = denom >> n
        scale = denom // q
        base = [[k * scale for k in keys[-1]],
                *([v.numerator * (denom // v.denominator) for v in col]
                  for col in drifts)]
        # a layer-l coefficient is at most a q unit = 8 denom / 2**l, its
        # grid indices at most floor(2**l / l**2); layer 1's term, 8 denom,
        # covers each coefficient also where that floor is 0 (l = 3).  Keys
        # and distances are at most q, and b dist < a q on the kept entries
        bound = max(q, *(lay.bump_radius.denominator for lay in self.layers),
                    max(max(map(abs, col)) for col in base)
                    + sum(8 * denom // 2 ** lay.n * (2 ** lay.n // lay.n ** 2)
                          for lay in self.layers))
        self.dtype = np.dtype(np.int64 if bound < 2 ** 62 else object)
        self.base = np.array(base, dtype=self.dtype).T.copy()
        xs = np.array(keys[-1], dtype=self.dtype)
        rows, slots, coefs = [], [], []
        offset = 0
        for lay, part, (_, index) in zip(self.layers, keys, sats):
            aq, b = lay.bump_radius.numerator * q, lay.bump_radius.denominator
            unit = 8 * denom // (2 ** lay.n * aq)
            near, dist = _nearest_keys(np.array(part, dtype=self.dtype), xs)
            # b dist < a q, with no product that can overflow
            (reached,) = np.nonzero(dist <= (aq - 1) // b)
            rows.append(reached)
            slots.append(offset + np.array(index)[near[reached]])
            coefs.append(unit * (aq - b * dist[reached]))
            offset += lay.ell_n
        self.row = np.concatenate(rows)
        self.slot = np.concatenate(slots)
        # the entries' places in the flattened rows, coordinate by
        # coordinate: one-dimensional np.add.at is numpy's fast path
        self.at = (self.row[:, None] * (1 + self.d)
                   + np.arange(1, 1 + self.d)).reshape(-1)
        self.coef = np.concatenate(coefs)[:, None]
        self.grid_j = np.array([[int(c * 2 ** lay.n) // 8 for c in g]
                                for lay in self.layers for g in lay.grid],
                               dtype=self.dtype)
        starts = np.cumsum([0] + [lay.s_n for lay in self.layers[:-1]])
        self.grid_start = np.repeat(starts, [len(r) for r in rows])
        self.slot_count = offset
        self.ball_rows = np.searchsorted(
            xs, np.array(self.layer.satellites, dtype=self.dtype))

    def rows(self, sample: WitnessSample) -> np.ndarray:
        """The sample's graph rows over layer n's satellites, in integers.

        The sample's indices of layers 1..n, laid end to end, are read
        into one array; the rows are ``base`` plus, for every entry, its
        coefficient times the ``grid_j`` row its slot's drawn index
        selects, added with one ``np.add.at``.  Their x values ascend,
        so the rows do.
        """
        if sample.layers[:self.n] != self.layers:
            raise ValueError("sample was drawn over different layers")
        drawn = np.fromiter(
            itertools.chain.from_iterable(sample.indices[:self.n]),
            np.intp, self.slot_count)
        rows = self.base.copy()
        terms = self.coef * self.grid_j.take(
            drawn.take(self.slot) + self.grid_start, axis=0)
        np.add.at(rows.reshape(-1), self.at, terms.reshape(-1))
        return rows

    def check(self, sample: WitnessSample) -> EventReport:
        """Does the drifted sample graph reach the layer-n packing threshold?

        Evaluation runs over the layer's satellite set, where the layer
        values live exactly; more evaluation points could only increase
        the count, so this is the conservative side of the event.

        Each dimension has one certificate and no fallback.  At d = 1
        it is the per-ball one, with ``method`` "ball": every ball's y
        values (``ball_rows``) are counted by ``greedy_packing_counts``
        up to s_n, with no early exit, and the kept rows form one
        packing, since rows of different balls are more than delta
        apart in x.  As s_n > 2**n / n**2, k_n s_n >= ceil(threshold),
        so the certificate can reach the threshold; a ball falls short
        of s_n with probability at most :func:`occupancy_failure` of
        (ell_n, s_n), and a short sum is reported as not holding.

        At every d >= 2 the greedy kernel sweeps the rows as they are
        (they ascend, as it requires) and stops at ceil(threshold),
        with ``method`` "greedy".  No per-ball form tried (parity-cell
        keys with one ``np.unique``, a block kernel) was faster than
        the sweep.  The reported count is capped at ceil(threshold).
        """
        rows = self.rows(sample)
        need = math.ceil(self.threshold)
        if self.d == 1:
            count = int(packing.greedy_packing_counts(
                rows[:, 1:].take(self.ball_rows, axis=0), self.delta,
                self.layer.s_n).sum())
            method = "ball"
        else:
            count = len(packing.greedy_packing_coords(rows, self.delta,
                                                      stop=need))
            method = "greedy"
        # an int reaches the threshold iff it reaches need: no Fraction test
        count = min(count, need)
        return EventReport(self.n, count, self.threshold, count >= need,
                           method)


def _nearest_keys(keys: np.ndarray, xs: np.ndarray):
    """Per x, the index of its nearest key and the distance to it.

    ``keys`` ascend; a tie goes to the lower key.  One
    ``np.searchsorted`` finds, as ``bisect_left`` would, the position
    with keys[pos - 1] < x <= keys[pos], the only two candidates.  On
    object arrays every comparison and difference is a Python int's.
    """
    pos = np.searchsorted(keys, xs)
    lower = np.maximum(pos - 1, 0)
    upper = np.minimum(pos, len(keys) - 1)
    below = xs - keys[lower]
    above = keys[upper] - xs
    take_lower = (pos > 0) & ((pos == len(keys)) | (below <= above))
    return (np.where(take_lower, lower, upper),
            np.where(take_lower, below, above))


def event_fraction(layers: Sequence[LayerSpec], n: int,
                   drift: Callable | None, trials: int, seed) -> float:
    """Fraction of sampled witnesses for which the event holds.

    A trial samples only layers 1..n, the ones the check reads.  Fewer
    than one trial is refused before anything is built.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    checker = EventChecker(layers, n, drift)
    holds = 0
    for t in range(trials):
        sample = sample_witness(layers[:n], (seed, t))
        if checker.check(sample).holds:
            holds += 1
    return holds / trials


# ---------------------------------------------------------------------------
# translated-grid saturation Monte Carlo


@dataclass(frozen=True)
class SaturationReport:
    n: int
    trials: int
    failures: int
    failure_rate: float
    wilson_upper: float
    bound: float
    passed: bool


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The Wilson 95% score interval (low, high) for a proportion.

    The low end is exactly 0.0 at 0 successes and the high end exactly
    1.0 at ``trials`` successes, which the float formula can miss
    (1.08e-19 for 0 of 2 000).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= {trials}, got {successes}")
    z = WILSON_Z
    p = successes / trials
    denom = 1 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    return (0.0 if successes == 0 else (center - spread) / denom,
            1.0 if successes == trials else (center + spread) / denom)


def occupancy_failure(ell: int, s: int) -> Fraction:
    """P_occ(ell, s): the chance that ell uniform draws into s cells
    leave a cell empty, by inclusion-exclusion in exact integers,

        sum over j = 1..s of (-1)**(j+1) C(s, j) (s - j)**ell / s**ell.

    It bounds the saturation failure of every causal adversary (the
    lab's argument, not a quotation from the paper).  Keep a shifted
    draw P_i = X_i + y_i when it is more than delta from every kept
    point.  The kept points lie in as many closed delta-balls, and each
    ball meets at most one point of the shifted grid y_i + S_n, whose
    points are at least 8 delta apart.  So, whatever y_i the earlier
    draws chose, P_i is kept with probability at least 1 - |kept| / s,
    and the kept count dominates the number of cells that ell draws
    hit: P(no s-point delta-packing) <= P_occ(ell, s).  The zero
    adversary attains it.  The argument never reads where the shifts
    lie, so shifts fixed before the draws are covered too.
    """
    if ell < 0 or s < 1:
        raise ValueError(f"need ell >= 0 and s >= 1, got ell = {ell}, "
                         f"s = {s}")
    return Fraction(sum((-1) ** (j + 1) * math.comb(s, j) * (s - j) ** ell
                        for j in range(1, s + 1)), s ** ell)


def _no_shifts(draws: np.ndarray, d: int) -> np.ndarray:
    if draws.shape[-1] != d:
        raise ValueError(f"adversary for d = {d} got draws with last axis "
                         f"{draws.shape[-1]}")
    return np.zeros(draws.shape)


def zero_adversary(d: int) -> Callable:
    """Shifts no draw."""
    return lambda draws: _no_shifts(draws, d)


def colliding_adversary(d: int) -> Callable:
    """Shifts each draw by the negated previous one, hunting collisions."""
    def strategy(draws):
        shifts = _no_shifts(draws, d)
        shifts[:, 1:] = -draws[:, :-1]
        return shifts
    return strategy


def simulate_saturation_failure(layer: LayerSize, adversary: Callable,
                                trials: int, seed) -> SaturationReport:
    """Monte Carlo for the adversarially translated grid saturation event.

    Per trial, ell_n values are drawn uniformly from the layer grid, and
    the adversary shifts X_i by a y_i chosen from X_1..X_{i-1} only.
    Trials run in blocks of B = max(1, SATURATION_BLOCK // ell_n): a
    block's (B, ell_n) grid indices come from one ``stable_generator``
    stream, which yields the indices of B per-trial draws in trial order,
    so a run's first T trials repeat a T-trial run and memory does not
    grow with ``trials``.  The adversary is called once per block, on the
    block's draws as a read-only (B, ell_n, d) array, and returns their
    shifts, of the same shape.  It must be causal (shift i of a trial
    reads only that trial's draws before i, with a loop if need be); a
    test reference hands it draws 1..i for shift i, so a map that reads
    ahead disagrees with the run.

    A trial fails when the translated points contain no s_n-element
    2**-n packing, counted by :func:`packing.greedy_packing_counts`,
    which is exact for d = 1 (a maximum packing) and greedy otherwise.

    Pass condition: :func:`occupancy_failure` of (ell_n, s_n), which
    bounds the failure rate of every causal adversary, is at most
    1 / (k_n * 2**n).  The Monte Carlo rate and its Wilson 95% upper
    bound are reported beside it; a default run's trials cannot resolve
    a rate near the bound.  Only the layer's sizes are read, so a sized
    layer serves as well as a built one.
    """
    grid = np.array([[float(c) for c in g] for g in layer.grid])
    delta = 0.5 ** layer.n
    rng = stable_generator(seed, "saturation")
    block = max(1, SATURATION_BLOCK // layer.ell_n)
    failures = 0
    for start in range(0, trials, block):
        idx = rng.integers(layer.s_n, size=(min(block, trials - start),
                                            layer.ell_n))
        draws = grid[idx]
        draws.flags.writeable = False
        shifts = adversary(draws)
        if np.shape(shifts) != draws.shape:
            raise ValueError(f"adversary returned shifts of shape "
                             f"{np.shape(shifts)} for draws {draws.shape}")
        points = draws + shifts
        del draws, shifts  # the counter's copies reuse their memory
        counts = packing.greedy_packing_counts(points, delta, stop=layer.s_n)
        failures += int(np.count_nonzero(counts < layer.s_n))
    bound = 1.0 / (layer.k_n * 2 ** layer.n)
    upper = wilson_interval(failures, trials)[1]
    passed = (occupancy_failure(layer.ell_n, layer.s_n)
              <= Fraction(1, layer.k_n * 2 ** layer.n))
    return SaturationReport(layer.n, trials, failures, failures / trials,
                            upper, bound, passed)
