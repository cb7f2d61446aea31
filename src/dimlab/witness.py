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
  full-size 2**-n packing of values, drawn from one
  ``rng.stable_generator`` stream in trial order;
* ``EventChecker`` / ``event_fraction``: how often does the graph of the
  summed layers plus a drift carry at least N_n(K) * 2**(n d) * n**-2d
  packing points at scale 2**-n.  The checker puts its rows over one
  denominator, an LCM of one denominator per layer; a check builds its
  integer rows with one numpy gather per layer (int64 while the row
  bound is below 2**62) and stops counting at ceil(threshold); small
  instances fall back to exact search only when greedy falls short.

A layer is sized (grid, k_n, m_n, ell_n and the ball centres, a
:class:`LayerSize`) before its satellites are placed; the saturation
check reads only the sizes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import packing
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
# n = 9), and the event check then packs one 2-D row per satellite.
MAX_LAYER_SATELLITES = 10_000
WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


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
    satellites: tuple[tuple, ...]          # [k][i] -> point
    bump_radius: Fraction
    sat_values: tuple[tuple[Fraction, int], ...]  # sorted (coordinate, i)

    def all_satellites(self):
        return [p for ball in self.satellites for p in ball]


@dataclass(frozen=True)
class WitnessSample:
    """One sampled assignment of grid values to all layers, by grid index."""

    layers: tuple[LayerSpec, ...]
    indices: tuple[tuple[int, ...], ...]  # [layer][i] -> index into its grid


@dataclass(frozen=True)
class EventReport:
    """The verdict of one event check at layer n.

    ``graph_count`` is the graph's packing count capped at
    ceil(threshold): the check stops counting once the verdict is
    decided, so ``holds`` is ``graph_count >= threshold`` either way.
    ``method`` is "exact" for instances of at most
    ``packing.EXACT_SEARCH_LIMIT`` rows, whose capped count is that of a
    maximum packing, and "greedy" above.
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


def _cantor_satellites(center: Fraction, t: int, eps: Fraction, need: int,
                       excluded: set[Fraction]) -> list[Fraction]:
    # t, the center's net depth, grows until the tail spread 3**-t / 2 <= eps
    while Fraction(1, 3 ** t) > 2 * eps:
        t += 1
    # the center's cylinder, extended by depth - t digits, has
    # 2**(depth - t) > need + len(excluded) points, so one pass keeps need
    depth = t + (need + len(excluded) + 1).bit_length()
    if depth > SATELLITE_DEPTH_CAP:
        raise NetDepthError(
            f"cannot place {need} satellites within eps={eps} below depth "
            f"{SATELLITE_DEPTH_CAP}; a deeper net is required"
        )
    den = 3 ** depth
    base = center.numerator * (den // center.denominator)
    cands = (Fraction(base + m, den) for m in cantor_numerators(depth - t))
    return list(itertools.islice((c for c in cands if c not in excluded),
                                 need))


def _interval_satellites(center: Fraction, eps: Fraction, need: int,
                         excluded: set[Fraction]) -> list[Fraction]:
    # the ladder runs away from the nearer end of [0, 1], and its first
    # need + len(excluded) rungs lie within (need + len(excluded)) h < eps
    sign = 1 if center + eps <= 1 else -1
    t = 1
    while Fraction(1, 2 ** t) * (need + len(excluded) + 1) > eps:
        t += 1
        if t > SATELLITE_DEPTH_CAP:
            raise NetDepthError(
                f"cannot place {need} satellites within eps={eps}; "
                "a deeper dyadic net is required"
            )
    h = Fraction(1, 2 ** t)
    ladder = (center + sign * j * h for j in itertools.count())
    return list(itertools.islice((c for c in ladder if c not in excluded),
                                 need))


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
    satellites avoid every previous satellite set exactly.
    """
    space, n, ell_n = size.space, size.n, size.ell_n
    centers = size.packing_points
    delta = Fraction(1, 2 ** n)
    if size.k_n == 1:
        eps = delta  # no separation constraint with a single ball
    else:
        # the centres are a strict 2**-n packing, so every gap exceeds delta
        eps = (min(b - a for a, b in zip(centers, centers[1:])) - delta) / 3

    excluded: set[Fraction] = set()
    for lay in earlier:
        excluded.update(lay.all_satellites())

    satellites = []
    for center in centers:
        if space.kind == TRIADIC_CANTOR:
            ball = _cantor_satellites(center, cantor_net_depth(n + 1), eps,
                                      ell_n, excluded)
        else:
            ball = _interval_satellites(center, eps, ell_n, excluded)
        satellites.append(tuple(ball))
        excluded.update(ball)

    # satellite values are distinct, so the index never breaks a tie
    sat_values = tuple(sorted((p, i) for ball in satellites
                              for i, p in enumerate(ball)))

    # a new satellite's nearest other satellite, of any layer, is its
    # neighbour in the sorted union, which ``excluded`` now holds
    new = {v for v, _ in sat_values}
    union = sorted(excluded)
    bump_radius = min([eps] + [b - a for a, b in zip(union, union[1:])
                               if a in new or b in new]) / 4

    return LayerSpec(**vars(size), eps_n=eps,
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

    The sample keeps the grid index drawn at (n, i), a pure function of
    (seed, n, i), so two samples with the same seed agree entry for entry.
    """
    if len({l.space for l in layers}) > 1 or len({l.d for l in layers}) > 1:
        raise ValueError("layers must share one space and one dimension")
    return WitnessSample(tuple(layers), tuple(
        tuple(stable_index(lay.s_n, seed, "witness", lay.n, i)
              for i in range(lay.ell_n))
        for lay in layers
    ))


def event_threshold(layer: LayerSpec) -> Fraction:
    return Fraction(layer.k_n * 2 ** (layer.n * layer.d),
                    layer.n ** (2 * layer.d))


class EventChecker:
    """Reusable graph-packing event check for one layer and drift.

    A graph row is (x, drift(x) + the layers' bump values at x).  x and
    every layer's satellites are integers over one denominator q, so the
    nearest layer-l satellite (as ``_bump_terms`` in ``tests/oracles.py``
    finds it) is a bisect on integers.  With layer l's bump radius a/b,
    the bump at distance dist/q reaches x iff b dist < a q, and its
    weight times the grid step 8 / 2**l is 8 (a q - b dist) / (2**l a q):
    all of layer l's coefficients share the denominator 2**l a q.  One
    LCM of 2**n, the (x, drift) denominators and these n layer
    denominators puts every row over one denominator, and the checker
    keeps the integer numerators:

    * ``points``: the layer's satellites in ascending x, the row order;
    * ``base``: the (x, drift) rows, and ``delta``: 2**-n;
    * ``coef[l]`` and ``sat[l]``: per point, the coefficient of its
      layer-l bump (0 if none reaches it) and that bump's satellite
      index, as array columns;
    * ``grid_j[l]``: row k is the integer vector j of layer l's
      ``grid[k]`` (a coordinate is 8 j / 2**l), so drawn indices select j.

    Integer rows pack exactly like the rational ones.  The arrays are
    ``int64`` when max|base| + sum over l of max(coef[l]) *
    floor(2**l / l**2) is below 2**62, and ``object`` (Python ints)
    otherwise, as when the drift brings a large denominator.  A drift of
    another arity than the layers' d raises ValueError.
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
        # sat_values ascends in x, and x values are distinct: the row order
        self.points = [v for v, _ in self.layer.sat_values]
        q = math.lcm(*(v.denominator for lay in self.layers
                       for v, _ in lay.sat_values))
        base = [(x, *(drift_at(drift, x, self.d) if drift else (0,) * self.d))
                for x in self.points]
        denom = math.lcm(2 ** n, *(v.denominator for row in base for v in row),
                         *(2 ** lay.n * lay.bump_radius.numerator * q
                           for lay in self.layers))
        self.delta = denom >> n
        base = [[v.numerator * (denom // v.denominator) for v in row]
                for row in base]
        xs = [x.numerator * (q // x.denominator) for x in self.points]
        coef = [[0] * len(xs) for _ in self.layers]
        sat = [[0] * len(xs) for _ in self.layers]
        for lay, cs, ss in zip(self.layers, coef, sat):
            aq, b = lay.bump_radius.numerator * q, lay.bump_radius.denominator
            unit = 8 * denom // (2 ** lay.n * aq)
            keys = [v.numerator * (q // v.denominator)
                    for v, _ in lay.sat_values]
            for r, xk in enumerate(xs):
                # keys ascend, so keys[pos - 1] < xk <= keys[pos] are the
                # only candidates, and a tie goes to the lower key
                pos = bisect_left(keys, xk)
                if pos and (pos == len(keys)
                            or xk - keys[pos - 1] <= keys[pos] - xk):
                    pos -= 1
                dist = abs(keys[pos] - xk)
                if b * dist < aq:
                    cs[r] = unit * (aq - b * dist)
                    ss[r] = lay.sat_values[pos][1]
        bound = (max(abs(v) for row in base for v in row)
                 + sum(max(col) * (2 ** lay.n // lay.n ** 2)
                       for col, lay in zip(coef, self.layers)))
        self.dtype = np.dtype(np.int64 if bound < 2 ** 62 else object)
        self.base = np.array(base, dtype=self.dtype)
        self.coef = [np.array(col, dtype=self.dtype)[:, None] for col in coef]
        self.sat = [np.array(col) for col in sat]
        self.grid_j = [np.array([[int(c * 2 ** lay.n) // 8 for c in g]
                                 for g in lay.grid], dtype=self.dtype)
                       for lay in self.layers]

    def check(self, sample: WitnessSample) -> EventReport:
        """Does the drifted sample graph reach the layer-n packing threshold?

        Evaluation runs over the layer's satellite set, where the layer
        values live exactly; more evaluation points could only increase
        the count, so this is the conservative side of the event.

        The rows are ``base`` plus, per layer, the coefficient column
        times ``grid_j`` at each point's satellite's drawn index.  Greedy
        counts them in ascending order and stops at ceil(threshold); on
        at most ``packing.EXACT_SEARCH_LIMIT`` rows exact search runs
        only when greedy falls short, since a greedy count never exceeds
        the maximum.  The reported count is capped at ceil(threshold).
        """
        if sample.layers[:self.n] != self.layers:
            raise ValueError("sample was drawn over different layers")
        rows = self.base.copy()
        for grid_j, idx, coef, sat in zip(self.grid_j, sample.indices,
                                          self.coef, self.sat):
            rows[:, 1:] += coef * grid_j[np.asarray(idx)[sat]]
        rows = rows.tolist()
        need = math.ceil(self.threshold)
        chosen = packing.greedy_packing_coords(rows, self.delta,
                                               presorted=True, stop=need)
        if len(rows) <= packing.EXACT_SEARCH_LIMIT:
            method = "exact"
            if len(chosen) < need:
                chosen = packing.exact_packing_coords(rows, self.delta)
        else:
            method = "greedy"
        count = min(len(chosen), need)
        return EventReport(self.n, count, self.threshold,
                           count >= self.threshold, method)


def event_fraction(layers: Sequence[LayerSpec], n: int,
                   drift: Callable | None, trials: int, seed) -> float:
    """Fraction of sampled witnesses for which the event holds.

    A trial samples only layers 1..n, the ones the check reads.
    """
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
    z = WILSON_Z
    p = successes / trials
    denom = 1 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    return (0.0 if successes == 0 else (center - spread) / denom,
            1.0 if successes == trials else (center + spread) / denom)


def zero_adversary(d: int) -> Callable:
    return lambda history: (0.0,) * d


def colliding_adversary(d: int) -> Callable:
    """Shifts each draw by the negated previous one, hunting collisions."""
    def strategy(history):
        if not history:
            return (0.0,) * d
        return tuple(-c for c in history[-1])
    return strategy


def simulate_saturation_failure(layer: LayerSize, adversary: Callable,
                                trials: int, seed) -> SaturationReport:
    """Monte Carlo for the adversarially translated grid saturation event.

    Per trial, ell_n values are drawn uniformly from the layer grid; the
    adversary produces each shift y_i from the history X_1..X_{i-1} only
    (it is handed nothing else, which enforces the measurability
    contract structurally).  The draws come in trial order from one
    stream, so a run's first T trials repeat a T-trial run.  A trial
    fails when the translated points contain no s_n-element 2**-n
    packing.  The points are counted by the greedy packing kernel on
    float rows, which is exact for d = 1 (a maximum packing) and greedy
    otherwise.

    Pass condition: the Wilson 95% upper bound on the failure rate stays
    within 1.5x of 1 / (k_n * 2**n).  Only the layer's sizes are read,
    so a sized layer serves as well as a built one.
    """
    grid = [tuple(float(c) for c in g) for g in layer.grid]
    delta = 0.5 ** layer.n
    rng = stable_generator(seed, "saturation")
    failures = 0
    for _ in range(trials):
        history, points = [], []
        for i in rng.integers(layer.s_n, size=layer.ell_n).tolist():
            y = adversary(tuple(history))
            history.append(grid[i])
            points.append(tuple(a + b for a, b in zip(grid[i], y)))
        if len(packing.greedy_packing_coords(points, delta)) < layer.s_n:
            failures += 1
    bound = 1.0 / (layer.k_n * 2 ** layer.n)
    upper = wilson_interval(failures, trials)[1]
    return SaturationReport(layer.n, trials, failures, failures / trials,
                            upper, bound, upper <= 1.5 * bound)
