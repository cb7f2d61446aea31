"""Reference implementations that the unit tests compare dimlab against.

Each one is the direct, unoptimised form of something the library
computes another way: the tuple of Fraction points for a net's integer
points, the one-ball-at-a-time Fraction placement for the
integer satellites of a layer, the per-index witness draws that pinned
the event checker's verdicts before one keyed stream drew a sample, the
digit-at-a-time loop for the chunked Cantor digit codec, rational
witness evaluation for the event checker's integer rows, a
ball-by-ball sweep of sorted Fraction y values for its per-ball
certificate, a one-trial-at-a-time loop with the scalar greedy kernel
for the blocked saturation Monte Carlo, the row-by-row window sweep for the scalar
greedy kernel's column sweep (and, on one axis, the row-at-a-time reach
test for its galloping sweep), graph enumeration and mesh counting for
the integer mesh counter and a Python set of its cells for its sorted
keys, the fresh-array expressions for the in-place pairwise, lattice and
reciprocal-lattice energy kernels, a product's expanded coordinate rows
for the cell count ``cell_count_series`` takes from its base net, a
value-interval hull scan for the nested family's digit-read ``locate``,
per-level node values and the per-point tail for ``eval_field``'s
integer sum, the out-of-place expression for the in-place pair mean
``energy._pair_mean``, the one-case-at-a-time quadrature for the
batched ``kernel_integrals``, and for ``kernel_integral`` and
``kernel_constant`` scipy's adaptive quadrature (``quad`` for d = 1,
``dblquad`` for d = 2) and log-gamma, a closed form at u = 1, a centred
bound and a refined d = 2 panel rule.
"""

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.special import gammaln

from dimlab import estimators, witness
from dimlab.cantor_pair import DigitFunction, _check_depth, _weights
from dimlab.energy import TAIL_LEVELS, _axis_cuts, _separating_level
from dimlab.packing import _positive, greedy_packing_coords
from dimlab.rng import stable_generator, stable_index
from dimlab.spaces import (
    NetDepthError,
    TRIADIC_CANTOR,
    UNIT_INTERVAL,
    cantor_digits,
    cantor_net_depth,
    cantor_numerators,
    subset_sums,
)


# ---------------------------------------------------------------------------
# the nets' points


def net_points(space, n):
    """The points of ``spaces.build_net(space, n)``, ascending, as the
    tuple of ``Fraction`` values a net once held, one made per point."""
    if space.kind == UNIT_INTERVAL:
        den = 2 ** n
        return tuple(Fraction(k, den) for k in range(den + 1))
    if space.kind == TRIADIC_CANTOR:
        depth = cantor_net_depth(n)
        den = 3 ** depth
        return tuple(Fraction(m, den) for m in cantor_numerators(depth))
    ks = range(2 ** n, 0, -1)
    return (Fraction(0),) + tuple(Fraction(1, k) for k in ks)


# ---------------------------------------------------------------------------
# the Cantor digit codec


def cantor_digits_by_digit(x):
    """``spaces.cantor_digits`` one base-3 digit at a time: the digits of
    x, one per factor 3 of its denominator, else ValueError."""
    num, den, digits = x.numerator, x.denominator, []
    while den % 3 == 0:
        den //= 3
        num, digit = divmod(num, 3)
        digits.append(digit)
    if den != 1 or num or 2 in digits:
        raise ValueError(f"{x} is not a point of the Cantor set")
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# witness layers


def build_layer(space, n, d, earlier=()):
    """Layer n alone, placed clear of the ``earlier`` layers' satellites."""
    return witness._place_layer(witness._size_layer(space, n, d), earlier)


def sample_witness_by_index(layers, seed):
    """``witness.sample_witness`` as it drew before one keyed stream served
    a sample: ``stable_index(s_n, seed, "witness", n, i)`` per index."""
    return witness.WitnessSample(tuple(layers), tuple(
        tuple(stable_index(lay.s_n, seed, "witness", lay.n, i)
              for i in range(lay.ell_n))
        for lay in layers))


def satellite_points(layer):
    """Every satellite of the layer, ball by ball, as a Fraction."""
    return [Fraction(p, layer.den) for ball in layer.satellites for p in ball]


@dataclass(frozen=True)
class FractionLayer:
    """The placed part of a layer, every point a Fraction."""

    eps_n: Fraction
    satellites: tuple
    bump_radius: Fraction
    sat_values: tuple


def _cantor_satellites(center, t, eps, need, excluded):
    while Fraction(1, 3 ** t) > 2 * eps:
        t += 1
    depth = t + (need + len(excluded) + 1).bit_length()
    if depth > witness.SATELLITE_DEPTH_CAP:
        raise NetDepthError("a deeper net is required")
    den = 3 ** depth
    base = center.numerator * (den // center.denominator)
    cands = (Fraction(base + m, den) for m in cantor_numerators(depth - t))
    return list(itertools.islice((c for c in cands if c not in excluded),
                                 need))


def _interval_satellites(center, eps, need, excluded):
    sign = 1 if center + eps <= 1 else -1
    t = 1
    while Fraction(1, 2 ** t) * (need + len(excluded) + 1) > eps:
        t += 1
        if t > witness.SATELLITE_DEPTH_CAP:
            raise NetDepthError("a deeper dyadic net is required")
    h = Fraction(1, 2 ** t)
    ladder = (center + sign * j * h for j in itertools.count())
    return list(itertools.islice((c for c in ladder if c not in excluded),
                                 need))


def place_fraction_layers(sizes):
    """Layers placed one ball at a time in Fractions, each ball searching
    its own depth for candidates clear of a set of every earlier
    satellite, and each bump radius a quarter of eps or of a new
    satellite's least Fraction gap in the sorted union."""
    layers, excluded = [], set()
    for size in sizes:
        centers, delta = size.packing_points, Fraction(1, 2 ** size.n)
        eps = (delta if size.k_n == 1 else
               (min(b - a for a, b in zip(centers, centers[1:])) - delta) / 3)
        satellites = []
        for center in centers:
            if size.space.kind == TRIADIC_CANTOR:
                ball = _cantor_satellites(center, cantor_net_depth(size.n + 1),
                                          eps, size.ell_n, excluded)
            else:
                ball = _interval_satellites(center, eps, size.ell_n, excluded)
            satellites.append(tuple(ball))
            excluded.update(ball)
        sat_values = tuple(sorted((p, i) for ball in satellites
                                  for i, p in enumerate(ball)))
        new = {v for v, _ in sat_values}
        union = sorted(excluded)
        radius = min([eps] + [b - a for a, b in zip(union, union[1:])
                              if a in new or b in new]) / 4
        layers.append(FractionLayer(eps, tuple(satellites), radius,
                                    sat_values))
    return layers


def _bump_terms(layer, x_value):
    """(i, weight) of the at most one layer bump reaching x."""
    vals = layer.sat_values
    x = x_value * layer.den  # x in units of 1 / den, exactly
    pos = bisect_left(vals, (x, -1))
    best = None
    for q in (pos - 1, pos, pos + 1):
        if 0 <= q < len(vals):
            dist = Fraction(abs(vals[q][0] - x), layer.den)
            if best is None or dist < best[0]:
                best = (dist, vals[q][1])
    if best is None or best[0] >= layer.bump_radius:
        return None
    weight = 1 - best[0] / layer.bump_radius
    return best[1], weight


def eval_witness(sample, x, depth):
    """Sum of the first ``depth`` layer functions at a base point.

    Bump radii never overlap inside a layer, and never reach an earlier
    layer's satellites, so at most one satellite per layer contributes.
    """
    if depth > len(sample.layers):
        raise ValueError("sample has fewer layers than requested depth")
    d = sample.layers[0].d if sample.layers else 0
    total = [Fraction(0)] * d
    for lay, idx in zip(sample.layers[:depth], sample.indices):
        term = _bump_terms(lay, x)
        if term is None:
            continue
        i, weight = term
        value = lay.grid[idx[i]]
        for c in range(d):
            total[c] += value[c] * weight
    return tuple(total)


def ball_certificate(layer, rows, delta):
    """The per-ball certificate of a d = 1 event check, ball by ball.

    ``rows`` are the graph rows (x, y) over the layer's satellites, with
    x a Fraction.  In each ball the y values are taken in ascending
    order, and one is kept when it lies more than delta beyond the last
    kept one, until s_n are kept; the kept counts are summed.
    """
    y_at = dict(rows)
    total = 0
    for ball in layer.satellites:
        ys = sorted(y_at[Fraction(p, layer.den)] for p in ball)
        kept = ys[:1]
        for y in ys[1:]:
            if len(kept) < layer.s_n and y - kept[-1] > delta:
                kept.append(y)
        total += len(kept)
    return total


def saturation_failure_flags(layer, adversary, trials, seed):
    """Per trial, whether it fails to saturate, one trial at a time.

    Each trial draws its ell_n grid indices alone from the run's stream.
    Shift i is column i of the adversary's map of the trial's draws up to
    and including i, a (1, i + 1, d) array, so draws after i are out of
    its reach: an adversary that read ahead would disagree with the
    blocked simulator.  The shifted points, sorted, are counted by the
    scalar greedy kernel.
    """
    grid = [tuple(float(c) for c in g) for g in layer.grid]
    rng = stable_generator(seed, "saturation")
    flags = []
    for _ in range(trials):
        xs = [grid[i] for i in rng.integers(layer.s_n, size=layer.ell_n)]
        points = []
        for i, x in enumerate(xs):
            y = adversary(np.array(xs[:i + 1]).reshape(1, i + 1,
                                                       layer.d))[0, i]
            points.append(tuple(a + b for a, b in zip(x, y.tolist())))
        kept = greedy_packing_coords(sorted(points), 0.5 ** layer.n)
        flags.append(len(kept) < layer.s_n)
    return flags


# ---------------------------------------------------------------------------
# greedy packing


def greedy_packing_rows(rows, delta, stop: int | None = None) -> list[int]:
    """Indices of a greedy maximal delta-packing of the coordinate rows.

    Rows and delta are ``int``, ``Fraction`` or ``float`` and are
    compared as given.  Rows are inserted in ascending order, sorted
    here (stable on ties) whatever order they come in.  ``reach`` holds
    each chosen row's first coordinate plus delta and is non-decreasing, so
    a conflicting chosen row (distance <= delta) is among the trailing
    ones whose reach is at least the candidate's first coordinate; only
    those are compared, and on 1-D rows reaching is conflicting.

    With a positive ``stop`` the sweep returns as soon as ``stop`` rows
    are kept: the first ``min(stop, count)`` indices of the full
    packing, enough to decide whether the count reaches ``stop``.
    """
    if not rows:
        raise ValueError("empty point set")
    d2 = _positive(delta) * delta
    order = sorted(range(len(rows)), key=rows.__getitem__)
    flat = len(rows[0]) == 1
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


# ---------------------------------------------------------------------------
# digit-split graphs and mesh counts


@dataclass(frozen=True)
class GraphEnumeration:
    """All 2**depth graph points (x, h(x)) over depth-limited digits."""

    fn: DigitFunction
    depth: int
    points: tuple


def enumerate_graph(fn, depth):
    """Evaluate the function on every Cantor point with ``depth`` digits.

    Points come out in ascending x order (digit-lexicographic equals
    numeric order).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_depth(depth)
    xs, vs = cantor_numerators(depth), subset_sums(_weights(fn, depth))
    xden, vden = 3 ** depth, 3 ** ((depth + 1) // 2)
    points = tuple((Fraction(x, xden), Fraction(v, vden))
                   for x, v in zip(xs, vs))
    return GraphEnumeration(fn, depth, points)


def mesh_count_2d(points, n):
    """Number of half-open 9**-n mesh squares meeting a planar point set.

    The squares are [k*9**-n, (k+1)*9**-n) x [m*9**-n, (m+1)*9**-n); the
    cell of a point is found by exact rational floor division.
    """
    if not points:
        raise ValueError("empty point set")
    width = Fraction(1, 9 ** n)
    return len({(Fraction(x) // width, Fraction(y) // width)
                for x, y in points})


def mesh_count_sets(fn, n):
    """``brute_force_mesh_count`` with its depth-4n cells in a Python set
    of (column, value numerator) pairs, the completion pairs added as a
    second set."""
    depth, half = 4 * n, 2 * n
    _check_depth(depth)
    weights = _weights(fn, depth)
    v_low, v_high = subset_sums(weights[:half]), subset_sums(weights[half:])
    columns = cantor_numerators(half)
    cells = {(cx, vh + vl) for cx, vh in zip(columns, v_high) for vl in v_low}
    if fn is DigitFunction.SUM:
        cells |= {(cx, v + 1) for cx, v in cells}
    return len(cells)


def product_rows(base_net, axis, d):
    """Coordinate rows (b, z_1, ..., z_d) of base_net x axis**d, expanded
    point by point in ascending order."""
    return [(b, *z) for b in base_net.points
            for z in itertools.product(axis, repeat=d)]


# ---------------------------------------------------------------------------
# discrete energies


def pairwise_energies(measure, s_list):
    """``estimators._pairwise_energies`` with a fresh array per step: a
    (nb, k, d) difference block summed over its last axis, and a new
    exponential per exponent.  Reads ``_PAIR_BLOCK_ELEMENTS`` at call
    time, so a patched block height applies to both."""
    xs = measure.float_coords()
    w = measure.float_weights()
    k = len(w)
    totals = [0.0] * len(s_list)
    block = max(1, min(512, estimators._PAIR_BLOCK_ELEMENTS // k))
    lower = np.tri(min(block, k), dtype=bool)
    for start in range(0, k, block):
        stop = min(start + block, k)
        nb = stop - start
        diff = xs[start:stop, None, :] - xs[None, start:, :]
        d2 = (diff * diff).sum(axis=2)
        d2[:, :nb][lower[:nb, :nb]] = np.inf
        logd2 = np.log(d2)
        w_rows, w_cols = w[start:stop], w[start:]
        for j, s in enumerate(s_list):
            totals[j] += float(w_rows @ (np.exp(logd2 * (-0.5 * s)) @ w_cols))
    return [2.0 * t for t in totals]


def lattice_energies(measure, s_list):
    """``estimators._lattice_energies`` with the span gate's minimum and
    maximum taken over the Fraction coordinates, and each step's array
    made fresh.  Reads the gate constants at call time."""
    if len(measure.coords[0]) != 1:
        return None
    xs = [row[0] for row in measure.coords]
    k2 = len(xs) ** 2
    divisor = estimators.LATTICE_SPAN_DIVISOR
    part = abs(xs[-1] - xs[0])
    grow, cap = divisor * part.numerator, k2 * part.denominator
    den = 1
    for x in xs:
        den = math.lcm(den, x.denominator)
        if grow * den > cap:
            return None
    lo = min(xs)
    span = (max(xs) - lo) * den
    if divisor * span > k2:
        return None
    span = int(span)
    mass = math.lcm(*(w.denominator for w in measure.weights))
    nums = [w.numerator * (mass // w.denominator) for w in measure.weights]
    if sum(u * u for u in nums) > estimators.MAX_LATTICE_SQUARED_MASS:
        return None
    base = lo.numerator * (den // lo.denominator)
    pos = [x.numerator * (den // x.denominator) - base for x in xs]
    n = estimators._fft_length(2 * span + 1)
    hist = np.zeros(n)
    hist[pos] = nums
    spec = np.fft.rfft(hist)
    spec *= spec.conj()
    counts = np.rint(np.fft.irfft(spec, n)[1:span + 1])
    offsets = np.flatnonzero(counts)
    counts = counts[offsets]
    logd = np.log(offsets + 1.0) - math.log(den)
    scale = 2.0 / mass ** 2
    return [scale * float(counts @ np.exp(logd * -s)) for s in s_list]


def reciprocal_energies(measure, s_list):
    """``estimators._reciprocal_energies`` with the atom at 0 found by
    comparison, the reciprocal positions q = L / x and their scale taken
    as Fractions, the LCM grown in atom order, and each step's array made
    fresh.  Reads the gate constant at call time."""
    if len(measure.coords[0]) != 1:
        return None
    k2 = len(measure.coords) ** 2
    atoms = [(row[0], float(w))
             for row, w in zip(measure.coords, measure.weights)]
    xs = [x for x, _ in atoms if x != 0]
    w = np.array([u for x, u in atoms if x != 0])
    zero = sum(u for x, u in atoms if x == 0)
    part = abs(1 / xs[-1] - 1 / xs[0])
    grow = estimators.LATTICE_SPAN_DIVISOR * part.numerator
    cap = k2 * part.denominator
    lcm_num = 1
    for x in xs:
        lcm_num = math.lcm(lcm_num, x.numerator)
        if grow * lcm_num > cap:
            return None
    qs = [lcm_num / x for x in xs]
    lo = min(qs)
    span = int(max(qs) - lo)
    if estimators.LATTICE_SPAN_DIVISOR * span > k2:
        return None
    q_max = int(max(abs(q) for q in qs))
    logq = np.log(np.array([float(abs(q) / q_max) for q in qs]))
    pos = np.array([int(q - lo) for q in qs])
    logm = np.log(np.arange(1.0, span + 1.0))
    n = estimators._fft_length(2 * span + 1)
    error = np.finfo(float).eps * math.log2(2 * span + 1)
    energies = []
    for s in s_list:
        b = np.exp(logq * s) * w
        terms = np.exp(logm * -s)
        hist = np.zeros(n)
        hist[pos] = b
        spec = np.fft.rfft(hist)
        pairs = float(np.fft.irfft(spec * spec.conj(), n)[1:span + 1] @ terms)
        if error * float(b @ b) * float(terms.sum()) > 1e-12 * pairs:
            return None
        scale = math.exp(s * (math.log(q_max) - math.log(lcm_num)))
        energies.append(2.0 * scale * (math.exp(s * math.log(q_max)) * pairs
                                       + zero * float(b.sum())))
    return energies


# ---------------------------------------------------------------------------
# random field and kernel


def locate_by_hull(family, x):
    """``NestedFamily.locate`` by value intervals: a depth-t piece with
    anchor a holds the Cantor points of [a, a + 3**-t / 2], these hulls
    are disjoint, and each level's children of the path so far are
    scanned for the one whose hull holds x, in integer
    cross-multiplications.  A value off the Cantor set raises
    ValueError."""
    cantor_digits(x)
    num, den = x.numerator, x.denominator
    path = ()
    for t, level in zip(family.level_depths, family.levels):
        half = 2 * 3 ** t
        for piece in level:
            if piece.path[:-1] != path:
                continue
            a_num, a_den = piece.anchor.as_integer_ratio()
            gap = num * a_den - a_num * den
            if 0 <= gap and half * gap <= den * a_den:
                path = piece.path
                break
        else:
            break
    return path


def node_value(sample, level, path):
    """The level's value on the piece at ``path``, as Fractions."""
    return tuple(Fraction(b, 2 ** level)
                 for b in sample.node_bits(level, path))


def tail_value(sample, x):
    """The tail levels' summed value at the point x, as Fractions: per
    coordinate, one draw below 2**TAIL_LEVELS over 2**(depth +
    TAIL_LEVELS)."""
    top = sample.family.depth + TAIL_LEVELS
    key = (x.numerator, x.denominator)
    return tuple(
        Fraction(stable_index(1 << TAIL_LEVELS, sample.seed, "tail", key, c),
                 2 ** top)
        for c in range(sample.d))


def pair_mean(family, x, y, theta, t, d, trials, seed):
    """``energy._pair_mean`` as one out-of-place expression per step."""
    n = _separating_level(family, x, y)
    window_bits = (family.depth - n) + TAIL_LEVELS
    den = 2 ** (family.depth + TAIL_LEVELS)
    rho = abs(float(x) - float(y))
    rng = stable_generator(seed, "pair", (x.numerator, x.denominator),
                           (y.numerator, y.denominator))
    exponent = -(t + d) / 2.0
    acc = np.zeros(trials)
    for c in range(d):
        ux = rng.integers(0, 1 << window_bits, size=trials, dtype=np.int64)
        uy = rng.integers(0, 1 << window_bits, size=trials, dtype=np.int64)
        delta = (ux - uy) / den + theta[c]
        acc += delta * delta
    return float(np.mean((rho * rho + acc) ** exponent))


def anchor_pairs(family):
    """Every unordered pair of leaf anchors."""
    anchors = [leaf.anchor for leaf in family.leaves()]
    return [(a, b) for i, a in enumerate(anchors) for b in anchors[i + 1:]]


def kernel_integral_one_case(p, q, theta, u, d):
    """``energy.kernel_integrals`` of the one case (p, q, theta): its
    panels (the library's breaks) evaluated and summed alone, with
    ``leggauss``'s rules, as the library did before it batched cases."""
    (x16, w16), (x8, w8) = leggauss(16), leggauss(8)
    nodes, weights = np.concatenate((x16, x8)), np.concatenate((w16, w8))
    th = (float(theta),) * d if isinstance(theta, float) else tuple(theta)

    def panels(t0):
        cuts = np.array(_axis_cuts(p, q, t0))
        mid = 0.5 * (cuts[1:] + cuts[:-1])
        half = 0.5 * (cuts[1:] - cuts[:-1])
        return mid[:, None] + half[:, None] * nodes, half

    if d == 1:
        s, half = panels(th[0])
        f = (p - np.abs(s - th[0])) * (q * q + s * s) ** -u * weights
        g16 = f[:, :16].sum(axis=1) * half
        g8 = f[:, 16:].sum(axis=1) * half
        return float(g16.sum()), float(np.abs(g16 - g8).sum())
    axes = []
    for t0 in th:
        s, half = panels(t0)
        axes.append((s, (p - np.abs(s - t0)) * half[:, None]))
    (s1, w1), (s2, w2) = axes
    sums = []
    for k, gw in ((slice(16), w16), (slice(16, None), w8)):
        kern = (q * q + s1[:, k, None, None] ** 2
                + s2[None, None, :, k] ** 2) ** -u
        sums.append(np.einsum("ai,aibj,bj->ab", w1[:, k] * gw, kern,
                              w2[:, k] * gw))
    g16, g8 = sums
    return float(g16.sum()), float(np.abs(g16 - g8).sum())


def kernel_centered_bound(p, q, u):
    """p**2 * integral over [-1,1] of (q**2 + p**2 a**2)**-u, for d = 1.

    Dominates the kernel integral for every translation: clamping the
    shift inside [-1, 0] only moves the integrand pointwise upward.
    """
    val, _ = integrate.quad(
        lambda a: (q * q + p * p * a * a) ** -u, -1.0, 1.0,
        epsabs=1e-12, epsrel=1e-9,
    )
    return p * p * val


def kernel_quad(p, q, theta, u):
    """The d = 1 kernel integral by adaptive quadrature over [-p, p]."""
    val, _ = integrate.quad(
        lambda w: (p - abs(w)) / (q * q + (w + theta) ** 2) ** u, -p, p,
        epsabs=1e-12, epsrel=1e-9, limit=200,
    )
    return val


def kernel_constant_gammaln(u):
    """sqrt(pi) * Gamma(u - 1/2) / Gamma(u), the d = 1 kernel constant."""
    return math.sqrt(math.pi) * math.exp(gammaln(u - 0.5) - gammaln(u))


def kernel_closed_form_u1(p, q, theta):
    """The d = 1 kernel integral at u = 1 from its antiderivatives.

    With s = w + theta, each half of the tent split at w = 0 is
    (a + sign * s) / (q**2 + s**2), whose antiderivative is
    (a / q) * atan(s / q) + sign * log(q**2 + s**2) / 2.
    """
    def prim(s, a, sign):
        return a / q * math.atan(s / q) + sign * 0.5 * math.log(q * q + s * s)

    left = prim(theta, p - theta, 1) - prim(theta - p, p - theta, 1)
    right = prim(theta + p, p + theta, -1) - prim(theta, p + theta, -1)
    return left + right


def kernel_dblquad(p, q, theta, u):
    """The d = 2 kernel integral by adaptive quadrature over [-p, p]**2."""
    t1, t2 = (theta, theta) if isinstance(theta, float) else theta
    val, _ = integrate.dblquad(
        lambda w2, w1: ((p - abs(w1)) * (p - abs(w2))
                        / (q * q + (w1 + t1) ** 2 + (w2 + t2) ** 2) ** u),
        -p, p, -p, p, epsabs=0.0, epsrel=1e-13,
    )
    return val


def _refined_axis(p, q, t0):
    """Nodes and tent-folded weights of one axis, in the offset s = w + t0.

    The cuts are the ends, the kink, the peak and the mesh +-q*2**k
    inside [t0 - p, t0 + p]; every panel between them is halved and
    carries 24 Gauss-Legendre nodes.
    """
    lo, hi = t0 - p, t0 + p
    mesh = {sign * q * 2.0 ** k for k in range(64) for sign in (-1, 1)}
    cuts = np.array(sorted(c for c in {lo, t0, hi, 0.0} | mesh
                           if lo <= c <= hi))
    cuts = np.sort(np.concatenate((cuts, 0.5 * (cuts[1:] + cuts[:-1]))))
    x, w = leggauss(24)
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    s = mid[:, None] + half[:, None] * x
    return s.ravel(), ((p - np.abs(s - t0)) * half[:, None] * w).ravel()


def kernel_refined_2d(p, q, theta, u):
    """The d = 2 kernel integral by a tensor rule finer than the library's."""
    t1, t2 = (theta, theta) if isinstance(theta, float) else theta
    (s1, w1), (s2, w2) = _refined_axis(p, q, t1), _refined_axis(p, q, t2)
    return float(w1 @ (q * q + s1[:, None] ** 2 + s2 ** 2) ** -u @ w2)
