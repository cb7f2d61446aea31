"""Box-dimension regression and discrete energies.

Counting is exact (see :mod:`dimlab.packing`); everything in this module
that touches logarithms, least squares or energy sums is deliberately
floating point, and the energy kernels compute it in preallocated arrays.
A discrete energy takes one of three kernels (see :func:`_energy_grid`):
an exact pair-offset histogram over the lattice of the atoms, factored
over a digit-product set and an FFT otherwise; an FFT over the lattice
of their reciprocals (one routine, :func:`_lattice`, finds both
lattices); or the blocked pairwise sum.  Their long reductions are
``np.einsum`` calls, not BLAS, so their bits do not depend on the BLAS
build or its thread count.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import packing
from .spaces import (PRODUCT_WITH_CUBE, ResolutionNet, SpaceDescriptor,
                     build_net, check_net_size)

DIVERGENCE_RATIO = 1.05
DIVERGENCE_LOOKBACK = 3
# A 1-D lattice measure of k atoms takes the histogram path while its span
# L (in lattice steps) is at most k**2 / LATTICE_SPAN_DIVISOR: the FFT's
# time and memory grow with L, the pairwise sum's time with k**2.
LATTICE_SPAN_DIVISOR = 16
# Bound on sum(N_i**2) of the integer weight numerators: every
# autocorrelation value is at most that, so a factored one is an exact
# product of float64 integers, and the float64 FFT's absolute error on
# it, of order eps * log2(n) * sum(N_i**2), is then about 1e-3 for
# lengths n up to 2**40, far below the 1/2 that rounding tolerates.
MAX_LATTICE_SQUARED_MASS = 2 ** 36
# Elements (rows x columns) of one block of the pairwise energy sum: each
# of its float64 work arrays stays near 1 MB whatever the number of atoms.
_PAIR_BLOCK_ELEMENTS = 1 << 17
# x -> (p, q), x = p / q in lowest terms with q > 0, for an int, a
# Fraction or a float alike
_ratio = operator.methodcaller("as_integer_ratio")
_first = operator.itemgetter(0)


@dataclass(frozen=True)
class ScaleSeries:
    """Counts indexed by strictly increasing scale indices.

    ``log_base`` is the base of the scale family the counts came from:
    2 for packing/grid counts at scales 2**-n, 9 for mesh-square counts
    at scales 9**-n.
    """

    entries: tuple[tuple[int, int], ...]
    log_base: int = 2

    def __post_init__(self):
        ns = [n for n, _ in self.entries]
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValueError("scale indices must be strictly increasing")
        if any(c < 1 for _, c in self.entries):
            raise ValueError("counts must be >= 1")


@dataclass(frozen=True)
class DimensionEstimate:
    slope: float
    intercept: float
    fit_r2: float
    range: tuple[int, int]
    variant: str

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")
        if self.range[0] >= self.range[1]:
            raise ValueError("scale range must be nondegenerate")


def _least_squares(xs, ys):
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - ybar) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return slope, intercept, r2


def box_dim_estimate(series: ScaleSeries, variant: str) -> DimensionEstimate:
    """Dimension estimate from a scale series.

    full-fit is the least-squares slope of log(count) against
    n*log(base).  The liminf/limsup variants take the min/max of the
    per-step slopes over the trailing half of the steps, since early
    scales are pre-asymptotic on finite nets.  Fit diagnostics
    (intercept, r^2) always refer to the full-range fit.
    """
    if variant not in ("liminf", "limsup", "full-fit"):
        raise ValueError(f"unknown variant {variant!r}")
    if len(series.entries) < 3:
        raise ValueError("need at least 3 series entries")
    lb = math.log(series.log_base)
    xs = [n * lb for n, _ in series.entries]
    ys = [math.log(c) for _, c in series.entries]
    slope, intercept, r2 = _least_squares(xs, ys)
    n_min, n_max = series.entries[0][0], series.entries[-1][0]
    if variant == "full-fit":
        return DimensionEstimate(slope, intercept, r2, (n_min, n_max), variant)
    steps = [
        (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        for i in range(len(xs) - 1)
    ]
    trailing = steps[len(steps) // 2:]
    value = min(trailing) if variant == "liminf" else max(trailing)
    return DimensionEstimate(value, intercept, r2, (n_min, n_max), variant)


def packing_count_series(space: SpaceDescriptor,
                         scales: Sequence[int]) -> ScaleSeries:
    """Greedy packing counts of a space over the given scale indices.

    Each count is taken on the canonical net of scale n + 1, one index
    finer than the packing scale n, so the net resolves the packing.  The
    finest net is checked (:func:`~dimlab.spaces.check_net_size`) before
    the first is built.
    """
    check_net_size(space, max(scales, default=0) + 1)
    return ScaleSeries(tuple(
        (n, len(packing.max_packing_greedy(build_net(space, n + 1), n)))
        for n in scales), log_base=2)


def cell_count_series(space: SpaceDescriptor,
                      scales: Sequence[int]) -> ScaleSeries:
    """Occupied 2**-n grid-cell counts of a space's scale-n nets.

    A product K x [0,1]**d is counted from K's net alone, as
    N_n(K) * (2**n + 1)**d: its net is K's net times the 2**n + 1 grid
    ticks per axis, each tick k 2**-n lies in a cell of its own, and the
    cell of (b, z) is (cell(b), cell(z_1), ..., cell(z_d)).  A product of
    a product adds up the cube dimensions.  The finest base net is
    checked (:func:`~dimlab.spaces.check_net_size`) before the first is
    built.
    """
    d = 0
    while space.kind == PRODUCT_WITH_CUBE:
        d += space.cube_dim
        space = space.base
    check_net_size(space, max(scales, default=0))
    return ScaleSeries(tuple(
        (n, packing.occupied_cell_count(build_net(space, n), n)
         * (2 ** n + 1) ** d)
        for n in scales), log_base=2)


# ---------------------------------------------------------------------------
# discrete measures and energies


def _one_object(seq) -> bool:
    """Whether ``seq`` is one object repeated, as a uniform measure's
    weights are built: its values need converting once."""
    return bool(seq) and all(map(operator.is_, seq, itertools.repeat(seq[0])))


def _common_numerators(fractions) -> tuple[int, list[int]]:
    """The LCM of the fractions' denominators, and their numerators over
    it: one ``as_integer_ratio()`` per fraction, and one in all for one
    object repeated."""
    if _one_object(fractions):
        p, q = _ratio(fractions[0])
        return q, [p] * len(fractions)
    ratios = list(map(_ratio, fractions))
    common = math.lcm(*{q for _, q in ratios})
    return common, [p * (common // q) for p, q in ratios]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure with exact weights.

    There must be one weight and one coordinate row per point.  The
    weights are checked as integer numerators over the LCM of their
    denominators (:func:`_common_numerators`), and the coordinate rows
    for one length.  Each coordinate column is read once, as its
    ``as_integer_ratio()`` pairs kept in ``ratios`` (one list per column,
    no ``__init__`` argument, not compared), which the lattice energy
    paths read; the atoms are checked distinct on those pairs zipped
    back into rows, so ``1``, ``Fraction(1)`` and ``1.0`` are one atom.
    """

    points: tuple
    weights: tuple[Fraction, ...]
    coords: tuple[tuple[Fraction, ...], ...]
    ratios: tuple[list[tuple[int, int]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.points) == len(self.weights) == len(self.coords):
            raise ValueError(
                f"need one weight and one coordinate row per point, got "
                f"{len(self.points)} points, {len(self.weights)} weights "
                f"and {len(self.coords)} rows")
        common, nums = _common_numerators(self.weights)
        if sum(nums) != common:
            raise ValueError("weights must sum to exactly 1")
        if min(nums) <= 0:
            raise ValueError("weights must be positive")
        if len(set(map(len, self.coords))) > 1:
            raise ValueError("coordinate rows must all have the same length")
        ratios = tuple(list(map(_ratio, col)) for col in zip(*self.coords))
        if len(set(zip(*ratios))) != len(self.coords):
            raise ValueError("atoms must be distinct")
        object.__setattr__(self, "ratios", ratios)

    @classmethod
    def uniform_on_net(cls, net: ResolutionNet) -> "DiscreteMeasure":
        rows = net.coord_rows()
        pts = tuple(map(_first, rows))
        w = Fraction(1, len(pts))
        return cls(pts, (w,) * len(pts), tuple(rows))

    def float_coords(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.coords])

    def float_weights(self) -> np.ndarray:
        if _one_object(self.weights):
            return np.full(len(self.weights), float(self.weights[0]))
        return np.array([float(w) for w in self.weights])


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b that is at least n (any integer type)."""
    n = operator.index(n)
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        p = p3
        while p < n:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best


def _autocorrelation(pos, values, span: int, finish=None) -> np.ndarray:
    """a_j = sum_i v_i * v_{i+j} for j = 0 .. span, by one rfft/irfft.

    ``values`` sit at the integer positions ``pos`` in [0, span].  Each
    large array is freed once used up, so the freed heap left for later
    work stays small; ``finish`` (such as ``np.rint``) maps the result
    while the spectrum is still held, and the result is otherwise a view
    of the full inverse transform.
    """
    n = _fft_length(2 * span + 1)
    hist = np.zeros(n)
    hist[pos] = values
    spec = np.fft.rfft(hist)
    del hist
    spec *= spec.conj()
    # offsets up to the span do not wrap around, since n > 2 * span
    out = np.fft.irfft(spec, n)[:span + 1]
    return out if finish is None else finish(out)


def _pair_counts(pos: np.ndarray, nums: np.ndarray) -> np.ndarray:
    """a_j = sum_i N_i * N_{i+j} for j = 0 .. span, exact, as floats.

    The integer weights ``nums`` sit at the sorted int64 positions
    ``pos``, with pos[0] = 0 and span = pos[-1].  Cut into blocks of the
    kB atoms before its largest gap, the set factors when every block is
    a translate of the first, B, by g times a position of A, for g the
    gcd of the block offsets; when the weights are an integer outer
    product N = NA (x) NB over (block, atom); and when g > 2 * span(B).
    Then a lag between atoms of blocks at u' and u and of B at v' and v
    is (u' - u) * g + (v' - v) with |v' - v| <= span(B) < g / 2, so the
    lag alone fixes u' - u and v' - v, and

        a(u * g + v) = a_A(u) * a_B(|v|),

    one outer product of the factors' counts (each found the same way)
    laid out in rows of length g, whose ravel lists the lags in order.
    Two atoms are written down; any other set takes the FFT
    (:func:`_autocorrelation`, rounded).  Every count is an integer of
    at most sum(N_i**2) <= MAX_LATTICE_SQUARED_MASS, so both ways give
    it exactly.
    """
    span = int(pos[-1])
    if len(pos) == 2:
        out = np.zeros(span + 1)
        out[0], out[span] = nums @ nums, nums[0] * nums[1]
        return out
    kb = int(np.argmax(np.diff(pos))) + 1
    ka, rest = divmod(len(pos), kb)
    if kb > 1 and not rest:
        blocks, weights = pos.reshape(ka, kb), nums.reshape(ka, kb)
        offsets, sb = blocks[:, 0], int(pos[kb - 1])
        g = int(np.gcd.reduce(offsets))
        nb = weights[0] // np.gcd.reduce(weights[0])
        na, rem = np.divmod(weights[:, 0], nb[0])
        if (g > 2 * sb and not rem.any()
                and (blocks - offsets[:, None] == blocks[0]).all()
                and (weights == np.outer(na, nb)).all()):
            a = _pair_counts(offsets // g, na)
            b = _pair_counts(pos[:kb], nb)
            # row u holds the lags u * g - span(B) .. u * g + span(B)
            row = np.zeros(g)
            row[:sb] = b[:0:-1]
            row[sb:2 * sb + 1] = b
            del b
            return np.outer(a, row).ravel()[sb:sb + span + 1]
    return _autocorrelation(pos, nums, span, np.rint)


def _lattice(ratios: Sequence[tuple[int, int]], k2: int):
    """(den, pos, lo, span) of the rationals p / q in ``ratios`` (q > 0):
    den the LCM of the q, pos the values times den, lo = min(pos) and
    span = max(pos) - lo; None when LATTICE_SPAN_DIVISOR * span exceeds
    k2.  The span is at least |last - first| times any partial LCM, so an
    exploding LCM is refused a few denominators in, before any position
    is built (a product, not a quotient: the ends may coincide)."""
    part = abs(Fraction(*ratios[-1]) - Fraction(*ratios[0]))
    grow, cap = LATTICE_SPAN_DIVISOR * part.numerator, k2 * part.denominator
    den = 1
    for q in {q for _, q in ratios}:
        den = math.lcm(den, q)
        if grow * den > cap:
            return None
    pos = [p * (den // q) for p, q in ratios]
    lo = min(pos)
    span = max(pos) - lo
    return None if LATTICE_SPAN_DIVISOR * span > k2 else (den, pos, lo, span)


def _lattice_energies(measure: DiscreteMeasure,
                      s_list: Sequence[float]) -> list[float] | None:
    """Energies of a 1-D lattice measure from its pair-offset histogram.

    With D the common denominator of the coordinates and N_i the integer
    weight numerators over their common denominator C, placed at lattice
    positions i, the energy is

        E_s = (2 / C**2) * sum_{j >= 1} a_j * (j / D)**-s,
        a_j = sum_i N_i * N_{i+j},

    with a exact from :func:`_pair_counts`: outer products of its
    factors' histograms on a digit-product set such as a Cantor net, one
    FFT over the lattice span L otherwise.  The atoms go to it sorted, as
    int64 offsets from the lowest position (at most L).  Returns None
    (use the pairwise sum) off the gate: coordinates that are not 1-D, a
    span L above k**2 / LATTICE_SPAN_DIVISOR for k atoms (as
    :func:`_lattice` finds it), or a squared weight mass sum(N_i**2) above
    MAX_LATTICE_SQUARED_MASS, beyond which rounding the float FFT to the
    integer a_j is no longer exact.
    """
    if len(measure.ratios) != 1:
        return None
    lattice = _lattice(measure.ratios[0], len(measure.coords) ** 2)
    if lattice is None:
        return None
    den, pos, lo, span = lattice
    mass, nums = _common_numerators(measure.weights)
    if sum(u * u for u in nums) > MAX_LATTICE_SQUARED_MASS:
        return None
    at = np.fromiter((p - lo for p in pos), np.int64, len(pos))
    order = np.argsort(at)
    counts = _pair_counts(at[order], np.array(nums, np.int64)[order])[1:]
    del at, order
    offsets = np.flatnonzero(counts)
    counts = counts[offsets]
    logd = np.add(offsets, 1.0)
    del offsets
    np.log(logd, out=logd)
    logd -= math.log(den)
    scale = 2.0 / mass ** 2
    terms = np.empty_like(logd)
    energies = []
    for s in s_list:
        np.exp(np.multiply(logd, -s, out=terms), out=terms)
        energies.append(scale * float(np.einsum("i,i->", counts, terms)))
    return energies


def _reciprocal_energies(measure: DiscreteMeasure,
                         s_list: Sequence[float]) -> list[float] | None:
    """Energies of a 1-D measure whose atoms' reciprocals lie on a lattice.

    With L the LCM of the nonzero atoms' numerators, each nonzero atom x_i
    is L / q_i for an integer q_i of either sign, and

        |x_i - x_j|**-s = L**-s * |q_i * q_j|**s * |q_i - q_j|**-s,

    so with b_i = w_i * |q_i|**s the pairs of nonzero atoms add up to one
    autocorrelation c of b over the q lattice per exponent, and an atom at
    0, of weight w_0, adds w_0 * sum(b_i) (its distance to x_i is L / |q_i|):

        E_s = 2 * L**-s * (sum_{m >= 1} c_m * m**-s + w_0 * sum_i b_i).

    The b_i are taken over Q = max |q_i|, so the transform's input is at
    most w_i whatever the exponent, and Q**s goes into the scale.  The
    harmonic net {0} u {1/k : k <= 2**n} has L = 1, q_i = k and span
    2**n - 1.  Returns None (use the pairwise sum) off the gate: a measure
    that is not 1-D; a q span above k**2 / LATTICE_SPAN_DIVISOR for k
    atoms, as :func:`_lattice` finds it on the reciprocals 1 / x_i; or,
    for some exponent, a bound on the transform's error,
    eps * log2(2 * span + 1) * sum(b_i**2) * sum(m**-s), above 1e-12 of
    the pair sum.  That happens when a far-out atom with a large b_i sits
    among light ones.
    """
    if len(measure.ratios) != 1:
        return None
    ratios = measure.ratios[0]
    w = measure.float_weights()
    zero = 0.0
    if (0, 1) in ratios:
        i = ratios.index((0, 1))
        zero, w = float(w[i]), np.delete(w, i)
    # 1 / (a / b) is b / a, its sign carried to the numerator; the atom
    # at 0, if any, is the one with a = 0
    lattice = _lattice([(b if a > 0 else -b, abs(a)) for a, b in ratios if a],
                       len(measure.coords) ** 2)
    if lattice is None:
        return None
    lcm_num, qs, lo, span = lattice
    q_max = max(-lo, lo + span)
    logq = np.log(np.fromiter((abs(q) / q_max for q in qs), float, len(qs)))
    pos = np.fromiter((q - lo for q in qs), np.intp, len(qs))
    del qs
    logm = np.log(np.arange(1.0, span + 1.0))
    log_q_max, log_lcm = math.log(q_max), math.log(lcm_num)
    error = np.finfo(float).eps * math.log2(2 * span + 1)
    b = np.empty_like(logq)
    terms = np.empty_like(logm)
    energies = []
    for s in s_list:
        np.exp(np.multiply(logq, s, out=b), out=b)
        b *= w
        np.exp(np.multiply(logm, -s, out=terms), out=terms)
        pairs = float(np.einsum("i,i->", _autocorrelation(pos, b, span)[1:],
                                terms))
        # each c_m is off by about eps * log2(n) * sum(b**2): past 1e-12
        # of the pair sum (an atom far out, with a large b, among light
        # ones), the pairwise path is the accurate one
        if (error * float(np.einsum("i,i->", b, b)) * float(terms.sum())
                > 1e-12 * pairs):
            return None
        energies.append(2.0 * math.exp(s * (log_q_max - log_lcm))
                        * (math.exp(s * log_q_max) * pairs
                           + zero * float(b.sum())))
    return energies


def _pairwise_energies(measure: DiscreteMeasure,
                       s_list: Sequence[float]) -> list[float]:
    """Energies summed over each unordered pair once, then doubled.

    Each pair adds w_x * w_y * exp(-s/2 * log d2), with the logarithm of
    the squared float distance taken once for all exponents.  Rows go in
    blocks against every later column; the block height is
    ``_PAIR_BLOCK_ELEMENTS // k``, at most min(k, 512) and at least 1, so
    the two work buffers, made once and reused by every block and
    exponent, stay about 1 MB each; d2 adds the coordinates in order, as
    numpy sums fewer than 8.  Up to k = 256 atoms one block holds every
    row; above that the row order of the float sum, and so its last bits,
    depend on the height.

    Distinct atoms whose squared float distance is 0 (closer than float
    resolution) raise ValueError: their pair's term has no float value,
    and dropping it would return a far-too-small energy.
    """
    cols = measure.float_coords().T
    w = measure.float_weights()
    k = len(w)
    totals = [0.0] * len(s_list)
    block = max(1, min(k, 512, _PAIR_BLOCK_ELEMENTS // k))
    lower = np.tri(block, dtype=bool)
    rows_buf, work_buf = np.empty((2, block * k))
    for start in range(0, k, block):
        stop = min(start + block, k)
        nb = stop - start
        d2 = rows_buf[:nb * (k - start)].reshape(nb, k - start)
        work = work_buf[:d2.size].reshape(d2.shape)
        np.square(np.subtract(cols[0, start:stop, None], cols[0, start:],
                              out=d2), out=d2)
        for col in cols[1:]:
            np.subtract(col[start:stop, None], col[start:], out=work)
            d2 += np.square(work, out=work)
        # an infinite distance contributes exp(-inf) = 0: it drops the
        # pairs below and on the diagonal of the block's own square, so a
        # zero left is a pair of distinct atoms
        np.copyto(d2[:, :nb], np.inf, where=lower[:nb, :nb])
        if not d2.all():
            raise ValueError("distinct atoms at float distance 0: the "
                             "pairwise energy cannot separate them")
        logd2 = np.log(d2, out=d2)
        w_rows, w_cols = w[start:stop], w[start:]
        for j, s in enumerate(s_list):
            np.exp(np.multiply(logd2, -0.5 * s, out=work), out=work)
            totals[j] += float(w_rows @ (work @ w_cols))
    return [2.0 * t for t in totals]


def _energy_grid(measure: DiscreteMeasure, s_list: Sequence[float]) -> list[float]:
    """Energies of one measure at several exponents, sharing distances.

    Three paths, tried in this order, the first two gated by one lattice
    routine (:func:`_lattice`) on the atoms or on their reciprocals:

    * a 1-D measure on a lattice of small span takes the pair-offset
      histogram (:func:`_lattice_energies`): one exact autocorrelation of
      the integer weights, by outer products of its factors' histograms
      on a digit-product set (the Cantor nets) and by one FFT otherwise
      (the interval nets), then one logarithm per nonzero offset for all
      exponents;
    * a 1-D measure whose atoms' reciprocals lie on a lattice of small
      span takes :func:`_reciprocal_energies`: one float autocorrelation
      per exponent (the harmonic nets);
    * every other measure, and one whose span, weights or error bound
      fails those paths' gates, takes the pairwise sum
      (:func:`_pairwise_energies`): every graph measure, and the leaf
      measures of the nested families.

    They agree within 1e-12 relative, as the tests assert; floats of any
    of them may differ from those of dimlab 0.1.0 (an ordered double sum)
    in the last bits, and verdicts built on them do not.
    """
    for s in s_list:
        if not 0 < s < math.inf:
            raise ValueError(f"energy exponent must be positive and "
                             f"finite, got {s}")
    if len(measure.weights) < 2:
        return [0.0] * len(s_list)
    for path in (_lattice_energies, _reciprocal_energies):
        energies = path(measure, s_list)
        if energies is not None:
            return energies
    return _pairwise_energies(measure, s_list)


def discrete_energy(measure: DiscreteMeasure, s: float) -> float:
    """Off-diagonal double sum of w_x * w_y / dist(x, y)**s.

    The diagonal is excluded: atoms carry positive mass, and divergence
    of the underlying continuous energy is recovered by watching the
    growth of this sum across refinement depths instead.
    """
    return _energy_grid(measure, [s])[0]


@dataclass(frozen=True)
class EnergyProfile:
    critical: float
    bracket: tuple[float, float]
    flag: str
    verdicts: tuple[str, ...]
    energies: tuple[tuple[float, ...], ...]


def _is_divergent(values: Sequence[float]) -> bool:
    """Divergence test on an energy-by-depth sequence.

    The growth of the sequence at depth m is the increment E_{m+1} - E_m,
    and the growth ratio compares successive increments; its limit is
    the per-depth mass factor of the finest scale, above 1 exactly for a
    geometrically divergent energy.  A sequence is flagged divergent
    when the last three growth ratios all exceed 1.05.  (The ratio of
    the energy values themselves cannot work at desk depths: it stays
    above any fixed threshold for slowly converging sequences and sinks
    to 1 for logarithmically divergent ones.)
    """
    growths = [b - a for a, b in zip(values, values[1:])]
    ratios = []
    for a, b in zip(growths, growths[1:]):
        if a <= 0 or b <= 0:
            ratios.append(0.0)  # non-increasing energy: converged
        else:
            ratios.append(b / a)
    tail = ratios[-DIVERGENCE_LOOKBACK:]
    return len(tail) == DIVERGENCE_LOOKBACK and all(
        r > DIVERGENCE_RATIO for r in tail
    )


def energy_dimension_profile(
    measures_by_depth: Sequence[DiscreteMeasure],
    s_grid: Sequence[float],
) -> EnergyProfile:
    """Largest grid exponent whose energies stay bounded across depths.

    A sequence counts as divergent when its last three successive-depth
    growth ratios all exceed 1.05, which is robust to the bounded
    oscillation a converging energy still shows at small depth.  The
    bracket pairs the reported exponent with the next grid value.
    """
    if len(measures_by_depth) < 4:
        raise ValueError("need at least 4 depths")
    s_grid = sorted(float(s) for s in s_grid)
    if len(s_grid) < 5:
        raise ValueError("need at least 5 grid exponents")
    by_depth = [_energy_grid(m, s_grid) for m in measures_by_depth]
    energies = tuple(
        tuple(row[j] for row in by_depth) for j in range(len(s_grid))
    )
    if all(all(e == 0.0 for e in row) for row in energies):
        return EnergyProfile(0.0, (0.0, 0.0), "degenerate",
                             ("bounded",) * len(s_grid), energies)
    verdicts = tuple(
        "divergent" if _is_divergent(row) else "bounded" for row in energies
    )
    bounded = [s for s, v in zip(s_grid, verdicts) if v == "bounded"]
    if not bounded:
        return EnergyProfile(s_grid[0], (s_grid[0], s_grid[0]),
                             "all_divergent", verdicts, energies)
    critical = max(bounded)
    above = [s for s in s_grid if s > critical]
    bracket = (critical, above[0] if above else critical)
    flag = "all_bounded" if len(bounded) == len(s_grid) else "ok"
    return EnergyProfile(critical, bracket, flag, verdicts, energies)
