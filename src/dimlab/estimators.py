"""Box-dimension regression and discrete energies.

Counting is exact (see :mod:`dimlab.packing`); everything in this module
that touches logarithms, least squares or energy sums is deliberately
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import packing
from .spaces import ResolutionNet, SpaceDescriptor, build_net

DIVERGENCE_RATIO = 1.05
DIVERGENCE_LOOKBACK = 3
# A 1-D lattice measure of k atoms takes the histogram path while its span
# L (in lattice steps) is at most k**2 / LATTICE_SPAN_DIVISOR: the FFT's
# time and memory grow with L, the pairwise sum's time with k**2.
LATTICE_SPAN_DIVISOR = 16
# Bound on sum(N_i**2) of the integer weight numerators: every
# autocorrelation value is at most that, and the float64 FFT's absolute
# error on it, of order eps * log2(n) * sum(N_i**2), is then about 1e-3
# for lengths n up to 2**40, far below the 1/2 that rounding tolerates.
MAX_LATTICE_SQUARED_MASS = 2 ** 36
# Elements (rows x columns) of one block of the pairwise energy sum: each
# of its float64 work arrays stays near 1 MB whatever the number of atoms.
_PAIR_BLOCK_ELEMENTS = 1 << 17


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
    finer than the packing scale n, so the net resolves the packing.
    """
    return ScaleSeries(tuple(
        (n, len(packing.max_packing_greedy(build_net(space, n + 1), n)))
        for n in scales), log_base=2)


def cell_count_series(space: SpaceDescriptor,
                      scales: Sequence[int]) -> ScaleSeries:
    """Occupied 2**-n grid-cell counts of a space's scale-n nets."""
    entries = []
    for n in scales:
        net = build_net(space, n)
        entries.append((n, packing.occupied_cell_count(net, n)))
    return ScaleSeries(tuple(entries), log_base=2)


# ---------------------------------------------------------------------------
# discrete measures and energies


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure with exact weights."""

    points: tuple
    weights: tuple[Fraction, ...]
    coords: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # integer numerators over one common denominator
        common = math.lcm(*(w.denominator for w in self.weights))
        nums = [w.numerator * (common // w.denominator) for w in self.weights]
        if sum(nums) != common:
            raise ValueError("weights must sum to exactly 1")
        if any(u <= 0 for u in nums):
            raise ValueError("weights must be positive")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("atoms must be distinct")

    @classmethod
    def uniform_on_net(cls, net: ResolutionNet) -> "DiscreteMeasure":
        pts = net.point_list()
        w = Fraction(1, len(pts))
        return cls(pts, (w,) * len(pts), tuple(net.coord_rows()))

    def float_coords(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.coords])

    def float_weights(self) -> np.ndarray:
        return np.array([float(w) for w in self.weights])


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b that is at least n."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        p = p3
        while p < n:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best


def _lattice_energies(measure: DiscreteMeasure,
                      s_list: Sequence[float]) -> list[float] | None:
    """Energies of a 1-D lattice measure from its pair-offset histogram.

    With D the common denominator of the coordinates and N_i the integer
    weight numerators over their common denominator C, placed at lattice
    positions i, the energy is

        E_s = (2 / C**2) * sum_{j >= 1} a_j * (j / D)**-s,
        a_j = sum_i N_i * N_{i+j},

    and the autocorrelation a is one FFT over the lattice span L.  Returns
    None (use the pairwise sum) off the gate: coordinates that are not
    1-D, a span L above k**2 / LATTICE_SPAN_DIVISOR for k atoms (checked
    from the two extreme coordinates before any per-atom integer is
    built), or a squared weight mass sum(N_i**2) of more than
    MAX_LATTICE_SQUARED_MASS, beyond which rounding the float FFT to the
    integer a_j is no longer safely exact.
    """
    if len(measure.coords[0]) != 1:
        return None
    xs = [row[0] for row in measure.coords]
    k2 = len(xs) ** 2
    # L = (max - min) * den is at least |x - y| * (partial LCM) for any two
    # atoms: refuse as soon as that lower bound is past k**2 / divisor
    part = abs(xs[-1] - xs[0])
    grow, cap = LATTICE_SPAN_DIVISOR * part.numerator, k2 * part.denominator
    den = 1
    for x in xs:
        den = math.lcm(den, x.denominator)
        if grow * den > cap:
            return None
    lo = min(xs)
    span = (max(xs) - lo) * den
    if LATTICE_SPAN_DIVISOR * span > k2:
        return None
    span = int(span)
    mass = math.lcm(*(w.denominator for w in measure.weights))
    nums = [w.numerator * (mass // w.denominator) for w in measure.weights]
    if sum(u * u for u in nums) > MAX_LATTICE_SQUARED_MASS:
        return None
    base = lo.numerator * (den // lo.denominator)
    pos = [x.numerator * (den // x.denominator) - base for x in xs]
    n = _fft_length(2 * span + 1)
    # each large array is freed once used up and the exponent loop reuses
    # one buffer, so the freed heap left for later work stays small
    hist = np.zeros(n)
    hist[pos] = nums
    spec = np.fft.rfft(hist)
    del hist
    spec *= spec.conj()
    # offsets up to the span do not wrap around, since n > 2 * span
    counts = np.rint(np.fft.irfft(spec, n)[1:span + 1])
    del spec
    offsets = np.flatnonzero(counts)
    counts = counts[offsets]
    logd = np.log(offsets + 1.0)
    del offsets
    logd -= math.log(den)
    scale = 2.0 / mass ** 2
    terms = np.empty_like(logd)
    energies = []
    for s in s_list:
        np.exp(np.multiply(logd, -s, out=terms), out=terms)
        energies.append(scale * float(counts @ terms))
    return energies


def _pairwise_energies(measure: DiscreteMeasure,
                       s_list: Sequence[float]) -> list[float]:
    """Energies summed over each unordered pair once, then doubled.

    Each pair adds w_x * w_y * exp(-s/2 * log d2), with the logarithm of
    the squared float distance taken once for all exponents.  Rows go in
    blocks against every later column; the block height is
    ``_PAIR_BLOCK_ELEMENTS // k``, at most 512 and at least 1, so the work
    arrays stay about 1 MB each.  Up to k = 256 atoms the height is 512,
    so such sums are one block; above that the row order of the float
    sum, and so its last bits, depend on the height.
    """
    xs = measure.float_coords()
    w = measure.float_weights()
    k = len(w)
    totals = [0.0] * len(s_list)
    block = max(1, min(512, _PAIR_BLOCK_ELEMENTS // k))
    lower = np.tri(min(block, k), dtype=bool)
    for start in range(0, k, block):
        stop = min(start + block, k)
        nb = stop - start
        diff = xs[start:stop, None, :] - xs[None, start:, :]
        d2 = (diff * diff).sum(axis=2)
        # an infinite distance contributes exp(-inf) = 0: it drops the
        # pairs below and on the diagonal of the block's own square, and
        # distinct atoms whose float coordinates coincide
        d2[:, :nb][lower[:nb, :nb]] = np.inf
        d2[d2 == 0] = np.inf
        logd2 = np.log(d2)
        w_rows, w_cols = w[start:stop], w[start:]
        for j, s in enumerate(s_list):
            totals[j] += float(w_rows @ (np.exp(logd2 * (-0.5 * s)) @ w_cols))
    return [2.0 * t for t in totals]


def _energy_grid(measure: DiscreteMeasure, s_list: Sequence[float]) -> list[float]:
    """Energies of one measure at several exponents, sharing distances.

    A 1-D measure on a lattice of small span takes the pair-offset
    histogram (:func:`_lattice_energies`): one exact autocorrelation of
    the integer weights, one logarithm per nonzero offset for all
    exponents.  Every other measure, and a lattice measure whose span or
    weights fail that path's gate, takes the pairwise sum
    (:func:`_pairwise_energies`).  The two agree within 1e-13
    relative; floats of either may differ from those of dimlab 0.1.0 (an
    ordered double sum) in the last bits, and verdicts built on them do
    not.
    """
    if any(s <= 0 for s in s_list):
        raise ValueError("energy exponent must be positive")
    if len(measure.weights) < 2:
        return [0.0] * len(s_list)
    lattice = _lattice_energies(measure, s_list)
    if lattice is not None:
        return lattice
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
    divergent = [s for s, v in zip(s_grid, verdicts) if v == "divergent"]
    if not bounded:
        return EnergyProfile(s_grid[0], (s_grid[0], s_grid[0]),
                             "all_divergent", verdicts, energies)
    if not divergent:
        return EnergyProfile(s_grid[-1], (s_grid[-1], s_grid[-1]),
                             "all_bounded", verdicts, energies)
    critical = max(bounded)
    above = [s for s in s_grid if s > critical]
    bracket = (critical, above[0] if above else critical)
    return EnergyProfile(critical, bracket, "ok", verdicts, energies)
