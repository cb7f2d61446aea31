"""Nested-family random fields and the kernel-integral energy bounds.

The geometric side is a nested family of triadic cylinder pieces
K_path, disjoint across siblings, nested along paths, with level-n
diameters at most 2**(-n**2).  The random side assigns every level-n
piece an independent value uniform on {0, 2**-n}**d and sums the levels;
beyond the explicit tree the construction continues with singleton
pieces, whose TAIL_LEVELS fair bits per coordinate sum to one uniform
integer below 2**TAIL_LEVELS, drawn once per point.  So the value
difference of two points separating at level n is uniform on a full
2**-n window rather than on a coarse grid.  A point is the exact
``Fraction`` equal to its value on the {0,1}-digit Cantor set, and a
piece is kept as its anchor, the least point of its cylinder.

The analytic side bounds the kernel double integral

    I(p, q, theta, u) = int_{[0,p]^d} int_{[0,p]^d}
                        (q**2 + |a - b + theta|**2)**-u  da db

by const * p**d * q**(d - 2u); the constant used here is the exact
full-space comparison integral (Beta/Gamma closed form), which
dominates the ratio for every p, q, theta.  The integral is one fixed
composite Gauss-Legendre rule in numpy, its panels cut per axis around
the kernel's peak (a tensor product of two axis rules for d = 2), so the
module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .estimators import DiscreteMeasure, _least_squares, discrete_energy
from .rng import stable_generator, stable_index
from .spaces import (cantor_digits, cantor_numerators, ceil_log3_pow2,
                     drift_at)

MAX_FAMILY_DEPTH = 4
# dyadic tail levels that continue the construction below the explicit tree
TAIL_LEVELS = 22


def minimal_level_depth(n: int) -> int:
    """Smallest triadic depth t with 3**-t <= 2**(-n*n)."""
    return ceil_log3_pow2(n * n)


@dataclass(frozen=True)
class NestedPiece:
    path: tuple[int, ...]
    anchor: Fraction  # the least point of the piece's cylinder
    diameter: Fraction


@dataclass(frozen=True)
class NestedFamily:
    branching: tuple[int, ...]
    depth: int
    level_depths: tuple[int, ...]
    point_depth: int
    levels: tuple[tuple[NestedPiece, ...], ...]

    def leaves(self) -> tuple[NestedPiece, ...]:
        return self.levels[-1]

    def locate(self, x: Fraction) -> tuple[int, ...]:
        """Path of the deepest piece containing x (may be shorter than depth).

        Child c of a level-n piece extends its parent's digits by zeros,
        then the bits of c in the last (a_n - 1).bit_length() digits up
        to depth t_n.  So the path is read off x's digits, padded to the
        deepest level, and stops where a zero run holds a 1 or c >= a_n.
        A value off the Cantor set raises ValueError.
        """
        digits = cantor_digits(x)
        digits += (0,) * (self.level_depths[-1] - len(digits))
        path: tuple[int, ...] = ()
        for a, lo, hi in zip(self.branching, (0,) + self.level_depths,
                             self.level_depths):
            mid = hi - (a - 1).bit_length()
            if 1 in digits[lo:mid]:
                break
            c = 0
            for bit in digits[mid:hi]:
                c = 2 * c + bit
            if c >= a:
                break
            path += (c,)
        return path


def build_nested_family(branching: Sequence[int]) -> NestedFamily:
    """Nested triadic cylinder pieces with the level-n diameter condition.

    Level n has ``branching[n-1]`` children per piece, at the smallest
    triadic depth that meets the 2**(-n*n) diameter condition
    (:func:`minimal_level_depth`); points are resolved 7 digits below
    the deepest level.  Children of a piece are the lexicographically
    first ``a_n`` digit extensions, so sibling separations are exact
    powers of three.
    """
    branching = tuple(int(a) for a in branching)
    depth = len(branching)
    if not 1 <= depth <= MAX_FAMILY_DEPTH:
        raise ValueError(
            f"depth must be between 1 and {MAX_FAMILY_DEPTH}: the 2**(-n*n) "
            "diameter condition is super-exponential in triadic depth"
        )
    if any(a < 1 for a in branching):
        raise ValueError("branching factors must be positive")
    level_depths = tuple(minimal_level_depth(n) for n in range(1, depth + 1))
    for n, (a, lo, hi) in enumerate(
            zip(branching, (0,) + level_depths, level_depths), start=1):
        if a > 2 ** (hi - lo):
            raise ValueError(
                f"level {n} branching {a} exceeds the {2 ** (hi - lo)} "
                "available cylinder extensions"
            )
    point_depth = level_depths[-1] + 7

    levels: list[tuple[NestedPiece, ...]] = []
    parents: list[tuple[tuple[int, ...], Fraction]] = [((), Fraction(0))]
    for n in range(1, depth + 1):
        t, a = level_depths[n - 1], branching[n - 1]
        # child c extends its parent's prefix by the bits of c as digits,
        # whose numerator over 3**t is the codec's entry c
        ext = cantor_numerators((a - 1).bit_length())[:a]
        children = [(path + (c,), value + Fraction(m, 3 ** t))
                    for path, value in parents for c, m in enumerate(ext)]
        # exact spread of the cylinder's depth-limited point set
        diam = (Fraction(1, 3 ** t) - Fraction(1, 3 ** point_depth)) / 2
        levels.append(tuple(NestedPiece(path, value, diam)
                            for path, value in children))
        parents = children
    return NestedFamily(branching, depth, level_depths, point_depth,
                        tuple(levels))


@dataclass(frozen=True)
class RandomFieldSample:
    """One realization of the level values, plus per-point tails.

    The value of level n on its piece is uniform on {0, 2**-n}**d; the
    tail levels depth+1 .. depth+TAIL_LEVELS continue the construction
    with singleton pieces, drawn together as one integer per coordinate
    and keyed by the evaluated point itself.  Everything is a pure
    function of (seed, key), so evaluation order does not matter.
    """

    family: NestedFamily
    seed: object
    d: int = 1

    def node_bits(self, level: int, path: tuple[int, ...]) -> list[int]:
        """The level's draws on the piece at ``path``, one bit per coordinate."""
        return [stable_index(2, self.seed, "node", level, path, c)
                for c in range(self.d)]

    def tail(self, key: tuple[int, int]) -> list[int]:
        """Per coordinate, the numerator over 2**(depth + TAIL_LEVELS)
        of the tail of the point whose value is ``key``."""
        return [stable_index(1 << TAIL_LEVELS, self.seed, "tail", key, c)
                for c in range(self.d)]


def eval_field(sample: RandomFieldSample, x: Fraction) -> tuple[Fraction, ...]:
    """f(x): sum of the containing pieces' values and the point's tail.

    Level l adds one bit over 2**l and the tail the last TAIL_LEVELS
    bits, so each coordinate is one numerator over 2**(depth + TAIL_LEVELS).
    """
    path = sample.family.locate(x)
    top = sample.family.depth + TAIL_LEVELS
    nums = sample.tail((x.numerator, x.denominator))
    for level in range(1, len(path) + 1):
        for c, b in enumerate(sample.node_bits(level, path[:level])):
            nums[c] += b << (top - level)
    return tuple(Fraction(u, 1 << top) for u in nums)


def natural_leaf_measure(family: NestedFamily) -> DiscreteMeasure:
    """One atom per leaf anchor, each leaf weighing 1 / #leaves."""
    anchors = tuple(leaf.anchor for leaf in family.leaves())
    w = Fraction(1, len(anchors))
    return DiscreteMeasure(anchors, (w,) * len(anchors),
                           tuple((a,) for a in anchors))


def graph_measure(measure: DiscreteMeasure, sample: RandomFieldSample,
                  drift: Callable | None = None) -> DiscreteMeasure:
    """Pushforward of the measure onto the drifted sample graph.

    Weights are carried over unchanged, so the total mass stays exactly
    one; atoms never collide because the base coordinates already differ.
    A drift of another arity than the sample's d raises ValueError.
    """
    coords = []
    for pt, base in zip(measure.points, measure.coords):
        val = eval_field(sample, pt)
        if drift is not None:
            val = tuple(v + c for v, c in
                        zip(val, drift_at(drift, pt, sample.d)))
        coords.append(base + val)
    return DiscreteMeasure(measure.points, measure.weights, tuple(coords))


# ---------------------------------------------------------------------------
# kernel integral bound


def _check_kernel_args(d: int, u: float) -> None:
    if d not in (1, 2):
        raise ValueError(f"kernel checks support d in {{1, 2}}, got d = {d}")
    if u <= d / 2:
        raise ValueError("need u > d/2, the bound is divergent otherwise")


def kernel_constant(d: int, u: float) -> float:
    """Exact sup of ratio = integral / (p**d q**(d-2u)) over all p, q, theta.

    Comes from extending the inner integral to all of R**d:
    d = 1 gives sqrt(pi) * Gamma(u - 1/2) / Gamma(u); d = 2 gives
    pi / (u - 1).
    """
    _check_kernel_args(d, u)
    if d == 1:
        return math.sqrt(math.pi) * math.exp(math.lgamma(u - 0.5)
                                             - math.lgamma(u))
    return math.pi / (u - 1.0)


@dataclass(frozen=True)
class KernelCheckReport:
    d: int
    u: float
    p: float
    q: float
    theta: tuple[float, ...]
    integral: float
    ratio: float
    constant: float
    passed: bool
    error_estimate: float


def _theta_tuple(theta, d: int) -> tuple[float, ...]:
    if isinstance(theta, (int, float, Fraction)):
        return (float(theta),) * d
    theta = tuple(float(c) for c in theta)
    if len(theta) != d:
        raise ValueError("theta arity mismatch")
    return theta


# Gauss-Legendre nodes on [-1, 1]: the 16-point rule, then the 8-point
# rule whose difference from it is the error estimate
_G16, _G8 = leggauss(16), leggauss(8)
_GAUSS_NODES, _GAUSS_WEIGHTS = np.concatenate((_G16, _G8), axis=1)


def _axis_panels(p: float, q: float,
                 t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and half-lengths of one axis's panels.

    In the offset s = w + t0 from the peak the axis's tent is
    p - |s - t0| on [t0 - p, t0 + p], and the kernel is analytic but for
    the branch points s = +-iq.  The panels break at the ends, the kink
    s = t0, the peak s = 0 and the mesh s = +-q*2**k, so every panel lies
    at least its own length from +-iq and 16 nodes bring each one to
    machine precision.  Row k holds panel k's 16-point nodes, then its
    8-point nodes, placed in s so that those next to a narrow peak carry
    no rounding from t0.
    """
    lo, hi = t0 - p, t0 + p
    cuts = {lo, t0, hi}
    if lo < 0.0 < hi:
        cuts.add(0.0)
    step, reach = q, max(-lo, hi)
    while step < reach:
        for s in (-step, step):
            if lo < s < hi:
                cuts.add(s)
        step *= 2.0
    cuts = np.array(sorted(cuts))
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    return mid[:, None] + half[:, None] * _GAUSS_NODES, half


def kernel_integral(p: float, q: float, theta, u: float,
                    d: int) -> tuple[float, float]:
    """(value, error estimate) of the kernel double integral.

    Over the difference w = a - b the integral is the kernel weighted by
    the tent p - |w_i| in each coordinate, integrated over [-p, p]**d.
    d = 1 integrates that by a fixed composite Gauss-Legendre rule on the
    panels of :func:`_axis_panels`.  d = 2 takes the tensor product of
    the two axis rules, 16 x 16 nodes per panel pair, with each axis's
    tent folded into its weights: for fixed real s_2 the branch points in
    s_1 sit at +-i*sqrt(q**2 + s_2**2), no nearer the real axis than +-iq,
    so each axis's mesh still resolves the peak.  The error estimate sums
    |G16 - G8| (in d = 2, |G16xG16 - G8xG8|) over the panels.
    """
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ValueError("need p, q in (0, 1]")
    _check_kernel_args(d, u)
    th = _theta_tuple(theta, d)
    if d == 1:
        s, half = _axis_panels(p, q, th[0])
        # numpy row sums, not a BLAS gemv, whose order the CPU's kernel picks
        f = (p - np.abs(s - th[0])) * (q * q + s * s) ** -u * _GAUSS_WEIGHTS
        g16 = f[:, :16].sum(axis=1) * half
        g8 = f[:, 16:].sum(axis=1) * half
        return float(g16.sum()), float(np.abs(g16 - g8).sum())
    axes = []
    for t0 in th:
        s, half = _axis_panels(p, q, t0)
        axes.append((s, (p - np.abs(s - t0)) * half[:, None]))
    (s1, w1), (s2, w2) = axes
    sums = []
    for k, gw in ((slice(16), _G16[1]), (slice(16, None), _G8[1])):
        kern = (q * q + s1[:, k, None, None] ** 2
                + s2[None, None, :, k] ** 2) ** -u
        sums.append(np.einsum("ai,aibj,bj->ab", w1[:, k] * gw, kern,
                              w2[:, k] * gw))
    g16, g8 = sums
    return float(g16.sum()), float(np.abs(g16 - g8).sum())


def kernel_bound_check(p: float, q: float, theta, u: float,
                       d: int) -> KernelCheckReport:
    value, err = kernel_integral(p, q, theta, u, d)
    ratio = value / (p ** d * q ** (d - 2 * u))
    const = kernel_constant(d, u)
    return KernelCheckReport(d, u, p, q, _theta_tuple(theta, d), value, ratio,
                             const, ratio <= const * (1 + 1e-9), err)


def kernel_q_slope(d: int, u: float, p: float, qs: Sequence[float]) -> float:
    """Least-squares slope of log ratio vs log q at zero translation,
    over the trailing half of ``qs``.

    The trailing half is where the ratio has settled; a slope near zero
    certifies the q**(d-2u) scaling is the right power law.
    """
    ratios = [kernel_bound_check(p, q, 0.0, u, d).ratio for q in qs]
    xs = [math.log(q) for q in qs]
    ys = [math.log(r) for r in ratios]
    half = len(xs) // 2
    return _least_squares(xs[half:], ys[half:])[0]


# ---------------------------------------------------------------------------
# pairwise expectation bound and expected graph energy


@dataclass(frozen=True)
class PairReport:
    x_value: Fraction
    y_value: Fraction
    rho: float
    mean: float
    c_hat: float
    separating_level: int


@dataclass(frozen=True)
class PairExpectationReport:
    pairs: tuple[PairReport, ...]
    c_hat: float
    decade_c_hat: tuple[tuple[int, float], ...]
    stability_ratio: float
    passed: bool


def ladder_pairs(family: NestedFamily):
    """Same-leaf pairs whose separations sweep a geometric ladder.

    Rung j, for every j strictly between the deepest level's triadic
    depth t and the point depth, pairs the first leaf's anchor with the
    point offset by 3**-j; both lie in that leaf piece, so their value
    difference is carried entirely by the singleton-continuation tails.
    """
    leaf = family.leaves()[0]
    t = family.level_depths[-1]
    return [(leaf.anchor, leaf.anchor + Fraction(1, 3 ** j))
            for j in range(t + 1, family.point_depth)]


def _separating_level(family: NestedFamily, x: Fraction, y: Fraction) -> int:
    px = family.locate(x)
    py = family.locate(y)
    n = 0
    for a, b in zip(px, py):
        if a != b:
            break
        n += 1
    return n


def _pair_mean(family: NestedFamily, x: Fraction, y: Fraction,
               theta: tuple, t: float, d: int, trials: int, seed) -> float:
    """Monte Carlo mean of (rho^2 + |(f+g)(x)-(f+g)(y)|^2)^(-(t+d)/2).

    The level values beyond the separating level plus the tail add up,
    per coordinate, to an exactly uniform dyadic variable on a 2**-n
    window (binary digits with independent fair bits), which is what is
    drawn here as arrays from the pair's ``stable_generator`` stream.
    ``theta`` holds the drift difference g(x) - g(y), one per coordinate.
    """
    n = _separating_level(family, x, y)
    window_bits = (family.depth - n) + TAIL_LEVELS
    den = 2 ** (family.depth + TAIL_LEVELS)
    rho = abs(float(x) - float(y))
    rng = stable_generator(seed, "pair", (x.numerator, x.denominator),
                           (y.numerator, y.denominator))
    exponent = -(t + d) / 2.0
    # in place, with the float operations of
    # mean((rho**2 + sum over c of ((ux - uy) / den + theta[c])**2) ** exponent)
    acc = np.zeros(trials)
    for c in range(d):
        # one call draws x's values, then y's, reading the stream as two
        # calls would; int32 holds the window (window_bits <=
        # MAX_FAMILY_DEPTH + TAIL_LEVELS = 26) and the difference
        ux, uy = rng.integers(0, 1 << window_bits, size=(2, trials),
                              dtype=np.int32)
        ux -= uy
        # the first square lands in acc, which is exactly 0 + that square
        delta = np.divide(ux, den, out=acc if c == 0 else None)
        delta += theta[c]
        delta *= delta
        if c:
            acc += delta
    acc += rho * rho
    acc **= exponent
    return float(np.mean(acc))


def pair_expectation_check(
    family: NestedFamily,
    t: float,
    s: float,
    trials: int,
    seed,
    d: int = 1,
    drift: Callable | None = None,
    pairs=None,
) -> PairExpectationReport:
    """Empirical check that E[...] <= c * rho**-s with a stable constant.

    Reports c_hat = max over pairs of mean * rho**s, grouped by the
    decade of the pair separation; the check passes when the per-decade
    maxima stay within a factor two of each other and the separations
    sweep at least two orders of magnitude (max rho >= 100 * min rho).
    A drift of another arity than d, fewer than one trial, or an empty
    list of pairs raises ValueError.
    """
    if not 0 < t < s:
        raise ValueError("need 0 < t < s")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    pairs = ladder_pairs(family) if pairs is None else list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    reports = []
    for x, y in pairs:
        if x == y:
            raise ValueError("pair points must be distinct")
        theta = (0.0,) * d
        if drift is not None:
            theta = tuple(float(a - b) for a, b in zip(
                drift_at(drift, x, d), drift_at(drift, y, d)))
        rho = abs(float(x) - float(y))
        mean = _pair_mean(family, x, y, theta, t, d, trials, seed)
        reports.append(PairReport(x, y, rho, mean,
                                  mean * rho ** s,
                                  _separating_level(family, x, y)))
    decades: dict[int, float] = {}
    for r in reports:
        dec = math.floor(math.log10(r.rho))
        decades[dec] = max(decades.get(dec, 0.0), r.c_hat)
    decade_items = tuple(sorted(decades.items()))
    values = [v for _, v in decade_items]
    ratio = max(values) / min(values)
    c_hat = max(r.c_hat for r in reports)
    rhos = [r.rho for r in reports]
    return PairExpectationReport(tuple(reports), c_hat, decade_items, ratio,
                                 ratio <= 2.0 and max(rhos) >= 100 * min(rhos))


@dataclass(frozen=True)
class EnergyCheckReport:
    empirical: float
    i_s: float
    reference: float
    passed: bool
    trials: int


def expected_energy_check(
    family: NestedFamily,
    t: float,
    s: float,
    trials: int,
    seed,
    c_hat: float,
    measure: DiscreteMeasure | None = None,
    drift: Callable | None = None,
    d: int = 1,
) -> EnergyCheckReport:
    """Average graph energy against the c * I_s(nu) reference.

    Passes when the empirical mean of I_{t+d} over the sampled graphs
    stays within 4 * c_hat * I_s(nu), the pairwise constant with slack.
    Fewer than one trial raises ValueError.
    """
    if not 0 < t < s:
        raise ValueError("need 0 < t < s")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if measure is None:
        measure = natural_leaf_measure(family)
    i_s = discrete_energy(measure, s)
    total = 0.0
    for trial in range(trials):
        sample = RandomFieldSample(family, (seed, trial), d)
        gm = graph_measure(measure, sample, drift)
        total += discrete_energy(gm, t + d)
    empirical = total / trials
    reference = 4.0 * c_hat * i_s
    return EnergyCheckReport(empirical, i_s, reference,
                             empirical <= reference, trials)
