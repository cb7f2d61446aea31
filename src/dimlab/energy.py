"""Nested-family random fields and the kernel-integral energy bounds.

The geometric side is a nested family of triadic cylinder pieces
K_path, disjoint across siblings, nested along paths, with level-n
diameters at most 2**(-n**2).  The random side assigns every level-n
piece an independent value uniform on {0, 2**-n}**d and sums the levels;
beyond the explicit tree the construction continues with singleton
pieces, realized as independent per-point dyadic tails, so the value
difference of two points separating at level n is uniform on a full
2**-n window rather than on a coarse grid.

The analytic side bounds the kernel double integral

    I(p, q, theta, u) = int_{[0,p]^d} int_{[0,p]^d}
                        (q**2 + |a - b + theta|**2)**-u  da db

by const * p**d * q**(d - 2u); the constant used here is the exact
full-space comparison integral (Beta/Gamma closed form), which
dominates the ratio for every p, q, theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gammaln
from scipy.stats import qmc

from .estimators import DiscreteMeasure, _least_squares, discrete_energy
from .rng import stable_digest, stable_index
from .spaces import DigitVector, NetDepthError

MAX_FAMILY_DEPTH = 4
DEFAULT_TAIL_LEVELS = 22


def minimal_level_depth(n: int) -> int:
    """Smallest triadic depth t with 3**-t <= 2**(-n*n)."""
    t = 0
    while 3 ** t < 2 ** (n * n):
        t += 1
    return t


@dataclass(frozen=True)
class NestedPiece:
    path: tuple[int, ...]
    prefix: DigitVector
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

    def anchor(self, piece: NestedPiece) -> DigitVector:
        return piece.prefix.extend((0,) * (self.point_depth - piece.prefix.depth))

    def piece_point(self, piece: NestedPiece, offset_digits: tuple[int, ...]) -> DigitVector:
        """A point of the piece: prefix extended by the given digits."""
        ext = offset_digits + (0,) * (self.point_depth - piece.prefix.depth
                                      - len(offset_digits))
        return piece.prefix.extend(ext)

    def locate(self, x: DigitVector) -> tuple[int, ...]:
        """Path of the deepest piece containing x (may be shorter than depth)."""
        path: tuple[int, ...] = ()
        for level in self.levels:
            hit = None
            for piece in level:
                if piece.path[:-1] != path:
                    continue
                pfx = piece.prefix.digits
                if x.digits[:len(pfx)] == pfx:
                    hit = piece
                    break
            if hit is None:
                break
            path = hit.path
        return path


def build_nested_family(
    branching: Sequence[int] = (2, 2, 2),
    depth: int | None = None,
    level_depths: Sequence[int] | None = None,
    point_depth: int | None = None,
) -> NestedFamily:
    """Nested triadic cylinder pieces with the level-n diameter condition.

    Children of a piece are the lexicographically first ``a_n`` digit
    extensions, so sibling separations are exact powers of three.
    ``level_depths`` may deepen levels beyond the minimum (the diameter
    condition only improves); it can never fall short of it.
    """
    branching = tuple(int(a) for a in branching)
    depth = len(branching) if depth is None else depth
    if depth != len(branching):
        raise ValueError("branching schedule must list one factor per level")
    if not 1 <= depth <= MAX_FAMILY_DEPTH:
        raise ValueError(
            f"depth must be between 1 and {MAX_FAMILY_DEPTH}: the 2**(-n*n) "
            "diameter condition is super-exponential in triadic depth"
        )
    if any(a < 1 for a in branching):
        raise ValueError("branching factors must be positive")
    if level_depths is None:
        level_depths = tuple(minimal_level_depth(n) for n in range(1, depth + 1))
    else:
        level_depths = tuple(int(t) for t in level_depths)
        for n, t in enumerate(level_depths, start=1):
            need = minimal_level_depth(n)
            if t < need:
                raise NetDepthError(
                    f"level {n} needs triadic depth >= {need} for the "
                    f"2**-{n * n} diameter condition, got {t}"
                )
    if any(b <= a for a, b in zip(level_depths, level_depths[1:])):
        raise ValueError("level depths must strictly increase")
    for n in range(1, depth):
        avail = 2 ** (level_depths[n] - level_depths[n - 1])
        if branching[n] > avail:
            raise ValueError(
                f"level {n + 1} branching {branching[n]} exceeds the "
                f"{avail} available cylinder extensions"
            )
    if branching[0] > 2 ** level_depths[0]:
        raise ValueError("first-level branching exceeds available cylinders")
    point_depth = (level_depths[-1] + 7) if point_depth is None else point_depth
    if point_depth <= level_depths[-1]:
        raise ValueError("point depth must exceed the deepest level")

    levels: list[tuple[NestedPiece, ...]] = []
    parents: list[tuple[tuple[int, ...], DigitVector | None]] = [((), None)]
    for n in range(1, depth + 1):
        t = level_depths[n - 1]
        pieces = []
        for path, prefix in parents:
            base_depth = 0 if prefix is None else prefix.depth
            ext_bits = t - base_depth
            for child in range(branching[n - 1]):
                ext = tuple((child >> (ext_bits - 1 - j)) & 1
                            for j in range(ext_bits))
                new_prefix = (DigitVector(ext) if prefix is None
                              else prefix.extend(ext))
                # exact spread of the cylinder's depth-limited point set
                diam = (Fraction(1, 3 ** t) - Fraction(1, 3 ** point_depth)) / 2
                pieces.append(NestedPiece(path + (child,), new_prefix, diam))
        levels.append(tuple(pieces))
        parents = [(p.path, p.prefix) for p in pieces]
    return NestedFamily(branching, depth, level_depths, point_depth,
                        tuple(levels))


@dataclass(frozen=True)
class RandomFieldSample:
    """One realization of the level values, plus per-point tails.

    The value of level n on its piece is uniform on {0, 2**-n}**d; the
    tail levels depth+1 .. depth+tail_levels continue the construction
    with singleton pieces and are keyed by the evaluated point itself.
    Everything is a pure function of (seed, key), so evaluation order
    does not matter.
    """

    family: NestedFamily
    seed: object
    d: int = 1
    tail_levels: int = DEFAULT_TAIL_LEVELS

    def node_value(self, level: int, path: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(stable_index(2, self.seed, "node", level, path, c),
                     2 ** level)
            for c in range(self.d)
        )

    def tail_value(self, x: DigitVector, j: int) -> tuple[Fraction, ...]:
        level = self.family.depth + j
        key = (x.value.numerator, x.value.denominator)
        return tuple(
            Fraction(stable_index(2, self.seed, "tail", level, key, c),
                     2 ** level)
            for c in range(self.d)
        )


def sample_field(family: NestedFamily, seed, d: int = 1,
                 tail_levels: int = DEFAULT_TAIL_LEVELS) -> RandomFieldSample:
    return RandomFieldSample(family, seed, d, tail_levels)


def eval_field(sample: RandomFieldSample, x: DigitVector) -> tuple[Fraction, ...]:
    """f(x): sum of the containing pieces' values and the point's tails."""
    path = sample.family.locate(x)
    total = [Fraction(0)] * sample.d
    for level in range(1, len(path) + 1):
        v = sample.node_value(level, path[:level])
        for c in range(sample.d):
            total[c] += v[c]
    for j in range(1, sample.tail_levels + 1):
        v = sample.tail_value(x, j)
        for c in range(sample.d):
            total[c] += v[c]
    return tuple(total)


def natural_leaf_measure(family: NestedFamily) -> DiscreteMeasure:
    """One atom per leaf anchor, weights following the branching tree."""
    leaves = family.leaves()
    weights = []
    for leaf in leaves:
        w = Fraction(1)
        for a in family.branching:
            w /= a
        weights.append(w)
    total = sum(weights, Fraction(0))
    weights = [w / total for w in weights]
    anchors = [family.anchor(leaf) for leaf in leaves]
    return DiscreteMeasure(tuple(anchors), tuple(weights),
                           tuple((a.value,) for a in anchors))


def graph_measure(measure: DiscreteMeasure, sample: RandomFieldSample,
                  drift: Callable | None = None) -> DiscreteMeasure:
    """Pushforward of the measure onto the drifted sample graph.

    Weights are carried over unchanged, so the total mass stays exactly
    one; atoms never collide because the base coordinates already differ.
    """
    coords = []
    for pt, base in zip(measure.points, measure.coords):
        val = eval_field(sample, pt)
        if drift is not None:
            dv = drift(pt)
            val = tuple(v + Fraction(c) for v, c in zip(val, dv))
        coords.append(base + val)
    return DiscreteMeasure(measure.points, measure.weights, tuple(coords))


# ---------------------------------------------------------------------------
# kernel integral bound


def kernel_constant(d: int, u: float) -> float:
    """Exact sup of ratio = integral / (p**d q**(d-2u)) over all p, q, theta.

    Comes from extending the inner integral to all of R**d:
    d = 1 gives sqrt(pi) * Gamma(u - 1/2) / Gamma(u); d = 2 gives
    pi / (u - 1).
    """
    if u <= d / 2:
        raise ValueError("need u > d/2, the bound is divergent otherwise")
    if d == 1:
        return math.sqrt(math.pi) * math.exp(gammaln(u - 0.5) - gammaln(u))
    if d == 2:
        return math.pi / (u - 1.0)
    raise ValueError("kernel checks support d in {1, 2}")


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


def kernel_integral(p: float, q: float, theta, u: float, d: int,
                    qmc_points: int = 1 << 20) -> tuple[float, float]:
    """(value, error estimate) of the kernel double integral.

    d = 1 reduces the double integral to a single convolution integral
    and uses adaptive quadrature; d = 2 reduces to a two-dimensional
    convolution weighted by the tent kernel and uses low-discrepancy
    sampling with a reported standard error.
    """
    if not (0 < p <= 1 and 0 < q <= 1):
        raise ValueError("need p, q in (0, 1]")
    if u <= d / 2:
        raise ValueError("need u > d/2")
    th = _theta_tuple(theta, d)
    if d == 1:
        t0 = th[0]

        def f(w):
            return (p - abs(w)) / (q * q + (w + t0) ** 2) ** u

        val, err = integrate.quad(f, -p, p, epsabs=1e-12, epsrel=1e-9,
                                  limit=200)
        return val, err
    sampler = qmc.Halton(d=2, scramble=False)
    pts = sampler.random(qmc_points)
    w = (2.0 * p) * pts - p
    tent = (p - np.abs(w[:, 0])) * (p - np.abs(w[:, 1]))
    shift = w + np.array(th)
    vals = tent / (q * q + (shift * shift).sum(axis=1)) ** u
    scale = (2.0 * p) ** 2
    mean = float(vals.mean())
    err = float(vals.std() / math.sqrt(len(vals)))
    return scale * mean, scale * err


def kernel_bound_check(p: float, q: float, theta, u: float, d: int,
                       qmc_points: int = 1 << 20) -> KernelCheckReport:
    value, err = kernel_integral(p, q, theta, u, d, qmc_points)
    ratio = value / (p ** d * q ** (d - 2 * u))
    const = kernel_constant(d, u)
    return KernelCheckReport(d, u, p, q, _theta_tuple(theta, d), value, ratio,
                             const, ratio <= const * (1 + 1e-9), err)


def kernel_centered_bound(p: float, q: float, u: float) -> float:
    """p**2 * integral over [-1,1] of (q**2 + p**2 a**2)**-u, for d = 1.

    Dominates the kernel integral for every translation: clamping the
    shift inside [-1, 0] only moves the integrand pointwise upward.
    """
    val, _ = integrate.quad(
        lambda a: (q * q + p * p * a * a) ** -u, -1.0, 1.0,
        epsabs=1e-12, epsrel=1e-9,
    )
    return p * p * val


def kernel_q_slope(d: int, u: float, p: float, qs: Sequence[float],
                   theta=0.0, qmc_points: int = 1 << 20) -> float:
    """Least-squares slope of log ratio vs log q over the trailing half.

    The trailing half is where the ratio has settled; a slope near zero
    certifies the q**(d-2u) scaling is the right power law.
    """
    ratios = [kernel_bound_check(p, q, theta, u, d, qmc_points).ratio
              for q in qs]
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


def ladder_pairs(family: NestedFamily, rungs: Sequence[int] | None = None):
    """Same-leaf pairs whose separations sweep a geometric ladder.

    Rung j pairs the first leaf's anchor with the point offset by 3**-j;
    both lie in that leaf piece, so their value difference is carried
    entirely by the singleton-continuation tails.
    """
    leaf = family.leaves()[0]
    t = family.level_depths[-1]
    if rungs is None:
        rungs = range(t + 1, family.point_depth)
    anchor = family.anchor(leaf)
    pairs = []
    for j in rungs:
        if not (t < j <= family.point_depth):
            raise ValueError(f"rung {j} outside ({t}, {family.point_depth}]")
        offset = (0,) * (j - t - 1) + (1,)
        pairs.append((anchor, family.piece_point(leaf, offset)))
    return pairs


def anchor_pairs(family: NestedFamily):
    anchors = [family.anchor(leaf) for leaf in family.leaves()]
    return [(a, b) for i, a in enumerate(anchors) for b in anchors[i + 1:]]


def _separating_level(family: NestedFamily, x: DigitVector,
                      y: DigitVector) -> int:
    px = family.locate(x)
    py = family.locate(y)
    n = 0
    for a, b in zip(px, py):
        if a != b:
            break
        n += 1
    return n


def _pair_mean(family: NestedFamily, x: DigitVector, y: DigitVector,
               theta: float, t: float, s: float, d: int, trials: int,
               tail_levels: int, seed) -> float:
    """Monte Carlo mean of (rho^2 + |(f+g)(x)-(f+g)(y)|^2)^(-(t+d)/2).

    The level values beyond the separating level plus the tails add up,
    per coordinate, to an exactly uniform dyadic variable on a 2**-n
    window (binary digits with independent fair bits), which is what is
    sampled here in vectorized form.
    """
    n = _separating_level(family, x, y)
    depth = family.depth
    window_bits = (depth - n) + tail_levels
    den = 2 ** (depth + tail_levels)
    rho = abs(float(x.value) - float(y.value))
    key = stable_digest(seed, "pair",
                        (x.value.numerator, x.value.denominator),
                        (y.value.numerator, y.value.denominator))
    rng = np.random.Generator(np.random.Philox(key=key % (1 << 64)))
    exponent = -(t + d) / 2.0
    acc = np.zeros(trials)
    for _ in range(d):
        ux = rng.integers(0, 1 << window_bits, size=trials, dtype=np.int64)
        uy = rng.integers(0, 1 << window_bits, size=trials, dtype=np.int64)
        delta = (ux - uy) / den + theta
        acc += delta * delta
    return float(np.mean((rho * rho + acc) ** exponent))


def pair_expectation_check(
    family: NestedFamily,
    t: float,
    s: float,
    trials: int,
    seed,
    d: int = 1,
    drift: Callable | None = None,
    pairs=None,
    tail_levels: int = DEFAULT_TAIL_LEVELS,
) -> PairExpectationReport:
    """Empirical check that E[...] <= c * rho**-s with a stable constant.

    Reports c_hat = max over pairs of mean * rho**s, grouped by the
    decade of the pair separation; the check passes when the per-decade
    maxima stay within a factor two of each other while the separations
    sweep at least two orders of magnitude.
    """
    if not 0 < t < s:
        raise ValueError("need 0 < t < s")
    if pairs is None:
        pairs = ladder_pairs(family)
    reports = []
    for x, y in pairs:
        if x.value == y.value:
            raise ValueError("pair points must be distinct")
        theta = 0.0
        if drift is not None:
            dx, dy = drift(x), drift(y)
            theta = float(Fraction(dx[0]) - Fraction(dy[0]))
        rho = abs(float(x.value) - float(y.value))
        mean = _pair_mean(family, x, y, theta, t, s, d, trials,
                          tail_levels, seed)
        reports.append(PairReport(x.value, y.value, rho, mean,
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
    return PairExpectationReport(tuple(reports), c_hat, decade_items, ratio,
                                 ratio <= 2.0)


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
    tail_levels: int = DEFAULT_TAIL_LEVELS,
) -> EnergyCheckReport:
    """Average graph energy against the c * I_s(nu) reference.

    Passes when the empirical mean of I_{t+d} over the sampled graphs
    stays within 4 * c_hat * I_s(nu), the pairwise constant with slack.
    """
    if not 0 < t < s:
        raise ValueError("need 0 < t < s")
    if measure is None:
        measure = natural_leaf_measure(family)
    i_s = discrete_energy(measure, s)
    total = 0.0
    for trial in range(trials):
        sample = sample_field(family, (seed, trial), d, tail_levels)
        gm = graph_measure(measure, sample, drift)
        total += discrete_energy(gm, t + d)
    empirical = total / trials
    reference = 4.0 * c_hat * i_s
    return EnergyCheckReport(empirical, i_s, reference,
                             empirical <= reference, trials)
