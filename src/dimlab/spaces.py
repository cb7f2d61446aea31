"""Symbolic compact metric spaces with exact arithmetic and finite nets.

Every space family here is small enough to carry exact rational
coordinates: the closed unit interval, the {0,1}-digit triadic Cantor
set, the harmonic sequence {0} u {1/k : k >= 1}, products of a base
space with a euclidean cube, and explicit finite point clouds given by
a distance table.

All order comparisons between distances reduce to exact Fraction
arithmetic on squared distances.  A numeric square root only appears
when a caller asks for the distance value itself on a product space and
the squared distance is not a perfect rational square.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

UNIT_INTERVAL = "unit_interval"
TRIADIC_CANTOR = "triadic_cantor"
HARMONIC_SEQUENCE = "harmonic_sequence"
PRODUCT_WITH_CUBE = "product_with_cube"
FINITE_POINT_CLOUD = "finite_point_cloud"

# Materialization guard for lazily represented product nets.
MAX_MATERIALIZED_POINTS = 2_000_000


class UnsupportedSpaceError(ValueError):
    """Raised for a space kind an operation does not support."""


class MixedRepresentationError(TypeError):
    """Raised when two points of incompatible representations are compared."""


class NetDepthError(ValueError):
    """Raised when a net is too shallow for the requested construction."""


def _ceil_log3_pow2(n: int) -> int:
    """Smallest t with 3**t >= 2**n, computed in exact integers."""
    target = 1 << n
    t, p = 0, 1
    while p < target:
        p *= 3
        t += 1
    return t


def cantor_net_depth(scale_index: int) -> int:
    """Digit depth used for the Cantor net at scale 2**-n.

    Guarantees 3**-depth <= 2**-n with two extra digits of margin, so the
    omitted cylinder tails cannot spoil the net property.
    """
    return _ceil_log3_pow2(scale_index) + 2


@dataclass(frozen=True)
class DigitVector:
    """Finite {0,1} digit sequence encoding x = sum(a_i * 3**-i).

    The encoded value lies in [0, 1/2], the {0,1}-digit (scaled) triadic
    Cantor set.  For a fixed depth the map digits -> value is injective,
    and lexicographic order on the digits equals numeric order of values.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) == 0:
            raise ValueError("DigitVector needs at least one digit")
        if any(d not in (0, 1) for d in self.digits):
            raise ValueError("digits must be 0 or 1")

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> Fraction:
        num = 0
        for d in self.digits:
            num = num * 3 + d
        return Fraction(num, 3 ** self.depth)

    @classmethod
    def from_value(cls, value: Fraction, depth: int) -> "DigitVector":
        """Recover the digit sequence of an exactly representable value."""
        digits = []
        rest = Fraction(value)
        for i in range(1, depth + 1):
            p = Fraction(1, 3 ** i)
            # with a_i = 0 the remaining tail is at most p/2, strictly below p
            if rest >= p:
                digits.append(1)
                rest -= p
            else:
                digits.append(0)
        if rest != 0:
            raise ValueError(f"{value} is not a depth-{depth} digit value")
        return cls(tuple(digits))

    def extend(self, extra: tuple[int, ...]) -> "DigitVector":
        return DigitVector(self.digits + extra)

    def __repr__(self):
        return f"DigitVector({''.join(map(str, self.digits))})"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Description of one of the supported compact metric spaces."""

    kind: str
    base: "SpaceDescriptor | None" = None
    cube_dim: int = 0
    cloud_points: tuple = ()
    cloud_table: tuple = ()

    def __post_init__(self):
        if self.kind == PRODUCT_WITH_CUBE:
            if self.base is None or self.cube_dim < 1:
                raise ValueError("product space needs a base and cube_dim >= 1")
        elif self.kind == FINITE_POINT_CLOUD:
            _validate_cloud_table(self.cloud_table)
        elif self.kind not in (UNIT_INTERVAL, TRIADIC_CANTOR, HARMONIC_SEQUENCE):
            raise UnsupportedSpaceError(f"unknown space kind: {self.kind!r}")


def _validate_cloud_table(table: tuple) -> None:
    m = len(table)
    for row in table:
        if len(row) != m:
            raise ValueError("distance table must be square")
    for i in range(m):
        if table[i][i] != 0:
            raise ValueError("distance table diagonal must be zero")
        for j in range(i + 1, m):
            if table[i][j] != table[j][i]:
                raise ValueError("distance table must be symmetric")
            if table[i][j] <= 0:
                raise ValueError("off-diagonal distances must be positive")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if table[i][j] > table[i][k] + table[k][j]:
                    raise ValueError(
                        f"triangle inequality fails at indices ({i},{j},{k})"
                    )


def unit_interval() -> SpaceDescriptor:
    return SpaceDescriptor(UNIT_INTERVAL)


def triadic_cantor() -> SpaceDescriptor:
    return SpaceDescriptor(TRIADIC_CANTOR)


def harmonic_sequence() -> SpaceDescriptor:
    return SpaceDescriptor(HARMONIC_SEQUENCE)


def product_with_cube(base: SpaceDescriptor, d: int) -> SpaceDescriptor:
    return SpaceDescriptor(PRODUCT_WITH_CUBE, base=base, cube_dim=d)


def finite_point_cloud(points: Iterable, table: Iterable[Iterable]) -> SpaceDescriptor:
    pts = tuple(points)
    tbl = tuple(tuple(Fraction(x) for x in row) for row in table)
    if len(pts) != len(tbl):
        raise ValueError("points and table size mismatch")
    return SpaceDescriptor(FINITE_POINT_CLOUD, cloud_points=pts, cloud_table=tbl)


def _as_fraction_point(x) -> Fraction:
    if isinstance(x, DigitVector):
        raise MixedRepresentationError("digit vector where a rational was expected")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise MixedRepresentationError(f"not an exact rational point: {x!r}")


def coords_of(space: SpaceDescriptor, point) -> tuple[Fraction, ...]:
    """Exact euclidean embedding of a point, used by packing and meshing.

    Point clouds have no coordinates; callers fall back to the table.
    """
    if space.kind in (UNIT_INTERVAL, HARMONIC_SEQUENCE):
        return (_as_fraction_point(point),)
    if space.kind == TRIADIC_CANTOR:
        if isinstance(point, DigitVector):
            return (point.value,)
        return (_as_fraction_point(point),)
    if space.kind == PRODUCT_WITH_CUBE:
        base_pt, cube = point
        if len(cube) != space.cube_dim:
            raise ValueError("cube coordinate arity mismatch")
        return coords_of(space.base, base_pt) + tuple(
            z if isinstance(z, Fraction) else Fraction(z) for z in cube
        )
    raise UnsupportedSpaceError(f"no coordinates for space kind {space.kind!r}")


def dist_sq(space: SpaceDescriptor, x, y) -> Fraction:
    """Exact squared distance between two points of the space."""
    if space.kind == FINITE_POINT_CLOUD:
        return space.cloud_table[x][y] ** 2
    if space.kind == TRIADIC_CANTOR:
        xs_dv = isinstance(x, DigitVector)
        ys_dv = isinstance(y, DigitVector)
        if xs_dv != ys_dv:
            raise MixedRepresentationError(
                "cannot mix digit vectors and rationals on the Cantor set"
            )
    cx = coords_of(space, x)
    cy = coords_of(space, y)
    if len(cx) != len(cy):
        raise MixedRepresentationError("points of different arity")
    return sum(((a - b) ** 2 for a, b in zip(cx, cy)), Fraction(0))


def fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def metric(space: SpaceDescriptor, x, y) -> Fraction | float:
    """Distance between two points.

    Returns an exact Fraction whenever the distance is rational (always
    the case on the one-dimensional families and on point clouds), a
    float square root of the exact squared distance otherwise.
    """
    if space.kind == FINITE_POINT_CLOUD:
        return space.cloud_table[x][y]
    d2 = dist_sq(space, x, y)
    root = fraction_sqrt(d2)
    if root is not None:
        return root
    return math.sqrt(d2)


@dataclass(frozen=True)
class ResolutionNet:
    """Finite 2**-n stand-in for a compact space with exact point access.

    ``points`` is None for large product nets, which are kept as factor
    data and iterated lazily.  Points are stored in ascending
    lexicographic coordinate order; all constructions emit them sorted.
    """

    space: SpaceDescriptor
    scale_index: int
    points: tuple | None
    factors: tuple | None = field(default=None, repr=False)

    def size(self) -> int:
        if self.points is not None:
            return len(self.points)
        base_net, axis, d = self.factors
        return base_net.size() * len(axis) ** d

    def iter_points(self) -> Iterator:
        if self.points is not None:
            return iter(self.points)
        base_net, axis, d = self.factors
        return (
            (b, z)
            for b in base_net.iter_points()
            for z in itertools.product(axis, repeat=d)
        )

    def point_list(self) -> tuple:
        if self.points is not None:
            return self.points
        if self.size() > MAX_MATERIALIZED_POINTS:
            raise NetDepthError(
                f"refusing to materialize {self.size()} product points"
            )
        return tuple(self.iter_points())

    def coords(self, point) -> tuple[Fraction, ...]:
        return coords_of(self.space, point)

    def coord_rows(self) -> list[tuple[Fraction, ...]]:
        if self.space.kind == FINITE_POINT_CLOUD:
            raise UnsupportedSpaceError("point clouds have no coordinate rows")
        return [self.coords(p) for p in self.point_list()]

    def metric(self, x, y) -> Fraction | float:
        return metric(self.space, x, y)

    def dist_sq(self, x, y) -> Fraction:
        return dist_sq(self.space, x, y)


def build_net(space: SpaceDescriptor, n: int) -> ResolutionNet:
    """Build the canonical 2**-n net of a space.

    Deterministic for fixed inputs; points come out sorted by value
    (lexicographically for products).  Construction rules:

    * unit interval: the dyadic grid {k * 2**-n : 0 <= k <= 2**n};
    * triadic Cantor: all digit vectors at ``cantor_net_depth(n)``;
    * harmonic sequence: {0} and every 1/k with k <= 2**n, so the
      omitted tail lies within one 2**-n ball around 0;
    * products: delegated to :func:`product_net` at the same scale.
    """
    if n < 0:
        raise ValueError("scale index must be nonnegative")
    kind = space.kind
    if kind == UNIT_INTERVAL:
        step = Fraction(1, 2 ** n)
        pts = tuple(k * step for k in range(2 ** n + 1))
        return ResolutionNet(space, n, pts)
    if kind == TRIADIC_CANTOR:
        depth = cantor_net_depth(n)
        pts = tuple(
            DigitVector(tuple((i >> (depth - 1 - j)) & 1 for j in range(depth)))
            for i in range(1 << depth)
        )
        return ResolutionNet(space, n, pts)
    if kind == HARMONIC_SEQUENCE:
        ks = range(2 ** n, 0, -1)
        pts = (Fraction(0),) + tuple(Fraction(1, k) for k in ks)
        return ResolutionNet(space, n, pts)
    if kind == PRODUCT_WITH_CUBE:
        return product_net(build_net(space.base, n), space.cube_dim, n)
    if kind == FINITE_POINT_CLOUD:
        return ResolutionNet(space, n, tuple(range(len(space.cloud_points))))
    raise UnsupportedSpaceError(f"cannot build a net for kind {space.kind!r}")


def product_net(base: ResolutionNet, d: int, n: int) -> ResolutionNet:
    """Net for base x [0,1]**d under the product metric.

    The cube factor carries the closed 2**-n grid with 2**n + 1 ticks per
    axis.  Small nets are materialized; larger ones stay lazy and are
    expanded on demand.
    """
    if d < 1:
        raise ValueError("cube dimension must be positive")
    if base.scale_index < n:
        raise NetDepthError(
            f"base net at scale {base.scale_index} is too coarse for scale {n}"
        )
    space = product_with_cube(base.space, d)
    axis = tuple(Fraction(k, 2 ** n) for k in range(2 ** n + 1))
    total = base.size() * len(axis) ** d
    if total <= 100_000:
        pts = tuple(
            (b, z)
            for b in base.iter_points()
            for z in itertools.product(axis, repeat=d)
        )
        return ResolutionNet(space, n, pts, factors=(base, axis, d))
    return ResolutionNet(space, n, None, factors=(base, axis, d))
