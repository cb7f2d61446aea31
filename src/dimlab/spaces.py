"""Symbolic compact metric spaces with exact arithmetic and finite nets.

Every space family here is small enough to carry exact rational
coordinates: the closed unit interval, the {0,1}-digit triadic Cantor
set, the harmonic sequence {0} u {1/k : k >= 1}, and products of a base
space with a euclidean cube.

A point of a one-dimensional family, the Cantor set included, is the
exact ``Fraction`` equal to its value.  The codec between a Cantor
point's digits and its value lives here alone: :class:`DigitVector`,
:func:`cantor_digits` and the :func:`subset_sums` tables.

A built net holds its points as integers and makes a ``Fraction`` only
when a point is read: the interval and Cantor nets as numerators over
one denominator (:class:`LatticePoints`), the harmonic net as the
reciprocals it stands for (:class:`HarmonicPoints`).  The net counters
in ``packing`` read those integers directly.

No distance is computed here.  ``packing.max_packing_greedy`` and
``packing.occupied_cell_count`` read a built net's integers;
:meth:`ResolutionNet.coord_rows` gives exact coordinate rows, ascending
as the greedy kernel requires, to those counters on a net built by
hand, to ``packing.max_packing_exact`` and to
``estimators.DiscreteMeasure.uniform_on_net``.  Every net is
one-dimensional: a product with a cube has no net, and
``estimators.cell_count_series`` counts its cells from its base net.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

UNIT_INTERVAL = "unit_interval"
TRIADIC_CANTOR = "triadic_cantor"
HARMONIC_SEQUENCE = "harmonic_sequence"
PRODUCT_WITH_CUBE = "product_with_cube"

# Largest net that is built.  Building one makes no Fraction per point
# (only a Cantor net holds a tuple, of one int per point), but its readers
# make one per point they read: coord_rows, a uniform measure on the net
# or a full iteration.  The limit bounds what those allocate, and a
# larger net is refused from its size alone.
MAX_MATERIALIZED_POINTS = 2_000_000


class UnsupportedSpaceError(ValueError):
    """Raised for a space kind an operation does not support."""


class MixedRepresentationError(TypeError):
    """Raised for a point not given as the exact rational its space uses."""


class NetDepthError(ValueError):
    """Raised when a net is too shallow for the requested construction."""


def ceil_log3_pow2(n: int) -> int:
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
    return ceil_log3_pow2(scale_index) + 2


def subset_sums(weights) -> list[int]:
    """Weight sum over the set bits of every pattern, indexed by pattern;
    ``weights[k]`` is the weight of bit k, the lowest bit first."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def cantor_numerators(depth: int) -> list[int]:
    """Numerators over 3**depth of all depth-``depth`` Cantor points.

    Entry i is the point whose digits are the bits of i, the highest bit
    first, so the list ascends: digit order is value order.
    """
    return subset_sums([3 ** k for k in range(depth)])


# the {0,1} digits of each chunk of 8 base-3 digits, by its value below
# 3**8 (None for a chunk holding a 2): entry m of cantor_numerators(8)
# has the bits of its index as digits, which product() lists in order
_CHUNK_BASE = 3 ** 8
_CHUNK_DIGITS = list(map(
    dict(zip(cantor_numerators(8), itertools.product((0, 1), repeat=8))).get,
    range(_CHUNK_BASE)))
_LOG2_3 = math.log2(3)


def cantor_digits(x: Fraction) -> tuple[int, ...]:
    """The {0,1} digits of a Cantor point, one per factor 3 of its denominator.

    So 0 has none.  A value off the Cantor set raises ValueError: a
    denominator that is not a power of 3, a value outside [0, 1), or a
    digit 2.  The numerator is read 8 digits at a time, in base 3**8,
    each chunk looked up among the 256 {0,1} chunks; the depth is read
    off the denominator's bit length and checked by one power.
    """
    num, den = x.as_integer_ratio()
    depth = int(den.bit_length() / _LOG2_3)
    if 3 ** depth != den or not 0 <= num < den:
        raise ValueError(f"{x} is not a point of the Cantor set")
    digits = ()
    while num:
        num, chunk = divmod(num, _CHUNK_BASE)
        part = _CHUNK_DIGITS[chunk]
        if part is None:
            raise ValueError(f"{x} is not a point of the Cantor set")
        digits = part + digits
    pad = depth - len(digits)
    return (0,) * pad + digits if pad >= 0 else digits[-pad:]


# digit d of a DigitVector as the base-3 numeral character of d
_NUMERALS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class DigitVector:
    """Finite {0,1} digit sequence encoding the Cantor point sum(a_i * 3**-i).

    The value lies in [0, 1/2], the {0,1}-digit (scaled) triadic Cantor
    set.  For a fixed depth the map digits -> value is injective, and
    lexicographic order on the digits equals numeric order of values.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) == 0:
            raise ValueError("DigitVector needs at least one digit")
        if not {*self.digits} <= {0, 1}:
            raise ValueError("digits must be 0 or 1")

    @property
    def value(self) -> Fraction:
        return Fraction(int(bytes(self.digits).translate(_NUMERALS), 3),
                        3 ** len(self.digits))


@dataclass(frozen=True)
class SpaceDescriptor:
    """Description of one of the supported compact metric spaces."""

    kind: str
    base: "SpaceDescriptor | None" = None
    cube_dim: int = 0

    def __post_init__(self):
        if self.kind == PRODUCT_WITH_CUBE:
            if self.base is None or self.cube_dim < 1:
                raise ValueError("product space needs a base and cube_dim >= 1")
        elif self.kind not in (UNIT_INTERVAL, TRIADIC_CANTOR, HARMONIC_SEQUENCE):
            raise UnsupportedSpaceError(f"unknown space kind: {self.kind!r}")


def unit_interval() -> SpaceDescriptor:
    return SpaceDescriptor(UNIT_INTERVAL)


def triadic_cantor() -> SpaceDescriptor:
    return SpaceDescriptor(TRIADIC_CANTOR)


def harmonic_sequence() -> SpaceDescriptor:
    return SpaceDescriptor(HARMONIC_SEQUENCE)


def product_with_cube(base: SpaceDescriptor, d: int) -> SpaceDescriptor:
    return SpaceDescriptor(PRODUCT_WITH_CUBE, base=base, cube_dim=d)


def drift_at(drift, x, d: int) -> tuple[Fraction, ...]:
    """The drift's value at x as d exact coordinates; a drift of another
    arity raises ValueError, so no coordinate is dropped or broadcast."""
    value = tuple(map(Fraction, drift(x)))
    if len(value) != d:
        raise ValueError(f"the drift has {len(value)} coordinate(s), d = {d}")
    return value


@dataclass(frozen=True)
class LatticePoints(Sequence):
    """The exact points num / den, for num in the ascending integers
    ``nums``: a net's points as numerators over one denominator.

    Indexing and iteration make each point's ``Fraction`` as it is read;
    a slice is a tuple of them.
    """

    nums: tuple[int, ...] | range
    den: int

    def __len__(self):
        return len(self.nums)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(Fraction, self.nums[i],
                             itertools.repeat(self.den)))
        return Fraction(self.nums[i], self.den)

    def __iter__(self):
        return map(Fraction, self.nums, itertools.repeat(self.den))


@dataclass(frozen=True)
class HarmonicPoints(Sequence):
    """The points 0 and 1/q for q = top, top - 1, ..., 1, ascending: the
    harmonic net in its reciprocal form.

    Indexing and iteration make each point's ``Fraction`` as it is read;
    a slice is a tuple of them.
    """

    top: int

    def __len__(self):
        return self.top + 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(self.top + 1)[i]))
        i = range(self.top + 1)[i]
        return Fraction(1, self.top + 1 - i) if i else Fraction(0)

    def __iter__(self):
        yield Fraction(0)
        yield from map(Fraction, itertools.repeat(1), range(self.top, 0, -1))


@dataclass(frozen=True)
class ResolutionNet:
    """Finite 2**-n stand-in for a one-dimensional compact space: its
    exact points in ascending order.

    ``points`` is any sequence of them: a tuple for a net built by hand,
    and for :func:`build_net`'s nets a :class:`LatticePoints` or
    :class:`HarmonicPoints`, which make a ``Fraction`` only when a point
    is read, so ``size()`` makes none.
    """

    space: SpaceDescriptor
    scale_index: int
    points: Sequence

    def size(self) -> int:
        return len(self.points)

    def coord_rows(self) -> list[tuple[int | Fraction]]:
        """The points as 1-tuples, ints and Fractions as they are, each
        read once; the first point of another type raises
        MixedRepresentationError."""
        pts = tuple(self.points)
        if not all(map(isinstance, pts, itertools.repeat((int, Fraction)))):
            bad = next(p for p in pts if not isinstance(p, (int, Fraction)))
            raise MixedRepresentationError(
                f"not an exact rational point: {bad!r}")
        return list(zip(pts))


def check_net_size(space: SpaceDescriptor, n: int) -> None:
    """Refuse a 2**-n net of more than ``MAX_MATERIALIZED_POINTS`` points.

    The size is read off the space alone: 2**n + 1 points on the interval
    and the harmonic sequence, 2**cantor_net_depth(n) on the Cantor set.
    A negative n raises ValueError, a space without a net (a product)
    :class:`UnsupportedSpaceError` and an oversized net
    :class:`NetDepthError`.
    """
    if n < 0:
        raise ValueError("scale index must be nonnegative")
    kind = space.kind
    if kind == TRIADIC_CANTOR:
        size = 1 << cantor_net_depth(n)
    elif kind in (UNIT_INTERVAL, HARMONIC_SEQUENCE):
        size = 2 ** n + 1
    else:
        raise UnsupportedSpaceError(f"cannot build a net for kind {kind!r}")
    if size > MAX_MATERIALIZED_POINTS:
        raise NetDepthError(
            f"the {kind} net at scale {n} has {size} points, above the "
            f"limit of {MAX_MATERIALIZED_POINTS}"
        )


def build_net(space: SpaceDescriptor, n: int) -> ResolutionNet:
    """Build the canonical 2**-n net of a one-dimensional space.

    Deterministic for fixed inputs; the points come out sorted by value,
    held as integers (no ``Fraction`` is made here).  Construction rules:

    * unit interval: the dyadic grid k / 2**n, 0 <= k <= 2**n, as
      ``LatticePoints(range(2**n + 1), 2**n)``;
    * triadic Cantor: every point with ``depth = cantor_net_depth(n)``
      digits, as ``cantor_numerators(depth)`` over 3**depth;
    * harmonic sequence: {0} and every 1/q with q <= 2**n, so the
      omitted tail lies within one 2**-n ball around 0, as
      ``HarmonicPoints(2**n)``.

    :func:`check_net_size` runs first, so a product descriptor and a net
    of more than ``MAX_MATERIALIZED_POINTS`` points are refused before
    anything is built.
    """
    check_net_size(space, n)
    if space.kind == UNIT_INTERVAL:
        pts = LatticePoints(range(2 ** n + 1), 2 ** n)
    elif space.kind == TRIADIC_CANTOR:
        depth = cantor_net_depth(n)
        pts = LatticePoints(tuple(cantor_numerators(depth)), 3 ** depth)
    else:
        pts = HarmonicPoints(2 ** n)
    return ResolutionNet(space, n, pts)
