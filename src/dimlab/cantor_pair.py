"""The digit-split function pair on the {0,1}-digit Cantor set.

For x = sum(a_i * 3**-i) with digits a_i in {0,1}, define

    f(x) = sum(a_1, a_3, a_5, ... weighted 3**-1, 3**-2, ...)
    g(x) = sum(a_2, a_4, a_6, ... weighted 3**-1, 3**-2, ...)

so f reads the odd-position digits and g the even-position ones.  Both
graphs occupy exactly 2**(3n) of the 9**-n mesh squares, while the graph
of f + g occupies 2**(2n) * (3**n + 1): the sum is strictly rougher than
either summand.  This module evaluates the three functions exactly,
reproduces those counts by enumerating digit patterns into sorted int64
cell keys, and carries the closed forms.

Digit bookkeeping convention: a point is its exact value, whose digits
the :mod:`spaces` codec reads off.  All counting is done in exact
integers at denominators 3**depth (abscissa) and 3**((depth+1)//2)
(ordinate), so a point can never be misclassified across a half-open
mesh boundary.  A depth-``depth`` digit string is a bit pattern whose
highest bit is the first digit; value numerators are sums of per-digit
weights over the set bits (:func:`_weights`), tabulated for every
pattern at once by :func:`spaces.subset_sums`.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

import numpy as np

from .spaces import cantor_digits, cantor_numerators, subset_sums

ENUMERATION_DEPTH_LIMIT = 24


class EnumerationLimitExceeded(RuntimeError):
    pass


class DigitFunction(enum.Enum):
    ODD_DIGITS = "odd_digits"
    EVEN_DIGITS = "even_digits"
    SUM = "sum"


def evaluate(fn: DigitFunction, x: Fraction) -> Fraction:
    """Exact value of the digit function at the Cantor point x.

    Reads the D digits of x's numerator over its denominator 3**D; more
    trailing zero digits would change neither f, g nor f + g.
    """
    digits = cantor_digits(x)
    depth = len(digits)
    weights = _weights(fn, depth)  # lowest bit first: the last digit
    num = sum(w for w, a in zip(reversed(weights), digits) if a)
    return Fraction(num, 3 ** ((depth + 1) // 2))


# the positions each function reads, as i % 2 for digit position i
_READS = {
    DigitFunction.ODD_DIGITS: (1,),
    DigitFunction.EVEN_DIGITS: (0,),
    DigitFunction.SUM: (0, 1),
}


@functools.lru_cache
def _weights(fn: DigitFunction, depth: int) -> tuple[int, ...]:
    """Per-digit value numerators of depth-``depth`` bit patterns.

    Lowest bit first: bit k holds the digit at position i = depth - k.
    The weights are at denominator 3**half, half = (depth+1)//2:
    3**(half - (i+1)//2) at the positions ``fn`` reads (odd i for f, even
    i for g, both for the sum) and 0 elsewhere.  Cached, since
    :func:`evaluate` asks for the same few (fn, depth) on every point.
    """
    half = (depth + 1) // 2
    reads = _READS[fn]
    return tuple(3 ** (half - (i + 1) // 2) if i % 2 in reads else 0
                 for i in range(depth, 0, -1))


def _check_depth(depth: int) -> None:
    if depth > ENUMERATION_DEPTH_LIMIT:
        raise EnumerationLimitExceeded(
            f"depth {depth} exceeds the enumeration limit "
            f"{ENUMERATION_DEPTH_LIMIT}"
        )


def closed_form_counts(n: int) -> tuple[int, int, int]:
    """Exact 9**-n mesh counts (graph f, graph g, graph f+g)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (8 ** n, 8 ** n, 4 ** n * (3 ** n + 1))


def brute_force_mesh_count(fn: DigitFunction, n: int) -> int:
    """Mesh count of the graph at scale 9**-n by depth-4n enumeration.

    Depth 4n resolves x to 3**-4n < 9**-n and the value to exactly
    9**-n.  Truncation alone misses the cells reached only by the
    all-ones digit tails (the supremum of each cylinder), so for every
    enumerated point the exact tail-completed companion is counted too:
    its x stays in the same half-open cell, while its value gains the
    full tail sum (half a cell for f and for g, exactly one cell for
    f+g, where it realizes the top cell of each column).  The distinct
    cells are counted among int64 keys sorted in place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = 4 * n
    _check_depth(depth)
    half = 2 * n
    weights = _weights(fn, depth)
    v_low, v_high = subset_sums(weights[:half]), subset_sums(weights[half:])
    # x falls in the 3**-2n cell numbered by its first 2n digits: the low
    # half of the digits adds less than one cell
    columns = np.array(cantor_numerators(half), dtype=np.int64)
    # value numerators at denominator 3**2n are exact integers; a cell is
    # the key column * span + value, injective for values up to span - 1
    span = v_low[-1] + v_high[-1] + 2
    size = len(columns) * len(v_low)
    keys = np.empty(2 * size if fn is DigitFunction.SUM else size, np.int64)
    np.add.outer(columns * span + v_high, v_low,
                 out=keys[:size].reshape(len(columns), len(v_low)))
    if fn is DigitFunction.SUM:
        # completion points: value + 3**-2n lands on the next cell edge
        np.add(keys[:size], 1, out=keys[size:])
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
