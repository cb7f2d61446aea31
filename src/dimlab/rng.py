"""Stateless derived randomness.

Every stochastic quantity in the package is a pure function of a seed
and a structural key, so draws repeat across runs in any order.  One
sha256 digest of (seed, structural key) is read one of two ways: as a
scalar index mod m (:func:`stable_index`: field nodes and tails), or as
the key of a numpy Philox stream for array draws
(:func:`stable_generator`: pair means, one stream per witness sample and
one per saturation run, each read in a fixed order).
"""

from __future__ import annotations

import hashlib

# numpy loads numpy.random lazily; this loads it with the module
from numpy.random import Generator, Philox


def stable_digest(*key) -> int:
    payload = "|".join(repr(k) for k in key).encode()
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def stable_index(modulus: int, *key) -> int:
    """Uniform index in [0, modulus); bias ~2**-250, none for a power of 2."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return stable_digest(*key) % modulus


def stable_generator(*key) -> Generator:
    """A Philox stream keyed by the low 64 bits of the key's digest."""
    return Generator(Philox(key=stable_digest(*key) % (1 << 64)))
