"""Stateless derived randomness.

Every stochastic quantity in the package is a pure function of a seed
and a structural key, so draws repeat across runs in any order.  One
sha256 digest of (seed, structural key) is read one of two ways: as an
index mod m for a scalar draw (:func:`stable_index`: field nodes and
tails), or as the key of a numpy Philox stream for array draws
(:func:`stable_generator`: pair means, and one stream per saturation
run, read in trial order).  :func:`stable_indices` draws the scalars
keyed (*prefix, 0), (*prefix, 1), ... (a witness layer's values): it
hashes the shared prefix once and equals :func:`stable_index` draw for
draw.
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


def stable_indices(modulus: int, count: int, *prefix) -> list[int]:
    """``[stable_index(modulus, *prefix, i) for i in range(count)]``.

    Key (*prefix, i) hashes ``repr(k) + "|"`` for each k in the prefix,
    then ``repr(i)``, the decimal digits of i; so the prefix goes into
    one sha256 state, and each draw copies it and adds i.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    head = hashlib.sha256("".join(repr(k) + "|" for k in prefix).encode())
    out = []
    for i in range(count):
        h = head.copy()
        h.update(b"%d" % i)
        out.append(int.from_bytes(h.digest(), "big") % modulus)
    return out


def stable_generator(*key) -> Generator:
    """A Philox stream keyed by the low 64 bits of the key's digest."""
    return Generator(Philox(key=stable_digest(*key) % (1 << 64)))
