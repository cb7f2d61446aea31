"""Stateless derived randomness.

Every stochastic quantity in the package is a pure function of a seed
and a structural key.  Draws are therefore reproducible across runs and
independent of evaluation order, which keeps trial loops trivially
parallelizable.  This module derives them through sha256: one digest
per scalar draw (:func:`stable_index`), or one digest keying a numpy
Philox generator (``energy._pair_mean``).  The saturation Monte Carlo
is the exception: ``witness.simulate_saturation_failure`` seeds one
``random.Random(f"{seed}:{t}")`` per trial.
"""

from __future__ import annotations

import hashlib


def stable_digest(*key) -> int:
    payload = "|".join(repr(k) for k in key).encode()
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def stable_index(modulus: int, *key) -> int:
    """Uniform index in [0, modulus); modulo bias is ~2**-250."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return stable_digest(*key) % modulus
