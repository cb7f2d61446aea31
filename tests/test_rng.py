import hashlib
from fractions import Fraction

import pytest

from dimlab.rng import stable_index

MODULI = (1, 2, 7, 2 ** 22, 2 ** 64 + 13)

PREFIXES = (
    ("42", "witness", 3),
    ((("mc-1", "event", "zero"), 3), "witness", 7),
    (Fraction(-3, 7), 0.1, None, -5),
    ("a|b", "'q'", '"dq"', "|"),
    ("héllo ∑ 漢字", (1, ("x", (None, Fraction(1, 3)))), -1.5e-300),
    (None,),
)


def _prefix_hashed(modulus, count, *prefix):
    """Keys (*prefix, 0), ..., (*prefix, count - 1) hashed by hand: one
    sha256 state takes ``repr(k) + "|"`` for each k in the prefix, and each
    draw copies it and adds the decimal digits of i."""
    head = hashlib.sha256("".join(repr(k) + "|" for k in prefix).encode())
    out = []
    for i in range(count):
        h = head.copy()
        h.update(b"%d" % i)
        out.append(int.from_bytes(h.digest(), "big") % modulus)
    return out


# Field nodes, tails and the pinned per-index witness draws of
# tests/oracles.py depend on this key encoding staying fixed.
@pytest.mark.parametrize("modulus", MODULI)
@pytest.mark.parametrize("count", (0, 1, 1000))
@pytest.mark.parametrize("prefix", PREFIXES, ids=range(len(PREFIXES)))
def test_matches_stable_index(modulus, count, prefix):
    want = [stable_index(modulus, *prefix, i) for i in range(count)]
    assert _prefix_hashed(modulus, count, *prefix) == want


@pytest.mark.parametrize("modulus", MODULI)
def test_empty_prefix_hashes_no_separator(modulus):
    # key (i,) hashes repr(i) alone, with no leading "|"
    want = [stable_index(modulus, i) for i in range(50)]
    assert _prefix_hashed(modulus, 50) == want


@pytest.mark.parametrize("modulus", (0, -1))
@pytest.mark.parametrize("count", (0, 3))
def test_nonpositive_modulus_is_refused(modulus, count):
    with pytest.raises(ValueError, match="modulus"):
        stable_index(modulus, "seed", count)
