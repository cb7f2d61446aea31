import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dimlab import spaces
from dimlab.estimators import cell_count_series
from dimlab.spaces import (
    DigitVector,
    MixedRepresentationError,
    NetDepthError,
    ResolutionNet,
    UnsupportedSpaceError,
    build_net,
    cantor_net_depth,
    harmonic_sequence,
    product_with_cube,
    triadic_cantor,
    unit_interval,
)

from conftest import BUILT_NET_SCALES, NET_SPACES, traced_peak_mib
from oracles import cantor_digits_by_digit, net_points, product_rows


class TestBuildNet:
    def test_interval_n1_contains_required_points(self):
        net = build_net(unit_interval(), 1)
        pts = set(net.points)
        assert {Fraction(0), Fraction(1, 2), Fraction(1)} <= pts

    def test_cantor_n2_depth_and_size(self):
        net = build_net(triadic_cantor(), 2)
        depth = cantor_net_depth(2)
        assert depth >= 2
        assert net.size() >= 4
        assert net.size() == 2 ** depth
        assert all(len(spaces.cantor_digits(p)) <= depth for p in net.points)

    def test_harmonic_n4_truncation(self):
        # smallest K with 1/K <= 1/16 is K = 16
        K = 1
        while Fraction(1, K) > Fraction(1, 16):
            K += 1
        assert K == 16
        net = build_net(harmonic_sequence(), 4)
        assert set(net.points) == {Fraction(0)} | {
            Fraction(1, k) for k in range(1, 17)
        }

    def test_net_property_interval(self):
        # every dyadic sample of the ideal interval is within 2**-n of a point
        net = build_net(unit_interval(), 3)
        pts = net.points
        for i in range(257):
            x = Fraction(i, 256)
            assert min(abs(x - p) for p in pts) <= Fraction(1, 8)

    def test_cantor_depth_rule(self):
        for n in range(0, 12):
            depth = cantor_net_depth(n)
            # two digits of margin: even depth-2 already resolves 2**-n
            assert Fraction(1, 3 ** (depth - 2)) <= Fraction(1, 2 ** n)
            if n >= 1:
                # and depth-2 is minimal with that property
                assert Fraction(1, 3 ** (depth - 3)) > Fraction(1, 2 ** n)

    def test_refinement_monotone(self):
        for space in (unit_interval(), triadic_cantor(), harmonic_sequence()):
            for n in (1, 3, 5):
                coarse = build_net(space, n)
                fine = build_net(space, n + 1)
                assert set(coarse.points) <= set(fine.points)

    def test_points_sorted(self):
        for space in (unit_interval(), triadic_cantor(), harmonic_sequence()):
            net = build_net(space, 4)
            rows = net.coord_rows()
            assert rows == sorted(rows)

    @pytest.mark.parametrize("space", NET_SPACES, ids=lambda sp: sp.kind)
    def test_points_match_fraction_oracle(self, space):
        # iteration, every index (negative ones too) and a slice read the
        # same exact Fractions, in the same order, as the tuple a net held;
        # a net built twice is one value, equal and hashed alike
        for n in range(BUILT_NET_SCALES[space.kind] + 1):
            want = net_points(space, n)
            net = build_net(space, n)
            assert net == build_net(space, n)
            assert hash(net) == hash(build_net(space, n))
            pts = net.points
            assert len(pts) == len(want)
            assert tuple(pts) == want
            assert all(type(p) is Fraction for p in pts)
            assert ([pts[i] for i in range(-len(want), len(want))]
                    == list(want + want))
            assert pts[1::3] == want[1::3]
            with pytest.raises(IndexError):
                pts[len(want)]

    @pytest.mark.parametrize("space", [unit_interval(), harmonic_sequence()],
                             ids=lambda sp: sp.kind)
    def test_largest_net_allocates_no_point(self, space):
        # n = 20 is the largest accepted scale: 2**20 + 1 points, and no
        # Fraction is made for any of them
        nets = []
        peak = traced_peak_mib(lambda: nets.append(build_net(space, 20)))
        assert nets[0].size() == 2 ** 20 + 1
        assert peak < 1.0

    @pytest.mark.parametrize("space, n, size", [
        (unit_interval(), 21, 2 ** 21 + 1),
        (harmonic_sequence(), 24, 2 ** 24 + 1),
        (triadic_cantor(), 29, 2 ** 21),
    ], ids=lambda v: getattr(v, "kind", None))
    def test_oversized_net_refused_before_allocation(self, space, n, size):
        with pytest.raises(NetDepthError) as err:
            build_net(space, n)
        assert str(size) in str(err.value)
        assert str(spaces.MAX_MATERIALIZED_POINTS) in str(err.value)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            build_net(unit_interval(), -1)

    def test_unknown_kind_rejected(self):
        for kind in ("parabola", "finite_point_cloud"):
            with pytest.raises(UnsupportedSpaceError):
                spaces.SpaceDescriptor(kind)


class TestMetric:
    def test_mixed_representations_rejected(self):
        for point in (DigitVector((1, 0)), 0.5):
            net = ResolutionNet(triadic_cantor(), 1, (point,))
            with pytest.raises(MixedRepresentationError):
                net.coord_rows()
        # the message names the first point that is not exact
        net = ResolutionNet(unit_interval(), 1,
                            (0, Fraction(1, 4), 0.5, DigitVector((1,))))
        with pytest.raises(MixedRepresentationError, match="0.5$"):
            net.coord_rows()

    def test_exact_points_kept_as_given(self):
        # ints and Fractions go into the rows unconverted, one per row
        pts = (0, Fraction(1, 2), 1)
        rows = ResolutionNet(unit_interval(), 1, pts).coord_rows()
        assert rows == [(0,), (Fraction(1, 2),), (1,)]
        assert [type(x) for (x,) in rows] == [int, Fraction, int]

    def test_triangle_inequality_exhaustive_small_net(self):
        net = build_net(triadic_cantor(), 3)  # 32 points
        vals = np.array([float(p) for p in net.points])
        d = np.abs(vals[:, None] - vals[None, :])
        assert np.all(d[:, :, None] <= d[:, None, :] + d[None, :, :] + 1e-15)


class TestDigitVector:
    def test_value_example(self):
        assert DigitVector((1, 0)).value == Fraction(1, 3)
        assert DigitVector((0, 1)).value == Fraction(1, 9)

    def test_values_in_unit_interval(self):
        for depth in (1, 4, 9):
            top = DigitVector((1,) * depth).value
            assert 0 <= top <= Fraction(1, 2)

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=24))
    def test_roundtrip(self, digits):
        dv = DigitVector(tuple(digits))
        back = spaces.cantor_digits(dv.value)
        assert back + (0,) * (len(digits) - len(back)) == dv.digits

    def test_integer_codec(self):
        # entry i of the numerator table is the point whose digits are the
        # bits of i, highest first; its digits read back without trailing 0s
        for depth in range(9):
            for i, m in enumerate(spaces.cantor_numerators(depth)):
                digits = tuple((i >> (depth - 1 - j)) & 1
                               for j in range(depth))
                x = Fraction(m, 3 ** depth)
                if depth:
                    assert x == DigitVector(digits).value
                got = spaces.cantor_digits(x)
                assert got + (0,) * (depth - len(got)) == digits
                assert not got or got[-1] == 1

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(2, 9),
                                   Fraction(1), Fraction(-1, 3),
                                   Fraction(4, 3)])
    def test_cantor_digits_rejects_points_off_the_set(self, x):
        with pytest.raises(ValueError):
            spaces.cantor_digits(x)

    def test_bad_digits_rejected(self):
        with pytest.raises(ValueError):
            DigitVector((0, 2))
        with pytest.raises(ValueError):
            DigitVector(())

    @pytest.mark.parametrize("digits, message", [
        ((), "DigitVector needs at least one digit"),
        ((2,), "digits must be 0 or 1"),
        ((0, -1), "digits must be 0 or 1"),
    ])
    def test_refusals_name_the_fault(self, digits, message):
        with pytest.raises(ValueError) as err:
            DigitVector(digits)
        assert str(err.value) == message

    def test_value_of_every_digit_string_to_length_10(self):
        for length in range(1, 11):
            for digits in itertools.product((0, 1), repeat=length):
                assert DigitVector(digits).value == Fraction(
                    int("".join(map(str, digits)), 3), 3 ** length)

    def test_only_spaces_names_digit_vector(self):
        # the digit codec stays behind spaces: every other module keeps a
        # Cantor point, or a cylinder's least point, as its exact value
        src = Path(__file__).resolve().parents[1] / "src" / "dimlab"
        naming = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if "DigitVector" in names and path.name != "spaces.py":
                naming.append(path.name)
        assert naming == []


def _outcome(fn, x):
    """fn(x), or the message of the ValueError it raises."""
    try:
        return fn(x)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _base3(digits) -> int:
    return int("".join(map(str, digits)), 3)


class TestChunkedCantorDigits:
    # cantor_digits reads 8 base-3 digits at a time; the digit-at-a-time
    # loop is the reference, refusals and their messages included

    @pytest.mark.parametrize("depth", range(13))
    def test_every_cantor_point(self, depth):
        for m in spaces.cantor_numerators(depth):
            x = Fraction(m, 3 ** depth)
            assert spaces.cantor_digits(x) == cantor_digits_by_digit(x)

    def test_random_points_to_depth_60(self):
        rnd = random.Random(60)
        for _ in range(2000):
            depth = rnd.randint(1, 60)
            x = Fraction(_base3(rnd.choices((0, 1), k=depth)), 3 ** depth)
            assert spaces.cantor_digits(x) == cantor_digits_by_digit(x)
            # a random numerator over 3**depth is mostly off the set
            y = Fraction(rnd.randrange(3 ** depth), 3 ** depth)
            assert (_outcome(spaces.cantor_digits, y)
                    == _outcome(cantor_digits_by_digit, y))

    @pytest.mark.parametrize("depth", [1, 7, 8, 9, 15, 16, 17, 24, 25, 60])
    def test_a_digit_2_in_any_chunk_refused(self, depth):
        for pos in range(depth):
            digits = [1] * depth
            digits[pos] = 2
            x = Fraction(_base3(digits), 3 ** depth)
            assert _outcome(spaces.cantor_digits, x) == (
                f"ValueError: {x} is not a point of the Cantor set")
            assert (_outcome(spaces.cantor_digits, x)
                    == _outcome(cantor_digits_by_digit, x))

    @pytest.mark.parametrize("x", [
        Fraction(1, 2), Fraction(1, 6), Fraction(1, 4), Fraction(1, 8),
        Fraction(1, 2 * 3 ** 9), Fraction(1, 5 * 3 ** 17),
        Fraction(1, 3 ** 9 + 1), Fraction(1, 3 ** 9 - 1), Fraction(1, 2 ** 15),
        Fraction(1, 2 ** 16), Fraction(1, 3 ** 60 + 2),
    ])
    def test_denominator_not_a_power_of_3_refused(self, x):
        assert _outcome(spaces.cantor_digits, x) == (
            f"ValueError: {x} is not a point of the Cantor set")
        assert (_outcome(spaces.cantor_digits, x)
                == _outcome(cantor_digits_by_digit, x))

    @pytest.mark.parametrize("x", [
        Fraction(1), Fraction(2), Fraction(4, 3), Fraction(3 ** 9 + 1, 3 ** 9),
        Fraction(2 * 3 ** 20 + 1, 3 ** 20), Fraction(-1, 3),
        Fraction(-1, 3 ** 10), Fraction(-1),
    ])
    def test_value_outside_the_unit_interval_refused(self, x):
        assert _outcome(spaces.cantor_digits, x) == (
            f"ValueError: {x} is not a point of the Cantor set")
        assert (_outcome(spaces.cantor_digits, x)
                == _outcome(cantor_digits_by_digit, x))

    def test_zero_and_ints(self):
        assert spaces.cantor_digits(Fraction(0)) == ()
        assert spaces.cantor_digits(0) == ()
        assert _outcome(spaces.cantor_digits, 1) == _outcome(
            cantor_digits_by_digit, 1)


class TestProductNet:
    # a product with a cube has no net of its own: it is counted from its
    # base net, and its rows are expanded here only, as an oracle

    def test_interval_times_line_grid(self):
        base = build_net(unit_interval(), 2)
        z = [Fraction(k, 4) for k in range(5)]
        rows = product_rows(base, z, 1)
        assert set(rows) == {(x, y) for x in base.points for y in z}
        # each grid point of [0, 1]**2 at 1/4 lies in a cell of its own
        series = cell_count_series(product_with_cube(unit_interval(), 1), [2])
        assert series.entries == ((2, 25),)

    def test_cantor_product_cardinality(self):
        base_cells = {p // Fraction(1, 2)
                      for p in build_net(triadic_cantor(), 1).points}
        series = cell_count_series(product_with_cube(triadic_cantor(), 2),
                                   [1])
        assert series.entries == ((1, len(base_cells) * 3 ** 2),)
