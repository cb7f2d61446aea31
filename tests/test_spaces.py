import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dimlab import spaces
from dimlab.spaces import (
    DigitVector,
    MixedRepresentationError,
    NetDepthError,
    ResolutionNet,
    UnsupportedSpaceError,
    build_net,
    cantor_net_depth,
    harmonic_sequence,
    product_net,
    triadic_cantor,
    unit_interval,
)

from oracles import product_rows


class TestBuildNet:
    def test_interval_n1_contains_required_points(self):
        net = build_net(unit_interval(), 1)
        pts = set(net.point_list())
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
        assert set(net.point_list()) == {Fraction(0)} | {
            Fraction(1, k) for k in range(1, 17)
        }

    def test_net_property_interval(self):
        # every dyadic sample of the ideal interval is within 2**-n of a point
        net = build_net(unit_interval(), 3)
        pts = net.point_list()
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
                assert set(coarse.point_list()) <= set(fine.point_list())

    def test_points_sorted(self):
        for space in (unit_interval(), triadic_cantor(), harmonic_sequence()):
            net = build_net(space, 4)
            rows = net.coord_rows()
            assert rows == sorted(rows)

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

    def test_triangle_inequality_exhaustive_small_net(self):
        net = build_net(triadic_cantor(), 3)  # 32 points
        vals = np.array([float(p) for p in net.point_list()])
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


class TestProductNet:
    def test_interval_times_line_grid(self):
        base = build_net(unit_interval(), 2)
        net = product_net(base, 1, 2)
        assert net.points is None  # factored whatever its size
        assert net.size() == 25
        z = [Fraction(k, 4) for k in range(5)]
        assert set(product_rows(*net.factors)) == {
            (x, y) for x in base.point_list() for y in z}

    def test_singleton_cube_column(self):
        base = build_net(unit_interval(), 1)
        net = product_net(base, 1, 1)
        column = {row for row in product_rows(*net.factors) if row[0] == 0}
        assert {z for _, z in column} == {Fraction(0), Fraction(1, 2),
                                          Fraction(1)}

    def test_cantor_product_cardinality(self):
        base = build_net(triadic_cantor(), 1)
        net = product_net(base, 2, 1)
        assert net.size() == base.size() * 9

    def test_too_coarse_base_rejected(self):
        base = build_net(unit_interval(), 1)
        with pytest.raises(NetDepthError):
            product_net(base, 1, 2)

    def test_coord_rows_beyond_limit_refused(self):
        net = product_net(build_net(unit_interval(), 7), 2, 7)
        assert net.size() > spaces.MAX_MATERIALIZED_POINTS
        with pytest.raises(UnsupportedSpaceError):
            net.coord_rows()

    def test_lazy_product_iteration_matches_size(self):
        base = build_net(unit_interval(), 6)
        net = product_net(base, 2, 6)  # 65 * 65**2 points, kept factored
        assert net.points is None
        assert net.size() == 65 ** 3

