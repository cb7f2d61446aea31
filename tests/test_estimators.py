import math
from fractions import Fraction

import pytest

from dimlab import estimators, spaces
from dimlab.estimators import (
    CoverFamily,
    DiscreteMeasure,
    ScaleSeries,
    box_dim_estimate,
    cell_count_series,
    discrete_energy,
    energy_dimension_profile,
    hausdorff_content_upper,
    localized_upper_box,
    packing_count_series,
)
from dimlab.spaces import build_net, harmonic_sequence, triadic_cantor, unit_interval

LOG2_3 = math.log(2) / math.log(3)


def measure_on_values(values, weights=None):
    values = [Fraction(v) for v in values]
    if weights is None:
        weights = [Fraction(1, len(values))] * len(values)
    return DiscreteMeasure(tuple(values), tuple(weights),
                           tuple((v,) for v in values))


class TestBoxDimEstimate:
    def test_exact_doubling_series(self):
        series = ScaleSeries(tuple((n, 2 ** n) for n in range(1, 11)))
        est = box_dim_estimate(series, "full-fit")
        assert est.slope == pytest.approx(1.0, abs=1e-12)
        assert est.fit_r2 == pytest.approx(1.0, abs=1e-12)

    def test_mesh_series_pure_power(self):
        series = ScaleSeries(tuple((n, 2 ** (3 * n)) for n in range(1, 7)),
                             log_base=9)
        est = box_dim_estimate(series, "full-fit")
        assert est.slope == pytest.approx(math.log(8) / math.log(9), abs=1e-12)

    def test_mesh_series_sum_counts(self):
        series = ScaleSeries(
            tuple((n, 4 ** n * (3 ** n + 1)) for n in range(4, 9)),
            log_base=9,
        )
        est = box_dim_estimate(series, "full-fit")
        assert est.slope == pytest.approx(0.5 + LOG2_3, abs=0.02)

    def test_liminf_limsup_use_trailing_steps(self):
        # slopes per step: 1, 1, 0, 2 -> trailing half is (0, 2)
        series = ScaleSeries(((1, 2), (2, 4), (3, 8), (4, 8), (5, 32)))
        assert box_dim_estimate(series, "liminf").slope == pytest.approx(0.0)
        assert box_dim_estimate(series, "limsup").slope == pytest.approx(2.0)

    def test_short_series_rejected(self):
        series = ScaleSeries(((1, 2), (2, 4)))
        with pytest.raises(ValueError):
            box_dim_estimate(series, "full-fit")

    def test_bad_variant_rejected(self):
        series = ScaleSeries(((1, 2), (2, 4), (3, 8)))
        with pytest.raises(ValueError):
            box_dim_estimate(series, "median")

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ScaleSeries(((2, 4), (1, 2)))
        with pytest.raises(ValueError):
            ScaleSeries(((1, 1), (2, 0)))


class TestSpaceSeries:
    def test_harmonic_liminf_near_half(self):
        series = packing_count_series(harmonic_sequence(), range(4, 13))
        est = box_dim_estimate(series, "liminf")
        assert abs(est.slope - 0.5) <= 0.05

    def test_cantor_strided_series(self):
        series = packing_count_series(triadic_cantor(), [4, 7, 10, 13])
        est = box_dim_estimate(series, "full-fit")
        assert abs(est.slope - LOG2_3) <= 0.05

    def test_interval_strided_series(self):
        series = packing_count_series(unit_interval(), [2, 5, 8, 11])
        for variant in ("liminf", "limsup", "full-fit"):
            est = box_dim_estimate(series, variant)
            assert abs(est.slope - 1.0) <= 0.05


class TestLocalizedUpperBox:
    def test_single_piece_equals_whole(self):
        net = build_net(triadic_cantor(), 11)
        cover = CoverFamily.from_pieces(net, [net.point_list()])
        res = localized_upper_box(net, cover, [4, 7, 10])
        series = packing_count_series(triadic_cantor(), [4, 7, 10],
                                      net_scale=lambda n: 11)
        whole = box_dim_estimate(series, "full-fit")
        assert res.value == pytest.approx(whole.slope, abs=1e-9)
        assert res.skipped_empty == 0

    def test_interval_halves(self):
        net = build_net(unit_interval(), 10)
        cover = CoverFamily.split_net(
            net, lambda p: 0 if p <= Fraction(1, 2) else 1)
        res = localized_upper_box(net, cover, [2, 4, 6, 8])
        assert abs(res.value - 1.0) <= 0.05

    def test_cantor_first_digit_split(self):
        net = build_net(triadic_cantor(), 13)
        cover = CoverFamily.split_net(net, lambda p: p.digits[0])
        res = localized_upper_box(net, cover, [4, 7, 10])
        assert abs(res.value - LOG2_3) <= 0.05

    def test_empty_pieces_skipped(self):
        net = build_net(unit_interval(), 4)
        cover = CoverFamily(
            pieces=(tuple(net.point_list()), ()),
            coords=(tuple(net.coord_rows()), ()),
            diameters=(Fraction(1), Fraction(0)),
        )
        res = localized_upper_box(net, cover, [1, 2, 3])
        assert res.skipped_empty == 1


class TestHausdorffContent:
    def test_single_unit_piece(self):
        net = build_net(unit_interval(), 2)
        cover = CoverFamily.from_pieces(net, [net.point_list()])
        assert hausdorff_content_upper(cover, 0.5) == pytest.approx(1.0)

    def test_triadic_cover_critical_exponent(self):
        # 2**m pieces of diameter 3**-m at s = log 2 / log 3: exactly 1
        for m in (2, 4, 6):
            diams = (Fraction(1, 3 ** m),) * (2 ** m)
            cover = CoverFamily(pieces=((),) * 2 ** m,
                                coords=((),) * 2 ** m, diameters=diams)
            assert hausdorff_content_upper(cover, LOG2_3) == pytest.approx(
                1.0, abs=1e-9)

    def test_supercritical_exponent_decays(self):
        values = []
        for m in (2, 4, 6, 8):
            diams = (Fraction(1, 3 ** m),) * (2 ** m)
            cover = CoverFamily(pieces=((),) * 2 ** m,
                                coords=((),) * 2 ** m, diameters=diams)
            values.append(hausdorff_content_upper(cover, 0.7))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_negative_exponent_rejected(self):
        cover = CoverFamily(pieces=((),), coords=((),),
                            diameters=(Fraction(1),))
        with pytest.raises(ValueError):
            hausdorff_content_upper(cover, -0.5)

    def test_recorded_diameter_is_exact_spread(self):
        net = build_net(triadic_cantor(), 2)
        cover = CoverFamily.split_net(net, lambda p: p.digits[0])
        for piece, diam in zip(cover.pieces, cover.diameters):
            vals = [p.value for p in piece]
            assert diam == max(vals) - min(vals)


class TestDiscreteEnergy:
    def test_two_atoms_distance_one(self):
        m = measure_on_values([0, 1])
        for s in (0.3, 1.0, 2.5):
            assert discrete_energy(m, s) == pytest.approx(0.5)

    def test_two_atoms_distance_half(self):
        m = measure_on_values([0, Fraction(1, 2)])
        assert discrete_energy(m, 1.0) == pytest.approx(1.0)

    def test_oracle_double_loop(self):
        vals = [Fraction(k, 16) for k in (0, 3, 7, 10, 15)]
        m = measure_on_values(vals)
        s = 0.8
        w = 1 / len(vals)
        expected = sum(
            w * w * abs(float(a - b)) ** -s
            for a in vals for b in vals if a != b
        )
        assert discrete_energy(m, s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("measure", [
        DiscreteMeasure(
            tuple(range(6)),
            tuple(Fraction(k, 21) for k in range(1, 7)),
            tuple((Fraction(k, 7), Fraction(k * k % 5, 9)) for k in range(6)),
        ),
        DiscreteMeasure.uniform_on_net(build_net(harmonic_sequence(), 9)),
        DiscreteMeasure.uniform_on_net(build_net(unit_interval(), 10)),
        # distinct atoms whose float coordinates coincide are skipped
        measure_on_values([0, Fraction(1, 3 ** 40),
                           Fraction(1, 3 ** 40) + Fraction(1, 10 ** 40), 1]),
    ], ids=["planar-unequal", "harmonic-513", "interval-1025", "coincident"])
    def test_matches_ordered_pair_fsum(self, measure):
        xs = [tuple(float(c) for c in row) for row in measure.coords]
        ws = [float(w) for w in measure.weights]
        s_list = [0.3, 0.75, 1.6]
        for s, got in zip(s_list, estimators._energy_grid(measure, s_list)):
            expected = math.fsum(
                wa * wb * d ** -s
                for a, wa in zip(xs, ws) for b, wb in zip(xs, ws)
                if (d := math.dist(a, b)) > 0
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_s_when_distances_below_one(self):
        m = measure_on_values([0, Fraction(1, 8), Fraction(1, 3),
                               Fraction(2, 3)])
        energies = [discrete_energy(m, s) for s in (0.2, 0.5, 0.9, 1.4, 2.0)]
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_coincident_atoms_rejected(self):
        with pytest.raises(ValueError):
            measure_on_values([0, 0])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((Fraction(0),), (Fraction(1, 2),),
                            ((Fraction(0),),))

    def test_bounded_vs_divergent_across_depths(self, cantor_measure_family):
        lo = [discrete_energy(m, 0.5) for m in cantor_measure_family]
        hi = [discrete_energy(m, 0.75) for m in cantor_measure_family]
        assert max(lo) < 7.0  # bounded well below any blowup
        # divergent: increments keep growing geometrically
        inc = [b - a for a, b in zip(hi, hi[1:])]
        assert all(b / a > 1.05 for a, b in zip(inc[-4:], inc[-3:]))


class TestEnergyProfile:
    def test_cantor_family_brackets_dimension(self, cantor_energy_profile):
        prof = cantor_energy_profile
        assert prof.flag == "ok"
        assert abs(prof.critical - LOG2_3) <= 0.05

    def test_interval_family_near_one(self):
        ms = [DiscreteMeasure.uniform_on_net(build_net(unit_interval(), m))
              for m in range(4, 13)]
        prof = energy_dimension_profile(ms, [0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert abs(prof.critical - 1.0) <= 0.1

    def test_single_atom_family_degenerate(self):
        ms = [measure_on_values([Fraction(1, 3)]) for _ in range(4)]
        prof = energy_dimension_profile(ms, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert prof.flag == "degenerate"
        assert prof.critical == 0.0

    def test_all_divergent_flag(self):
        ms = [DiscreteMeasure.uniform_on_net(build_net(harmonic_sequence(), m))
              for m in range(4, 13)]
        prof = energy_dimension_profile(ms, [0.3, 0.4, 0.5, 0.6, 0.7])
        assert prof.flag == "all_divergent"
        assert prof.critical == 0.3

    def test_input_validation(self):
        ms = [measure_on_values([0, 1])] * 3
        with pytest.raises(ValueError):
            energy_dimension_profile(ms, [0.2, 0.4, 0.6, 0.8, 1.0])
        with pytest.raises(ValueError):
            energy_dimension_profile(ms * 2, [0.2, 0.4])


class TestCellSeries:
    def test_interval_cells(self):
        series = cell_count_series(unit_interval(), [2, 3, 4])
        assert series.entries == ((2, 5), (3, 9), (4, 17))

    def test_product_fit_adds_cube_dimension(self):
        base = cell_count_series(triadic_cantor(), range(4, 9))
        base_fit = box_dim_estimate(base, "full-fit").slope
        for d in (1, 2):
            prod = cell_count_series(
                spaces.product_with_cube(triadic_cantor(), d), range(4, 9))
            fit = box_dim_estimate(prod, "full-fit").slope
            assert abs(fit - base_fit - d) <= 0.05
