import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dimlab import estimators, spaces
from dimlab.estimators import (
    DiscreteMeasure,
    ScaleSeries,
    box_dim_estimate,
    cell_count_series,
    discrete_energy,
    energy_dimension_profile,
    packing_count_series,
)
from dimlab.energy import (
    RandomFieldSample,
    build_nested_family,
    graph_measure,
    natural_leaf_measure,
)
from dimlab.rng import stable_generator
from dimlab.spaces import build_net, harmonic_sequence, triadic_cantor, unit_interval

import oracles
from conftest import (NET_SPACES, built_nets, cantor_endpoint_measure,
                      traced_peak_mib)

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


def _ordered_pair_fsum(measure, s):
    xs = [tuple(float(c) for c in row) for row in measure.coords]
    ws = [float(w) for w in measure.weights]
    terms = []
    for i, (a, wa) in enumerate(zip(xs, ws)):
        for j, (b, wb) in enumerate(zip(xs, ws)):
            if i != j:
                if (d := math.dist(a, b)) == 0:
                    raise ValueError("distinct atoms at float distance 0")
                terms.append(wa * wb * d ** -s)
    return math.fsum(terms)


# a float-coincident measure: 1/3**40 and 1/3**40 + 1/10**40 are distinct
# atoms at float distance 0
_COINCIDENT = measure_on_values([0, Fraction(1, 3 ** 40),
                                 Fraction(1, 3 ** 40) + Fraction(1, 10 ** 40),
                                 1])


def _energies_or_refusal(energies, measure, s_list):
    try:
        return energies(measure, s_list)
    except ValueError as refusal:
        return str(refusal)


def _lattice_unequal():
    # 40 of the 101 points j / 100, weights proportional to 1 .. 40
    picks = sorted(random.Random(3).sample(range(101), 40))
    total = sum(range(1, 41))
    return measure_on_values([Fraction(j, 100) for j in picks],
                             [Fraction(i, total) for i in range(1, 41)])


def _heavy_interval():
    # weight numerators near 2**20: sum(N_i**2) is about 2**44
    nums = [2 ** 20 + i for i in range(17)]
    return measure_on_values([Fraction(j, 16) for j in range(17)],
                             [Fraction(u, sum(nums)) for u in nums])


def _far_outlier():
    # 1/j for j < 100 and 1/625 carrying half the mass: the q span 624
    # passes the span gate (16 * 624 <= 100**2), but the heavy outlier's
    # b_i puts the transform's error bound past 1e-12 of the pair sum
    return measure_on_values([Fraction(1, j) for j in range(1, 100)]
                             + [Fraction(1, 625)],
                             [Fraction(1, 198)] * 99 + [Fraction(1, 2)])


def _harmonic(n):
    return DiscreteMeasure.uniform_on_net(build_net(harmonic_sequence(), n))


def _sample_graph(d):
    # 32 atoms of a drift-free sample graph over a nested family, with a
    # d-dimensional field: d + 1 coordinates
    family = build_nested_family((2, 4, 4))
    return graph_measure(natural_leaf_measure(family),
                         RandomFieldSample(family, seed=2, d=d))


def _shuffled(measure, seed):
    # the same atoms and weights in another order
    order = list(range(len(measure.weights)))
    random.Random(seed).shuffle(order)
    return DiscreteMeasure(*(tuple(seq[i] for i in order) for seq in (
        measure.points, measure.weights, measure.coords)))


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
        # distinct atoms whose float coordinates coincide: the oracle has
        # no energy for them, and the kernel must refuse them as well
        _COINCIDENT,
        cantor_endpoint_measure(10),
        _lattice_unequal(),
        _heavy_interval(),
        _sample_graph(8),
    ], ids=["planar-unequal", "harmonic-513", "interval-1025", "coincident",
            "cantor-1024", "lattice-unequal", "heavy-weights",
            "graph-9coord-32"])
    def test_matches_ordered_pair_fsum(self, measure):
        s_list = [0.3, 0.75, 1.6]
        try:
            expected = [_ordered_pair_fsum(measure, s) for s in s_list]
        except ValueError:
            with pytest.raises(ValueError, match="float distance 0"):
                estimators._energy_grid(measure, s_list)
            return
        assert estimators._energy_grid(measure, s_list) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("height", [1, 7, 512])
    @pytest.mark.parametrize("measure", [
        DiscreteMeasure.uniform_on_net(build_net(harmonic_sequence(), 7)),
        _sample_graph(1),
        _sample_graph(2),
    ], ids=["harmonic-129", "graph-2d-32", "graph-3coord-32"])
    def test_pairwise_block_height(self, monkeypatch, measure, height):
        # the block height is _PAIR_BLOCK_ELEMENTS // k, capped at 512;
        # the oracle reads the patched height too
        monkeypatch.setattr(estimators, "_PAIR_BLOCK_ELEMENTS",
                            height * len(measure.weights))
        s_list = [0.3, 0.75, 1.6]
        got = estimators._pairwise_energies(measure, s_list)
        assert got == pytest.approx(
            [_ordered_pair_fsum(measure, s) for s in s_list], rel=1e-12)
        assert got == oracles.pairwise_energies(measure, s_list)

    def test_monotone_in_s_when_distances_below_one(self):
        m = measure_on_values([0, Fraction(1, 8), Fraction(1, 3),
                               Fraction(2, 3)])
        energies = [discrete_energy(m, s) for s in (0.2, 0.5, 0.9, 1.4, 2.0)]
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_coincident_atoms_rejected(self):
        with pytest.raises(ValueError):
            measure_on_values([0, 0])

    @pytest.mark.parametrize("measure", [
        _COINCIDENT,
        DiscreteMeasure(tuple(range(3)), (Fraction(1, 3),) * 3, (
            (Fraction(1, 3), Fraction(0)),
            (Fraction(1, 3) + Fraction(1, 10 ** 40), Fraction(0)),
            (Fraction(0), Fraction(1)))),
    ], ids=["coincident", "planar-coincident"])
    def test_float_coincident_atoms_refused(self, measure):
        # distinct atoms closer than float resolution: neither lattice
        # path takes the measure, and the pairwise sum raises rather than
        # drop their pair and return a far-too-small energy
        s_list = [0.3, 0.75, 1.6]
        assert estimators._lattice_energies(measure, s_list) is None
        assert estimators._reciprocal_energies(measure, s_list) is None
        for energies in (estimators._energy_grid,
                         estimators._pairwise_energies):
            with pytest.raises(ValueError, match="float distance 0"):
                energies(measure, s_list)
        with pytest.raises(ValueError, match="float distance 0"):
            discrete_energy(measure, 1.0)

    def test_reciprocal_path_serves_float_coincident_atoms(self):
        # the 64 atoms 1/(N + j) with N = 10**30 coincide in floats, but
        # their reciprocals are a lattice: the reciprocal path sums them,
        # and only the pairwise sum refuses them.  At s = 1 the exact
        # energy is the sum over i != j of (N + i)(N + j) / |i - j| / 64**2
        big = 10 ** 30
        measure = measure_on_values([Fraction(1, big + j) for j in range(64)])
        exact = sum(Fraction((big + i) * (big + j), abs(i - j))
                    for i in range(64) for j in range(64) if i != j) / 64 ** 2
        assert estimators._energy_grid(measure, [1.0]) == pytest.approx(
            [float(exact)], rel=1e-12)
        with pytest.raises(ValueError, match="float distance 0"):
            estimators._pairwise_energies(measure, [1.0])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((Fraction(0),), (Fraction(1, 2),),
                            ((Fraction(0),),))

    @pytest.mark.parametrize("weights, message", [
        ((Fraction(1, 3), Fraction(1, 2)), "sum"),
        ((Fraction(3, 2), Fraction(-1, 2)), "positive"),
        ((Fraction(1), Fraction(0)), "positive"),
    ])
    def test_weights_checked_over_common_denominator(self, weights, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(tuple(range(len(weights))), weights,
                            tuple((Fraction(i),) for i in range(len(weights))))

    @pytest.mark.parametrize("coords, distinct", [
        (((Fraction(1, 3),), (Fraction(2, 6),)), False),
        (((Fraction(0), Fraction(1, 2)), (0, Fraction(1, 2))), False),
        (((Fraction(1, 3 ** 40),),
          (Fraction(1, 3 ** 40) + Fraction(1, 10 ** 40),)), True),
        (((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 2))),
         True),
    ], ids=["equal-values", "int-and-fraction", "near", "swapped"])
    def test_atoms_checked_distinct_by_value(self, coords, distinct):
        # atoms are compared exactly by value, whatever their type
        half = (Fraction(1, 2),) * 2
        if distinct:
            assert DiscreteMeasure((0, 1), half, coords).coords == coords
        else:
            with pytest.raises(ValueError, match="atoms must be distinct"):
                DiscreteMeasure((0, 1), half, coords)

    @pytest.mark.parametrize("coords", [
        ((Fraction(0),), (Fraction(1), Fraction(5))),
        ((Fraction(0), Fraction(5)), (Fraction(1),)),
    ], ids=["longer-last", "shorter-last"])
    def test_ragged_rows_refused(self, coords):
        # rows of different lengths are not atoms of one space: refused
        # before the columns are read, which would drop the longer rows'
        # tails
        half = (Fraction(1, 2),) * 2
        with pytest.raises(ValueError, match="^coordinate rows must all "
                                             "have the same length$"):
            DiscreteMeasure((0, 1), half, coords)

    @pytest.mark.parametrize("points, weights, coords", [
        ((0, 1), (Fraction(1, 3),) * 3, ((Fraction(0),), (Fraction(1),))),
        ((0, 1, 2), (Fraction(1, 2),) * 2,
         ((Fraction(0),), (Fraction(1),), (Fraction(2),))),
        ((Fraction(0),), (Fraction(1, 2),) * 2,
         ((Fraction(0),), (Fraction(1),))),
    ], ids=["extra-weight", "missing-weight", "extra-row"])
    def test_mismatched_lengths_refused(self, points, weights, coords):
        # the first two failed later inside numpy; the third built a
        # measure whose graph_measure pushforward kept one atom
        with pytest.raises(ValueError, match="one weight and one coordinate "
                                             "row per point"):
            DiscreteMeasure(points, weights, coords)

    @pytest.mark.parametrize("space, path", [
        (unit_interval(), "_lattice_energies"),
        (harmonic_sequence(), "_reciprocal_energies"),
    ], ids=["interval", "harmonic"])
    def test_atoms_read_once(self, space, path):
        # construction reads each atom's as_integer_ratio() once, and the
        # lattice and reciprocal paths read the measure's stored pairs:
        # the energies take no further read, and keep their bits
        calls = []

        class Counted(Fraction):
            def as_integer_ratio(self):
                calls.append(1)
                return Fraction.as_integer_ratio(self)

        plain = DiscreteMeasure.uniform_on_net(build_net(space, 8))
        pts = tuple(Counted(p) for p in plain.points)
        measure = DiscreteMeasure(pts, plain.weights,
                                  tuple((p,) for p in pts))
        assert len(calls) == len(pts)
        calls.clear()
        s_list = [0.3, 0.75, 1.6]
        got = estimators._energy_grid(measure, s_list)
        assert calls == []
        assert got == estimators._energy_grid(plain, s_list)
        assert getattr(estimators, path)(measure, s_list) == got

    @pytest.mark.parametrize("weights, message", [
        ((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 7)),
         "weights must sum to exactly 1"),
        ((Fraction(1, 2), Fraction(1, 2) - Fraction(1, 2 ** 60)),
         "weights must sum to exactly 1"),
        ((Fraction(1, 3),) * 2, "weights must sum to exactly 1"),
        ((Fraction(-1, 2),) * 2, "weights must sum to exactly 1"),
        ((Fraction(1, 2), Fraction(0), Fraction(1, 2)),
         "weights must be positive"),
        ((Fraction(1, 6), Fraction(0), Fraction(1, 3), Fraction(1, 2)),
         "weights must be positive"),
        ((0, 1), "weights must be positive"),
    ], ids=["mixed-denominators", "one-less-2**-60", "one-object-repeated",
            "negative-uniform", "zero-inside", "zero-mixed", "int-zero"])
    def test_weight_refusals(self, weights, message):
        coords = tuple((Fraction(i),) for i in range(len(weights)))
        with pytest.raises(ValueError) as err:
            DiscreteMeasure(tuple(range(len(weights))), weights, coords)
        assert str(err.value) == message

    @pytest.mark.parametrize("weights", [
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 2 ** 60),
         Fraction(1, 2 ** 60)),
        (Fraction(1, 3),) * 3,
        tuple(Fraction(1, 3) for _ in range(3)),
        (1,),
    ], ids=["mixed-denominators", "tiny-weight", "one-object-repeated",
            "equal-objects", "int"])
    def test_weights_summing_to_one_accepted(self, weights):
        coords = tuple((Fraction(i),) for i in range(len(weights)))
        measure = DiscreteMeasure(tuple(range(len(weights))), weights, coords)
        assert measure.weights == weights

    @pytest.mark.parametrize("a, b", [(1, Fraction(1)), (1, 1.0),
                                      (Fraction(1), 1.0),
                                      (Fraction(1, 2), 0.5)])
    def test_int_fraction_and_float_atoms_coincide(self, a, b):
        half = (Fraction(1, 2),) * 2
        for coords in (((a,), (b,)), ((0, a), (0, b))):
            with pytest.raises(ValueError, match="atoms must be distinct"):
                DiscreteMeasure((0, 1), half, coords)

    def test_bounded_vs_divergent_across_depths(self, cantor_measure_family):
        lo = [discrete_energy(m, 0.5) for m in cantor_measure_family]
        hi = [discrete_energy(m, 0.75) for m in cantor_measure_family]
        assert max(lo) < 7.0  # bounded well below any blowup
        # divergent: increments keep growing geometrically
        inc = [b - a for a, b in zip(hi, hi[1:])]
        assert all(b / a > 1.05 for a, b in zip(inc[-4:], inc[-3:]))


class TestLatticeEnergies:
    S_LIST = [0.3, 0.75, 1.6]

    @pytest.mark.parametrize("measure", [
        DiscreteMeasure.uniform_on_net(build_net(unit_interval(), 10)),
        cantor_endpoint_measure(10),
        _lattice_unequal(),
    ], ids=["interval-1025", "cantor-1024", "lattice-unequal"])
    def test_matches_pairwise(self, measure):
        got = estimators._lattice_energies(measure, self.S_LIST)
        assert got is not None
        assert got == estimators._energy_grid(measure, self.S_LIST)
        pairwise = estimators._pairwise_energies(measure, self.S_LIST)
        assert got == pytest.approx(pairwise, rel=1e-12)

    def test_natural_leaf_measure(self, monkeypatch):
        # 8 atoms over a span of 271 steps of 3**-6: only a looser gate
        # than the default takes the lattice path here
        measure = natural_leaf_measure(build_nested_family((2, 2, 2)))
        assert estimators._lattice_energies(measure, self.S_LIST) is None
        monkeypatch.setattr(estimators, "LATTICE_SPAN_DIVISOR",
                            Fraction(1, 8))
        got = estimators._lattice_energies(measure, self.S_LIST)
        pairwise = estimators._pairwise_energies(measure, self.S_LIST)
        assert got == pytest.approx(pairwise, rel=1e-12)
        assert got == pytest.approx(
            [_ordered_pair_fsum(measure, s) for s in self.S_LIST], rel=1e-12)

    @pytest.mark.parametrize("measure", [
        DiscreteMeasure(
            tuple(range(6)),
            tuple(Fraction(k, 21) for k in range(1, 7)),
            tuple((Fraction(k, 7), Fraction(k * k % 5, 9)) for k in range(6)),
        ),
        # the pairwise sum refuses it, and so must _energy_grid
        _COINCIDENT,
        _heavy_interval(),
        # {0} u {1/2**j : j <= 9}: span 512 steps of 2**-9 on the atoms'
        # lattice and 511 on their reciprocals', for 11 atoms
        measure_on_values([0] + [Fraction(1, 2 ** j) for j in range(10)]),
        _far_outlier(),
    ], ids=["planar-unequal", "coincident", "heavy-weights",
            "dyadic-reciprocals-11", "far-outlier"])
    def test_falls_back_to_pairwise(self, measure):
        assert estimators._lattice_energies(measure, self.S_LIST) is None
        assert estimators._reciprocal_energies(measure, self.S_LIST) is None
        assert (_energies_or_refusal(estimators._energy_grid, measure,
                                     self.S_LIST)
                == _energies_or_refusal(estimators._pairwise_energies,
                                        measure, self.S_LIST))

    def test_weight_gate_alone_refuses_heavy_weights(self):
        # the same atoms with light weights pass the span gate
        heavy = _heavy_interval()
        light = DiscreteMeasure(heavy.points, (Fraction(1, 17),) * 17,
                                heavy.coords)
        assert estimators._lattice_energies(light, self.S_LIST) is not None
        assert (sum(w.numerator ** 2 for w in heavy.weights)
                > estimators.MAX_LATTICE_SQUARED_MASS)

    @pytest.mark.parametrize("n, length", [
        (1, 1), (5, 6), (7, 8), (13, 16), (531441, 531441),
        (1062881, 1062882), (1048577, 1062882),
    ])
    def test_fft_length(self, n, length):
        assert estimators._fft_length(n) == length

    def test_fft_length_takes_any_integer(self):
        assert estimators._fft_length(np.int64(5)) == 6
        assert estimators._fft_length(np.int32(13)) == 16
        with pytest.raises(TypeError):
            estimators._fft_length(5.0)

    @pytest.mark.parametrize("measure", [
        DiscreteMeasure.uniform_on_net(build_net(unit_interval(), 10)),
        cantor_endpoint_measure(10),
    ], ids=["interval-1025", "cantor-1024"])
    def test_unsorted_coordinates(self, measure):
        # the span gate takes the extreme positions, not the first and
        # last: the shuffled copy has the same histogram and energies
        got = estimators._lattice_energies(measure, self.S_LIST)
        assert got is not None
        for seed in range(3):
            assert (estimators._lattice_energies(_shuffled(measure, seed),
                                                 self.S_LIST) == got)

    PROFILE_GRIDS = {
        "interval": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        "harmonic": (0.3, 0.4, 0.5, 0.6, 0.7),
        "cantor": (0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80),
    }

    @pytest.mark.parametrize("space", ["interval", "harmonic", "cantor"])
    def test_profiles_match_pinned(self, space):
        pinned_path = (Path(__file__).resolve().parents[1] / "perfbench"
                       / "pinned.json")
        pin = json.loads(pinned_path.read_text())["profile"][space]
        if space == "cantor":
            measures = [cantor_endpoint_measure(m) for m in range(4, 13)]
        else:
            descr = (unit_interval() if space == "interval"
                     else harmonic_sequence())
            measures = [DiscreteMeasure.uniform_on_net(build_net(descr, m))
                        for m in range(4, 13)]
        prof = energy_dimension_profile(measures, self.PROFILE_GRIDS[space])
        assert list(prof.verdicts) == pin["verdicts"]
        assert prof.critical == pin["critical"]


class TestReciprocalEnergies:
    S_LIST = [0.3, 0.75, 1.6]
    # every exponent of the three profile grids, and 1.6
    GRID = sorted({*TestLatticeEnergies.PROFILE_GRIDS["interval"],
                   *TestLatticeEnergies.PROFILE_GRIDS["harmonic"],
                   *TestLatticeEnergies.PROFILE_GRIDS["cantor"], 1.6})

    @pytest.mark.parametrize("measure", [
        _harmonic(9),
        measure_on_values([0] + [Fraction(1, k) for k in range(1, 201)],
                          [Fraction(k, 201 * 101) for k in range(1, 202)]),
        measure_on_values([0] + [Fraction(1, k) for k in range(1, 61)]
                          + [Fraction(-1, k) for k in range(1, 201)]),
        measure_on_values([0] + [Fraction(-1, k) for k in range(1, 201)]),
        measure_on_values([Fraction(1, k) for k in range(1, 201)]),
        # L = 2: the reduced atoms 2/k have numerators 1 and 2
        measure_on_values([0] + [Fraction(2, k) for k in range(1, 201)]),
    ], ids=["harmonic-513", "unequal-weights", "both-signs",
            "negative-atoms", "no-zero-atom", "numerator-2"])
    def test_takes_the_reciprocal_path(self, measure):
        assert estimators._lattice_energies(measure, self.S_LIST) is None
        got = estimators._reciprocal_energies(measure, self.S_LIST)
        assert got is not None
        assert got == estimators._energy_grid(measure, self.S_LIST)
        assert got == pytest.approx(
            estimators._pairwise_energies(measure, self.S_LIST), rel=1e-12)
        assert got == pytest.approx(
            [_ordered_pair_fsum(measure, s) for s in self.S_LIST], rel=1e-12)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_harmonic_nets_match(self, n):
        measure = _harmonic(n)
        got = estimators._reciprocal_energies(measure, self.GRID)
        assert got is not None
        assert got == pytest.approx(
            estimators._pairwise_energies(measure, self.GRID), rel=1e-12)
        if n <= 8:  # the exact-sum oracle is quadratic in Python
            assert got == pytest.approx(
                [_ordered_pair_fsum(measure, s) for s in self.GRID],
                rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_small_harmonic_nets_fail_the_span_gate(self, n):
        # 2**n + 1 atoms over a q span of 2**n - 1: 16 * span > k**2
        assert estimators._reciprocal_energies(_harmonic(n),
                                               self.S_LIST) is None



def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


_PRIMES = _primes(300)


class TestLatticeGate:
    S_LIST = [0.3, 0.75, 1.6]

    @pytest.mark.parametrize("path, values", [
        # 1/p: the atoms' denominators are the primes
        ("_lattice_energies", [Fraction(1, p) for p in _PRIMES]),
        # p/(p + 1): the reciprocals 1 + 1/p have the primes as
        # denominators
        ("_reciprocal_energies", [Fraction(p, p + 1) for p in _PRIMES]),
    ], ids=["direct", "reciprocal"])
    def test_explosive_lcm_refused_early(self, monkeypatch, path, values):
        # the primes' LCM has about 2 600 digits; with |last - first|
        # near 1/2, the span bound |last - first| * (partial LCM) passes
        # k**2 / 16 = 5 625 once the partial LCM passes about 11 250,
        # after a handful of primes, and the gate refuses there
        measure = measure_on_values(values)
        calls = []
        real = math.lcm

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(math, "lcm", counting)
        assert getattr(estimators, path)(measure, self.S_LIST) is None
        assert 2 <= len(calls) <= 8


# Measures on which both energy kernels must equal their out-of-place
# oracles bit for bit.  All have at most 7 coordinates, where numpy sums a
# difference row's squares in coordinate order, as the kernel does; above
# that its pairwise summation may differ in the last bits, and only the
# rel=1e-12 check of TestDiscreteEnergy (graph-9coord-32) applies.
ORACLE_MEASURES = {
    "harmonic-513": lambda: DiscreteMeasure.uniform_on_net(
        build_net(harmonic_sequence(), 9)),
    "harmonic-4097": lambda: DiscreteMeasure.uniform_on_net(
        build_net(harmonic_sequence(), 12)),
    "interval-1025": lambda: DiscreteMeasure.uniform_on_net(
        build_net(unit_interval(), 10)),
    **{f"cantor-{2 ** d}": (lambda d=d: cantor_endpoint_measure(d))
       for d in range(4, 13)},
    "graph-2d-32": lambda: _sample_graph(1),
    "graph-3coord-32": lambda: _sample_graph(2),
    "shuffled-harmonic-513": lambda: _shuffled(DiscreteMeasure.uniform_on_net(
        build_net(harmonic_sequence(), 9)), 0),
    "shuffled-interval-1025": lambda: _shuffled(
        DiscreteMeasure.uniform_on_net(build_net(unit_interval(), 10)), 1),
    "shuffled-cantor-1024": lambda: _shuffled(cantor_endpoint_measure(10), 2),
    "shuffled-graph-3coord-32": lambda: _shuffled(_sample_graph(2), 3),
}


class TestKernelOracles:
    S_LIST = [0.3, 0.45, 0.75, 1.0, 1.6]

    @pytest.mark.parametrize("name", list(ORACLE_MEASURES))
    def test_kernels_equal_the_oracles(self, name):
        measure = ORACLE_MEASURES[name]()
        assert (estimators._pairwise_energies(measure, self.S_LIST)
                == oracles.pairwise_energies(measure, self.S_LIST))
        assert (estimators._lattice_energies(measure, self.S_LIST)
                == oracles.lattice_energies(measure, self.S_LIST))
        got = estimators._reciprocal_energies(measure, self.S_LIST)
        assert got == oracles.reciprocal_energies(measure, self.S_LIST)
        assert (got is not None) == ("harmonic" in name)

    # tracemalloc peaks in MiB on numpy 2.4.  Measured: 2.26 for the
    # pairwise sum (4.92 when each step made a fresh array) and 10.47 for
    # the lattice path, whose rfft/irfft arrays dominate it.
    def test_pairwise_memory(self):
        measure = DiscreteMeasure.uniform_on_net(
            build_net(harmonic_sequence(), 12))
        assert traced_peak_mib(lambda: estimators._pairwise_energies(
            measure, self.S_LIST)) <= 4.0

    def test_reciprocal_memory(self):
        # measured 0.49 (0.58 on the first call in a process), against 2.14
        # for the pairwise sum on the same measure
        measure = _harmonic(12)
        out = []
        peak = traced_peak_mib(lambda: out.append(
            estimators._reciprocal_energies(measure, self.S_LIST)))
        assert out[0] is not None
        assert peak <= 1.0

    def test_lattice_memory(self):
        measure = cantor_endpoint_measure(12)
        out = []
        peak = traced_peak_mib(lambda: out.append(
            estimators._lattice_energies(measure, self.S_LIST)))
        assert out[0] is not None
        assert peak <= 11.0


@pytest.mark.parametrize("space", NET_SPACES, ids=lambda sp: sp.kind)
def test_uniform_on_net_matches_fraction_net(space):
    # the same atoms, and energies equal to the bit, from a built net as
    # from a hand-built net of its Fractions
    s_list = [0.3, 0.5, 0.75, 1.0]
    for net, hand in built_nets(space):
        got = DiscreteMeasure.uniform_on_net(net)
        want = DiscreteMeasure.uniform_on_net(hand)
        assert got == want
        assert (estimators._energy_grid(got, s_list)
                == estimators._energy_grid(want, s_list))


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

    @pytest.mark.parametrize("divergent, flag", [
        ((False,) * 5, "all_bounded"),
        ((False, True, False, False, False), "ok"),
    ], ids=["all-bounded", "top-bounded-lower-divergent"])
    def test_top_of_grid_bounded(self, monkeypatch, divergent, flag):
        # the top exponent is bounded in both: it is the critical value
        # and both ends of the bracket, and only the flag tells whether
        # every exponent was bounded
        verdicts = iter(divergent)
        monkeypatch.setattr(estimators, "_is_divergent",
                            lambda row: next(verdicts))
        ms = [measure_on_values([0, Fraction(1, 3), Fraction(1, 2)])] * 4
        prof = energy_dimension_profile(ms, [1.0, 0.2, 0.4, 0.6, 0.8])
        assert prof.flag == flag
        assert prof.critical == 1.0
        assert prof.bracket == (1.0, 1.0)
        assert prof.verdicts == tuple(
            "divergent" if v else "bounded" for v in divergent)

    def test_input_validation(self):
        ms = [measure_on_values([0, 1])] * 3
        with pytest.raises(ValueError):
            energy_dimension_profile(ms, [0.2, 0.4, 0.6, 0.8, 1.0])
        with pytest.raises(ValueError):
            energy_dimension_profile(ms * 2, [0.2, 0.4])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_exponent_must_be_positive_and_finite(self, bad):
        # a NaN exponent gives nan energies, which the profile reads as
        # bounded
        message = (r"^energy exponent must be positive and finite, "
                   rf"got {bad}$")
        m = measure_on_values([0, 1, 3])
        with pytest.raises(ValueError, match=message):
            discrete_energy(m, bad)
        with pytest.raises(ValueError, match=message):
            energy_dimension_profile([m] * 4, [0.2, 0.4, bad, 0.8, 1.0])


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

    @pytest.mark.parametrize("space", [
        unit_interval(), spaces.product_with_cube(unit_interval(), 2),
    ], ids=["interval", "interval-product"])
    def test_finest_net_sized_before_the_first_is_built(self, monkeypatch,
                                                        space):
        # the finest base net, 2**21 + 1 points at scale 21, is refused
        # before the scale-4 one is built (tests/test_cli.py checks the
        # same for packing_count_series through dimlab estimate)
        def refuse(*args):
            raise AssertionError("a net was built")

        monkeypatch.setattr(estimators, "build_net", refuse)
        with pytest.raises(spaces.NetDepthError,
                           match="^the unit_interval net at scale 21 has "):
            cell_count_series(space, range(4, 22))


class TestInfinitelyManyIsolatedPoints:
    """The main theorem assumes K has finitely many isolated points.  The
    harmonic sequence has infinitely many, and there the graph of any f
    into [0,1]**d is small: at scale 2**-n the 2**n points 1/k >= 2**-n
    take a cell each, and the rest lie in the first column, whose graph
    meets at most (2**n + 1)**d cells.  So the graph's upper box dimension
    is at most d, not dim_B K + d = 1/2 + d."""

    SCALES = range(4, 13)
    VALUE_BITS = 20  # f takes values v / 2**20 with 0 <= v <= 2**20

    @staticmethod
    def _bound(n, d):
        return (2 ** n + 1) ** d + 2 ** n

    @pytest.mark.parametrize("d", [1, 2])
    def test_any_graph_stays_within_the_column_bound(self, d):
        net = build_net(harmonic_sequence(), max(self.SCALES))
        values = stable_generator("isolated-points", d).integers(
            0, 2 ** self.VALUE_BITS + 1, size=(net.size(), d))
        for n in self.SCALES:
            # exact cells: floor(x 2**n) from the Fraction, and v >> (20 - n)
            # = floor(v 2**n / 2**20) for each value
            shift = self.VALUE_BITS - n
            cells = {((x.numerator << n) // x.denominator,
                      *(int(v) >> shift for v in row))
                     for x, row in zip(net.points, values)}
            assert len(cells) <= self._bound(n, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_the_product_exceeds_the_bound(self, d):
        product = cell_count_series(
            spaces.product_with_cube(harmonic_sequence(), d), self.SCALES)
        over = [count > self._bound(n, d) for n, count in product.entries]
        assert True in over
        assert all(over[over.index(True):])
        # the gap is the 1/2 the theorem would add
        bound = ScaleSeries(tuple((n, self._bound(n, d))
                                  for n in self.SCALES))
        assert box_dim_estimate(bound, "limsup").slope <= d + 0.01
        assert box_dim_estimate(product, "full-fit").slope >= d + 0.45
