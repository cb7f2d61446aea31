import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from dimlab import cantor_pair, packing, witness
from dimlab.rng import stable_generator
from dimlab.spaces import (
    NetDepthError,
    TRIADIC_CANTOR,
    cantor_net_depth,
    triadic_cantor,
    unit_interval,
)
from dimlab.witness import (
    build_layers,
    colliding_adversary,
    event_threshold,
    replication_exponent,
    sample_witness,
    simulate_saturation_failure,
    value_grid,
    wilson_interval,
    zero_adversary,
)

from oracles import _bump_terms, build_layer, eval_witness


@pytest.fixture(scope="module")
def layer_sets(cantor_layers, accepted_layers):
    """Cantor d = 1 layers 1..7, then every layer set the CLI accepts."""
    return [cantor_layers, *accepted_layers.values()]


class TestLayerConstruction:
    def test_grid_n5(self):
        assert value_grid(5, 1) == ((Fraction(0),), (Fraction(1, 4),))

    def test_grid_n3_trivial_layer(self):
        lay = build_layer(triadic_cantor(), 3, 1,
                          build_layers(triadic_cantor(), 1, 2))
        assert lay.grid == ((Fraction(0),),)
        assert lay.s_n == 1 and lay.m_n == 1 and lay.ell_n == 1

    def test_grid_is_coarse_packing(self, cantor_layers):
        for lay in cantor_layers:
            sep = Fraction(4, 2 ** lay.n)
            for a, b in itertools.combinations(lay.grid, 2):
                d2 = sum((x - y) ** 2 for x, y in zip(a, b))
                assert d2 >= sep * sep

    def test_grid_bounded_by_eight_over_n_squared(self, cantor_layers):
        for lay in cantor_layers:
            bound = Fraction(8, lay.n ** 2)
            assert all(c <= bound for g in lay.grid for c in g)

    def test_grid_size_floor(self, cantor_layers):
        # s_n must dominate (2**n / n**2)**d so the event threshold fits
        for lay in cantor_layers:
            assert lay.s_n >= Fraction(2 ** lay.n, lay.n ** 2) ** lay.d

    def test_replication_exponent_minimal(self, cantor_layers):
        for lay in cantor_layers:
            if lay.s_n == 1:
                assert lay.m_n == 1
                continue
            base = 1 - Fraction(1, lay.s_n)
            bound = Fraction(1, lay.s_n * lay.k_n * 2 ** lay.n)
            assert base ** lay.m_n <= bound
            assert bound < base ** (lay.m_n - 1)
        assert replication_exponent(1, 3, 4) == 1

    @pytest.mark.parametrize("space, k_n", [
        (triadic_cantor(), (1, 2, 4, 4, 8, 16, 16)),
        (unit_interval(), (2, 3, 6, 11, 22, 43)),
    ], ids=["triadic_cantor", "unit_interval"])
    def test_k_n_pinned_and_exact(self, space, k_n):
        layers = build_layers(space, 1, len(k_n))
        assert [(lay.n, lay.k_n) for lay in layers] == list(enumerate(k_n, 1))

    def test_k5_exact_and_m5(self, cantor_layers):
        lay = cantor_layers[4]
        assert lay.k_n == 8
        m = 1
        while Fraction(1, 2) ** m > Fraction(1, 2 * lay.k_n * 32):
            m += 1
        assert lay.m_n == m == 9

    def test_packing_points_separated_with_slack(self, layer_sets):
        for lay in itertools.chain(*layer_sets):
            assert lay.eps_n > 0
            if lay.k_n == 1:
                continue
            need = Fraction(1, 2 ** lay.n) + 3 * lay.eps_n
            vals = sorted(lay.packing_points)
            assert all(b - a >= need for a, b in zip(vals, vals[1:]))

    def test_satellites_inside_ball(self, layer_sets):
        for lay in itertools.chain(*layer_sets):
            for center, ball in zip(lay.packing_points, lay.satellites):
                assert len(ball) == lay.ell_n
                assert len(set(ball)) == lay.ell_n
                for p in ball:
                    assert abs(p - center) <= lay.eps_n

    def test_cantor_satellites_found_in_one_pass(self, layer_sets):
        # a ball's satellites are points of the center's cylinder at the
        # first depth tried, whose 2**(depth - t) candidates outnumber the
        # ball's need plus every satellite placed before it
        for layers in layer_sets:
            if layers[0].space.kind != TRIADIC_CANTOR:
                continue
            placed = 0
            for lay in layers:
                t = cantor_net_depth(lay.n + 1)
                while Fraction(1, 3 ** t) > 2 * lay.eps_n:
                    t += 1
                for ball in lay.satellites:
                    depth = t + (lay.ell_n + placed + 1).bit_length()
                    assert depth < witness.SATELLITE_DEPTH_CAP
                    assert all(3 ** depth % p.denominator == 0 for p in ball)
                    placed += len(ball)

    def test_cross_ball_separation_chain(self, cantor_layers):
        # satellites of distinct packing points keep 2**-n + eps distance;
        # one sorted sweep suffices since coordinates are one-dimensional
        for lay in cantor_layers:
            floor = Fraction(1, 2 ** lay.n) + lay.eps_n
            tagged = sorted(
                (p, k)
                for k, ball in enumerate(lay.satellites) for p in ball
            )
            for (va, ka), (vb, kb) in zip(tagged, tagged[1:]):
                if ka != kb:
                    assert vb - va >= floor

    def test_layer_disjointness(self, layer_sets):
        for layers in layer_sets:
            sets = [set(lay.all_satellites()) for lay in layers]
            for a, b in itertools.combinations(sets, 2):
                assert not a & b

    def test_vector_valued_layers(self):
        layers = witness.build_layers(triadic_cantor(), 2, 5)
        lay = layers[4]
        assert lay.s_n == 4 and len(lay.grid[0]) == 2
        sample = witness.sample_witness(layers, 3)
        assert len(eval_witness(sample, lay.satellites[0][1], 5)) == 2
        rep = witness.EventChecker(layers, 5).check(sample)
        assert rep.holds
        assert rep.threshold == Fraction(lay.k_n * 2 ** 10, 5 ** 4)
        sat = simulate_saturation_failure(lay, colliding_adversary(2), 200, 1)
        assert sat.failures == 0

    def test_interval_layers(self, layer_sets):
        intervals = [layers for layers in layer_sets
                     if layers[0].space == unit_interval()]
        for lay in itertools.chain(build_layers(unit_interval(), 1, 5),
                                   *intervals):
            assert all(0 <= p <= 1 for p in lay.all_satellites())
            for center, ball in zip(lay.packing_points, lay.satellites):
                assert all(abs(p - center) <= lay.eps_n for p in ball)

    def test_wrong_space_rejected(self):
        from dimlab.spaces import harmonic_sequence
        with pytest.raises(ValueError):
            build_layer(harmonic_sequence(), 3, 1)

    def test_satellite_depth_exhaustion_reported(self, monkeypatch):
        from dimlab.spaces import NetDepthError
        monkeypatch.setattr(witness, "SATELLITE_DEPTH_CAP", 8)
        with pytest.raises(NetDepthError) as err:
            build_layers(triadic_cantor(), 1, 5)
        assert "deeper" in str(err.value)


    @pytest.mark.parametrize("space, n, d, size", [
        (triadic_cantor(), 9, 1, 36288),
        (triadic_cantor(), 7, 2, 12096),
        (unit_interval(), 8, 1, 47880),
    ], ids=["cantor-9", "cantor-d2-7", "interval-8"])
    def test_oversized_layer_refused_before_satellites(self, monkeypatch,
                                                       space, n, d, size):
        def placed(*args):
            raise AssertionError("satellites placed before the size check")
        monkeypatch.setattr(witness, "_cantor_satellites", placed)
        monkeypatch.setattr(witness, "_interval_satellites", placed)
        with pytest.raises(NetDepthError) as err:
            build_layer(space, n, d)
        assert str(size) in str(err.value)
        assert str(witness.MAX_LAYER_SATELLITES) in str(err.value)

    @pytest.mark.parametrize("d", [8, 9, 50])
    def test_oversized_d_refused_before_value_grid(self, monkeypatch, d):
        # k_n * s_n bounds k_n * ell_n from below and needs no grid: at
        # d = 50 the grid has 3**50 points, and at d = 8 the Fraction loop
        # for m_n took seconds
        def built(*args):
            raise AssertionError("value grid built before the size check")
        monkeypatch.setattr(witness, "value_grid", built)
        start = time.perf_counter()
        with pytest.raises(NetDepthError) as err:
            witness._size_layer(triadic_cantor(), 1, d)
        assert time.perf_counter() - start < 1
        assert str(witness.MAX_LAYER_SATELLITES) in str(err.value)

    def test_build_layers_sizes_every_layer_first(self, monkeypatch):
        placed = []
        place = witness._cantor_satellites
        monkeypatch.setattr(witness, "_cantor_satellites",
                            lambda *args: placed.append(args) or place(*args))
        build_layers(triadic_cantor(), 1, 2)
        assert len(placed) == 1 + 2  # one ball per packing point: k_1 + k_2
        placed.clear()
        with pytest.raises(NetDepthError,
                           match=r"layer 9 of the triadic_cantor .* 36288"):
            build_layers(triadic_cantor(), 1, 9)
        assert placed == []

    def test_layer_size_limit_is_inclusive(self, monkeypatch):
        # Cantor d = 1 layer 5 places k_5 * ell_5 = 144 satellites
        monkeypatch.setattr(witness, "MAX_LAYER_SATELLITES", 144)
        lay = build_layer(triadic_cantor(), 5, 1)
        assert lay.k_n * lay.ell_n == 144
        monkeypatch.setattr(witness, "MAX_LAYER_SATELLITES", 143)
        with pytest.raises(NetDepthError, match="144"):
            build_layer(triadic_cantor(), 5, 1)
        # the refusal before the base net uses a lower bound on k_n, so
        # every layer is still refused exactly above its k_n * ell_n
        for space, n in itertools.product((triadic_cantor(), unit_interval()),
                                          range(1, 13)):
            monkeypatch.setattr(witness, "MAX_LAYER_SATELLITES", 10 ** 12)
            size = witness._size_layer(space, n, 1)
            placed = size.k_n * size.ell_n
            monkeypatch.setattr(witness, "MAX_LAYER_SATELLITES", placed)
            assert witness._size_layer(space, n, 1) == size
            monkeypatch.setattr(witness, "MAX_LAYER_SATELLITES", placed - 1)
            with pytest.raises(NetDepthError, match=f"= {placed} satellites"):
                witness._size_layer(space, n, 1)


class TestWitnessSampling:
    def test_trivial_grid_layer_deterministic(self, cantor_layers):
        s = sample_witness(cantor_layers[:3], seed=123)
        grid = cantor_layers[2].grid
        assert tuple(grid[k] for k in s.indices[2]) == ((Fraction(0),),)

    def test_same_seed_identical(self, cantor_layers):
        a = sample_witness(cantor_layers, seed="abc")
        b = sample_witness(cantor_layers, seed="abc")
        assert a.indices == b.indices

    def test_different_seed_differs(self, cantor_layers):
        a = sample_witness(cantor_layers, seed="abc")
        b = sample_witness(cantor_layers, seed="abd")
        assert a.indices != b.indices

    def test_uniform_frequency(self, cantor_layers):
        # empirical frequency of grid value 0 at a fixed index, n = 5
        lay5 = [cantor_layers[4]]
        zero = (Fraction(0),)
        hits = sum(
            lay5[0].grid[sample_witness(lay5, seed=("freq", t)).indices[0][2]]
            == zero
            for t in range(10_000)
        )
        assert abs(hits / 10_000 - 0.5) <= 0.02


class TestEvalWitness:
    def test_satellite_recovers_value_exactly(self, cantor_layers):
        s = sample_witness(cantor_layers, seed=5)
        lay = cantor_layers[4]
        for k in (0, 3):
            for i in (0, 7, 17):
                x = lay.satellites[k][i]
                got = eval_witness(s, x, 5)
                upper = tuple(
                    a + b for a, b in zip(
                        eval_witness(s, x, 4), lay.grid[s.indices[4][i]])
                )
                assert got == upper

    def test_earlier_layer_satellites_untouched(self, cantor_layers):
        # the layer-n bump vanishes on all earlier satellite sets
        s = sample_witness(cantor_layers, seed=5)
        for m in (1, 2, 3):
            for x in cantor_layers[m - 1].all_satellites()[:5]:
                v_m = eval_witness(s, x, m)
                v_all = eval_witness(s, x, len(cantor_layers))
                assert v_m == v_all

    def test_values_bounded(self, cantor_layers):
        s = sample_witness(cantor_layers, seed=9)
        bound = sum(Fraction(8, n * n) for n in range(1, 8))
        pts = [b for lay in cantor_layers for b in lay.all_satellites()[:3]]
        for x in pts:
            (v,) = eval_witness(s, x, 7)
            assert 0 <= v <= bound


def _rational_checker_rows(layers, n, drift):
    """delta, base rows and per-layer coefficient and satellite-index
    columns of the event check, in ascending x, from the rational bumps
    of _bump_terms over one LCM denominator."""
    base, terms = [], []
    for x in sorted(layers[n - 1].all_satellites()):
        g = tuple(map(Fraction, drift(x))) if drift else (0,) * layers[0].d
        base.append((x, *g))
        terms.append([(li, t[0], Fraction(8, 2 ** lay.n) * t[1])
                      for li, lay in enumerate(layers[:n])
                      if (t := _bump_terms(lay, x)) is not None])
    delta = Fraction(1, 2 ** n)
    denom = math.lcm(delta.denominator,
                     *(v.denominator for row in base for v in row),
                     *(w.denominator for row in terms for *_, w in row))
    coef = [[0] * len(base) for _ in range(n)]
    sat = [[0] * len(base) for _ in range(n)]
    for r, row in enumerate(terms):
        for li, i, w in row:
            coef[li][r], sat[li][r] = int(w * denom), i
    return (int(delta * denom),
            [[int(v * denom) for v in row] for row in base], coef, sat)


class TestEventCheck:
    def test_threshold_formula(self, cantor_layers):
        lay1 = cantor_layers[0]
        assert event_threshold(lay1) == lay1.k_n * 2
        lay5 = cantor_layers[4]
        assert event_threshold(lay5) == Fraction(lay5.k_n * 32, 25)

    def test_event_holds_for_typical_sample(self, cantor_layers):
        s = sample_witness(cantor_layers, seed=31)
        rep = witness.EventChecker(cantor_layers, 5).check(s)
        assert rep.holds
        assert rep.graph_count >= rep.threshold

    def test_event_fraction_meets_bound(self, cantor_layers):
        frac = witness.event_fraction(cantor_layers, 5, None, 60, "evt")
        assert frac >= 1 - 2 * 0.5 ** 5

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_event_fraction_samples_only_layers_up_to_n(self, cantor_layers,
                                                         monkeypatch, n):
        want = witness.event_fraction(cantor_layers[:n], n, None, 4, "upto")
        draws = []
        real = witness.stable_index

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(witness, "stable_index", counting)
        got = witness.event_fraction(cantor_layers, n, None, 4, "upto")
        assert got == want
        assert len(draws) == 4 * sum(lay.ell_n for lay in cantor_layers[:n])

    @pytest.mark.parametrize("drift", ["zero", "cantor-f"])
    def test_check_hashes_no_fraction(self, cantor_layers, monkeypatch,
                                      drift):
        # a sample is its drawn grid indices, so a check gathers integer
        # j vectors and never looks a grid value up by its Fractions
        drift = None if drift == "zero" else lambda p: (cantor_pair.evaluate(
            cantor_pair.DigitFunction.ODD_DIGITS, p),)
        checker = witness.EventChecker(cantor_layers, 5, drift)
        samples = [sample_witness(cantor_layers[:5], ("hash", t))
                   for t in range(4)]
        want = [checker.check(s) for s in samples]

        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", refuse)
        assert [checker.check(s) for s in samples] == want

    def test_drifted_event(self, cantor_layers):
        drift = lambda p: (cantor_pair.evaluate(
            cantor_pair.DigitFunction.ODD_DIGITS, p),)
        checker = witness.EventChecker(cantor_layers, 6, drift)
        rep = checker.check(sample_witness(cantor_layers, seed=4))
        assert rep.holds

    def test_drift_arity_checked_at_construction(self):
        layers = build_layers(triadic_cantor(), 2, 2)
        with pytest.raises(ValueError,
                           match=r"drift has 1 coordinate\(s\), d = 2"):
            witness.EventChecker(layers, 2, lambda p: (p,))

    @pytest.mark.parametrize("space, d, n_max, drift", [
        (triadic_cantor(), 1, 7, None),
        (triadic_cantor(), 1, 7, "cantor-f"),
        (triadic_cantor(), 1, 7, "wide-drift"),
        (triadic_cantor(), 2, 5, None),
        (unit_interval(), 1, 5, None),
        (unit_interval(), 2, 4, None),
        (triadic_cantor(), 1, 5, "coprime-radius"),
    ], ids=["cantor-d1-zero", "cantor-d1-cantor-f", "cantor-d1-wide-drift",
            "cantor-d2-zero", "interval-d1-zero", "interval-d2-zero",
            "cantor-d1-coprime-radius"])
    def test_integer_rows_match_fraction_rows(self, space, d, n_max, drift):
        # the checker's integer rows, in units of its delta = 2**-n, equal
        # those of the rational construction (on the Cantor set with the
        # built radii its denominator is the rational one, so the
        # integers are equal too) and pack exactly like the rational graph rows built from
        # eval_witness; a drift with a large denominator pushes the row
        # bound past 2**62, and the rows are then Python ints in an
        # object array.  Every built bump radius has numerator 1, so
        # layer n's denominator 2**n a q is a multiple of every lower
        # layer's; a layer-1 radius of 5/7 of the built one makes each
        # layer's term of the LCM count
        dtype = np.dtype(object if drift == "wide-drift" else np.int64)
        same_denominator = space == triadic_cantor()
        layers = build_layers(space, d, n_max)
        if drift == "cantor-f":
            drift = lambda p: (cantor_pair.evaluate(
                cantor_pair.DigitFunction.ODD_DIGITS, p),)
        elif drift == "wide-drift":
            drift = lambda p: (Fraction(1, 7 ** 25),)
        elif drift == "coprime-radius":
            drift, same_denominator = None, False
            radius = layers[0].bump_radius * Fraction(5, 7)
            assert radius.numerator > 1
            layers = (dataclasses.replace(layers[0], bump_radius=radius),
                      *layers[1:])

        def in_delta(delta, base, coef, sat):
            return ([[Fraction(v, delta) for v in row] for row in base],
                    [[Fraction(v, delta) for v in col] for col in coef], sat)

        for n in range(1, n_max + 1):
            checker = witness.EventChecker(layers, n, drift)
            assert checker.dtype == dtype
            got = (checker.delta, checker.base.tolist(),
                   [col[:, 0].tolist() for col in checker.coef],
                   [col.tolist() for col in checker.sat])
            want = _rational_checker_rows(layers, n, drift)
            assert in_delta(*got) == in_delta(*want)
            if same_denominator:
                assert got == want
            points = layers[n - 1].all_satellites()
            delta = Fraction(1, 2 ** n)
            for seed in range(4):
                sample = sample_witness(layers, ("rows", seed))
                rows = []
                for p in points:
                    h = eval_witness(sample, p, n)
                    g = drift(p) if drift else (0,) * d
                    rows.append((p, *(a + b for a, b in zip(h, g))))
                if len(rows) <= packing.EXACT_SEARCH_LIMIT:
                    count = len(packing.exact_packing_coords(rows, delta))
                    method = "exact"
                else:
                    count = len(packing.greedy_packing_coords(rows, delta))
                    method = "greedy"
                rep = checker.check(sample)
                need = math.ceil(event_threshold(layers[n - 1]))
                assert (rep.graph_count, rep.method) == (min(count, need),
                                                         method)
                assert rep.holds == (count >= event_threshold(layers[n - 1]))

    @pytest.mark.parametrize("space, d, n_max, drift", [
        (triadic_cantor(), 1, 8, None),
        (triadic_cantor(), 1, 8, "cantor-f"),
        (unit_interval(), 1, 7, None),
        (triadic_cantor(), 2, 6, None),
        (unit_interval(), 2, 6, None),
    ], ids=["cantor-d1-zero", "cantor-d1-cantor-f", "interval-d1-zero",
            "cantor-d2-zero", "interval-d2-zero"])
    def test_cli_layers_pack_int64_rows(self, accepted_layers, space, d,
                                        n_max, drift):
        # every layer the CLI builds, up to the largest one accepted,
        # packs int64 rows, including those above the layers that
        # test_integer_rows_match_fraction_rows compares
        if drift == "cantor-f":
            drift = lambda p: (cantor_pair.evaluate(
                cantor_pair.DigitFunction.ODD_DIGITS, p),)
        assert witness.largest_layer(space, d) == n_max
        name = "cantor" if space == triadic_cantor() else "interval"
        layers = accepted_layers[f"{name}-d{d}"]
        assert len(layers) == n_max
        for n in range(1, n_max + 1):
            checker = witness.EventChecker(layers, n, drift)
            assert checker.dtype == np.int64

    def test_exact_search_only_when_greedy_falls_short(self, cantor_layers,
                                                       monkeypatch):
        # no sample makes greedy fall short of n = 4's need of 4, so the
        # threshold is raised to the exact maximum and one above it
        checker = witness.EventChecker(cantor_layers, 4)
        assert len(checker.points) <= packing.EXACT_SEARCH_LIMIT
        delta = Fraction(1, 2 ** 4)
        exact = packing.exact_packing_coords
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return exact(*args, **kwargs)

        monkeypatch.setattr(packing, "exact_packing_coords", spy)
        for seed in range(4):
            sample = sample_witness(cantor_layers[:4], ("fallback", seed))
            rows = [(p, *eval_witness(sample, p, 4)) for p in checker.points]
            best = len(exact(rows, delta))
            greedy = len(packing.greedy_packing_coords(rows, delta))
            for threshold in (best, best + 1):
                checker.threshold = threshold
                calls.clear()
                rep = checker.check(sample)
                assert len(calls) == (greedy < threshold)
                assert rep.holds == (best >= threshold)
                assert rep.graph_count == min(best, threshold)
                assert rep.method == "exact"


class TestSaturation:
    def test_trivial_layer_never_fails(self, cantor_layers):
        lay3 = cantor_layers[2]  # s_3 = 1
        rep = simulate_saturation_failure(lay3, zero_adversary(1), 500, 1)
        assert rep.failures == 0

    def test_zero_adversary_bound(self, cantor_layers):
        rep = simulate_saturation_failure(cantor_layers[4], zero_adversary(1),
                                          5000, 7)
        assert rep.passed
        assert rep.wilson_upper <= 1.5 * rep.bound

    def test_colliding_adversary_bound(self, cantor_layers):
        rep = simulate_saturation_failure(cantor_layers[4],
                                          colliding_adversary(1), 5000, 7)
        assert rep.passed

    def test_adversary_sees_only_history(self, cantor_layers):
        seen = []

        def spy(history):
            seen.append(len(history))
            return (0.0,)

        simulate_saturation_failure(cantor_layers[4], spy, 2, 0)
        ell = cantor_layers[4].ell_n
        assert seen == list(range(ell)) * 2

    def test_histories_are_the_stream_in_trial_order(self, cantor_layers):
        # one stream per run, ell_n indices per trial: a spy sees each
        # trial's draws as they come, and a longer run extends a shorter
        lay = cantor_layers[4]
        grid = [tuple(float(c) for c in g) for g in lay.grid]

        def histories(trials):
            seen = []
            simulate_saturation_failure(
                lay, lambda h: seen.append(h) or (0.0,), trials, "spy")
            return seen

        short, long = histories(3), histories(6)
        assert long[:len(short)] == short
        stream = stable_generator("spy", "saturation")
        want = []
        for _ in range(6):
            xs = [grid[i] for i in stream.integers(lay.s_n, size=lay.ell_n)]
            want += [tuple(xs[:i]) for i in range(lay.ell_n)]
        assert long == want

    def test_wilson_bound_monotone(self):
        assert wilson_interval(0, 100)[1] < wilson_interval(1, 100)[1]
        assert wilson_interval(0, 1000)[1] < wilson_interval(0, 100)[1]
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("k, trials", [
        (0, 2000), (1, 100), (37, 50), (99, 100), (100, 100), (200, 200),
    ])
    def test_wilson_interval_contains_the_rate(self, k, trials):
        # the ends are exact where the rate is 0 or 1
        low, high = wilson_interval(k, trials)
        assert 0.0 <= low <= k / trials <= high <= 1.0
        assert (low == 0.0) == (k == 0)
        assert (high == 1.0) == (k == trials)
