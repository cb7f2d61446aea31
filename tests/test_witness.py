import bisect
import dataclasses
import hashlib
import itertools
import math
import random
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

from oracles import (
    _bump_terms,
    ball_certificate,
    build_layer,
    eval_witness,
    place_fraction_layers,
    sample_witness_by_index,
    satellite_points,
    saturation_failure_flags,
)


def _spy_streams(monkeypatch):
    """Patch ``witness.stable_generator`` to record, per stream opened,
    its key and the highs of each ``integers`` call on it."""
    opened = []

    class Spy:
        def __init__(self, key):
            self.rng = stable_generator(*key)
            self.draws = []
            opened.append((key, self.draws))

        def integers(self, highs):
            self.draws.append(list(highs))
            return self.rng.integers(highs)

    monkeypatch.setattr(witness, "stable_generator", lambda *key: Spy(key))
    return opened


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
                    assert abs(Fraction(p, lay.den) - center) <= lay.eps_n

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
                    assert all(3 ** depth % Fraction(p, lay.den).denominator
                               == 0 for p in ball)
                    placed += len(ball)

    @pytest.mark.parametrize("key, n_max", [
        ("cantor-d1", 8), ("cantor-d2", 6), ("cantor-d3", 6),
        ("interval-d1", 7), ("interval-d2", 6), ("interval-d3", 4),
    ])
    def test_layers_match_the_fraction_placement(self, accepted_layers,
                                                 key, n_max):
        # every layer the CLI builds, up to the largest one accepted, has
        # the sizes, eps_n, satellites, sat_values and bump radius of the
        # one-ball-at-a-time Fraction placement, bit for bit, and its den
        # is the LCM of layers 1..n's reduced satellite denominators
        layers = accepted_layers[key]
        assert len(layers) == n_max
        space, d = layers[0].space, layers[0].d
        sizes = [witness._size_layer(space, n, d) for n in range(1, n_max + 1)]
        want = place_fraction_layers(sizes)
        reduced = 1
        for lay, size, ref in zip(layers, sizes, want):
            assert witness.LayerSize(**{
                f.name: getattr(lay, f.name)
                for f in dataclasses.fields(witness.LayerSize)}) == size
            assert lay.eps_n == ref.eps_n
            assert lay.bump_radius == ref.bump_radius
            assert tuple(tuple(Fraction(p, lay.den) for p in ball)
                         for ball in lay.satellites) == ref.satellites
            assert tuple((Fraction(p, lay.den), i)
                         for p, i in lay.sat_values) == ref.sat_values
            reduced = math.lcm(reduced, *(p.denominator for p, _ in
                                          ref.sat_values))
            assert lay.den == reduced

    def test_cross_ball_separation_chain(self, cantor_layers):
        # satellites of distinct packing points keep 2**-n + eps distance;
        # one sorted sweep suffices since coordinates are one-dimensional
        for lay in cantor_layers:
            floor = Fraction(1, 2 ** lay.n) + lay.eps_n
            tagged = sorted(
                (Fraction(p, lay.den), k)
                for k, ball in enumerate(lay.satellites) for p in ball
            )
            for (va, ka), (vb, kb) in zip(tagged, tagged[1:]):
                if ka != kb:
                    assert vb - va >= floor

    def test_layer_disjointness(self, layer_sets):
        for layers in layer_sets:
            sets = [set(satellite_points(lay)) for lay in layers]
            for a, b in itertools.combinations(sets, 2):
                assert not a & b

    def test_vector_valued_layers(self):
        layers = witness.build_layers(triadic_cantor(), 2, 5)
        lay = layers[4]
        assert lay.s_n == 4 and len(lay.grid[0]) == 2
        sample = witness.sample_witness(layers, 3)
        x = Fraction(lay.satellites[0][1], lay.den)
        assert len(eval_witness(sample, x, 5)) == 2
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
            assert all(0 <= p <= 1 for p in satellite_points(lay))
            for center, ball in zip(lay.packing_points, lay.satellites):
                assert all(abs(Fraction(p, lay.den) - center) <= lay.eps_n
                           for p in ball)

    def test_wrong_space_rejected(self):
        from dimlab.spaces import harmonic_sequence
        with pytest.raises(ValueError):
            build_layer(harmonic_sequence(), 3, 1)

    def test_satellite_depth_exhaustion_reported(self, monkeypatch):
        # the first layer refused is the first whose den needs a depth
        # above the cap: layer 4 (depth 13 and 15) at a cap of 12
        built = {(space, base): build_layers(space, 1, 5)
                 for space, base in ((triadic_cantor(), 3),
                                     (unit_interval(), 2))}
        monkeypatch.setattr(witness, "SATELLITE_DEPTH_CAP", 12)
        for (space, base), layers in built.items():
            first = next(lay.n for lay in layers if lay.den > base ** 12)
            assert first == 4
            assert build_layers(space, 1, first - 1) == layers[:first - 1]
            with pytest.raises(NetDepthError) as err:
                build_layers(space, 1, first)
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
        monkeypatch.setattr(witness, "_place_layer", placed)
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
        place = witness._place_layer
        monkeypatch.setattr(witness, "_place_layer",
                            lambda *args: placed.append(args) or place(*args))
        build_layers(triadic_cantor(), 1, 2)
        assert [size.n for size, _ in placed] == [1, 2]
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

    # sha256 of repr(indices) drawn from one keyed stream per sample, so a
    # change to the stream, its key or its reading order shows here
    @pytest.mark.parametrize("space,d,n_max,seed,digest", [
        (triadic_cantor(), 1, 6, "42",
         "7c91ca28f001b0edd7480ded57fd1f0f9b65bbd6db0036301feb04e8791672e0"),
        (triadic_cantor(), 1, 6, (("mc-1", "event", "zero"), 3),
         "61c01aa3aeba882d7b501d7911497e6befad23a6461762791f793b22734178cd"),
        (unit_interval(), 2, 4, "42",
         "d6ad671082df5436689ad13e4f0dd3ff08f936e2c8e96b96dec28d22787d2194"),
        (unit_interval(), 2, 4, (("mc-1", "event", "zero"), 3),
         "f828a85cb0f181b5a7d0c37948313eac83ee29e7aad8ef64e9db4d54c9c7021e"),
    ], ids=["cantor-d1-42", "cantor-d1-mc", "interval-d2-42",
            "interval-d2-mc"])
    def test_draws_are_pinned(self, space, d, n_max, seed, digest):
        indices = sample_witness(build_layers(space, d, n_max), seed).indices
        assert hashlib.sha256(repr(indices).encode()).hexdigest() == digest

    def test_prefix_of_layers_draws_a_prefix(self, accepted_layers,
                                              monkeypatch):
        # the stream is read in layer order, so a sample over layers[:n]
        # is the first n layers of the sample over all of them, and each
        # sample opens one stream keyed (seed, "witness")
        opened = _spy_streams(monkeypatch)
        for layers in accepted_layers.values():
            highs = [lay.s_n for lay in layers for _ in range(lay.ell_n)]
            cuts = list(itertools.accumulate(lay.ell_n for lay in layers))
            for seed in [*range(10), "42", (("mc-1", "event", "zero"), 3)]:
                full = sample_witness(layers, seed).indices
                for n, cut in enumerate(cuts, 1):
                    opened.clear()
                    assert sample_witness(layers[:n], seed).indices \
                        == full[:n]
                    assert opened == [((seed, "witness"), [highs[:cut]])]


class TestEvalWitness:
    def test_satellite_recovers_value_exactly(self, cantor_layers):
        s = sample_witness(cantor_layers, seed=5)
        lay = cantor_layers[4]
        for k in (0, 3):
            for i in (0, 7, 17):
                x = Fraction(lay.satellites[k][i], lay.den)
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
            for x in satellite_points(cantor_layers[m - 1])[:5]:
                v_m = eval_witness(s, x, m)
                v_all = eval_witness(s, x, len(cantor_layers))
                assert v_m == v_all

    def test_values_bounded(self, cantor_layers):
        s = sample_witness(cantor_layers, seed=9)
        bound = sum(Fraction(8, n * n) for n in range(1, 8))
        pts = [b for lay in cantor_layers for b in satellite_points(lay)[:3]]
        for x in pts:
            (v,) = eval_witness(s, x, 7)
            assert 0 <= v <= bound


def _rational_checker_rows(layers, n, drift):
    """delta, base rows and per-layer coefficient and satellite-index
    columns of the event check, in ascending x, from the rational bumps
    of _bump_terms over one LCM denominator."""
    base, terms = [], []
    for x in sorted(satellite_points(layers[n - 1])):
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


def _lifted(layers, lift):
    """The same layers over a den ``lift`` times larger."""
    return tuple(dataclasses.replace(
        lay, den=lay.den * lift,
        satellites=tuple(tuple(p * lift for p in ball)
                         for ball in lay.satellites),
        sat_values=tuple((p * lift, i) for p, i in lay.sat_values))
        for lay in layers)


def _dense_columns(checker):
    """The checker's sparse entries as per-layer coefficient and
    satellite-index columns over its rows, 0 and 0 where no bump of the
    layer reaches the row; every entry must be nonzero and alone in its
    row and layer."""
    coef = [[0] * len(checker.points) for _ in checker.layers]
    sat = [[0] * len(checker.points) for _ in checker.layers]
    starts = list(itertools.accumulate(
        (lay.ell_n for lay in checker.layers), initial=0))
    for r, slot, c in zip(checker.row.tolist(), checker.slot.tolist(),
                          checker.coef[:, 0].tolist()):
        li = bisect.bisect_right(starts, slot) - 1
        assert c > 0 and coef[li][r] == 0
        coef[li][r], sat[li][r] = c, slot - starts[li]
    return coef, sat


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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_event_fraction_refuses_fewer_than_one_trial(self, cantor_layers,
                                                         trials):
        # 0 trials divided by zero, and -3 returned a fraction of -0.0
        with pytest.raises(ValueError, match="at least one trial"):
            witness.event_fraction(cantor_layers, 5, None, trials, "evt")

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_event_fraction_samples_only_layers_up_to_n(self, cantor_layers,
                                                         monkeypatch, n):
        want = witness.event_fraction(cantor_layers[:n], n, None, 4, "upto")
        opened = _spy_streams(monkeypatch)
        got = witness.event_fraction(cantor_layers, n, None, 4, "upto")
        assert got == want
        # one stream per trial, one draw of the satellites of layers 1..n
        ell = sum(lay.ell_n for lay in cantor_layers[:n])
        assert [(key, list(map(len, draws))) for key, draws in opened] == [
            ((("upto", t), "witness"), [ell]) for t in range(4)]

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

    @pytest.mark.parametrize("start, dtype", [(2 ** 61, np.int64),
                                              (2 ** 64, object),
                                              (7 ** 40, object)],
                             ids=["int64", "object-2**64", "object-7**40"])
    def test_nearest_keys_match_bisect(self, start, dtype):
        # the build's key search against bisect on Python ints: nearest
        # ascending key, a tie (x midway) to the lower one; object arrays
        # hold keys above 2**63, whose differences int64 would wrap
        rnd = random.Random(f"keys-{start}")
        for _ in range(60):
            keys = sorted(rnd.sample(range(start, start + 400),
                                     rnd.randrange(1, 30)))
            xs = [rnd.randrange(start - 20, start + 420) for _ in range(40)]
            xs += keys + [(a + b) // 2 for a, b in zip(keys, keys[1:])]
            near, dist = witness._nearest_keys(np.array(keys, dtype=dtype),
                                               np.array(xs, dtype=dtype))
            assert dist.dtype == dtype
            want = []
            for x in xs:
                pos = bisect.bisect_left(keys, x)
                if pos and (pos == len(keys)
                            or x - keys[pos - 1] <= keys[pos] - x):
                    pos -= 1
                want.append((pos, abs(keys[pos] - x)))
            assert list(zip(near.tolist(), dist.tolist())) == want

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
                   *_dense_columns(checker))
            want = _rational_checker_rows(layers, n, drift)
            assert in_delta(*got) == in_delta(*want)
            if same_denominator:
                assert got == want
            points = sorted(satellite_points(layers[n - 1]))
            delta = Fraction(1, 2 ** n)
            threshold = event_threshold(layers[n - 1])
            need = math.ceil(threshold)
            for seed in range(4):
                sample = sample_witness(layers, ("rows", seed))
                rows = []
                for p in points:
                    h = eval_witness(sample, p, n)
                    g = drift(p) if drift else (0,) * d
                    rows.append((p, *(a + b for a, b in zip(h, g))))
                # greedy, and exact search on small instances, keep the
                # same integer rows as rational ones
                ints = checker.rows(sample)
                assert (packing.greedy_packing_coords(ints, checker.delta)
                        == packing.greedy_packing_coords(rows, delta))
                if len(rows) <= packing.EXACT_SEARCH_LIMIT:
                    assert (packing.exact_packing_coords(ints.tolist(),
                                                         checker.delta)
                            == packing.exact_packing_coords(rows, delta))
                # and the check reports its certificate of the rational rows
                if d == 1:
                    count = ball_certificate(layers[n - 1], rows, delta)
                    method = "ball"
                else:
                    count = len(packing.greedy_packing_coords(rows, delta))
                    method = "greedy"
                assert checker.check(sample) == witness.EventReport(
                    n, min(count, need), threshold, count >= threshold,
                    method)

    def test_rows_ascend_on_every_accepted_layer_set(self,
                                                      accepted_layers):
        # the greedy kernel requires ascending rows and does not sort:
        # every layer the CLI accepts builds rows that ascend
        # lexicographically (their x values are distinct and ascend), and
        # the kernel, which checks the order on two or more axes, sweeps
        # all of them
        for key, layers in accepted_layers.items():
            for n in range(1, len(layers) + 1):
                checker = witness.EventChecker(layers, n)
                rows = checker.rows(
                    sample_witness(layers[:n], ("ascend", key, n)))
                listed = rows.tolist()
                assert all(a < b for a, b in zip(listed, listed[1:])), (key,
                                                                        n)
                assert packing.greedy_packing_coords(rows, checker.delta)

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

    def test_keys_past_2_62_take_the_object_path(self, cantor_layers):
        # the same points over a den 3**40 times larger: every q passes
        # 2**62, so the one width bound picks object arrays; the rows, in
        # units of delta, are still the rational ones, and every verdict
        # is that of the int64 checker on the built layers
        lifted = _lifted(cantor_layers, 3 ** 40)

        def in_delta(delta, base, coef, sat):
            return ([[Fraction(v, delta) for v in row] for row in base],
                    [[Fraction(v, delta) for v in col] for col in coef], sat)

        for n in range(1, len(lifted) + 1):
            assert lifted[n - 1].den >= 2 ** 62
            checker = witness.EventChecker(lifted, n)
            built = witness.EventChecker(cantor_layers, n)
            assert (checker.dtype, built.dtype) == (np.dtype(object),
                                                    np.dtype(np.int64))
            got = (checker.delta, checker.base.tolist(),
                   *_dense_columns(checker))
            assert in_delta(*got) == in_delta(
                *_rational_checker_rows(lifted, n, None))
            for seed in range(3):
                assert (checker.check(sample_witness(lifted, ("lift", seed)))
                        == built.check(sample_witness(cantor_layers,
                                                      ("lift", seed))))

    # sha256 of repr(list) over eight seeded samples at each n = 1..n_max:
    # per sample the check's (graph_count, holds, method), then the full
    # greedy packing count of its rows, so a kernel that keeps other
    # rows shows here.  The samples are the per-index draws the digests
    # were first pinned on, so only the checker and the kernel are
    # pinned.  When the check lost its sweep and exact-search fallbacks,
    # a script compared each list with the one pinned before: the check
    # verdicts were the same but for "greedy" in place of "exact" on the
    # eight cantor-d2 checks at n = 3, and every full count was the old
    # one, which on at most 64 rows had come from exact search
    @pytest.mark.parametrize("space, d, n_max, drift, digest", [
        (triadic_cantor(), 1, 7, None,
         "009dc8c13c6c0ef5e038caded08eeef8b6649b1379966b3e044ad0c05cf011c8"),
        (triadic_cantor(), 1, 7, "cantor-f",
         "810f6ca3a16709213ea638c31adec98eedb33b318eb0d49a431d2ca90dbb9a02"),
        (unit_interval(), 1, 6, None,
         "166dd37e1cc8e3555cac7a19ae9bcb7e6d603612c19c2933424a1bab8484e4ac"),
        (triadic_cantor(), 2, 5, None,
         "2c513d3fbbbf330d6855900274533712baf382cde12736672f7569bd634b50a2"),
    ], ids=["cantor-d1-zero", "cantor-d1-cantor-f", "interval-d1-zero",
            "cantor-d2-zero"])
    def test_verdicts_are_pinned(self, cantor_layers, space, d, n_max, drift,
                                 digest):
        layers = (cantor_layers if (space, d) == (triadic_cantor(), 1)
                  else build_layers(space, d, n_max))
        if drift == "cantor-f":
            drift = lambda p: (cantor_pair.evaluate(
                cantor_pair.DigitFunction.ODD_DIGITS, p),)
        verdicts = []
        for n in range(1, n_max + 1):
            checker = witness.EventChecker(layers, n, drift)
            for t in range(8):
                sample = sample_witness_by_index(layers[:n], ("pin", n, t))
                rep = checker.check(sample)
                verdicts.append((rep.graph_count, rep.holds, rep.method))
                verdicts.append(len(packing.greedy_packing_coords(
                    checker.rows(sample), checker.delta)))
        assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == digest


def _cantor_f(p):
    return (cantor_pair.evaluate(cantor_pair.DigitFunction.ODD_DIGITS, p),)


# every d = 1 layer set the CLI accepts (Cantor n <= 8, interval n <= 7),
# with the drifts the event rows use on it
BALL_SETS = pytest.mark.parametrize("key, drift", [
    ("cantor-d1", None), ("cantor-d1", _cantor_f), ("interval-d1", None),
], ids=["cantor-d1-zero", "cantor-d1-cantor-f", "interval-d1-zero"])


def _ball_sweep(checker, ys):
    """Per ball, the rows the certificate keeps from the y values ``ys``:
    ascending y, each more than delta above the last kept, at most s_n."""
    out = []
    for ball in checker.ball_rows.tolist():
        kept = []
        for r in sorted(ball, key=lambda r: ys[r]):
            if len(kept) < checker.layer.s_n and (
                    not kept or ys[r] - ys[kept[-1]] > checker.delta):
                kept.append(r)
        out.append(kept)
    return out


def _ball_counts(checker, ys):
    """Per ball, the certificate's count of the y values ``ys``: the
    block kernel over ``ball_rows``, capped at s_n, as ``check`` runs it."""
    return packing.greedy_packing_counts(ys.take(checker.ball_rows)[:, :, None],
                                         checker.delta, checker.layer.s_n)


def _spy_row_kernels(monkeypatch):
    """Patch the sweep and exact search to record each call's row count."""
    calls = []
    for name in ("greedy_packing_coords", "exact_packing_coords"):
        def spy(rows, *args, _kernel=getattr(packing, name), **kwargs):
            calls.append(len(rows))
            return _kernel(rows, *args, **kwargs)

        monkeypatch.setattr(packing, name, spy)
    return calls


class TestBallCertificate:
    @pytest.mark.parametrize("key", ["cantor-d1", "interval-d1"])
    def test_balls_can_reach_the_threshold(self, accepted_layers, key):
        # s_n > 2**n / n**2, so k_n s_n > threshold
        for lay in accepted_layers[key]:
            assert lay.k_n * lay.s_n >= math.ceil(event_threshold(lay))

    @pytest.mark.parametrize("key", ["cantor-d1", "interval-d1"])
    def test_balls_are_more_than_delta_apart_in_x(self, accepted_layers,
                                                  key):
        # ball_rows holds each ball's satellites, every row once, and the
        # x spans of the balls, in ascending order, leave gaps > delta
        layers = accepted_layers[key]
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(layers, n)
            balls = checker.ball_rows.tolist()
            assert [[checker.points[r] for r in ball] for ball in balls] == [
                list(ball) for ball in checker.layer.satellites]
            assert sorted(r for ball in balls for r in ball) == list(
                range(len(checker.points)))
            xs = checker.base[:, 0].tolist()
            spans = sorted((min(xs[r] for r in ball), max(xs[r] for r in ball))
                           for ball in balls)
            assert all(lo - hi > checker.delta
                       for (_, hi), (lo, _) in zip(spans, spans[1:])), n

    @BALL_SETS
    def test_kept_rows_are_a_packing(self, accepted_layers, key, drift):
        # per ball, ascending y, keep a row more than delta above the last
        # kept one, at most s_n: all kept rows are pairwise more than
        # delta apart, in exact integers, and the checker counts as many
        layers = accepted_layers[key]
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(layers, n, drift)
            for seed in range(2):
                rows = checker.rows(
                    sample_witness(layers[:n], ("kept", key, n, seed)))
                xy = rows.tolist()
                kept = sum(_ball_sweep(checker, rows[:, 1].tolist()), [])
                d2 = checker.delta ** 2
                assert all((xy[a][0] - xy[b][0]) ** 2
                           + (xy[a][1] - xy[b][1]) ** 2 > d2
                           for a, b in itertools.combinations(kept, 2))
                assert _ball_counts(checker, rows[:, 1]).sum() == len(kept)

    @pytest.mark.parametrize("key", ["cantor-d1", "interval-d1"])
    def test_count_matches_the_sweep_at_exact_ties(self, accepted_layers,
                                                   key):
        # y values on a delta / 2 lattice, so kept + delta is often hit
        # exactly: a y there is not kept.  The summed count reaches
        # ``need`` exactly when the sweep's does
        layers = accepted_layers[key]
        rnd = random.Random(f"ties-{key}")
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(layers, n)
            half, s_n = checker.delta // 2, checker.layer.s_n
            for _ in range(20):
                ys = [rnd.randrange(3 * s_n) * half
                      for _ in range(len(checker.points))]
                want = sum(map(len, _ball_sweep(checker, ys)))
                arr = np.array(ys, dtype=checker.dtype)
                total = _ball_counts(checker, arr).sum()
                assert total == want
                for need in (want, want + 1):
                    assert (total >= need) == (want >= need)

    @BALL_SETS
    def test_verdicts_match_the_sweep(self, accepted_layers, key, drift):
        # on fixed seeds the certificate gives every check the capped
        # count and verdict of the sweep it replaced, run here directly
        layers = accepted_layers[key]
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(layers, n, drift)
            need = math.ceil(checker.threshold)
            samples = [sample_witness(layers[:n], ("sweep", key, n, t))
                       for t in range(6)]
            reps = [checker.check(s) for s in samples]
            sweep = [len(packing.greedy_packing_coords(
                checker.rows(s), checker.delta, stop=need)) for s in samples]
            assert {rep.method for rep in reps} == {"ball"}
            assert ([(rep.graph_count, rep.holds) for rep in reps]
                    == [(count, count >= checker.threshold)
                        for count in sweep]), n

    def test_short_certificate_fails_without_a_sweep(self, accepted_layers,
                                                     monkeypatch):
        # every grid index 0, no drift: every row has y = 0, so each ball
        # keeps one row and the certificate is k_n.  Where that is below
        # ceil(threshold) the event fails with the certificate's count,
        # and no other counter runs
        calls = _spy_row_kernels(monkeypatch)
        short = []
        for key in ("cantor-d1", "interval-d1"):
            layers = accepted_layers[key]
            for n in range(1, len(layers) + 1):
                checker = witness.EventChecker(layers, n)
                flat = witness.WitnessSample(layers[:n], tuple(
                    (0,) * lay.ell_n for lay in layers[:n]))
                k_n, need = checker.layer.k_n, math.ceil(checker.threshold)
                assert _ball_counts(checker,
                                    checker.rows(flat)[:, 1]).sum() == k_n
                rep = checker.check(flat)
                assert calls == []
                if k_n >= need:
                    assert (rep.method, rep.holds) == ("ball", True)
                    continue
                short.append((key, n))
                assert rep == witness.EventReport(
                    n, k_n, checker.threshold, False, "ball")
        assert ("cantor-d1", 8) in short and ("interval-d1", 7) in short

    @pytest.mark.parametrize("key", ["cantor-d1", "interval-d1"])
    def test_no_sweep_or_exact_search_at_d1(self, accepted_layers, key,
                                            monkeypatch):
        # the certificate alone decides a d = 1 check, at the built
        # threshold and above k_n s_n, where it cannot reach the need
        calls = _spy_row_kernels(monkeypatch)
        layers = accepted_layers[key]
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(layers, n)
            sample = sample_witness(layers[:n], ("spy", key, n))
            for threshold in (checker.threshold,
                              checker.layer.k_n * checker.layer.s_n + 1):
                checker.threshold = threshold
                assert checker.check(sample).method == "ball"
        assert calls == []

    def test_object_rows_give_the_same_reports(self, accepted_layers):
        # the Cantor layers over a den 3**40 times larger take the object
        # path; ball rows and reports, by the certificate and by the
        # sweep past it, are those of the int64 checker
        layers = accepted_layers["cantor-d1"]
        lifted = _lifted(layers, 3 ** 40)
        for n in range(1, len(layers) + 1):
            checker = witness.EventChecker(lifted, n)
            built = witness.EventChecker(layers, n)
            assert checker.dtype == np.dtype(object)
            assert checker.ball_rows.tolist() == built.ball_rows.tolist()
            for seed in range(2):
                pair = (sample_witness(lifted, ("lift", seed)),
                        sample_witness(layers, ("lift", seed)))
                for threshold in (built.threshold,
                                  built.layer.k_n * built.layer.s_n + 1):
                    checker.threshold = built.threshold = threshold
                    assert checker.check(pair[0]) == built.check(pair[1])


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

    def test_adversary_sees_only_history(self, cantor_layers,
                                         accepted_layers):
        # both shipped maps are causal: new draws at and after column j
        # leave shifts 0..j as they were; the simulator calls the map once
        # per block, on a read-only (trials, ell_n, d) array of its draws
        rng = np.random.default_rng(5)
        for d in (1, 2):
            for adversary in (zero_adversary(d), colliding_adversary(d)):
                draws = rng.random((3, 6, d))
                shifts = adversary(draws)
                assert shifts.shape == draws.shape
                for j in range(6):
                    changed = draws.copy()
                    changed[:, j:] = rng.random(changed[:, j:].shape)
                    assert np.array_equal(adversary(changed)[:, :j + 1],
                                          shifts[:, :j + 1])
        for lay in (cantor_layers[4], accepted_layers["interval-d2"][0]):
            seen = []

            def spy(draws):
                seen.append(draws.shape)
                with pytest.raises(ValueError):
                    draws[...] = 0.0
                return np.zeros(draws.shape)

            simulate_saturation_failure(lay, spy, 2, 0)
            assert seen == [(2, lay.ell_n, lay.d)]

    def test_histories_are_the_stream_in_trial_order(self, cantor_layers):
        # one stream per run, ell_n indices per trial: a spy sees each
        # block's draws in trial order, and a longer run extends a shorter
        lay = cantor_layers[4]
        grid = np.array([[float(c) for c in g] for g in lay.grid])

        def histories(trials):
            seen = []
            simulate_saturation_failure(
                lay, lambda h: seen.append(h.copy()) or np.zeros(h.shape),
                trials, "spy")
            return seen

        (short,), (long,) = histories(3), histories(6)
        assert np.array_equal(long[:3], short)
        stream = stable_generator("spy", "saturation")
        draws = grid[[stream.integers(lay.s_n, size=lay.ell_n)
                      for _ in range(6)]]
        assert np.array_equal(long, draws)

    @pytest.mark.parametrize("adversary", [zero_adversary,
                                           colliding_adversary])
    def test_adversaries_refuse_draws_of_another_d(self, adversary):
        with pytest.raises(ValueError, match="^adversary for d = 1 got "
                                             "draws with last axis 2$"):
            adversary(1)(np.zeros((3, 4, 2)))

    def test_non_finite_shifts_refused(self, cantor_layers):
        # a NaN point compares false: it would pass as kept, and no trial
        # would fail
        with pytest.raises(ValueError, match="finite"):
            simulate_saturation_failure(
                cantor_layers[4], lambda h: np.full(h.shape, np.nan), 200, 0)

    def test_shifts_of_another_shape_refused(self, cantor_layers):
        # one shift per trial, as a per-column map returns, would
        # broadcast over the columns of a one-trial block
        lay = cantor_layers[4]
        with pytest.raises(ValueError, match=r"^adversary returned shifts "
                           rf"of shape \(1, 1\) for draws \(1, {lay.ell_n}, "
                           r"1\)$"):
            simulate_saturation_failure(lay, lambda h: np.zeros((1, 1)), 1, 0)

    @pytest.mark.parametrize("key, n", [("cantor-d1", 5), ("cantor-d2", 5),
                                        ("interval-d1", 1),
                                        ("interval-d2", 1)])
    @pytest.mark.parametrize("adversary", [zero_adversary,
                                           colliding_adversary])
    def test_block_counts_match_the_scalar_kernel(self, monkeypatch,
                                                  accepted_layers, key, n,
                                                  adversary):
        # on the points of each block, every trial's count is the scalar
        # greedy kernel's, with and without the stop at s_n; the short
        # ell_n make failures common
        size = accepted_layers[key][n - 1]
        calls = []
        counts = packing.greedy_packing_counts

        def spy(points, delta, stop):
            got = counts(points, delta, stop)
            calls.append((points.copy(), delta, stop, got))
            return got

        monkeypatch.setattr(packing, "greedy_packing_counts", spy)
        failures = 0
        for ell in (size.s_n, size.s_n + 1, 2 * size.s_n, size.ell_n):
            lay = dataclasses.replace(size, ell_n=ell)
            calls.clear()
            rep = simulate_saturation_failure(lay, adversary(size.d), 300,
                                              f"oracle-{ell}")
            delta, stop = 0.5 ** n, size.s_n
            assert all(c[1:3] == (delta, stop) for c in calls)
            points = np.concatenate([c[0] for c in calls])
            got = np.concatenate([c[3] for c in calls])
            assert points.shape == (300, ell, size.d)
            rows = [[tuple(p) for p in trial] for trial in points.tolist()]
            full = [len(packing.greedy_packing_coords(sorted(r), delta))
                    for r in rows]
            assert got.tolist() == [min(c, stop) for c in full]
            assert counts(points, delta, stop=ell).tolist() == full
            assert rep.failures == sum(c < size.s_n for c in full)
            failures += rep.failures
        assert failures > 0

    @pytest.mark.parametrize("key, n, adversary, ell", [
        ("cantor-d1", 5, zero_adversary, 3),
        ("cantor-d1", 5, colliding_adversary, 3),
        ("interval-d2", 1, zero_adversary, 20),
        ("interval-d2", 1, colliding_adversary, 10),
    ])
    def test_blocks_stay_bounded_and_repeat_trial_prefixes(
            self, monkeypatch, accepted_layers, key, n, adversary, ell):
        # trials = 3 B + 1 span four blocks; no draw exceeds the element
        # bound, and every prefix of the run repeats the one-trial-at-a-time
        # reference, so the first T trials still repeat a T-trial run
        lay = dataclasses.replace(accepted_layers[key][n - 1], ell_n=ell)
        bound = 11 * lay.ell_n - 1
        monkeypatch.setattr(witness, "SATURATION_BLOCK", bound)
        sizes = []

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def integers(self, high, size):
                sizes.append(size)
                return self.rng.integers(high, size=size)

        monkeypatch.setattr(witness, "stable_generator",
                            lambda *args: Recorder(stable_generator(*args)))
        adv = adversary(lay.d)
        trials = 3 * 10 + 1
        flags = saturation_failure_flags(lay, adv, trials, "blocks")
        assert 0 < sum(flags) < trials
        rep = simulate_saturation_failure(lay, adv, trials, "blocks")
        assert sizes == [(10, lay.ell_n)] * 3 + [(1, lay.ell_n)]
        assert all(math.prod(s) <= bound for s in sizes)
        assert rep.failures == sum(flags)
        for t in (1, 9, 10, 11, 20, 21, 30):
            got = simulate_saturation_failure(lay, adv, t, "blocks")
            assert got.failures == sum(flags[:t])

    def test_layer_longer_than_the_block_bound_draws_one_trial(
            self, monkeypatch, cantor_layers):
        lay = cantor_layers[4]
        sizes = []

        class Zeros:
            def integers(self, high, size):
                sizes.append(size)
                return np.zeros(size, dtype=np.int64)

        monkeypatch.setattr(witness, "SATURATION_BLOCK", lay.ell_n - 1)
        monkeypatch.setattr(witness, "stable_generator", lambda *args: Zeros())
        rep = simulate_saturation_failure(lay, zero_adversary(1), 3, 0)
        assert sizes == [(1, lay.ell_n)] * 3
        assert rep.failures == 3  # every draw is grid point 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_occupancy_failure_matches_enumeration(self, s):
        # the chance that ell uniform draws into s cells miss one, over
        # all s**ell draw sequences
        for ell in range(7):
            missed = sum(len(set(seq)) < s
                         for seq in itertools.product(range(s), repeat=ell))
            assert (witness.occupancy_failure(ell, s)
                    == Fraction(missed, s ** ell)), ell

    @pytest.mark.parametrize("ell, s", [(-1, 2), (3, 0)])
    def test_occupancy_failure_refuses_bad_sizes(self, ell, s):
        with pytest.raises(ValueError, match="need ell >= 0 and s >= 1"):
            witness.occupancy_failure(ell, s)

    def test_occupancy_failure_fits_the_prevalence_slack(self,
                                                         accepted_layers):
        # k_n P_occ(ell_n, s_n) bounds the chance that some ball misses
        # saturation, so that a d = 1 check fails; on every layer the CLI
        # accepts it is within 2**-n, inside the prevalence row's slack
        # 2 * 2**-n
        for key, layers in accepted_layers.items():
            for lay in layers:
                assert (lay.k_n * witness.occupancy_failure(lay.ell_n,
                                                            lay.s_n)
                        <= Fraction(1, 2 ** lay.n)), (key, lay.n)

    def test_pass_rule_is_the_occupancy_law(self):
        # the default saturation run, Cantor n = 8 at 200 trials, sees no
        # failure, and its Wilson bound cannot clear 1.5x the target: the
        # law passes it.  Cut short to ell_n = s_n, a layer fails on the
        # law, however few failures the Monte Carlo saw
        size = witness._size_layer(triadic_cantor(), 8, 1)
        rep = simulate_saturation_failure(size, zero_adversary(1), 200, 0)
        assert rep.failures == 0 and rep.wilson_upper > 1.5 * rep.bound
        assert rep.passed
        short = dataclasses.replace(size, ell_n=size.s_n)
        assert witness.occupancy_failure(short.ell_n, short.s_n) > rep.bound
        assert not simulate_saturation_failure(short, zero_adversary(1), 1,
                                               0).passed

    def test_wilson_bound_monotone(self):
        assert wilson_interval(0, 100)[1] < wilson_interval(1, 100)[1]
        assert wilson_interval(0, 1000)[1] < wilson_interval(0, 100)[1]
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("k, trials", [(5, 3), (-1, 3)])
    def test_wilson_interval_refuses_counts_outside_the_trials(self, k,
                                                              trials):
        with pytest.raises(ValueError, match=f"^need 0 <= successes <= "
                                             f"{trials}, got {k}$"):
            wilson_interval(k, trials)

    @pytest.mark.parametrize("k, trials", [
        (0, 2000), (1, 100), (37, 50), (99, 100), (100, 100), (200, 200),
    ])
    def test_wilson_interval_contains_the_rate(self, k, trials):
        # the ends are exact where the rate is 0 or 1
        low, high = wilson_interval(k, trials)
        assert 0.0 <= low <= k / trials <= high <= 1.0
        assert (low == 0.0) == (k == 0)
        assert (high == 1.0) == (k == trials)
