import tracemalloc
from fractions import Fraction

import pytest

from dimlab import energy, estimators, spaces, witness


# The finest net scale of each space that the geometry benchmark, the
# report and witness.build_layers build: a packing count at n packs the
# net of scale n + 1, so Cantor counts up to n = 13 read scale 14 (the
# same depth-11 net as scale 13) and harmonic counts up to n = 12 read 13.
BUILT_NET_SCALES = {spaces.UNIT_INTERVAL: 12, spaces.TRIADIC_CANTOR: 14,
                    spaces.HARMONIC_SEQUENCE: 13}
NET_SPACES = [spaces.unit_interval(), spaces.triadic_cantor(),
              spaces.harmonic_sequence()]


def built_nets(space):
    """(net, the same points as a hand-built net of Fractions), at every
    scale up to ``BUILT_NET_SCALES``."""
    for m in range(BUILT_NET_SCALES[space.kind] + 1):
        net = spaces.build_net(space, m)
        yield net, spaces.ResolutionNet(space, m, tuple(net.points))


def cantor_endpoint_measure(depth: int) -> estimators.DiscreteMeasure:
    """Uniform measure on the 2**depth Cantor points with ``depth`` digits."""
    pts = tuple(Fraction(m, 3 ** depth)
                for m in spaces.cantor_numerators(depth))
    w = Fraction(1, len(pts))
    return estimators.DiscreteMeasure(pts, (w,) * len(pts),
                                      tuple((p,) for p in pts))


def traced_peak_mib(fn) -> float:
    """Peak MiB that tracemalloc sees allocated while ``fn()`` runs, above
    what was already allocated when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def cantor_layers():
    return witness.build_layers(spaces.triadic_cantor(), 1, 7)


@pytest.fixture(scope="session")
def accepted_layers():
    """Every layer set the CLI accepts, keyed "cantor-d1" to "interval-d3":
    both layer spaces at d = 1, 2, 3, each up to its largest layer."""
    out = {}
    for name, space in (("cantor", spaces.triadic_cantor()),
                        ("interval", spaces.unit_interval())):
        for d in (1, 2, 3):
            out[f"{name}-d{d}"] = witness.build_layers(
                space, d, witness.largest_layer(space, d))
    return out


@pytest.fixture(scope="session")
def nested_family_depth3():
    return energy.build_nested_family((2, 2, 2))


@pytest.fixture(scope="session")
def cantor_measure_family():
    return [cantor_endpoint_measure(m) for m in range(4, 13)]


@pytest.fixture(scope="session")
def energy_grid():
    return [0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80]


@pytest.fixture(scope="session")
def cantor_energy_profile(cantor_measure_family, energy_grid):
    return estimators.energy_dimension_profile(cantor_measure_family,
                                               energy_grid)
