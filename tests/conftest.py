from fractions import Fraction

import pytest

from dimlab import energy, estimators, spaces, witness


def cantor_endpoint_measure(depth: int) -> estimators.DiscreteMeasure:
    """Uniform measure on the 2**depth Cantor points with ``depth`` digits."""
    pts = tuple(Fraction(m, 3 ** depth)
                for m in spaces.cantor_numerators(depth))
    w = Fraction(1, len(pts))
    return estimators.DiscreteMeasure(pts, (w,) * len(pts),
                                      tuple((p,) for p in pts))


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
