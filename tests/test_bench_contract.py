"""The names the benchmark under ``perfbench/`` wraps must stay in place.

``perfbench/spans.py`` patches dimlab functions by module and attribute
name, and its counters read the wrapped calls' arguments by parameter
name; ``perfbench/workloads.py`` marks item boundaries the same way.  A
refactor that renames one of them would break the benchmark without a
failing test, so these tests load the benchmark's own tables by path
and resolve every name they list.
"""

import ast
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from dimlab import cantor_pair, energy, packing, spaces, witness

from oracles import satellite_points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    # workloads.py imports spans by its bare name, as perfbench/run.py runs
    # it, and its dataclasses look their own module up in sys.modules
    monkeypatch.setitem(sys.modules, "spans", _load_spans())
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _mark_targets():
    """(module, attribute) of every ``Marks(...)`` call in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return [
        tuple(arg.value for arg in node.args)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Marks"
    ]


def test_tracer_wraps_every_span_and_restores_it():
    spans = _load_spans()
    targets = [spans.resolve(module, attr) for module, attr, *_ in spans.SPANS]
    originals = [getattr(owner, name) for owner, name in targets]
    layers = witness.build_layers(spaces.triadic_cantor(), 2, 4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, name in targets:
            assert hasattr(getattr(owner, name), "__wrapped__"), name
        # counters read these parameters and attributes by name
        net = spaces.build_net(spaces.triadic_cantor(), 3)
        packing.max_packing_exact(net, 2)
        packing.occupied_cell_count(net, 3)
        cantor_pair.brute_force_mesh_count(cantor_pair.DigitFunction.SUM, 1)
        checker = witness.EventChecker(layers, 4)
        # at d >= 2 the greedy sweep decides the check, and its counter
        # reads the rows
        checker.check(witness.sample_witness(layers, 0))
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(targets, originals):
        assert getattr(owner, name) is original
    counts = tracer.per_pass()[0]
    assert counts["packing.exact.rows"] == net.size()
    assert counts["packing.cells.points"] == net.size()
    assert counts["cantor_pair.mesh.points"] == 16
    assert counts["witness.event_check.calls"] == 1
    assert counts["witness.event_check.rows"] == len(checker.points) > 64
    assert counts["packing.greedy.rows"] == len(checker.points)


def test_energy_counters_read_the_pair_mean_arguments():
    # the pair_mean counter reads _pair_mean's d and trials by name
    spans = _load_spans()
    family = energy.build_nested_family((2, 2))
    pairs = energy.ladder_pairs(family)
    measure = energy.natural_leaf_measure(family)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = energy.pair_expectation_check(family, t=0.5, s=0.6, trials=16,
                                            seed=0, d=2)
        energy.expected_energy_check(family, t=0.5, s=0.6, trials=3, seed=0,
                                     c_hat=rep.c_hat, d=2)
    finally:
        tracer.uninstall()
    counts = tracer.per_pass()[0]
    assert counts["energy.pair_mean.calls"] == len(pairs) > 1
    assert counts["energy.pair_mean.draws"] == 2 * 2 * 16 * len(pairs)
    assert counts["energy.eval_field.calls"] == 3 * len(measure.points)


def test_workload_marks_resolve():
    spans = _load_spans()
    targets = _mark_targets()
    assert targets
    for module, attr in targets:
        owner, name = spans.resolve(module, attr)
        assert callable(getattr(owner, name)), f"{module}.{attr}"
        spans.Marks(module, attr).close()


def _odd_digit_reader(x):
    """f(x) from the digits the spaces codec reads off x."""
    digits = spaces.cantor_digits(x)
    return sum(Fraction(a, 3 ** ((i + 1) // 2))
               for i, a in enumerate(digits, 1) if i % 2)


def test_geometry_cantor_measure_is_the_codec_values(monkeypatch, tmp_path):
    geometry = _load_workloads(monkeypatch).Geometry(0, str(tmp_path))
    for depth in (1, 4, 7):
        measure = geometry._measure("cantor", depth)
        want = [Fraction(m, 3 ** depth)
                for m in spaces.cantor_numerators(depth)]
        assert measure.coords == tuple((x,) for x in want)
        assert measure.weights == (Fraction(1, 2 ** depth),) * 2 ** depth


def test_montecarlo_drift_reads_satellite_values(monkeypatch, tmp_path,
                                                 cantor_layers):
    montecarlo = _load_workloads(monkeypatch).MonteCarlo(0, str(tmp_path))
    assert montecarlo.layers == cantor_layers
    drift = montecarlo.drifts["cantor-f"]
    for p in [p for lay in cantor_layers for p in satellite_points(lay)]:
        assert drift(p) == (_odd_digit_reader(p),)
