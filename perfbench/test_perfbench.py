"""Fast self-test of the benchmark: ``python3 -m pytest perfbench -q``."""

import contextlib
import io
import json
import os

import pytest

import run

ROOT = os.path.dirname(run.HERE)
run.import_package(ROOT)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.fixture
def small_montecarlo(monkeypatch):
    """One event scale and few trials: the verdicts may fail, output not."""
    mc = workloads.MonteCarlo
    monkeypatch.setattr(mc, "EVENT_TRIALS", {4: 2})
    monkeypatch.setattr(mc, "SATURATION_TRIALS", 20)
    monkeypatch.setattr(mc, "PAIR_TRIALS", 1 << 10)
    monkeypatch.setattr(mc, "ENERGY_TRIALS", 2)
    monkeypatch.setattr(mc, "ITEM_PASSES", 1)


def _printed(result, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_result("montecarlo", 1, result, trace)
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(small_montecarlo, trace):
    if trace:
        result = run.measure_traced("montecarlo", 1, 0)
        wanted = BENCH["per_layer"]
    else:
        result = run.measure("montecarlo", 1, 0, setup_repeats=1)
        wanted = BENCH["end_to_end"]
    text, last = _printed(result, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[-1] == m["unit"] for line in text)
    assert any(line.startswith("fail_frac") for line in text)
    if not trace:
        for name, unit in run.ITEM_UNITS.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in text)
    if trace:  # montecarlo never reaches the geometry-only layers
        assert last["metrics"]["cantor_pair.mesh.points"]["value"] == 0
        assert last["metrics"]["rng.stable_index.calls"]["value"] > 0


def _geometry_fail_frac(pinned):
    wl = workloads.Geometry(1, run.OUT_DIR)
    wl.pinned = pinned
    wl.tasks = [("packing", "cantor"), ("cells", "cantor", 0),
                ("mesh", wl.cp.DigitFunction.SUM)]
    wl._cross_checks = lambda res: None
    attempted, failures, _ = run.tally([wl.run_pass(), wl.run_pass()])
    return len(failures) / attempted


def test_corrupted_pin_raises_fail_frac():
    wl = workloads.Geometry(1, run.OUT_DIR)
    assert _geometry_fail_frac(wl.pinned) == 0
    corrupt = json.loads(json.dumps(wl.pinned))
    corrupt["packing"]["cantor"]["13"] += 1
    assert _geometry_fail_frac(corrupt) > 0


def _csv_failures(tmp_path, old="", new=""):
    """Failed CSV checks and known defects after replacing old by new."""
    wl = workloads.Report(1, str(tmp_path))
    cli = wl.cli
    table = cli.ResultTable()
    table.add(cli.ResultRow("estimate", {"n": 4}, 0.5, 0.5, True, wl.seed,
                            0.25, 0.75))
    table.add(cli.ResultRow("cantor-count", {"n": 2}, 9, 9, True, "7"))
    cli.emit_csv(table, wl.csv_path)
    with open(wl.csv_path, encoding="utf-8") as fh:
        text = fh.read()
    assert not old or text.count(old) == 1
    with open(wl.csv_path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    res = workloads.PassResult(known=dict.fromkeys(workloads.KNOWN_DEFECTS, 0))
    wl._csv(res, table)
    return [name for name, ok in res.checks if not ok], res.known


def test_csv_known_defects_only_in_their_exact_form(tmp_path):
    failures, known = _csv_failures(tmp_path)
    assert failures == []
    assert known == {"csv.param_json": 2, "csv.seed_comma": 1}


@pytest.mark.parametrize("old,new", [
    ("0.75", "0.8"),                # ci_high
    ("9,9,true", "9,8,true"),       # reference
    ("'n': 4", "'n': 5"),           # param_json, still single-quoted
    ("'n': 2", '""n"": 2'),         # param_json, half fixed
    (",0.25,", ","),                # a dropped column
    ("1,report", "1,rep,ort"),      # seed split differently
])
def test_corrupted_csv_cell_fails(tmp_path, old, new):
    failures, _ = _csv_failures(tmp_path, old, new)
    assert failures


def test_rebound_names_are_wrapped():
    from dimlab import energy, estimators, rng, witness
    originals = (rng.stable_index, estimators.build_net,
                 estimators.discrete_energy)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for fn in (rng.stable_index, witness.stable_index,
                   energy.stable_index, estimators.build_net,
                   witness.build_net, estimators.discrete_energy,
                   energy.discrete_energy):
            assert fn.__wrapped__ in originals
    finally:
        tracer.uninstall()
    assert witness.stable_index is rng.stable_index is originals[0]
    assert energy.discrete_energy is originals[2]


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.spans = [(0, 0.0, 10.0, -1, 1, None), (1, 1.0, 4.0, 0, 1, None),
                    (1, 5.0, 6.0, 0, 1, None), (0, 6.5, 7.0, 2, 1, None)]
    assert tracer.self_times() == [6.0, 3.0, 0.5, 0.5]
    agg = tracer.per_pass()[1]
    # the nested "outer" span counts toward self time, not toward calls
    assert agg["outer.calls"] == 1 and agg["outer.s"] == 10.0
    assert agg["outer.self_s"] == 6.5
