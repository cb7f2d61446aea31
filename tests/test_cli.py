import csv
import json
import math
import time
from pathlib import Path

import pytest

from dimlab import cli, energy, spaces, witness
from dimlab.cli import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_csv,
    emit_plotdata,
    main,
    run,
)


class TestEmitCsv:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ResultTable(), str(path))
        assert path.read_text() == (
            "experiment,param_json,value,reference,pass,seed,ci_low,ci_high\n"
        )

    def test_single_row(self, tmp_path):
        table = ResultTable()
        table.add(ResultRow("demo", {"n": 1}, 2, 2, True, "s"))
        path = tmp_path / "one.csv"
        emit_csv(table, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("demo,")
        assert "'version'" in lines[1]

    def test_unwritable_path(self):
        table = ResultTable()
        with pytest.raises(OSError):
            emit_csv(table, "/nonexistent-dir/x.csv")


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            cfg = ExperimentConfig("saturation", space="cantor", n_max=5,
                                   trials=400, seed="rep", out=str(path))
            run(cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_measurements(self, tmp_path):
        tables = []
        for seed in ("s1", "s2"):
            cfg = ExperimentConfig("energy", depth=2, trials=8, seed=seed)
            tables.append(run(cfg))
        assert (tables[0].rows[0].value != tables[1].rows[0].value)


class TestCommands:
    def test_cantor_counts_match(self):
        table = run(ExperimentConfig("cantor", n_max=4))
        counts = [r for r in table.rows if r.experiment == "cantor-count"]
        assert len(counts) == 9
        assert all(r.passed for r in counts)
        slopes = [r for r in table.rows if r.experiment == "cantor-slope"]
        assert {round(r.reference, 4) for r in slopes} == {0.9464, 1.1309}

    def test_estimate_with_expectation(self):
        cfg = ExperimentConfig("estimate", space="harmonic",
                               variant="liminf", n_min=4, n_max=12,
                               expect=0.5, tol=0.05)
        table = run(cfg)
        assert table.rows[0].passed

    def test_estimate_failing_expectation_exit_code(self, capsys):
        rc = main(["estimate", "--space", "harmonic", "--variant", "liminf",
                   "--n-min", "4", "--n-max", "12",
                   "--expect", "0.9", "--tol", "0.01"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["estimate", "--space", "klein-bottle"]) == 2
        assert main(["estimate", "--n-min", "9", "--n-max", "4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["prevalence", "--n-min", "2", "--n-max", "3", "--stride", "-1"],
        ["estimate", "--stride", "0"],
        ["cantor", "--n-max", "0"],
        ["cantor", "--n-max", "-1"],
    ], ids=["prevalence-stride-neg", "estimate-stride-0", "cantor-n-max-0",
            "cantor-n-max-neg"])
    def test_nonpositive_stride_or_n_max_exits_2(self, argv, monkeypatch,
                                                  capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, argv[0], refuse)
        assert main(argv) == 2
        flag = argv[-2]
        assert f"error: {flag} must be >= 1, got {argv[-1]}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["estimate", "prevalence"])
    def test_n_min_above_n_max_exits_2(self, command, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, command, refuse)
        assert main([command, "--n-min", "9", "--n-max", "8"]) == 2
        assert "error: --n-min 9 is above --n-max 8" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("d", ["2", "3"])
    def test_cantor_f_drift_needs_d_1(self, d, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "prevalence", refuse)
        assert main(["prevalence", "--n-max", "4", "--d", d,
                     "--drift", "cantor-f"]) == 2
        assert f"error: --drift cantor-f is 1-D: need --d 1, got {d}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["--space", "interval"],
        ["--space", "harmonic", "--n-max", "4"],
    ], ids=["interval", "harmonic"])
    def test_cantor_f_drift_needs_cantor_space(self, argv, monkeypatch,
                                               capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "prevalence", refuse)
        assert main(["prevalence", *argv, "--drift", "cantor-f",
                     "--trials", "5"]) == 2
        assert ("error: --drift cantor-f is defined on the Cantor set: "
                f"need --space cantor, got {argv[1]}") in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("scales, count", [
        (["--n-min", "18", "--n-max", "19"], 2),
        (["--n-min", "5", "--n-max", "5"], 1),
        (["--n-min", "4", "--n-max", "12", "--stride", "5"], 2),
    ])
    def test_estimate_needs_3_scales(self, scales, count, monkeypatch,
                                     capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "estimate", refuse)
        assert main(["estimate", "--space", "interval", *scales]) == 2
        assert ("error: estimate fits a slope to at least 3 scales: "
                f"--n-min, --n-max and --stride give {count}") in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("trials", ["4097", "100000"])
    def test_energy_trials_bounded(self, trials, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "energy", refuse)
        assert main(["energy", "--trials", trials]) == 2
        assert f"error: energy --trials must be <= 4096, got {trials}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--n-min", "4", "--n-max", "12", "--stride", "4"],
        ["energy", "--trials", "4096"],
    ], ids=["estimate-3-scales", "energy-4096-trials"])
    def test_limits_are_inclusive(self, argv, monkeypatch):
        ran = []
        monkeypatch.setitem(cli.RUNNERS, argv[0],
                            lambda cfg, table: ran.append(cfg))
        assert main(argv) == 0
        assert len(ran) == 1

    def test_negative_n_min_exits_2(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "estimate", refuse)
        assert main(["estimate", "--n-min", "-1", "--n-max", "5"]) == 2
        assert "error: --n-min must be >= 0, got -1" in capsys.readouterr().err

    def test_tol_zero_is_kept(self, capsys):
        # the slope is 0.4903, within the default 0.05 of 0.53 but not 0
        rc = main(["estimate", "--space", "harmonic", "--variant", "liminf",
                   "--n-min", "4", "--n-max", "12",
                   "--expect", "0.53", "--tol", "0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exits_2(self, tol, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "estimate", refuse)
        assert main(["estimate", "--expect", "0.5", "--tol", tol]) == 2
        assert f"error: --tol must be >= 0, got {float(tol)}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("expect", ["nan", "inf", "-inf"])
    def test_nonfinite_expect_exits_2(self, expect, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, "estimate", refuse)
        assert main(["estimate", "--space", "harmonic",
                     f"--expect={expect}"]) == 2
        assert f"error: --expect must be finite, got {float(expect)}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command",
                             ["kernel", "energy", "prevalence", "saturation"])
    def test_plot_out_without_series_exits_2(self, command, tmp_path,
                                             monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli.RUNNERS, command, refuse)
        out, plot = tmp_path / "k.csv", tmp_path / "k.txt"
        assert main([command, "--plot-out", str(plot),
                     "--out", str(out)]) == 2
        assert not out.exists() and not plot.exists()
        assert f"--plot-out: {command} writes no series rows" in (
            capsys.readouterr().err)

    def test_unbuilt_prevalence_layer_named(self, capsys):
        assert main(["prevalence", "--n-min", "0", "--n-max", "3",
                     "--trials", "1"]) == 2
        assert "layer 0 not built: layers 1..3 are" in capsys.readouterr().err

    def test_kernel_d3_refused(self, capsys):
        assert main(["kernel", "--d", "3"]) == 2
        assert "kernel checks support d in {1, 2}" in capsys.readouterr().err

    def test_oversized_net_refused_at_once(self, capsys):
        # the first scale needs a 2**25 + 1 point harmonic net
        start = time.perf_counter()
        rc = main(["estimate", "--space", "harmonic",
                   "--n-min", "24", "--n-max", "26"])
        assert rc == 2
        assert time.perf_counter() - start < 10
        assert str(spaces.MAX_MATERIALIZED_POINTS) in capsys.readouterr().err

    def test_plotdata_slope(self, tmp_path):
        path = tmp_path / "series.txt"
        cfg = ExperimentConfig("cantor", n_max=6, plot_out=str(path))
        run(cfg)
        lines = [l for l in path.read_text().splitlines() if l and
                 not l.startswith("#")]
        xs, ys = zip(*(map(float, l.split()) for l in lines))
        # the first emitted series is the odd-digit graph: slope log8/log9
        k = 4
        slope = (ys[k - 1] - ys[0]) / (xs[k - 1] - xs[0])
        assert slope == pytest.approx(math.log(8) / math.log(9), abs=1e-9)

    def test_plotdata_requires_series(self, tmp_path):
        table = ResultTable()
        table.add(ResultRow("x", {}, 1))
        with pytest.raises(ValueError):
            emit_plotdata(table, str(tmp_path / "no.txt"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# harmonic estimate\nspace = harmonic\nvariant = liminf\n"
            "n_min = 4\nn_max = 12\nexpect = 0.5\ntol = 0.05\n")
        out = tmp_path / "r.csv"
        rc = main(["estimate", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 0
        content = out.read_text()
        assert "'space': 'harmonic'" in content

    def test_config_file_bad_key(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("banana = 7\n")
        assert main(["estimate", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("line, flag", [
        ("space = bogus", "--space"),
        ("adversary = nonsense", "--adversary"),
        ("trials = many", "--trials"),
        ("expect = high", "--expect"),
    ])
    def test_config_file_values_validated(self, tmp_path, capsys, line, flag):
        # file values meet the same types and choices as the flags
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(line + "\n")
        assert main(["saturation", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err
        assert line.split("= ")[1] in err
        assert f"error: in config file {cfgfile}" in err

    def test_config_file_values_under_flags(self, tmp_path):
        # the command line overrides the file; a value may start with '-'
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"n-max = 9  # comment\nseed = -5\n"
                           f"plot_out = {tmp_path / 'file.txt'}\n")
        out = tmp_path / "r.csv"
        assert main(["cantor", "--config", str(cfgfile), "--n-max", "3",
                     "--out", str(out),
                     "--plot-out", str(tmp_path / "flag.txt")]) == 0
        assert (tmp_path / "flag.txt").exists()
        assert not (tmp_path / "file.txt").exists()
        body = out.read_text().splitlines()[1:]
        assert body and all(",-5," in line for line in body)
        assert "'n_max': 5" in body[-1]  # the slope floor over n_max = 3

    def test_config_file_command_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("command = report\n")
        assert main(["cantor", "--config", str(cfgfile)]) == 2
        assert "unknown config key 'command'" in capsys.readouterr().err

    def test_rows_carry_seed_and_version(self, tmp_path):
        out = tmp_path / "seeded.csv"
        cfg = ExperimentConfig("cantor", n_max=4, seed="xyz", out=str(out))
        run(cfg)
        body = out.read_text().splitlines()[1:]
        assert all(",xyz," in line for line in body)
        assert all("'version': '0.1.0'" in line for line in body)

    def test_energy_rows_carry_d(self):
        table = run(ExperimentConfig("energy", depth=2, d=2, trials=4,
                                     seed="d2"))
        fam = energy.build_nested_family((2, 2))
        pair = energy.pair_expectation_check(fam, t=0.5, s=0.6,
                                             trials=4 * 1024, seed="d2", d=2)
        check = energy.expected_energy_check(fam, t=0.5, s=0.6, trials=4,
                                             seed="d2", c_hat=pair.c_hat, d=2)
        chat, expected = table.rows
        assert chat.params["d"] == expected.params["d"] == 2
        assert (chat.value, chat.params["stability"], chat.passed) == (
            pair.c_hat, pair.stability_ratio, pair.passed)
        assert (expected.value, expected.reference, expected.params["i_s"],
                expected.passed) == (check.empirical, check.reference,
                                     check.i_s, check.passed)
        assert main(["energy", "--d", "0", "--trials", "1"]) == 2

    def test_kernel_command(self):
        # both dimensions run one quadrature, so every row has a verdict
        for d in (1, 2):
            table = run(ExperimentConfig("kernel", d=d))
            spots = [r for r in table.rows if r.experiment == "kernel-spot"]
            assert spots and spots[0].passed
            assert [r.params["d"] for r in table.rows
                    if r.experiment == "kernel-slope"] == [d] * 3
            assert all(r.passed is not None for r in table.rows), d
            assert table.all_pass()

    def test_report_command_smoke(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = ExperimentConfig("report", trials=5, seed="rpt", out=str(out))
        table = run(cfg)
        kinds = {r.experiment for r in table.rows}
        assert {"cantor-count", "estimate", "saturation",
                "prevalence-event", "kernel-spot", "energy-chat"} <= kinds
        assert out.exists()


class TestLayerDefaults:
    # without --n-max, saturation and prevalence build up to the largest
    # layer that witness accepts; the other commands keep 12

    @pytest.mark.parametrize("space, d, n", [
        ("cantor", 1, 8), ("interval", 1, 7), ("cantor", 2, 6),
        ("interval", 2, 6),
    ])
    def test_saturation_builds_up_to_the_layer_limit(self, space, d, n):
        table = run(ExperimentConfig("saturation", space=space, d=d,
                                     trials=1))
        assert table.rows[0].params["n"] == n
        with pytest.raises(spaces.NetDepthError):
            witness.build_layers(cli.SPACES[space](), d, n + 1)

    def test_prevalence_builds_up_to_the_layer_limit(self):
        table = run(ExperimentConfig("prevalence", space="cantor", d=2,
                                     trials=1))
        assert [r.params["n"] for r in table.rows] == [4, 5, 6]

    def test_default_runs_from_the_command_line(self):
        assert main(["saturation", "--trials", "1"]) != 2

    @pytest.mark.parametrize("space, d, n, adversary", [
        ("cantor", 1, 6, "zero"), ("interval", 2, 5, "collide"),
    ])
    def test_saturation_places_no_satellites(self, monkeypatch, space, d, n,
                                             adversary):
        # the row equals the one computed on the fully built layer
        lay = witness.build_layers(cli.SPACES[space](), d, n)[-1]
        adv = (witness.zero_adversary(d) if adversary == "zero"
               else witness.colliding_adversary(d))
        want = witness.simulate_saturation_failure(lay, adv, 50, "np")

        def refuse(*args):
            raise AssertionError("saturation placed satellites")

        monkeypatch.setattr(witness, "_place_layer", refuse)
        (row,) = run(ExperimentConfig("saturation", space=space, d=d,
                                      n_max=n, adversary=adversary,
                                      trials=50, seed="np")).rows
        assert row.params["failures"] == want.failures
        assert (row.value, row.reference, row.passed, row.ci_high) == (
            want.failure_rate, want.bound, want.passed, want.wilson_upper)

    @pytest.mark.parametrize("command", ["saturation", "prevalence"])
    def test_n_max_above_the_limit_exits_2(self, command, capsys):
        assert main([command, "--n-max", "9", "--trials", "1"]) == 2
        assert ("layer 9 of the triadic_cantor (d = 1) needs"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("space, n_max, kind", [
        ("interval", "19", "unit_interval"),
        ("cantor", "26", "triadic_cantor"),
    ])
    def test_oversized_n_max_refused_before_the_base_net(
            self, monkeypatch, capsys, space, n_max, kind):
        # k_n is bounded below from n alone, so neither the 2**20 + 1-point
        # interval net nor the Cantor net at scale 27 is built
        def refuse(*args):
            raise AssertionError("the base net was built")

        monkeypatch.setattr(witness, "build_net", refuse)
        start = time.perf_counter()
        assert main(["saturation", "--space", space, "--n-max", n_max,
                     "--trials", "1"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"layer {n_max} of the {kind} (d = 1) needs" in err
        assert str(witness.MAX_LAYER_SATELLITES) in err

    def test_prevalence_rows_carry_their_wilson_interval(self):
        table = run(ExperimentConfig("prevalence", space="cantor", n_min=3,
                                     n_max=5, trials=40, seed="ci"))
        for row in table.rows:
            assert (row.ci_low, row.ci_high) == witness.wilson_interval(
                round(row.value * 40), 40)
            assert row.ci_low <= row.value <= row.ci_high

    @pytest.mark.parametrize("d", ["8", "9", "50"])
    @pytest.mark.parametrize("command", ["saturation", "prevalence"])
    def test_oversized_d_exits_2(self, command, d, monkeypatch, capsys):
        # refused from the layer sizes alone: at d = 50 the grid has 3**50
        # points
        def refuse(*args):
            raise AssertionError("the value grid was built")

        monkeypatch.setattr(witness, "value_grid", refuse)
        assert main([command, "--d", d, "--trials", "1"]) == 2
        assert (f"layer 1 of the triadic_cantor (d = {d}) needs"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["estimate", "cantor"])
    def test_other_commands_keep_n_max_12(self, command):
        table = run(ExperimentConfig(command, space="harmonic"))
        assert table.rows[-1].params["n_max"] == 12


GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "report_seed42.csv"


def _cell(column, text):
    if column == "param_json":
        return json.loads(text.replace("'", '"'))
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same(got, want, where):
    """Text and integers exactly; floats to quad's epsrel of 1e-9."""
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-9), (where, got, want)
    elif isinstance(want, (dict, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        keys = want if isinstance(want, dict) else range(len(want))
        for key in keys:
            _assert_same(got[key], want[key], f"{where}[{key!r}]")
    else:
        assert got == want, (where, got, want)


def test_report_seed_42_matches_the_golden_csv(tmp_path):
    out = tmp_path / "report.csv"
    run(ExperimentConfig("report", seed="42", out=str(out)))
    with open(out, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN_REPORT, newline="", encoding="utf-8") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0] == list(cli.CSV_COLUMNS)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), 1):
        assert len(g) == len(w), f"row {i}"
        for column, gc, wc in zip(want[0], g, w):
            _assert_same(_cell(column, gc), _cell(column, wc),
                         f"row {i} {column}")
