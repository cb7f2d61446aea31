"""Command line driver: seeded experiments with CSV and plot-data output.

Subcommands
-----------
estimate    box / energy dimension estimates for a space
cantor      digit-pair mesh counts against the closed forms, plus slopes
prevalence  graph-packing event fractions over sampled witness functions
saturation  translated-grid saturation failure Monte Carlo
energy      pairwise expectation constant and expected graph energy
kernel      kernel integral ratio sweep, settled-slope and spot value
report      the default battery of all of the above

Every emitted row carries the seed, the package version and the full
parameter set, so any row can be reproduced from the file alone.  Each
subcommand takes only the options in its ``READS`` set, as flags, config
keys or ``run`` arguments.  Exit status: 0 when all rows pass, 1 when
any fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

from . import __version__, cantor_pair, energy, estimators, spaces, witness

USAGE_ERROR = 2
# energy holds one float64 per pair draw and coordinate, trials * 1024 of
# them, so 4096 trials (2**22 draws, the most criterion 9 uses) hold
# 32 MiB at d = 1 and 64 MiB at d = 2
MAX_ENERGY_TRIALS = 4096
# cantor's slope fits take the closed-form counts at every n in 3..n_max,
# quadratic in n_max: 2000 takes about 0.5 s, 30000 about 40 s and 440 MB
MAX_CANTOR_N = 2000

LOG2_3 = math.log(2) / math.log(3)

SPACES = {
    "interval": spaces.unit_interval,
    "cantor": spaces.triadic_cantor,
    "harmonic": spaces.harmonic_sequence,
}


@dataclass
class ExperimentConfig:
    command: str
    space: str = "cantor"
    n_min: int = 4
    n_max: int | None = None  # None: 12, or the largest layer witness builds
    stride: int = 1
    depth: int = 3
    trials: int = 200
    seed: str = "0"
    variant: str = "full-fit"
    drift: str = "zero"
    adversary: str = "zero"
    d: int = 1
    expect: float | None = None
    tol: float = 0.05
    out: str | None = None
    plot_out: str | None = None

    def scales(self):
        return range(self.n_min, self.n_max + 1, self.stride)


@dataclass
class ResultRow:
    experiment: str
    params: dict
    value: object
    reference: object = None
    passed: bool | None = None
    seed: str = "0"
    ci_low: object = None
    ci_high: object = None


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    def add(self, row: ResultRow):
        self.rows.append(row)

    def all_pass(self) -> bool:
        return all(r.passed is not False for r in self.rows)


CSV_COLUMNS = ("experiment", "param_json", "value", "reference", "pass",
               "seed", "ci_low", "ci_high")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_csv(table: ResultTable, path: str) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in table.rows:
        params = dict(r.params)
        params["version"] = __version__
        pj = json.dumps(params, sort_keys=True).replace('"', "'")
        lines.append(",".join((
            r.experiment, f'"{pj}"', _fmt(r.value), _fmt(r.reference),
            _fmt(r.passed), str(r.seed), _fmt(r.ci_low), _fmt(r.ci_high),
        )))
    _write_lines(path, lines, "CSV")


def emit_plotdata(table: ResultTable, path: str) -> None:
    """Two-column (x = n*log base, y = log count) series for plotting."""
    series = [r for r in table.rows if r.params.get("series") is not None]
    if not series:
        raise ValueError("table contains no scale-series rows")
    lines = []
    for r in series:
        base = r.params["log_base"]
        params = dict(r.params)
        params.pop("series")
        params["version"] = __version__
        lines.append(f"# experiment={r.experiment} seed={r.seed} "
                     f"params={json.dumps(params, sort_keys=True)}")
        for n, count in r.params["series"]:
            lines.append(f"{n * math.log(base)!r} {math.log(count)!r}")
    _write_lines(path, lines, "plot data")


def _write_lines(path: str, lines: list[str], what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment runners


def _run_estimate(cfg: ExperimentConfig, table: ResultTable) -> None:
    space = SPACES[cfg.space]()
    series = estimators.packing_count_series(space, list(cfg.scales()))
    est = estimators.box_dim_estimate(series, cfg.variant)
    passed = None
    if cfg.expect is not None:
        passed = abs(est.slope - cfg.expect) <= cfg.tol
    table.add(ResultRow(
        "estimate",
        {"space": cfg.space, "variant": cfg.variant,
         "n_min": cfg.n_min, "n_max": cfg.n_max, "stride": cfg.stride,
         "series": list(series.entries), "log_base": series.log_base,
         "r2": est.fit_r2},
        est.slope, cfg.expect, passed, cfg.seed,
    ))


def _run_cantor(cfg: ExperimentConfig, table: ResultTable) -> None:
    n_bf = min(cfg.n_max, 3)
    fns = tuple(cantor_pair.DigitFunction)  # the closed forms' order
    for n in range(1, n_bf + 1):
        closed = cantor_pair.closed_form_counts(n)
        for fn, ref in zip(fns, closed):
            got = cantor_pair.brute_force_mesh_count(fn, n)
            table.add(ResultRow(
                "cantor-count", {"fn": fn.value, "n": n},
                got, ref, got == ref, cfg.seed,
            ))
    n_hi = max(cfg.n_max, 5)  # a slope fit needs at least three scales
    for fn, pick in ((fns[0], 0), (fns[2], 2)):
        entries = tuple(
            (n, cantor_pair.closed_form_counts(n)[pick])
            for n in range(3, n_hi + 1)
        )
        series = estimators.ScaleSeries(entries, log_base=9)
        est = estimators.box_dim_estimate(series, "full-fit")
        ref = (math.log(8) / math.log(9) if pick == 0 else 0.5 + LOG2_3)
        table.add(ResultRow(
            "cantor-slope",
            {"fn": fn.value, "n_min": 3, "n_max": n_hi,
             "series": list(entries), "log_base": 9},
            est.slope, ref, abs(est.slope - ref) <= 0.02, cfg.seed,
        ))


def _drift_fn(name: str):
    if name == "zero":
        return None
    if name == "cantor-f":
        return lambda p: (cantor_pair.evaluate(
            cantor_pair.DigitFunction.ODD_DIGITS, p),)
    raise ValueError(f"unknown drift {name!r}")


def _run_prevalence(cfg: ExperimentConfig, table: ResultTable) -> None:
    space = SPACES[cfg.space]()
    layers = witness.build_layers(space, cfg.d, cfg.n_max)
    drift = _drift_fn(cfg.drift)
    for n in cfg.scales():
        frac = witness.event_fraction(layers, n, drift, cfg.trials, cfg.seed)
        ref = 1.0 - 2.0 * 0.5 ** n
        low, high = witness.wilson_interval(round(frac * cfg.trials),
                                            cfg.trials)
        table.add(ResultRow(
            "prevalence-event",
            {"space": cfg.space, "n": n, "d": cfg.d, "drift": cfg.drift,
             "trials": cfg.trials},
            frac, ref, frac >= ref, cfg.seed, ci_low=low, ci_high=high,
        ))


def _run_saturation(cfg: ExperimentConfig, table: ResultTable) -> None:
    # the check reads only the layer's sizes, so no satellite is placed
    size = witness._size_layer(SPACES[cfg.space](), cfg.n_max, cfg.d)
    adv = (witness.zero_adversary(cfg.d) if cfg.adversary == "zero"
           else witness.colliding_adversary(cfg.d))
    rep = witness.simulate_saturation_failure(size, adv, cfg.trials, cfg.seed)
    table.add(ResultRow(
        "saturation",
        {"space": cfg.space, "n": cfg.n_max, "d": cfg.d,
         "adversary": cfg.adversary, "trials": cfg.trials,
         "failures": rep.failures},
        rep.failure_rate, rep.bound, rep.passed, cfg.seed,
        ci_low=0.0, ci_high=rep.wilson_upper,
    ))


def _run_energy(cfg: ExperimentConfig, table: ResultTable) -> None:
    branching = (2,) * cfg.depth
    fam = energy.build_nested_family(branching)
    rep = energy.pair_expectation_check(
        fam, t=0.5, s=0.6, trials=cfg.trials * 1024, seed=cfg.seed,
        d=cfg.d)
    table.add(ResultRow(
        "energy-chat",
        {"depth": cfg.depth, "d": cfg.d, "t": 0.5, "s": 0.6,
         "stability": rep.stability_ratio},
        rep.c_hat, 2.0, rep.passed, cfg.seed,
    ))
    echeck = energy.expected_energy_check(
        fam, t=0.5, s=0.6, trials=cfg.trials, seed=cfg.seed, c_hat=rep.c_hat,
        d=cfg.d)
    table.add(ResultRow(
        "energy-expected",
        {"depth": cfg.depth, "d": cfg.d, "t": 0.5, "s": 0.6,
         "i_s": echeck.i_s},
        echeck.empirical, echeck.reference, echeck.passed, cfg.seed,
    ))


def _run_kernel(cfg: ExperimentConfig, table: ResultTable) -> None:
    qs = [0.5 ** k for k in range(1, 9)]
    u_grid = (0.75, 1.0, 1.5) if cfg.d == 1 else (1.25, 1.5, 2.0)
    cases = [(p, q, theta) for p in qs for q in qs
             for theta in (0.0, 0.3, 2.0)]
    for u in u_grid:
        const = energy.kernel_constant(cfg.d, u)
        # one batch per u, so its arrays stay below the pair mean's
        worst = max(rep.ratio for rep in
                    energy.kernel_bound_checks(cases, u, cfg.d))
        table.add(ResultRow(
            "kernel-bound", {"d": cfg.d, "u": u},
            worst, const, worst <= const, cfg.seed,
        ))
        slope = energy.kernel_q_slope(cfg.d, u, 0.5,
                                      [0.5 ** k for k in range(1, 13)])
        table.add(ResultRow(
            "kernel-slope", {"d": cfg.d, "u": u, "p": 0.5},
            slope, 0.0, abs(slope) <= 0.1, cfg.seed,
        ))
    spot = energy.kernel_bound_check(1.0, 1.0, 0.0, 1.0, 1)
    ref = math.pi / 2 - math.log(2)
    table.add(ResultRow(
        "kernel-spot", {"d": 1, "u": 1.0, "p": 1.0, "q": 1.0, "theta": 0.0},
        spot.integral, ref, abs(spot.integral - ref) <= 1e-4, cfg.seed,
    ))


def _run_report(cfg: ExperimentConfig, table: ResultTable) -> None:
    _run_cantor(ExperimentConfig("cantor", n_max=7, seed=cfg.seed), table)
    _run_estimate(ExperimentConfig(
        "estimate", space="harmonic", variant="liminf", n_min=4, n_max=12,
        seed=cfg.seed, expect=0.5), table)
    # the Wilson upper bound cannot clear 1.5x the n=5 target with fewer
    # than ~700 trials, so the battery floors the saturation sample size
    _run_saturation(ExperimentConfig(
        "saturation", space="cantor", n_max=5,
        trials=max(min(cfg.trials, 20000), 2000), seed=cfg.seed), table)
    _run_prevalence(ExperimentConfig(
        "prevalence", space="cantor", n_min=5, n_max=6,
        trials=min(cfg.trials, 100), seed=cfg.seed), table)
    _run_kernel(ExperimentConfig("kernel", d=1, seed=cfg.seed), table)
    _run_energy(ExperimentConfig(
        "energy", depth=3, trials=min(cfg.trials, 200), seed=cfg.seed), table)


RUNNERS = {
    "estimate": _run_estimate,
    "cantor": _run_cantor,
    "prevalence": _run_prevalence,
    "saturation": _run_saturation,
    "energy": _run_energy,
    "kernel": _run_kernel,
    "report": _run_report,
}

# the config fields each command reads; its parser and config file take
# only these, and run() refuses any other field that is off its default
READS = {command: set(names.split()) for command, names in dict(
    estimate="space n_min n_max stride variant expect tol seed out plot_out",
    cantor="n_max seed out plot_out",
    prevalence="space n_min n_max stride d drift trials seed out",
    saturation="space n_max d adversary trials seed out",
    energy="depth d trials seed out",
    kernel="d seed out",
    report="trials seed out plot_out",
).items()}


def run(cfg: ExperimentConfig) -> ResultTable:
    if cfg.command not in RUNNERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    for f in fields(cfg)[1:]:
        if (getattr(cfg, f.name) != f.default
                and f.name not in READS[cfg.command]):
            readers = ", ".join(c for c in READS if f.name in READS[c])
            raise ValueError(f"--{f.name.replace('_', '-')} is read by "
                             f"{readers}, not by {cfg.command}")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    if cfg.d < 1:
        raise ValueError("d must be >= 1")
    if cfg.command == "prevalence" and cfg.n_min < 1:
        raise ValueError(f"prevalence needs --n-min >= 1, got {cfg.n_min}")
    if cfg.n_min < 0:
        raise ValueError(f"--n-min must be >= 0, got {cfg.n_min}")
    if cfg.n_max is None:
        layered = cfg.command in ("prevalence", "saturation")
        cfg = replace(cfg, n_max=witness.largest_layer(
            SPACES[cfg.space](), cfg.d) if layered else 12)
    if cfg.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {cfg.n_max}")
    if cfg.stride < 1:
        raise ValueError(f"--stride must be >= 1, got {cfg.stride}")
    if cfg.command in ("estimate", "prevalence") and cfg.n_min > cfg.n_max:
        raise ValueError(f"--n-min {cfg.n_min} is above --n-max {cfg.n_max}")
    if cfg.command == "estimate" and len(cfg.scales()) < 3:
        raise ValueError("estimate fits a slope to at least 3 scales: "
                         "--n-min, --n-max and --stride give "
                         f"{len(cfg.scales())}")
    if cfg.drift == "cantor-f" and cfg.d != 1:
        raise ValueError(f"--drift cantor-f is 1-D: need --d 1, got {cfg.d}")
    if cfg.drift == "cantor-f" and cfg.space != "cantor":
        raise ValueError("--drift cantor-f is defined on the Cantor set: "
                         f"need --space cantor, got {cfg.space}")
    if cfg.command == "energy" and cfg.trials > MAX_ENERGY_TRIALS:
        raise ValueError(f"energy --trials must be <= {MAX_ENERGY_TRIALS}, "
                         f"got {cfg.trials}")
    if cfg.command == "cantor" and cfg.n_max > MAX_CANTOR_N:
        raise ValueError(f"cantor --n-max must be <= {MAX_CANTOR_N}, "
                         f"got {cfg.n_max}")
    if not cfg.tol >= 0:  # NaN fails every comparison
        raise ValueError(f"--tol must be >= 0, got {cfg.tol}")
    if cfg.expect is not None and not math.isfinite(cfg.expect):
        raise ValueError(f"--expect must be finite, got {cfg.expect}")
    table = ResultTable()
    RUNNERS[cfg.command](cfg, table)
    if cfg.out:
        emit_csv(table, cfg.out)
    if cfg.plot_out:
        emit_plotdata(table, cfg.plot_out)
    return table


# ---------------------------------------------------------------------------
# argument handling


# argparse keywords of every option, in the config's field order
FLAGS = dict(
    space=dict(choices=sorted(SPACES)), n_min=dict(type=int),
    n_max=dict(type=int), stride=dict(type=int), depth=dict(type=int),
    trials=dict(type=int), seed={},
    variant=dict(choices=("liminf", "limsup", "full-fit")),
    drift=dict(choices=("zero", "cantor-f")),
    adversary=dict(choices=("zero", "collide")),
    d=dict(type=int), expect=dict(type=float), tol=dict(type=float),
    out=dict(help="CSV output path"),
    plot_out=dict(help="two-column plot data output path"),
)


def _config_flags(path: str, command: str) -> list[str]:
    """Plain key=value lines as ``--key=value`` flags; '#' starts a comment."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in READS[command]:
                raise ValueError(f"{path}:{lineno}: unknown config key "
                                 f"{key!r} for {command}")
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(args.command, **{
        key: val for key, val in vars(args).items()
        if key in READS[args.command] and val is not None})


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimlab",
        description="dimension experiments with reproducible seeds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        # no prefix matching, so "--n" is refused, not read as --n-max
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(parser=p)
        p.add_argument("--config", help="key=value config file")
        for key, kwargs in FLAGS.items():
            if key in READS[name]:
                p.add_argument(f"--{key.replace('_', '-')}", **kwargs)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # refused under the subcommand's own usage line
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.config:
            # file values enter as flags ahead of the command line's, so
            # they meet the same types and choices and the flags override
            at = argv.index(args.command) + 1
            try:
                args = parser.parse_args(
                    argv[:at] + _config_flags(args.config, args.command)
                    + argv[at:])
            except SystemExit as exc:
                if exc.code:
                    print(f"error: in config file {args.config}",
                          file=sys.stderr)
                raise
        table = run(build_config(args))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for row in table.rows:
        status = ("PASS" if row.passed else "FAIL") if row.passed is not None \
            else "  - "
        print(f"{status} {row.experiment:20s} value={_fmt(row.value)} "
              f"reference={_fmt(row.reference)}")
    return 0 if table.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
