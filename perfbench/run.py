"""dimlab benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``report`` runs the CLI's default battery
in process, ``geometry`` the deterministic counts and energy profiles,
``montecarlo`` the seeded trial loops.  Load is one process on its main
thread; passes repeat identical inputs until ``--seconds`` have elapsed.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
spans recorded around every layer function (see ``spans.py``), and the
spans are written to ``perfbench/out``.  Every pass is checked against
references; an exception or a wrong output is a failed check.

Set-up, pass, tail-item and span times are scaled to nominal host speed
by a probe that runs on a timer while they run (see ``speed.py``); the
output also prints the measured set-up and pass times and the factor.
``setup_s`` is the median over three fresh interpreters, each timing its
own import of dimlab and input build.  ``item_ms_p50`` is the median over
items of each item's fastest repeat, as measured.

The package is imported from ``src/`` of the current directory and nowhere
else: without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import os

# one process on the main thread: cap numeric library threads before numpy
# is first imported
THREAD_CAPS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
OVERHEAD_PAIRS = 3
MIN_TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "first_pass_s": "s", "pass_s": "s",
                    "peak_rss_mb": "MB"}
# printed by name and unit, but not in the JSON result: across seeds they
# spread too widely on a shared 2-core host to carry a regression bound
ITEM_UNITS = {"item_ms_p50": "ms", "item_ms_tail": "ms"}


def import_package(root: str):
    """Import dimlab from ``<root>/src``; refuse any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dimlab", "__init__.py")):
        raise SystemExit(f"error: no dimlab package under {src}")
    sys.path.insert(0, src)
    import dimlab
    if not os.path.abspath(dimlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: dimlab imported from {dimlab.__file__}")
    return dimlab


def tail(sorted_items: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with ten items beyond it."""
    n = len(sorted_items)
    k = max(n - 1 - MIN_TAIL_BEYOND, 0)
    return sorted_items[k], 100 * (k + 1) / n


def time_setup(workload: str, seed: int, repeats: int) -> list[tuple]:
    """(measured, scaled) set-up times of fresh interpreters.

    Each child imports dimlab and builds the workload's inputs with its own
    speed probe running, and prints its measured and scaled times.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True).stdout
        times.append(tuple(float(x) for x in out.split()[-2:]))
    return times


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Import dimlab and build the inputs; returns (measured, scaled)."""
    probe = SpeedProbe()
    probe.start()
    t0 = perf_counter()
    try:
        import_package(os.getcwd())
        from workloads import WORKLOADS
        WORKLOADS[workload](seed, OUT_DIR)
    finally:
        t1 = perf_counter()
        probe.stop()
    return probe.work(t0, t1), probe.scaled(t0, t1)


def run_passes(wl, seconds: float, min_passes: int):
    """Identical passes until ``seconds`` elapsed and ``min_passes`` ran.

    Returns the passes and their (start, end) clock intervals.
    """
    passes, spans = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(wl.run_pass())
        spans.append((t0, perf_counter()))
        if perf_counter() - start >= seconds and len(passes) >= min_passes:
            return passes, spans


def tally(passes) -> tuple[int, list[str], dict[str, int]]:
    """(attempted, failure messages, known defects) over all passes.

    Each pass after the first also checks that its verdicts repeat the
    first pass's exactly.
    """
    attempted, failures = 0, []
    for i, res in enumerate(passes):
        attempted += len(res.checks)
        failures += [f"pass {i}: {name}" for name, ok in res.checks if not ok]
        if i:
            attempted += 1
            if res.signature != passes[0].signature:
                failures.append(f"pass {i}: verdicts differ from pass 0")
    known = {}
    for res in passes:
        for key, count in res.known.items():
            known[key] = known.get(key, 0) + count
    return attempted, failures, known


def measure(workload: str, seed: int, seconds: float,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Untraced run: every end-to-end metric plus the check tally."""
    from workloads import WORKLOADS
    cls = WORKLOADS[workload]
    setup = time_setup(workload, seed, setup_repeats)
    wl = cls(seed, OUT_DIR)
    probe = SpeedProbe()
    wl.mark()
    probe.start()
    try:
        passes, spans = run_passes(wl, seconds, max(2, cls.ITEM_PASSES))
    finally:
        probe.stop()
        wl.unmark()
    factors = [probe.factor(a, b) for a, b in spans]
    times = [probe.scaled(a, b) for a, b in spans]
    # items from a fixed number of passes, so the tail percentile names the
    # same rank in every run
    measured = [[1e3 * sum(probe.work(a, b) for a, b in item)
                 for item in res.items] for res in passes[:cls.ITEM_PASSES]]
    # Passes repeat the same items in the same order.  The p50 is over each
    # item's fastest repeat, as measured: most items take milliseconds,
    # where host noise only ever adds time, and the fastest repeat is the
    # one it touched least (scaling it by a pass-wide factor would add the
    # noise back).  The tail keeps every repeat, scaled by its pass.
    p50 = statistics.median(min(r) for r in zip(*measured))
    items = sorted(f * x for f, ms in zip(factors, measured) for x in ms)
    tail_ms, tail_pct = tail(items)
    attempted, failures, known = tally(passes)
    return {
        "metrics": {
            "setup_s": statistics.median(t for _, t in setup),
            "first_pass_s": times[0],
            "pass_s": statistics.median(times[1:]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "item_metrics": {"item_ms_p50": p50, "item_ms_tail": tail_ms},
        "measured": {
            "setup_s": statistics.median(t for t, _ in setup),
            "pass_s": statistics.median(probe.work(a, b)
                                        for a, b in spans[1:]),
            "speed": probe.factor(spans[0][0], spans[-1][1]),
        },
        "passes": len(times), "items": len(items), "tail_pct": tail_pct,
        "attempted": attempted, "failures": failures, "known": known,
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics and the tracing overhead.

    Set-up runs traced (pass id 0).  After one cold untraced pass, pairs
    of a traced pass (pass ids 1, 2, ...) and an untraced one follow until
    ``seconds`` have elapsed and at least ``OVERHEAD_PAIRS`` pairs ran.
    Overhead is the median over pairs of the traced pass time minus the
    untraced one, so a slow spell of the host touches both sides of a
    pair.  Span times are scaled by their pass's probe factor.
    """
    from spans import EXACT_SUFFIXES, Tracer, layer_metrics
    from workloads import WORKLOADS
    probe = SpeedProbe()
    tracer = Tracer()
    probe.start()
    try:
        tracer.install()
        try:
            t0 = perf_counter()
            wl = WORKLOADS[workload](seed, OUT_DIR)
            phases = {0: (t0, perf_counter())}
        finally:
            tracer.uninstall()
        passes, pairs = [wl.run_pass()], []
        start = perf_counter()
        while (len(pairs) < OVERHEAD_PAIRS
               or perf_counter() - start < seconds):
            tracer.pass_id = len(pairs) + 1
            tracer.install()
            try:
                t0 = perf_counter()
                passes.append(wl.run_pass())
                t1 = perf_counter()
            finally:
                tracer.uninstall()
            t2 = perf_counter()
            passes.append(wl.run_pass())
            pairs.append(((t0, t1), (t2, perf_counter())))
    finally:
        probe.stop()
    phases.update(enumerate((traced for traced, _ in pairs), start=1))
    per_pass = tracer.per_pass()
    for pid, agg in per_pass.items():
        factor = probe.factor(*phases[pid])
        for key in agg:
            if key.endswith((".s", ".self_s")):
                agg[key] *= factor
    metrics, defects = layer_metrics(per_pass,
                                     list(range(1, len(pairs) + 1)))
    overheads = [probe.scaled(*traced) - probe.scaled(*plain)
                 for traced, plain in pairs]
    metrics["trace.overhead_s"] = statistics.median(overheads)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    tracer.write(trace_path)
    attempted, failures, known = tally(passes)
    attempted += sum(k.rsplit(".", 1)[1] in EXACT_SUFFIXES for k in metrics)
    failures += [f"count defect: {d}" for d in defects]
    return {"metrics": metrics, "passes": len(pairs), "overheads": overheads,
            "spans": len(tracer.spans), "trace_path": trace_path,
            "attempted": attempted, "failures": failures, "known": known}


def print_result(workload: str, seed: int, result: dict, trace: bool) -> None:
    from spans import PER_LAYER
    from workloads import KNOWN_DEFECTS
    units = ({k: u for k, (u, _) in PER_LAYER.items()} if trace
             else END_TO_END_UNITS)
    metrics = result["metrics"]
    attempted, failed = result["attempted"], len(result["failures"])
    if trace:
        print(f"# {workload} seed {seed}: {result['passes']} traced passes, "
              f"{result['spans']} spans written to "
              f"{os.path.relpath(result['trace_path'])}")
        overheads = result["overheads"]
        print("# per-layer values are set-up plus one pass (median time)")
        print(f"# trace.overhead_s is the median of {len(overheads)} traced "
              f"pass times minus the untraced pass after each: "
              + " ".join(f"{d:+.3f}" for d in overheads) + " s; "
              + ("unresolved, the pairs disagree in sign"
                 if min(overheads) < 0 < max(overheads)
                 else "every pair agrees in sign"))
    else:
        m = result["measured"]
        print(f"# {workload} seed {seed}: {result['passes']} passes "
              f"(1 cold, {result['passes'] - 1} warm); times are scaled to "
              f"nominal host speed by {m['speed']:.3f} (see speed.py)")
        # unscaled set-up and pass times (s) and the speed factor, as JSON
        print("# measured " + json.dumps(m))
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:34s} {shown} {unit}")
    if not trace:
        for name, unit in ITEM_UNITS.items():
            print(f"{name:34s} {result['item_metrics'][name]:>16.6g} {unit}")
        print(f"# items: N = {result['items']} from the first passes; "
              f"p50 = median over items of each item's fastest repeat "
              f"as measured; "
              f"tail = p{result['tail_pct']:.2f} of all N, "
              f"{MIN_TAIL_BEYOND} items beyond it")
    print(f"{'fail_frac':34s} {failed / attempted:>16.6g} "
          f"({failed} failed of {attempted} checks)")
    for msg in result["failures"][:20]:
        print(f"# FAILED {msg}")
    for key, count in result["known"].items():
        state = (f"seen in {count} records" if count
                 else "not seen: fixed? update KNOWN_DEFECTS")
        print(f"# known defect {key} ({KNOWN_DEFECTS[key]}): {state}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("report", "geometry", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(*setup_once(args.workload, args.seed))
        return 0
    import_package(os.getcwd())
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print_result(args.workload, args.seed, result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
