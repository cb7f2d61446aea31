"""Measure the baseline and the benchmark's own spread; write baseline.json.

    python3 perfbench/baseline.py

For each of two sets and every workload in ``BENCHMARK.json`` this runs
``run.py`` once per seed (set k uses seeds 10k+1 .. 10k+10), one process at
a time, and records each end-to-end metric's median, quartiles and spread
(quartile distance over median), with the same for the unscaled set-up and
pass times and the speed factor.  It then makes two traced runs per
workload with the same seed and checks that their per-layer counts are
identical.  The result, with the machine manifest, goes to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
RUN_TIMEOUT_S = 900
RUNS = 10
SETS = 2
MEASURED = "# measured "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus its unscaled times under "measured"."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S,
                           capture_output=True, text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(MEASURED):
            result["measured"] = json.loads(line[len(MEASURED):])
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def manifest(seconds: int) -> dict:
    sys.path.insert(0, HERE)
    import run
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_caps": run.THREAD_CAPS,
            "run_seconds": seconds}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {"manifest": manifest(seconds), "workloads": {}}
    ok = True
    for workload in whys:
        entry = {"why": whys[workload], "sets": []}
        for k in range(SETS):
            seeds = list(range(10 * k + 1, 10 * k + RUNS + 1))
            runs = [run_once(workload, s, seconds, 0) for s in seeds]
            ok &= all(r["correct"] for r in runs)
            metrics = {name: spread([r["metrics"][name]["value"]
                                     for r in runs]) for name in bounds}
            measured = {name: spread([r["measured"][name] for r in runs])
                        for name in runs[0]["measured"]}
            entry["sets"].append({
                "seeds": seeds, "metrics": metrics, "measured": measured,
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs]})
            print(f"{workload:10s} set {k + 1} unscaled: " + ", ".join(
                f"{name} median {st['median']:.4f} spread {st['spread']:.3f}"
                for name, st in measured.items()), flush=True)
            for name, st in metrics.items():
                flag = ""
                if name != "setup_s" and st["spread"] > bounds[name] / 3:
                    flag = "  <- spread above a third of the bound"
                print(f"{workload:10s} set {k + 1} {name:14s} median "
                      f"{st['median']:10.4f} spread {st['spread']:.3f} "
                      f"(bound {bounds[name]}){flag}", flush=True)
        if len(entry["sets"]) > 1:
            first, second = (s["metrics"] for s in entry["sets"][:2])
            entry["drift"] = {name: second[name]["median"]
                              / first[name]["median"] - 1 for name in bounds}
            for name, drift in entry["drift"].items():
                if drift > bounds[name]:
                    ok = False
                    print(f"{workload:10s} {name} second median worse by "
                          f"{drift:.3f} > bound {bounds[name]}", flush=True)
        traces = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        counts = {name: [t["metrics"][name]["value"] for t in traces]
                  for name in traces[0]["metrics"]
                  if traces[0]["metrics"][name]["unit"] == "count"}
        mismatched = [n for n, v in counts.items() if v[0] != v[1]]
        ok &= not mismatched and all(t["correct"] for t in traces)
        entry["trace"] = {"seed": 1, "metrics": traces[0]["metrics"],
                          "count_mismatches": mismatched}
        print(f"{workload:10s} traced twice with seed 1: "
              f"{len(counts) - len(mismatched)}/{len(counts)} counts match",
              flush=True)
        report["workloads"][workload] = entry
        with open(OUT, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
