"""Span recording around dimlab's layer functions, applied from outside.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` replaces
each listed function with a wrapper that records one span per call: name,
start, end, parent span and pass id, plus the counts its counter derives
from the call's arguments and result.  Spans stay in memory until the run
ends, then :meth:`Tracer.write` dumps them as JSON lines.

A function imported into a sibling module with ``from .x import y`` is a
second binding of the same object; :func:`bindings` finds every binding
in the loaded ``dimlab`` modules, so the re-bound names (``stable_index``
in ``witness`` and ``energy``, ``build_net`` in ``estimators`` and
``witness``, ``discrete_energy`` in ``energy``) are wrapped as well.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (module, attribute, span name, counter).  A counter receives the call's
# bound arguments (defaults applied) and its result and returns counts.
SPANS = [
    ("spaces", "build_net", "spaces.build_net",
     lambda a, r: {"points": r.size()}),
    ("spaces", "ResolutionNet.coord_rows", "spaces.coord_rows",
     lambda a, r: {"rows": len(r)}),
    ("packing", "greedy_packing_coords", "packing.greedy",
     lambda a, r: {"rows": len(a["rows"]), "kept": len(r)}),
    ("packing", "exact_packing_coords", "packing.exact",
     lambda a, r: {"rows": len(a["rows"])}),
    ("packing", "max_packing_greedy", "packing.max_packing_greedy", None),
    ("packing", "max_packing_exact", "packing.max_packing_exact", None),
    ("packing", "occupied_cell_count", "packing.cells",
     lambda a, r: {"points": a["net"].size()}),
    ("estimators", "packing_count_series", "estimators.series", None),
    ("estimators", "cell_count_series", "estimators.series", None),
    ("estimators", "box_dim_estimate", "estimators.box_dim", None),
    ("estimators", "energy_dimension_profile", "estimators.energy_profile",
     None),
    ("estimators", "discrete_energy", "estimators.discrete_energy", None),
    ("estimators", "_energy_grid", "estimators.energy_grid",
     lambda a, r: {"pairs": len(a["measure"].weights) ** 2}),
    ("cantor_pair", "brute_force_mesh_count", "cantor_pair.mesh",
     lambda a, r: {"points": 1 << (4 * a["n"])}),
    ("witness", "build_layers", "witness.build_layers", None),
    ("witness", "sample_witness", "witness.sample", None),
    ("witness", "EventChecker.__init__", "witness.event_setup", None),
    ("witness", "EventChecker.check", "witness.event_check",
     lambda a, r: {"rows": len(a["self"].points), "holds": int(r.holds)}),
    ("witness", "event_fraction", "witness.event_fraction", None),
    ("witness", "simulate_saturation_failure", "witness.saturation",
     lambda a, r: {"trials": r.trials}),
    ("energy", "kernel_integral", "energy.kernel",
     lambda a, r: {"integrals": 1}),
    ("energy", "_pair_mean", "energy.pair_mean",
     lambda a, r: {"draws": 2 * a["d"] * a["trials"]}),
    ("energy", "pair_expectation_check", "energy.pair_check", None),
    ("energy", "expected_energy_check", "energy.expected_energy", None),
    ("energy", "eval_field", "energy.eval_field", None),
    ("energy", "build_nested_family", "energy.build_family", None),
    ("rng", "stable_index", "rng.stable_index", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit_csv", "cli.emit", _bytes_written),
    ("cli", "emit_plotdata", "cli.emit", _bytes_written),
]

# Per-layer metrics: name -> (unit, better).  Counts are "lower is better"
# because they measure work done; the two ratios are useful-outcome shares.
PER_LAYER = {
    "spaces.build_net.s": ("s", "lower"),
    "spaces.build_net.calls": ("count", "lower"),
    "spaces.build_net.points": ("count", "lower"),
    "spaces.coord_rows.s": ("s", "lower"),
    "spaces.coord_rows.rows": ("count", "lower"),
    "packing.greedy.s": ("s", "lower"),
    "packing.greedy.calls": ("count", "lower"),
    "packing.greedy.rows": ("count", "lower"),
    "packing.greedy.keep_frac": ("ratio", "higher"),
    "packing.exact.s": ("s", "lower"),
    "packing.exact.calls": ("count", "lower"),
    "packing.exact.rows": ("count", "lower"),
    "packing.cells.s": ("s", "lower"),
    "packing.cells.points": ("count", "lower"),
    "estimators.series.self_s": ("s", "lower"),
    "estimators.energy_grid.s": ("s", "lower"),
    "estimators.energy_grid.pairs": ("count", "lower"),
    "cantor_pair.mesh.s": ("s", "lower"),
    "cantor_pair.mesh.points": ("count", "lower"),
    "witness.build_layers.s": ("s", "lower"),
    "witness.sample.s": ("s", "lower"),
    "witness.sample.calls": ("count", "lower"),
    "witness.event_check.s": ("s", "lower"),
    "witness.event_check.self_s": ("s", "lower"),
    "witness.event_check.calls": ("count", "lower"),
    "witness.event_check.rows": ("count", "lower"),
    "witness.event_check.hold_frac": ("ratio", "higher"),
    "witness.saturation.s": ("s", "lower"),
    "witness.saturation.trials": ("count", "lower"),
    "energy.kernel.s": ("s", "lower"),
    "energy.kernel.integrals": ("count", "lower"),
    "energy.pair_mean.s": ("s", "lower"),
    "energy.pair_mean.draws": ("count", "lower"),
    "energy.eval_field.s": ("s", "lower"),
    "energy.eval_field.calls": ("count", "lower"),
    "rng.stable_index.s": ("s", "lower"),
    "rng.stable_index.calls": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.emit.s": ("s", "lower"),
    "cli.emit.bytes": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# count-valued metrics must repeat exactly across passes and runs
EXACT_SUFFIXES = ("calls", "rows", "points", "draws", "pairs", "trials",
                  "integrals", "bytes")
RATIOS = {"keep_frac": ("kept", "rows"), "hold_frac": ("holds", "calls")}


def resolve(module: str, attr: str):
    """(owner, name) of ``dimlab.<module>.<attr>``; attr may be Class.method."""
    owner = importlib.import_module(f"dimlab.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def bindings(module: str, attr: str) -> list[tuple[object, str]]:
    """Every (owner, name) under which the function is reachable.

    A method has one binding, its class.  A module function has its home
    module plus every loaded ``dimlab`` module that imported it by name.
    """
    owner, name = resolve(module, attr)
    if inspect.isclass(owner):
        return [(owner, name)]
    target = getattr(owner, name)
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "dimlab"
                               or mod_name.startswith("dimlab.")):
            continue
        for key, value in vars(mod).items():
            if value is target:
                found.append((mod, key))
    return found


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Marks:
    """Start/end times of every call to one function.

    The untraced run uses this to find item boundaries inside a single
    dimlab call (verdict rows, event trials, energy-profile depths); it
    costs two clock reads per item.
    """

    def __init__(self, module: str, attr: str):
        self.calls: list[tuple[float, float]] = []
        self._patches = Patches()
        owner, name = resolve(module, attr)
        orig = getattr(owner, name)
        calls = self.calls

        def marked(*args, **kwargs):
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            calls.append((t0, perf_counter()))
            return out

        for bound_owner, bound_name in bindings(module, attr):
            self._patches.set(bound_owner, bound_name, marked)

    def take(self) -> list[tuple[float, float]]:
        out = list(self.calls)
        self.calls.clear()
        return out

    def close(self):
        self._patches.undo()


class Tracer:
    """Records a span per call of every function in :data:`SPANS`."""

    def __init__(self):
        self.names: list[str] = []
        # span = (name index, start, end, parent span index, pass id, counts)
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._patches = Patches()
        self._stack: list[int] = []

    def install(self):
        # load every module first so that each re-binding is in place
        for module, *_ in SPANS:
            importlib.import_module(f"dimlab.{module}")
        for module, attr, span_name, counter in SPANS:
            owner, name = resolve(module, attr)
            wrapper = self._wrap(span_name, getattr(owner, name), counter)
            for bound_owner, bound_name in bindings(module, attr):
                self._patches.set(bound_owner, bound_name, wrapper)

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, span_name, fn, counter):
        if span_name not in self.names:
            self.names.append(span_name)
        name_id = self.names.index(span_name)
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, t0, perf_counter(), parent,
                              self.pass_id, None)
                raise
            finally:
                stack.pop()
            t1 = perf_counter()
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, out)
            spans[idx] = (name_id, t0, t1, parent, self.pass_id, counts)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover.

        Calls run on one thread and children nest inside their parent
        without overlapping, so covered time is the sum of child durations.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def _outermost(self) -> list[bool]:
        """True for spans with no ancestor of the same name.

        Recursive calls (a product net building its base net, a lazy
        product cell count recursing into its base) nest a span in one of
        the same name; only the outer one counts toward time and counts.
        """
        spans = self.spans
        outer = []
        for s in spans:
            p = s[3]
            while p >= 0 and spans[p][0] != s[0]:
                p = spans[p][3]
            outer.append(p < 0)
        return outer

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Aggregates per pass id: '<span>.s', '.calls', '.self_s', counts."""
        totals: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        own = self.self_times()
        for s, self_s, outer in zip(self.spans, own, self._outermost()):
            agg = totals[s[4]]
            name = self.names[s[0]]
            agg[f"{name}.self_s"] += self_s
            if not outer:
                continue
            agg[f"{name}.s"] += s[2] - s[1]
            agg[f"{name}.calls"] += 1
            for key, value in (s[5] or {}).items():
                agg[f"{name}.{key}"] += value
        return totals

    def write(self, path: str):
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, own)):
                rec = {"id": i, "name": self.names[s[0]], "start": s[1],
                       "end": s[2], "parent": s[3], "pass": s[4],
                       "self_s": self_s}
                if s[5]:
                    rec.update(s[5])
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(per_pass: dict[int, dict[str, float]], passes: list[int]):
    """Per-layer metrics for one set-up plus one pass.

    Set-up (pass id 0) is added once; pass-phase times are the median over
    the traced passes, counts are taken from the first traced pass.
    Returns (metrics, defects) where defects lists every count that is not
    identical across the traced passes.
    """
    setup = per_pass.get(0, {})
    keys = set(setup)
    for p in passes:
        keys |= set(per_pass.get(p, {}))
    defects = []
    raw: dict[str, float] = {}
    for key in sorted(keys):
        values = [per_pass.get(p, {}).get(key, 0.0) for p in passes]
        if key.rsplit(".", 1)[1] in EXACT_SUFFIXES + ("kept", "holds"):
            if len(set(values)) > 1:
                defects.append(f"{key} differs across passes: {values}")
            pass_value = values[0]
        else:
            pass_value = statistics.median(values)
        raw[key] = setup.get(key, 0.0) + pass_value
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        span, field = name.rsplit(".", 1)
        if field in RATIOS:
            num, den = RATIOS[field]
            base = raw.get(f"{span}.{den}", 0.0)
            metrics[name] = raw.get(f"{span}.{num}", 0.0) / base if base else 0.0
        else:
            value = raw.get(name, 0.0)
            metrics[name] = int(value) if field in EXACT_SUFFIXES else value
    return metrics, defects
