"""Span tracer that wraps grovekit's public functions from outside.

Nothing inside the package is edited: `instrument` replaces each traced
function in every grovekit module namespace that binds it (``cli`` imports
``run_episode`` and ``optimize_slack`` by name, ``grovekit`` re-exports
everything) and patches the traced methods on their classes.  `restore`
puts the originals back, so untraced passes in the same process pay
nothing.

A span records name, start, end, parent span and job id.  Spans stay in
memory and are written once, when the run ends.  The three per-round
functions of the commons game (``agent_decide``, ``apply_law``, ``step``)
run millions of times per pass; they are aggregated into their calls,
busy and self time without storing one span each, which keeps a traced
pass within a few MB.

Self time is a span's duration minus the time covered by its traced
children.  Everything runs in one thread with no queue, so no layer ever
waits on another and no wait time is reported.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict
from functools import wraps

import numpy as np

# (module, attribute) pairs; "Class.method" patches a class attribute.
TRACED = (
    ("regsim", "optimize_slack"),
    ("regsim", "mean_welfare"),
    ("regsim", "run_episode"),
    ("regsim", "agent_decide"),
    ("regsim", "apply_law"),
    ("regsim", "step"),
    ("regsim", "load_scenario"),
    ("regsim", "Trace.to_csv"),
    ("variational", "solve_critical"),
    ("variational", "first_variation"),
    ("variational", "Functional.__call__"),
    ("variational", "christoffel"),
    ("variational", "MetricField.__call__"),
    ("variational", "integrate_geodesic"),
    ("variational", "GeodesicPath.to_csv"),
    ("variational", "optimal_policy_path"),
    ("variational", "lever_metric"),
    ("variational", "policy_information"),
    ("variational", "word_distance_cost"),
    ("variational", "cyclic_group"),
    ("variational", "dihedral_group"),
    ("variational", "direct_product"),
    ("infotheory", "build_nested_distribution"),
    ("infotheory", "fisher_information"),
    ("infotheory", "cramer_rao_report"),
    ("infotheory", "GridDistribution.dumps"),
    ("enumeration", "enumerate_topologies"),
    ("enumeration", "enumerate_groves"),
    ("enumeration", "verify_against_table"),
    ("enumeration", "enumerate_situations"),
    ("enumeration", "load_table"),
    ("expr", "parse"),
    ("expr", "render"),
    ("expr", "canonicalize"),
    ("model", "rank"),
    ("cli", "main"),
    ("cli", "write_atomic"),
)

AGGREGATE_ONLY = frozenset(
    {"regsim.agent_decide", "regsim.apply_law", "regsim.step"})

MODULES = ("expr", "model", "enumeration", "infotheory", "variational",
           "regsim", "cli")

# Full-grid float64 arrays each function itself reads or writes; its
# ".bytes_computed" is cells x 8 x this count.  Computed from array sizes,
# not measured, so cache behaviour is ignored.
GRID_ARRAYS = {
    # one mesh per axis, the inner values, the delta output, the normalised copy
    "infotheory.build_nested_distribution": lambda n_axes: n_axes + 3,
    # density read, its logarithm, the gradient
    "infotheory.fisher_information": lambda n_axes: 3,
    # one marginal-moment pass over the density per axis
    "infotheory.cramer_rao_report": lambda n_axes: n_axes,
    # density read once
    "infotheory.GridDistribution.dumps": lambda n_axes: 1,
}


class Stat:
    __slots__ = ("calls", "busy", "self_time", "raised", "active")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.active = 0


class Tracer:
    """Collects spans and per-function aggregates for one run."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self.job = -1
        self._stack: list[list] = []  # [start, child_time, span_index]
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._span_job = array("l")
        self._patches: list[tuple[object, str, object]] = []
        self._solve_values: list[float | None] = []
        self._optimize_best: list[float] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        store = name not in AGGREGATE_ONLY
        hook = _HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        starts, ends = self._span_start, self._span_end
        parents, span_names, jobs = (self._span_parent, self._span_name,
                                     self._span_job)
        enter = _ENTER.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            index = -1
            if store:
                index = len(starts)
                parent = -1
                for frame in reversed(stack):
                    if frame[2] >= 0:
                        parent = frame[2]
                        break
                starts.append(start)
                ends.append(start)
                span_names.append(name_id)
                parents.append(parent)
                jobs.append(self.job)
            if enter is not None:
                enter(self)
            stat.active += 1
            frame = [start, 0.0, index]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                if store:
                    ends[index] = end
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_time += duration - frame[1]
                if stat.active == 0:
                    stat.busy += duration
                if exc is not None:
                    stat.raised += 1
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return traced

    def instrument(self, package) -> None:
        """Wrap every traced function in every module that binds it."""
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            module = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self._span_name, dtype=np.uint16),
                 start=np.frombuffer(self._span_start, dtype=np.float64),
                 end=np.frombuffer(self._span_end, dtype=np.float64),
                 parent=np.frombuffer(self._span_parent, dtype=np.int64),
                 job=np.frombuffer(self._span_job, dtype=np.int64))

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s for every traced function."""
        return {name: {"calls": s.calls, "busy_s": s.busy,
                       "self_s": s.self_time}
                for name, s in self.stats.items()}

    def per_layer(self, passes: int, traced_wall_s: float) -> dict:
        """Per-layer metrics per traced pass: name -> (value, unit).

        ``traced_wall_s`` is the wall time of all traced passes together;
        self time is given as its share of that.
        """
        out = {}
        for name, s in self.stats.items():
            out[f"{name}.calls"] = (s.calls / passes, "count")
            out[f"{name}.self_pct"] = (100.0 * s.self_time / traced_wall_s,
                                       "%")
        c = self.counters
        out["regsim.apply_law.draws"] = (c["apply_law.draws"] / passes,
                                         "count")
        opt_calls = self.stats["regsim.optimize_slack"].calls
        evals = c["optimize_slack.welfare_evals"]
        out["regsim.optimize_slack.welfare_evals_per_call"] = (
            evals / opt_calls if opt_calls else 0.0, "1/call")
        out["regsim.optimize_slack.useful_ratio"] = (
            c["optimize_slack.useful"] / evals if evals else 0.0, "ratio")
        out["regsim.Trace.to_csv.bytes"] = (c["Trace.to_csv.bytes"] / passes,
                                            "B")
        out["variational.solve_critical.unconverged"] = (
            self.stats["variational.solve_critical"].raised / passes, "count")
        fevals = c["solve_critical.functional_evals"]
        out["variational.solve_critical.accept_ratio"] = (
            c["solve_critical.accepted"] / fevals if fevals else 0.0, "ratio")
        steps = c["integrate_geodesic.steps"]
        out["variational.integrate_geodesic.steps"] = (steps / passes, "count")
        out["variational.integrate_geodesic.metric_evals_per_step"] = (
            c["integrate_geodesic.metric_evals"] / steps if steps else 0.0,
            "1/step")
        for name in GRID_ARRAYS:
            out[f"{name}.cells"] = (c[f"{name}.cells"] / passes, "count")
            out[f"{name}.bytes_computed"] = (c[f"{name}.bytes"] / passes, "B")
        out["cli.write_atomic.bytes"] = (c["write_atomic.bytes"] / passes, "B")
        return out


# -- hooks: counters taken from arguments and results ------------------------

def _apply_law(tr, args, kwargs, result, exc):
    law, extraction = args[0], args[1]
    if law is not None and extraction > law.tolerance:
        tr.counters["apply_law.draws"] += 1


def _enter_optimize(tr):
    tr._optimize_best.append(-math.inf)


def _optimize(tr, args, kwargs, result, exc):
    tr._optimize_best.pop()


def _mean_welfare(tr, args, kwargs, result, exc):
    # An evaluation inside optimize_slack is useful when it raises the
    # running best of that call; the first raises it from -inf.
    if exc is None and tr._optimize_best:
        tr.counters["optimize_slack.welfare_evals"] += 1
        if result > tr._optimize_best[-1]:
            tr.counters["optimize_slack.useful"] += 1
            tr._optimize_best[-1] = result


def _enter_solve(tr):
    tr._solve_values.append(None)


def _solve(tr, args, kwargs, result, exc):
    tr._solve_values.pop()


def _functional(tr, args, kwargs, result, exc):
    # solve_critical evaluates F directly for its start value and for each
    # backtracking candidate, accepting a finite candidate below the
    # current value; gradient evaluations go through first_variation.
    # Mirroring that rule counts accepted steps from outside.
    if not tr._solve_values:
        return
    tr.counters["solve_critical.functional_evals"] += 1
    if exc is not None or tr.stats["variational.first_variation"].active:
        return
    current = tr._solve_values[-1]
    if current is None:
        tr._solve_values[-1] = result
    elif math.isfinite(result) and result < current:
        tr.counters["solve_critical.accepted"] += 1
        tr._solve_values[-1] = result


def _geodesic(tr, args, kwargs, result, exc):
    steps = kwargs.get("steps", args[3] if len(args) > 3 else 0)
    if exc is None:
        tr.counters["integrate_geodesic.steps"] += steps


def _metric(tr, args, kwargs, result, exc):
    if tr.stats["variational.integrate_geodesic"].active:
        tr.counters["integrate_geodesic.metric_evals"] += 1


def _to_csv_bytes(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counters["Trace.to_csv.bytes"] += len(result)


def _write_atomic(tr, args, kwargs, result, exc):
    # the reports are ASCII, so characters equal bytes
    tr.counters["write_atomic.bytes"] += len(args[1])


def _grid_hook(name):
    arrays = GRID_ARRAYS[name]

    def hook(tr, args, kwargs, result, exc):
        if exc is not None:
            return
        dist = result if name.endswith("build_nested_distribution") else args[0]
        cells = dist.values.size
        tr.counters[f"{name}.cells"] += cells
        tr.counters[f"{name}.bytes"] += cells * 8 * arrays(len(dist.grid.axes))
    return hook


_ENTER = {
    "regsim.optimize_slack": _enter_optimize,
    "variational.solve_critical": _enter_solve,
}

_HOOKS = {
    "regsim.apply_law": _apply_law,
    "regsim.optimize_slack": _optimize,
    "regsim.mean_welfare": _mean_welfare,
    "regsim.Trace.to_csv": _to_csv_bytes,
    "variational.solve_critical": _solve,
    "variational.Functional.__call__": _functional,
    "variational.integrate_geodesic": _geodesic,
    "variational.MetricField.__call__": _metric,
    "cli.write_atomic": _write_atomic,
    **{name: _grid_hook(name) for name in GRID_ARRAYS},
}
