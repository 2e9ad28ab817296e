"""Spans and counters around the public functions of each ``pacbayes`` module.

The program itself is not changed: while tracing is installed, every public
function of the layer modules, and the public methods of ``GaussianFamily``
and ``EvalStack``, are replaced in every ``pacbayes`` namespace that holds
them by a wrapper that records a span (name, start, end, parent span).
Work counts are read from call arguments and results.  Spans stay in memory
and are written out when the run ends; a layer's self time is its span time
minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("families", "risk", "weighting", "solver", "meta", "experiments", "seeding")
TRACED_CLASSES = {"families": ("GaussianFamily",), "risk": ("EvalStack",)}
# Span names that differ from "<module>.<function>".
ALIASES = {
    "weighting.voronoi_weights": "weighting.voronoi",
    "weighting.importance_weights": "weighting.importance",
}

# Per-layer metrics, in the order BENCHMARK.json lists them, with units.
METRICS = (
    ("weighting.voronoi.calls", "count"),
    ("weighting.voronoi.self_s", "s"),
    ("weighting.voronoi.nn_pairs", "count"),
    ("weighting.importance.self_s", "s"),
    ("families.log_partition.calls", "count"),
    ("families.log_partition.self_s", "s"),
    ("families.cholesky.calls", "count"),
    ("weighting.project.calls", "count"),
    ("weighting.project.self_s", "s"),
    ("weighting.project.rows", "count"),
    ("solver.damped_update.self_s", "s"),
    ("solver.damped_update.kl_evals", "count"),
    ("families.kl.calls", "count"),
    ("families.kl.self_s", "s"),
    ("solver.run_supac_ce.calls", "count"),
    ("solver.run_supac_ce.self_s", "s"),
    ("families.sample.draws", "count"),
    ("families.sample.self_s", "s"),
    ("families.moments_from_natural.calls", "count"),
    ("families.moments_from_natural.self_s", "s"),
    ("families.fisher_info.self_s", "s"),
    ("risk.eval_risk.points", "count"),
    ("risk.eval_risk.self_s", "s"),
    ("risk.record.calls", "count"),
    ("risk.record.self_s", "s"),
    ("risk.ledger_points", "count"),
    ("seeding.child_seed.calls", "count"),
    ("seeding.child_seed.self_s", "s"),
    ("meta.inner_solves.first", "count"),
    ("meta.inner_solves.warm", "count"),
    ("meta.run_meta_sgd.self_s", "s"),
    ("meta.meta_gradient.self_s", "s"),
    ("meta.evaluate_prior.self_s", "s"),
    ("experiments.run_experiment.self_s", "s"),
    ("experiments.bytes_written", "B"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = []
        self.start = []
        self.end = []
        self.parent = []
        self._open = []
        self.counts = {}
        self._restore = []

    # -- spans ---------------------------------------------------------
    def _open_span(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close_span(self, idx):
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def parent_name(self):
        """Name of the innermost open span, or None."""
        return self.names[self.name_id[self._open[-1]]] if self._open else None

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    # -- installation --------------------------------------------------
    def _wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn) if (before or after) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(tracer, bound.arguments)
            idx = tracer._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(idx)
            if after:
                after(tracer, bound.arguments, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the layer functions in place; undo with :meth:`uninstall`."""
        modules = {name: importlib.import_module(f"pacbayes.{name}") for name in LAYERS}
        namespaces = [sys.modules["pacbayes"]] + list(modules.values())
        hooks = _hooks()
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped = self._wrap(name, fn, *hooks.get(name, (None, None)))
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._patch(ns, attr, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{attr}"
                    self._patch(cls, attr, self._wrap(name, fn, *hooks.get(name, (None, None))))
        families = modules["families"]
        cho_factor = families.cho_factor

        @functools.wraps(cho_factor)
        def counted_cho_factor(*args, **kwargs):
            self.add("families.cholesky.calls")
            return cho_factor(*args, **kwargs)

        self._patch(families, "cho_factor", counted_cho_factor)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def arrays(self):
        return {
            "names": np.asarray(self.names),
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def summary(self):
        """Calls and self time per span name, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            mask = a["name_id"] == nid
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
        kl_id = self._name_ids.get("families.kl")
        du_id = self._name_ids.get("solver.damped_update")
        if kl_id is not None and du_id is not None:
            kl = a["name_id"] == kl_id
            out["solver.damped_update.kl_evals"] = int(
                np.sum(a["name_id"][a["parent"][kl]] == du_id)
            )
        return out

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def _hooks():
    """(before, after) callbacks that take work counts from arguments and results."""

    def voronoi(t, a):
        t.add("weighting.voronoi.nn_pairs", int(a["n_mc"]) * len(a["stack"]))

    def project(t, a):
        t.add("weighting.project.rows", len(a["stack"]))

    def sample(t, a):
        t.add("families.sample.draws", int(a["n"]))

    def eval_risk(t, a):
        t.add("risk.eval_risk.points", np.atleast_2d(np.asarray(a["x"])).shape[0])

    def record(t, a):
        t.add("risk.ledger_points", np.atleast_2d(np.asarray(a["points"])).shape[0])

    def run_supac_ce(t, a):
        if t.parent_name() == "meta.run_meta_sgd":
            warm = a["stack"] is not None and len(a["stack"]) > 0
            t.add("meta.inner_solves.warm" if warm else "meta.inner_solves.first")

    def run_experiment(t, a, manifest):
        out = manifest["config"].get("output_dir", ".")
        names = list(manifest["outputs"]) + ["manifest.json"]
        t.add("experiments.bytes_written", sum(os.path.getsize(os.path.join(out, n)) for n in names))

    return {
        "weighting.voronoi": (voronoi, None),
        "weighting.project": (project, None),
        "families.sample": (sample, None),
        "risk.eval_risk": (eval_risk, None),
        "risk.record": (record, None),
        "solver.run_supac_ce": (run_supac_ce, None),
        "experiments.run_experiment": (None, run_experiment),
    }


def layer_metrics(summary, rounds, overhead_s):
    """The per-layer metrics per traced round, every one present."""
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = summary.get(name, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out
