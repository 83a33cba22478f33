"""Span recorder wrapped around srdf_kit's public functions from outside.

``traced(recorder)`` replaces every public function of every srdf_kit module
(and ``TrainedCode.encode``) in each module namespace that binds it with a
wrapper that records a span: name, start, end, parent span and job id.  The
package calls its helpers through module globals, so nested calls are caught
too.  Spans stay in flat in-memory arrays until ``save`` writes them out.
The originals are put back when the block exits.

``layer_metrics`` turns one traced pass over a workload into the per-layer
metrics named in BENCHMARK.json: call counts, self and inclusive times, and
the derived ratios.  A layer's self time is its span's duration minus the
part its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "model", "srdf", "field", "universal", "setopt", "simulate")


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1

    def wrap(self, fn, label: str):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return wrapper

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith("srdf_kit.")):
            yield attr, obj


@contextmanager
def traced(recorder: SpanRecorder):
    """Install span wrappers in every srdf_kit namespace; restore the originals on exit."""
    import importlib

    namespaces = [importlib.import_module("srdf_kit")]
    namespaces += [importlib.import_module(f"srdf_kit.{m}") for m in MODULES]
    wrappers: dict[int, object] = {}
    patched = []
    for ns in namespaces:
        for attr, fn in list(_public_functions(ns)):
            if id(fn) not in wrappers:
                label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = recorder.wrap(fn, label)
            patched.append((ns, attr, fn))
            setattr(ns, attr, wrappers[id(fn)])
    code_cls = importlib.import_module("srdf_kit.simulate").TrainedCode
    encode = code_cls.encode
    code_cls.encode = recorder.wrap(encode, "simulate.encode")
    try:
        yield recorder
    finally:
        code_cls.encode = encode
        for ns, attr, fn in patched:
            setattr(ns, attr, fn)


class SpanTable:
    """Per-span durations and self times of one recorder."""

    def __init__(self, recorder: SpanRecorder):
        a = recorder.arrays()
        self.names = recorder.names
        self.name, self.parent, self.job = a["name"], a["parent"], a["job"]
        self.dur = a["end"] - a["start"]
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, label: str) -> np.ndarray:
        if label not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(label)

    def calls(self, label: str) -> int:
        return int(np.count_nonzero(self.mask(label)))

    def self_s(self, label: str) -> float:
        return float(np.sum(self.self_time[self.mask(label)]))

    def incl_s(self, label: str) -> float:
        return float(np.sum(self.dur[self.mask(label)]))

    def children_of(self, parent_label: str, child_labels) -> np.ndarray:
        """Spans named in ``child_labels`` whose direct parent is a ``parent_label`` span."""
        pm = self.mask(parent_label)
        cm = np.zeros(len(self.dur), dtype=bool)
        for label in child_labels:
            cm |= self.mask(label)
        has_parent = self.parent >= 0
        cm &= has_parent
        cm[has_parent] &= pm[self.parent[has_parent]]
        return cm

    def module_self(self) -> dict[str, float]:
        per_name = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        out: dict[str, float] = {}
        for label, t in zip(self.names, per_name):
            module = label.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + float(t)
        return out


CURVE_TASKS = ("srdf", "distrate", "gmf-srdf", "usrdf-bayes", "usrdf-nonbayes")
QUAD_ENTRY_POINTS = ("field.field_weight_matrix", "field.field_min_distortion",
                     "field.field_max_distortion")
COUNTED = ("model.validate_covariance", "model.partition", "srdf.congruent_spectrum",
           "srdf.waterfill", "srdf.waterfill_inverse", "srdf.min_distortion",
           "field.field_min_distortion", "field.field_weight_matrix",
           "universal.project_family", "universal.bayes_atom_data",
           "universal.atom_distortion_at_rate", "simulate.encode")
INCLUSIVE = ("field.optimize_placement", "universal.bayes_usrdf", "setopt.best_fixed_set",
             "simulate.build_code", "simulate.universal_two_step")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: SpanTable, jobs, artifacts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    ``jobs`` are the pass's jobs in span job-id order; ``artifacts(job)``
    returns (config dict, summary or report dict or None, curve points written).
    """
    m: dict[str, tuple[float, str]] = {"cli.main.self_s": (t.self_s("cli.main"), "s")}
    for label in COUNTED:
        m[f"{label}.calls"] = (t.calls(label), "count")
        m[f"{label}.self_s"] = (t.self_s(label), "s")
    for label in INCLUSIVE:
        m[f"{label}.incl_s"] = (t.incl_s(label), "s")
    m["field.field_srdf.calls"] = (t.calls("field.field_srdf"), "count")
    m["simulate.build_code.calls"] = (t.calls("simulate.build_code"), "count")

    spectra = t.mask("srdf.congruent_spectrum")
    quad = np.zeros(len(t.dur), dtype=bool)
    for label in QUAD_ENTRY_POINTS:
        quad |= t.mask(label)
    points = spectra_in_curves = nodes = subsets = lbg = gflop = trials = 0.0
    for jid, job in enumerate(jobs):
        cfg, meta, curve_points = artifacts(job)
        in_job = t.job == jid
        if job.task in CURVE_TASKS:
            points += curve_points
            spectra_in_curves += np.count_nonzero(spectra & in_job)
        if "field" in cfg:
            # each quadrature pair evaluates the full and the half resolution
            qp = int(cfg["field"].get("quad_points", 2048))
            nodes += 1.5 * qp * np.count_nonzero(quad & in_job)
        if meta is None:      # a failed job; the run reports it
            continue
        if job.task == "optimize-set":
            subsets += meta["subsets"]
        if job.task in ("simulate", "usim"):
            rep = meta["report"]
            k = len(cfg["sampling"])
            lbg += sum(rep["lbg_iterations"])
            gflop += sum(2.0 * rep["codeword_count"] * rep["train_blocks"] * rep["n"] * k * it
                         for it in rep["lbg_iterations"]) / 1e9
        if job.task == "usim":
            trials += rep["eval_blocks"]
    m["srdf.spectra_per_point"] = (_ratio(spectra_in_curves, points), "ratio")
    m["field.quad_pairs"] = (int(np.count_nonzero(quad)), "count")
    m["field.quad_nodes_computed"] = (nodes, "count")
    objective = t.children_of("field.optimize_placement",
                              ("field.field_min_distortion", "field.field_srdf"))
    m["field.objective_calls_per_placement"] = (
        _ratio(np.count_nonzero(objective), t.calls("field.optimize_placement")), "ratio")
    m["universal.family_build_s"] = (
        t.incl_s("universal.fixed_var_corr_family") + t.incl_s("universal.affine_family"), "s")
    m["universal.rate_evals_per_point"] = (
        _ratio(t.calls("universal.atom_distortion_at_rate"), t.calls("universal.bayes_usrdf")), "ratio")
    m["setopt.subsets"] = (subsets, "count")
    m["setopt.us_per_subset"] = (_ratio(1e6 * t.incl_s("setopt.best_fixed_set"), subsets), "us")
    m["simulate.lbg_iterations"] = (lbg, "count")
    m["simulate.assign_gflop_computed"] = (gflop, "GFLOP")
    # the per-trial loop: universal_two_step's own time plus the encodes it runs
    loop = (t.self_s("simulate.universal_two_step")
            + float(np.sum(t.dur[t.children_of("simulate.universal_two_step", ("simulate.encode",))])))
    m["simulate.us_per_trial"] = (_ratio(1e6 * loop, trials), "us")
    split = t.module_self()
    for module in MODULES:
        m[f"layer.{module}.self_s"] = (split.get(module, 0.0), "s")
    return m
