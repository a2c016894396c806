"""Span tracing of magflow's layers from outside the package.

`Tracer.install()` replaces each function or method named in `SPANS` at
every binding a `magflow.*` module holds, with a wrapper that records one
span (id, name, start, end, parent span, job id) per call in flat arrays.
`Tracer.remove()` puts every original back.  Nothing in magflow changes, so
a traced run must write byte-identical payloads.
"""
from __future__ import annotations

import importlib
import itertools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute) -- "Class.method" names a method.
SPANS = [
    ("geometry.metric", "magflow.geometry", "MetricField.__call__"),
    ("geometry.metric", "magflow.geometry", "MetricField.raw"),
    ("geometry.chart_guard", "magflow.geometry", "ChartSpec.contains"),
    ("geometry.christoffel", "magflow.geometry", "christoffel"),
    ("geometry.dchristoffel", "magflow.geometry", "dchristoffel"),
    ("geometry.riemann", "magflow.geometry", "riemann"),
    ("forms.sigma", "magflow.forms", "TwoFormField.__call__"),
    ("forms.sigma", "magflow.forms", "TwoFormField.raw"),
    ("system.lorentz", "magflow.system", "MagneticSystem.lorentz"),
    ("system.dlorentz", "magflow.system", "MagneticSystem.dlorentz"),
    ("system.nabla_lorentz", "magflow.system", "MagneticSystem.nabla_lorentz"),
    ("flow.generator", "magflow.flow", "generator"),
    ("flow.generator_jacobian", "magflow.flow", "generator_jacobian"),
    ("flow.integrate", "magflow.flow", "integrate"),
    ("flow.variational_flow", "magflow.flow", "variational_flow"),
    ("transport.parallel_transport", "magflow.transport", "parallel_transport"),
    ("transport.frame_flow", "magflow.transport", "frame_flow"),
    ("transport.closed_orbit_holonomy", "magflow.transport", "closed_orbit_holonomy"),
    ("curvature.op_A", "magflow.curvature", "op_A"),
    ("curvature.op_R", "magflow.curvature", "op_R"),
    ("curvature.magnetic_sectional", "magflow.curvature", "magnetic_sectional"),
    ("curvature.anosov_report", "magflow.curvature", "anosov_report"),
    ("scenario.load_scenario", "magflow.scenario", "load_scenario"),
    ("scenario.build_system", "magflow.scenario", "build_system"),
    ("diagnostics.lyapunov_spectrum", "magflow.diagnostics", "lyapunov_spectrum"),
    ("diagnostics.volume_drift", "magflow.diagnostics", "volume_drift"),
    ("diagnostics.conjugate_point_scan", "magflow.diagnostics", "conjugate_point_scan"),
    ("diagnostics.transversality_angle", "magflow.diagnostics", "transversality_angle"),
    ("submanifold.hessian", "magflow.submanifold", "ParamSubmanifold.hessian"),
    ("submanifold.candidate_submanifold", "magflow.submanifold", "candidate_submanifold"),
    ("submanifold.cartan_probe", "magflow.submanifold", "cartan_probe"),
    ("cli.output", "magflow.cli", "_write"),
]
NAMES = sorted({name for name, _, _ in SPANS})


def _steps(args, kwargs, traj):
    """RK4 steps one `integrate` call attempted: the accepted ones plus the
    one that crossed the chart guard."""
    return len(traj.times) - 1 + int(traj.exited)


def _variational_floats(args, kwargs, result):
    """Floats the variational state carries per RK4 step, from the array
    sizes: base point (2n) plus the 2n x m tangent matrix."""
    n = args[1].x.size
    J0 = kwargs.get("J0", args[4] if len(args) > 4 else None)
    m = 2 * n if J0 is None else np.asarray(J0).shape[1]
    return 2 * n + 2 * n * m


# Per-call quantities read off arguments and results, summed per pass.
PROBES = {
    "flow.integrate": _steps,
    "flow.variational_flow": _variational_floats,
    "submanifold.cartan_probe": lambda args, kwargs, rep: len(rep.defects),
    "cli.output": lambda args, kwargs, result: len(args[2].encode()),
}


def _magflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "magflow" or name.startswith("magflow."))]


class Tracer:
    """Records spans while installed; `take()` hands over a pass's spans."""

    def __init__(self):
        self.job = -1
        self._ids = itertools.count()
        self._stack = [-1]
        self._patched = []          # (owner, attribute, original)
        self._wrappers = {}         # id -> wrapper
        self._reset()

    def _reset(self):
        self.cols = {"id": array("q"), "name": array("h"), "parent": array("q"),
                     "job": array("h"), "start": array("d"), "end": array("d")}
        self.probe_sums = dict.fromkeys(PROBES, 0.0)

    def _wrap(self, fn, name):
        name_id = NAMES.index(name)
        probe = PROBES.get(name)
        stack, ids, clock = self._stack, self._ids, perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                c = tracer.cols
                c["id"].append(sid)
                c["name"].append(name_id)
                c["parent"].append(parent)
                c["job"].append(tracer.job)
                c["start"].append(t0)
                c["end"].append(t1)
            if probe is not None:
                tracer.probe_sums[name] += probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self):
        modules = _magflow_modules()
        for name, modname, attr in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, name))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def remove(self) -> list:
        """Restore every original; returns the bindings still wrapped (should
        be none)."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        left = []
        for m in _magflow_modules():
            for key, val in vars(m).items():
                owners = [(key, val)]
                if isinstance(val, type):
                    owners += [(f"{key}.{k}", v) for k, v in vars(val).items()]
                left += [f"{m.__name__}.{k}" for k, v in owners if id(v) in self._wrappers]
        self._wrappers.clear()
        return left

    def take(self):
        """The spans recorded since the last call, as numpy arrays, and the
        probe sums."""
        spans = {k: np.array(v, dtype=v.typecode) for k, v in self.cols.items()}
        probes = self.probe_sums
        self._reset()
        return spans, probes


def _by_id(spans):
    """Re-index spans so that row i is the span with the i-th smallest id
    and parents point at rows (-1 for a root)."""
    order = np.argsort(spans["id"], kind="stable")
    ids = spans["id"][order]
    row = np.full(ids[-1] - ids[0] + 1, -1, dtype=np.int64)
    row[ids - ids[0]] = np.arange(len(ids))
    parent = spans["parent"][order]
    inside = parent >= ids[0]
    prow = np.full(len(ids), -1, dtype=np.int64)
    prow[inside] = row[parent[inside] - ids[0]]
    return {"name": spans["name"][order], "parent": prow,
            "dur": spans["end"][order] - spans["start"][order]}


def _under(t, ancestor: str):
    """Rows that have a span called `ancestor` above them."""
    target = NAMES.index(ancestor)
    up = t["parent"].copy()
    found = np.zeros(len(up), dtype=bool)
    while True:
        live = up >= 0
        if not live.any():
            return found
        found[live] |= t["name"][up[live]] == target
        up[live] = t["parent"][up[live]]


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def layer_metrics(spans, probes) -> dict:
    """Per-layer counts, self times and machine-independent counters of one
    traced pass.  A ratio whose base is zero (the layer did not run) is 0."""
    t = _by_id(spans)
    n_names = len(NAMES)
    has_parent = t["parent"] >= 0
    child = np.bincount(t["parent"][has_parent], weights=t["dur"][has_parent],
                        minlength=len(t["dur"]))
    self_t = t["dur"] - child
    calls = np.bincount(t["name"], minlength=n_names)
    self_s = np.bincount(t["name"], weights=self_t, minlength=n_names)

    def count(name, under=None):
        mask = t["name"] == NAMES.index(name)
        if under is not None:
            mask &= _under(t, under)
        return int(mask.sum())

    out = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
    gen = count("flow.generator")
    qr = count("flow.variational_flow", "diagnostics.lyapunov_spectrum") \
        + count("flow.variational_flow", "diagnostics.volume_drift")
    out.update({
        "flow.rhs_per_step": _ratio(count("flow.generator", "flow.integrate"),
                                    probes["flow.integrate"]),
        "flow.metric_evals_per_rhs": _ratio(count("geometry.metric", "flow.generator"), gen),
        "flow.guard_calls_per_rhs": _ratio(count("geometry.chart_guard", "flow.generator"), gen),
        "flow.variational_floats_per_step": _ratio(probes["flow.variational_flow"],
                                                   count("flow.variational_flow")),
        "curvature.nabla_per_sectional": _ratio(
            count("system.nabla_lorentz", "curvature.magnetic_sectional"),
            count("curvature.magnetic_sectional")),
        "submanifold.variational_per_hessian": _ratio(
            count("flow.variational_flow", "submanifold.hessian"),
            count("submanifold.hessian")),
        "submanifold.cartan.plane_yield": _ratio(
            probes["submanifold.cartan_probe"],
            count("submanifold.candidate_submanifold", "submanifold.cartan_probe")),
        "transport.holonomy.return_evals": _ratio(
            count("flow.integrate", "transport.closed_orbit_holonomy"),
            count("transport.closed_orbit_holonomy")),
        "diagnostics.qr_segments": qr,
        "cli.output.bytes": int(probes["cli.output"]),
    })
    return out
