import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import magflow
from magflow import ChartSpec, MagneticSystem, MetricField, make_form, make_manifold
from magflow.errors import MagflowError

MODEL_NAMES = ["euclidean", "flat_torus", "poincare_disk", "poincare_ball",
               "round_sphere"]


def system(manifold, form="zero", manifold_params=None, **form_params):
    chart, metric = make_manifold(manifold, **(manifold_params or {}))
    sigma = make_form(form, chart.dim, metric, chart, **form_params)
    return MagneticSystem(chart, metric, sigma)


def strength(form, b):
    """The parameters of `form` at strength b; the zero form takes none."""
    return {} if form == "zero" else {"b": b}


def unit(metric, x, v):
    v = np.asarray(v, dtype=float)
    return v / metric.norm(x, v)


def run_python(args, check=False):
    """`python args` in a new process that imports this magflow."""
    src = os.path.dirname(os.path.dirname(magflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, check=check)


def conformal_system():
    """The free flow of g = e^{2 phi} delta on R^3, phi = 0.3 x1^2 + 0.2 x3,
    with analytic dg and d2g: a test metric whose curvature is not
    constant, not a package model."""
    chart = ChartSpec(dim=3)
    hess = np.diag([0.6, 0.0, 0.0])

    def grad(x):
        return np.array([0.6 * x[0], 0.0, 0.2])

    def g(x):
        return np.exp(0.6 * x[0] ** 2 + 0.4 * x[2]) * np.eye(3)

    def dg(x):      # d_k g_ij = 2 phi_k g_ij
        return np.einsum("ij,k->ijk", g(x), 2.0 * grad(x))

    def d2g(x):     # d_k d_l g_ij = (4 phi_k phi_l + 2 phi_kl) g_ij
        d = grad(x)
        return np.einsum("ij,kl->ijkl", g(x), 4.0 * np.outer(d, d) + 2.0 * hess)

    metric = MetricField(g, dg=dg, d2g=d2g, chart=chart)
    return MagneticSystem(chart, metric, make_form("zero", 3, metric, chart))


def counted_system(name, form, broadcasts=False, lean=True, **form_params):
    """A built-in model whose metric closure, chart guard and float closure
    `spray` count calls; its metric evaluates a batch point by point unless
    it `broadcasts`, and declares no `spray` (so an RK4 stage takes the
    `PointGeometry` path) unless it is `lean`.  Its form is built from the
    counted metric, with the form's own float closure `magnetic_acc`."""
    chart, metric = make_manifold(name)
    calls = {"metric": 0, "spray": 0, "guard": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    guard = chart.domain_guard
    chart = ChartSpec(dim=chart.dim,
                      domain_guard=None if guard is None else counted("guard", guard),
                      sample_bounds=chart.sample_bounds)
    metric = MetricField(counted("metric", metric.raw), dg=metric.dg,
                         d2g=metric.d2g, chart=chart, broadcasts=broadcasts,
                         spray=counted("spray", metric.spray) if lean
                         else None)
    sigma = make_form(form, chart.dim, metric, chart, **form_params)
    return MagneticSystem(chart, metric, sigma), calls


@pytest.fixture(params=MODEL_NAMES)
def model(request):
    chart, metric = make_manifold(request.param)
    return request.param, chart, metric


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


# Inputs of the float-kernel tests: edge values, then any float at all
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                -1e-300, 1e300, -1e300, 1.7976931348623157e308, math.inf,
                -math.inf, math.nan, 1.0, -2.5]
kernel_floats = st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=True, allow_infinity=True))


def outcome(f, *args):
    """The bits of each float f returns (one, or a list), with every NaN
    read as one value, or the type of the error it raises.  A NaN's sign
    and payload are not compared: CPython adds floats in more than one C
    function (its float type, `sum`, the specialised bytecode of a warm
    expression), and C leaves the NaN that a sum of two NaNs returns
    unspecified."""
    try:
        out = f(*args)
    except (ArithmeticError, ValueError, MagflowError) as exc:
        return type(exc)
    return ["nan" if math.isnan(u) else struct.pack("<d", u)
            for u in (out if isinstance(out, list) else [out])]
