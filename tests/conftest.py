import numpy as np
import pytest

from magflow import ChartSpec, MagneticSystem, MetricField, make_form, make_manifold

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
