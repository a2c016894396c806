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


def counted_system(name, form, **form_params):
    """A built-in model whose metric closure and chart guard count calls."""
    chart, metric = make_manifold(name)
    calls = {"metric": 0, "guard": 0}

    def counted(key, fn):
        def wrapper(x):
            calls[key] += 1
            return fn(x)
        return wrapper

    chart = ChartSpec(dim=chart.dim,
                      domain_guard=counted("guard", chart.domain_guard),
                      sample_bounds=chart.sample_bounds)
    metric = MetricField(counted("metric", metric.raw), dg=metric.dg,
                         d2g=metric.d2g, chart=chart)
    sigma = make_form(form, chart.dim, metric, chart, **form_params)
    return MagneticSystem(chart, metric, sigma), calls


@pytest.fixture(params=MODEL_NAMES)
def model(request):
    chart, metric = make_manifold(request.param)
    return request.param, chart, metric


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
