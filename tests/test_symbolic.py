"""The float closures of the built-in models and forms against sympy.

`MetricField.diagonal` and `TwoFormField.sigma_v` are written by hand, and
the rest of the suite compares them with the same model's array closures.
Here g, its derivative and sigma v are derived symbolically from each
model's definition instead: the flat metric, the Poincare conformal factor
4 / (1 - |x|^2)^2, and the round sphere as the pullback of the Euclidean
metric along its embedding in hyperspherical angles.
"""
from functools import cache

import numpy as np
import sympy as sp
import pytest
from hypothesis import assume, given, settings, strategies as st

from magflow import make_form, make_manifold

from conftest import strength

_MODELS = [("euclidean", {}), ("flat_torus", {}), ("poincare_disk", {}),
           ("poincare_ball", {}), ("round_sphere", {"dim": 2}),
           ("round_sphere", {"dim": 3})]
_PAIRS = [(model, form) for model in _MODELS
          for form in ("zero", "constant", "area_form")
          if form != "area_form" or make_manifold(model[0], **model[1])[0].dim == 2]


def _sphere_embedding(t):
    """The unit sphere in R^(n+1) at the hyperspherical angles t_1..t_n."""
    y, rest = [], sp.Integer(1)
    for a in t:
        y.append(rest * sp.cos(a))
        rest = rest * sp.sin(a)
    return y + [rest]


def _symbolic_metric(name: str, n: int, x) -> sp.Matrix:
    if name in ("euclidean", "flat_torus"):
        return sp.eye(n)
    if name in ("poincare_disk", "poincare_ball"):
        return 4 / (1 - sum(a**2 for a in x))**2 * sp.eye(n)
    J = sp.Matrix(_sphere_embedding(x)).jacobian(x)
    return J.T * J


@cache
def _model(name: str, dim=None):
    """The chart and metric of a built-in model, and numeric functions of a
    chart point for its symbolic g and dg[i][j][k] = d_k g_ij."""
    chart, metric = make_manifold(name, **({} if dim is None else {"dim": dim}))
    x = sp.symbols(f"x:{chart.dim}", real=True)
    g = _symbolic_metric(name, chart.dim, x)
    dg = [[[sp.diff(g[i, j], a) for a in x] for j in range(chart.dim)]
          for i in range(chart.dim)]
    return (chart, metric, sp.lambdify([x], g.tolist()),
            sp.lambdify([x], dg))


def _point_in(chart, unit_point):
    lo, hi = chart.sample_bounds
    return lo + (hi - lo) * np.array(unit_point[:chart.dim])


def _close(got, want):
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    return (got.shape == want.shape
            and np.abs(got - want).max() <= 1e-10 * np.abs(want).max())


_unit_points = st.lists(st.floats(0, 1), min_size=3, max_size=3)


@pytest.mark.parametrize("model", _MODELS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points)
def test_diagonal_matches_symbolic_metric(model, unit_point):
    # d[i] = g_ii and dd[i][k] = d_k g_ii, with g diagonal
    name, params = model
    chart, metric, g_of, dg_of = _model(name, params.get("dim"))
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    g, dg = np.array(g_of(x)), np.array(dg_of(x))
    assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-10 * np.abs(g).max()
    d, dd = metric.diagonal(x.tolist())
    assert _close(d, np.diag(g))
    assert _close(dd, np.einsum("iik->ik", dg))


@pytest.mark.parametrize("model, form", _PAIRS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points,
       v=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       b=st.floats(0.1, 3.0))
def test_sigma_v_matches_symbolic_form(model, form, unit_point, v, b):
    # (sigma v)_i = sum_j sigma_ij v_j, with sigma = 0, b dx1 ^ dx2 or
    # b sqrt(det g) dx1 ^ dx2 (surfaces only), given g's diagonal
    name, params = model
    chart, metric, g_of, _ = _model(name, params.get("dim"))
    n = chart.dim
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    v = np.array(v[:n])
    g = np.array(g_of(x))
    c = {"zero": 0.0, "constant": b,
         "area_form": b * np.sqrt(np.linalg.det(g))}[form]
    sigma = np.zeros((n, n))
    sigma[0, 1], sigma[1, 0] = c, -c
    f = make_form(form, n, metric, chart, **strength(form, b))
    got = f.sigma_v(x.tolist(), np.diag(g).tolist(), v.tolist())
    assert _close(got, sigma @ v)
