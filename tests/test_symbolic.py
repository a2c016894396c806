"""The closures of the built-in models and forms against sympy.

Every closure of `models.py` and `forms.py` is written by hand, and the
rest of the suite compares them with one another.  Here g, its first and
second derivatives and sigma are derived symbolically from each model's
definition instead: the flat metric, the Poincare conformal factor
4 / (1 - |x|^2)^2, and the round sphere as the pullback of the Euclidean
metric along its embedding in hyperspherical angles; the forms are 0,
b dx1 ^ dx2 and b sqrt(det g) dx1 ^ dx2.  Checked are the array closures
(`raw`, `dg`, `d2g`, `at`, `dsigma_at`) and the float closures of an RK4
stage (`spray`, `lorentz_v`), within 1e-10 relative.
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
    """The chart and metric of a built-in model, its coordinate symbols and
    symbolic g, and numeric functions of a chart point for g,
    dg[i][j][k] = d_k g_ij and d2g[i][j][k][l] = d_k d_l g_ij."""
    chart, metric = make_manifold(name, **({} if dim is None else {"dim": dim}))
    x = sp.symbols(f"x:{chart.dim}", real=True)
    g = _symbolic_metric(name, chart.dim, x)
    dg = [[[sp.diff(g[i, j], a) for a in x] for j in range(chart.dim)]
          for i in range(chart.dim)]
    d2g = [[[[sp.diff(e, a) for a in x] for e in row] for row in plane]
           for plane in dg]
    return (chart, metric, x, g, sp.lambdify([x], g.tolist()),
            sp.lambdify([x], dg), sp.lambdify([x], d2g))


@cache
def _form(name: str, dim, form: str):
    """Numeric functions of a chart point and the strength b for sigma_01
    of `form` on a built-in model and for its derivative d_k sigma_01."""
    _, _, x, g, *_ = _model(name, dim)
    b = sp.Symbol("b", real=True)
    c = {"zero": sp.Integer(0), "constant": b,
         "area_form": b * sp.sqrt(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])}[form]
    return (sp.lambdify([x, b], c),
            sp.lambdify([x, b], [sp.diff(c, a) for a in x]))


def _point_in(chart, unit_point):
    lo, hi = chart.sample_bounds
    return lo + (hi - lo) * np.array(unit_point[:chart.dim])


def _close(got, want, scale=0.0):
    """got is want within 1e-10 of the larger of want's size and `scale`,
    the size of the terms want sums where it may cancel to roundoff."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    return (got.shape == want.shape and np.abs(got - want).max()
            <= 1e-10 * max(np.abs(want).max(), scale))


_unit_points = st.lists(st.floats(0, 1), min_size=3, max_size=3)
_vectors = st.lists(st.floats(-2, 2), min_size=3, max_size=3)


@pytest.mark.parametrize("model", _MODELS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points)
def test_metric_closures_match_symbolic_metric(model, unit_point):
    # raw, dg and d2g at a point: g_ij, d_k g_ij and d_k d_l g_ij
    name, params = model
    chart, metric, _, _, g_of, dg_of, d2g_of = _model(name, params.get("dim"))
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    assert _close(metric.raw(x), g_of(x))
    assert _close(metric.dg(x), dg_of(x))
    assert _close(metric.d2g(x), d2g_of(x))


@pytest.mark.parametrize("model", _MODELS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points, v=_vectors)
def test_diagonal_matches_symbolic_metric(model, unit_point, v):
    # `spray`, the float closure that declares g diagonal, gives
    # a = -Gamma(v, v) = -g^-1 gamma_low(v, v) with
    # gamma_low(v, v)_l = sum_jk (d_j g_lk - 1/2 d_l g_jk) v_j v_k, and
    # d[i] = g_ii, with g diagonal.  Where a vanishes, the reference is
    # roundoff, so a is compared on the size of the terms it sums
    name, params = model
    chart, metric, _, _, g_of, dg_of, _ = _model(name, params.get("dim"))
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    v = np.array(v[:chart.dim])
    g, dg = np.array(g_of(x)), np.array(dg_of(x))
    assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-10 * np.abs(g).max()
    gamma_vv = (np.einsum("lkj,j,k->l", dg, v, v)
                - 0.5 * np.einsum("jkl,j,k->l", dg, v, v))
    a, d = metric.spray(x.tolist(), v.tolist())
    size = (v @ v) * np.abs(dg).max() / np.diag(g).min()
    assert _close(a, -np.linalg.solve(g, gamma_vv), size)
    assert _close(d, np.diag(g))


@pytest.mark.parametrize("model, form", _PAIRS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points, b=st.floats(0.1, 3.0))
def test_form_closures_match_symbolic_form(model, form, unit_point, b):
    # at and dsigma_at at a point: sigma_ij and d_k sigma_ij, with
    # sigma_01 = -sigma_10 the only nonzero coefficients
    name, params = model
    chart, metric, *_ = _model(name, params.get("dim"))
    c_of, dc_of = _form(name, params.get("dim"), form)
    n = chart.dim
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    sigma, dsigma = np.zeros((n, n)), np.zeros((n, n, n))
    sigma[0, 1], dsigma[0, 1] = c_of(x, b), dc_of(x, b)
    sigma[1, 0], dsigma[1, 0] = -sigma[0, 1], -dsigma[0, 1]
    f = make_form(form, n, metric, chart, **strength(form, b))
    assert _close(f.at(x), sigma)
    assert _close(f.dsigma_at(x), dsigma)


@pytest.mark.parametrize("model, form", _PAIRS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(unit_point=_unit_points, v=_vectors, b=st.floats(0.1, 3.0))
def test_sigma_v_matches_symbolic_form(model, form, unit_point, v, b):
    # `lorentz_v`, the form's float closure, gives Yv = -g^-1 sigma v, with
    # sigma = 0, b dx1 ^ dx2 or b sqrt(det g) dx1 ^ dx2, given g's diagonal
    name, params = model
    chart, metric, _, _, g_of, *_ = _model(name, params.get("dim"))
    c_of, _ = _form(name, params.get("dim"), form)
    n = chart.dim
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    v = np.array(v[:n])
    g = np.array(g_of(x))
    sigma = np.zeros((n, n))
    sigma[0, 1] = c_of(x, b)
    sigma[1, 0] = -sigma[0, 1]
    f = make_form(form, n, metric, chart, **strength(form, b))
    got = f.lorentz_v(x.tolist(), np.diag(g).tolist(), v.tolist())
    assert _close(got, -np.linalg.solve(g, sigma @ v))
