"""Magnetic 2-form fields and the built-in form registry.

Registry keys: "zero", "constant" (strength b on the x1x2-plane), and
"area_form" (Riemannian area form, surfaces only).
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .geometry import ChartSpec, MetricField, _central_difference, _on_batch

__all__ = ["TwoFormField", "make_form", "FORMS"]

_FD_STEP = 1e-5  # central-difference step of dsigma without a closure


class TwoFormField:
    """Antisymmetric coefficient field sigma_ij(x) with derivative scheme.

    A form built from a metric names it as `metric`; its eval_fn then takes
    (x, g) and its dsigma (x, g, dg), with g and dg that metric's
    coefficients and first derivatives at x.  `at` and `dsigma_at` take them
    from a caller that holds them already, so that the metric is evaluated
    once per point, or else evaluate them; a form of x alone ignores them.
    These two are the form's evaluators.  They take
    a point x (n,) or a batch X (B, n), with g and dg stacked alike, and
    return their values at each row of a batch stacked along axis 0.
    broadcasts declares that every closure (eval_fn and dsigma) accepts x
    (and g, dg) of shape (..., n) (and (..., n, n), (..., n, n, n)),
    returning its values stacked along the same leading axes, or one array
    for every point; only then is a closure called on a whole batch, and
    otherwise once per row.  It takes effect only when dsigma is given,
    since the finite differences are taken point by point.
    lorentz_v is an optional closure (x, d, v) -> list, the Lorentz force
    Yv = -g^-1 sigma v at one point, with x, v and d lists of n floats; d
    is g's diagonal at x (of a diagonal metric, see `MetricField.spray`).
    With the metric's `spray` it lets an RK4 stage of `flow` run on Python
    floats.  A list it returns is only read, so it may return the same list
    at every call.
    """

    def __init__(self, eval_fn, dsigma=None,
                 chart: Optional[ChartSpec] = None,
                 metric: Optional[MetricField] = None,
                 broadcasts: bool = False, lorentz_v=None):
        self._eval = eval_fn
        self._dsigma = dsigma
        self.chart = chart
        self.metric = metric
        self.broadcasts = broadcasts and dsigma is not None
        self.lorentz_v = lorentz_v

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart is not None:
            self.chart.require(x)
        return self.at(x)

    def raw(self, x) -> np.ndarray:
        return self.at(np.asarray(x, dtype=float))

    def at(self, x: np.ndarray, g: Optional[np.ndarray] = None) -> np.ndarray:
        """sigma at x, unguarded."""
        args = () if self.metric is None else (
            self.metric.raw(x) if g is None else g,)
        if x.ndim > 1:
            return _on_batch(self.at, self.broadcasts and self._eval, 2, x,
                             *args)
        return np.asarray(self._eval(x, *args), dtype=float)

    def dsigma(self, x) -> np.ndarray:
        """dsig[i, j, k] = d sigma_ij / d x^k."""
        return self.dsigma_at(np.asarray(x, dtype=float))

    def dsigma_at(self, x: np.ndarray, g: Optional[np.ndarray] = None,
                  dg: Optional[np.ndarray] = None) -> np.ndarray:
        """`dsigma` at x, unguarded (by central differences of `raw` where
        no dsigma closure is given)."""
        args = ()
        if self.metric is not None and self._dsigma is not None:
            args = ((self.metric.raw(x), self.metric.dg(x)) if g is None
                    else (g, dg))
        if x.ndim > 1:
            return _on_batch(self.dsigma_at, self.broadcasts and self._dsigma,
                             3, x, *args)
        if self._dsigma is None:
            return _central_difference(self.raw, x, _FD_STEP)
        return np.asarray(self._dsigma(x, *args), dtype=float)


def _zero(dim: int, metric: MetricField = None, chart: ChartSpec = None):
    z1 = np.zeros((dim, dim))
    z2 = np.zeros((dim, dim, dim))
    zeros = [0.0] * dim
    return TwoFormField(lambda x: z1, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True, lorentz_v=lambda x, d, v: zeros)


def _constant(dim: int, metric: MetricField = None, chart: ChartSpec = None,
              b: float = 1.0):
    """b * dx^1 ^ dx^2, extended by zero in any further coordinates."""
    b = float(b)
    sig = np.zeros((dim, dim))
    sig[0, 1] = b
    sig[1, 0] = -b
    z2 = np.zeros((dim, dim, dim))
    rest = [0.0] * (dim - 2)
    return TwoFormField(lambda x: sig, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True,
                        lorentz_v=lambda x, d, v: [-b * v[1] / d[0],
                                                   b * v[0] / d[1]] + rest)


def _area_form(dim: int, metric: MetricField = None, chart: ChartSpec = None,
               b: float = 1.0):
    """b times the Riemannian area form sqrt(det g) dx^1 ^ dx^2 (dim 2)."""
    if dim != 2:
        raise ValueError("area_form is only defined on surfaces")
    if metric is None:
        raise ValueError("area_form needs the metric")
    b = float(b)

    def eval_fn(x, g):
        # on g.T and out.T, as the built-in metrics (see `models`)
        t = g.T
        c = b * np.sqrt(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0])
        out = np.zeros(g.shape)
        outT = out.T
        outT[1, 0] = c
        outT[0, 1] = -c
        return out

    sign = np.array([1.0, -1.0, -1.0, 1.0])
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])[:, :, None]

    def dsigma(x, g, dg):
        # d_k sqrt(det g) = 0.5 sqrt(det g) tr(g^-1 d_k g)
        #                 = 0.5 tr(adj(g) d_k g) / sqrt(det g);
        # on g flattened to (g00, g01, g10, g11), tr(adj(g) d_k g) = w . d_k g
        # and 2 det g = w . g, with w = (g11, -g10, -g01, g00)
        g4 = g.reshape(g.shape[:-2] + (4,))
        w = sign * g4[..., ::-1]
        tr = (w[..., None, :] @ dg.reshape(dg.shape[:-3] + (4, 2)))[..., 0, :]
        dsq = (0.5 * b) * tr / np.sqrt(0.5 * np.vecdot(w, g4))[..., None]
        return rot * dsq[..., None, None, :]

    def lorentz_v(x, d, v):
        # -g^-1 sigma v, with sqrt(det g) = sqrt(d0 d1) for a diagonal g
        r = math.sqrt(d[1] / d[0])
        return [-b * r * v[1], b / r * v[0]]

    return TwoFormField(eval_fn, dsigma=dsigma, chart=chart, metric=metric,
                        broadcasts=True, lorentz_v=lorentz_v)


FORMS = {
    "zero": _zero,
    "constant": _constant,
    "area_form": _area_form,
}


def make_form(name: str, dim: int, metric: MetricField = None,
              chart: ChartSpec = None, **params) -> TwoFormField:
    try:
        builder = FORMS[name]
    except KeyError:
        raise KeyError(f"unknown 2-form {name!r}; known: {sorted(FORMS)}")
    return builder(dim=dim, metric=metric, chart=chart, **params)
