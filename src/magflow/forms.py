"""Magnetic 2-form fields and the built-in form registry.

Registry keys: "zero", "constant" (strength b on the x1x2-plane), and
"area_form" (Riemannian area form, surfaces only).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import (ChartSpec, MetricField, _FD_STEP1, _central_difference,
                       _closure, _on_batch)

__all__ = ["TwoFormField", "make_form", "FORMS"]


class TwoFormField:
    """Antisymmetric coefficient field sigma_ij(x) with derivative scheme.

    A form built from a metric names it as `metric`; its eval_fn then takes
    (x, g) and its dsigma (x, g, dg), with g and dg that metric's
    coefficients and first derivatives at x.  `at` and `dsigma_at` take them
    from a caller that holds them already, so that the metric is evaluated
    once per point, or else evaluate them; a form of x alone ignores them.
    These two evaluators take a point x (n,) or a batch X (B, n), with g
    and dg stacked alike, and stack their values at its rows on axis 0.
    dsigma is antisymmetric in its first two indices; `flow`'s Jacobian Df
    relies on that, and on dg being symmetric in them (see `MetricField`).
    broadcasts declares that every closure (eval_fn and dsigma) accepts x
    (and g, dg) of shape (..., n) (and (..., n, n), (..., n, n, n)),
    returning its values stacked along the same leading axes, or one array
    for every point; only then is a closure called on a whole batch, and
    otherwise once per row.  It takes effect only when dsigma is given,
    since the finite differences are taken point by point.
    magnetic_acc is an optional closure (x, d, v, a) -> list at one point:
    the magnetic acceleration a + Yv, a new list of a_i + (Yv)_i, with Yv =
    -g^-1 sigma v, given the lists (a, d) of `MetricField.spray` there (the
    geodesic acceleration and g's diagonal) and x, v, lists of n floats.
    With `spray` it lets an RK4 stage of `flow` run on Python floats.  The
    built-in forms declare that arithmetic once, as a fragment of
    index-level code (see `geometry`), and generate magnetic_acc from it;
    where the chart guard and the metric's spray are generated too, `flow`
    compiles the three fragments into one stage function, and otherwise
    its stage calls the three closures in turn.
    """

    def __init__(self, eval_fn, dsigma=None,
                 chart: Optional[ChartSpec] = None,
                 metric: Optional[MetricField] = None,
                 broadcasts: bool = False, magnetic_acc=None):
        self._eval = eval_fn
        self._dsigma = dsigma
        self.chart = chart
        self.metric = metric
        self.broadcasts = broadcasts and dsigma is not None
        self.magnetic_acc = magnetic_acc

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
            return _central_difference(self.raw, x, _FD_STEP1)
        return np.asarray(self._dsigma(x, *args), dtype=float)


def _copies(n, first=0):
    """w_i = a_i + 0.0 (which maps -0.0 to 0.0) for first <= i < n."""
    return [f"w{i} = a{i} + 0.0" for i in range(first, n)]


def _zero(dim: int, metric: MetricField = None, chart: ChartSpec = None):
    z1 = np.zeros((dim, dim))
    z2 = np.zeros((dim, dim, dim))
    return TwoFormField(lambda x: z1, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True,
                        magnetic_acc=_closure("magnetic_acc", dim,
                                              (_copies, ())))


def _constant_acc(n, b):
    return [f"w0 = a0 + -{b} * v1 / d0", f"w1 = a1 + {b} * v0 / d1",
            *_copies(n, 2)]


def _constant(dim: int, metric: MetricField = None, chart: ChartSpec = None,
              b: float = 1.0):
    """b * dx^1 ^ dx^2, extended by zero in any further coordinates."""
    b = float(b)
    sig = np.zeros((dim, dim))
    sig[0, 1] = b
    sig[1, 0] = -b
    z2 = np.zeros((dim, dim, dim))
    return TwoFormField(lambda x: sig, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True,
                        magnetic_acc=_closure("magnetic_acc", dim,
                                              (_constant_acc, (b,))))


def _area_acc(n, b):
    # Yv = -g^-1 sigma v, with sqrt(det g) = sqrt(d0 d1) for a diagonal g
    return ["r = sqrt(d1 / d0)", f"w0 = a0 + -{b} * r * v1",
            f"w1 = a1 + {b} / r * v0"]


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
        det = 0.5 * np.vecdot(w, g4)
        dsq = (0.5 * b) * tr / np.sqrt(det)[..., None]
        return rot * dsq[..., None, None, :]

    return TwoFormField(eval_fn, dsigma=dsigma, chart=chart, metric=metric,
                        broadcasts=True,
                        magnetic_acc=_closure("magnetic_acc", dim,
                                              (_area_acc, (b,))))


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
