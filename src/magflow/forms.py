"""Magnetic 2-form fields and the built-in form registry.

Registry keys: "zero", "constant" (strength b on the x1x2-plane), and
"area_form" (Riemannian area form, surfaces only).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import ChartSpec, MetricField, _on_batch

__all__ = ["TwoFormField", "make_form", "FORMS"]

_FD_STEP = 1e-5  # central-difference step of dsigma without a closure


class TwoFormField:
    """Antisymmetric coefficient field sigma_ij(x) with derivative scheme.

    A form built from a metric names it as `metric`; its eval_fn then takes
    (x, g) and its dsigma (x, g, dg), with g and dg that metric's
    coefficients and first derivatives at x.  `at` and `dsigma_at` take them
    from a caller that holds them already, so that the metric is evaluated
    once per point.  broadcasts declares that every closure (eval_fn and
    dsigma) accepts x (and g, dg) of shape (..., n) (and (..., n, n),
    (..., n, n, n)), returning its values stacked along the same leading
    axes, or one array for every point; only then do `at_batch` and
    `dsigma_batch` call the closures on many points at once.  It takes
    effect only when dsigma is given, since the finite differences are
    taken point by point.
    """

    def __init__(self, eval_fn, dsigma=None,
                 chart: Optional[ChartSpec] = None,
                 metric: Optional[MetricField] = None,
                 broadcasts: bool = False):
        self._eval = eval_fn
        self._dsigma = dsigma
        self.chart = chart
        self.metric = metric
        self.broadcasts = broadcasts and dsigma is not None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart is not None:
            self.chart.require(x)
        return self._coeffs(x, None)

    def raw(self, x) -> np.ndarray:
        return self._coeffs(np.asarray(x, dtype=float), None)

    def at(self, x: np.ndarray, metric: MetricField, g: np.ndarray) -> np.ndarray:
        """sigma at x, unguarded, given the coefficients g of `metric` at x;
        g is used only when this form is built from that very metric."""
        return self._coeffs(x, g if metric is self.metric else None)

    def _coeffs(self, x, g):
        if self.metric is None:
            return np.asarray(self._eval(x), dtype=float)
        if g is None:
            g = self.metric.raw(x)
        return np.asarray(self._eval(x, g), dtype=float)

    def dsigma(self, x) -> np.ndarray:
        """dsig[i, j, k] = d sigma_ij / d x^k."""
        return self._dcoeffs(np.asarray(x, dtype=float), None, None)

    def dsigma_at(self, x: np.ndarray, metric: MetricField, g: np.ndarray,
                  dg: np.ndarray) -> np.ndarray:
        """`dsigma` at x given `metric`'s g and dg there, as in `at`."""
        if metric is not self.metric:
            g = dg = None
        return self._dcoeffs(x, g, dg)

    # `at` and `dsigma_at` at each row of X (B, n), given `metric`'s g and
    # dg there stacked as G and DG, stacked along axis 0.  A closure not
    # declared broadcasting, the finite differences, and a form paired with
    # another metric than its own are evaluated point by point.

    def at_batch(self, X: np.ndarray, metric: MetricField,
                 G: np.ndarray) -> np.ndarray:
        """`at` at each row of X, shape (B, n, n)."""
        return _on_batch(lambda x, g: self.at(x, metric, g),
                         self._broadcasts_with(metric), 2, X, G)

    def dsigma_batch(self, X: np.ndarray, metric: MetricField, G: np.ndarray,
                     DG: np.ndarray) -> np.ndarray:
        """`dsigma_at` at each row of X, shape (B, n, n, n)."""
        return _on_batch(lambda x, g, dg: self.dsigma_at(x, metric, g, dg),
                         self._broadcasts_with(metric), 3, X, G, DG)

    def _broadcasts_with(self, metric: MetricField) -> bool:
        return self.broadcasts and (self.metric is None or metric is self.metric)

    def _dcoeffs(self, x, g, dg):
        if self._dsigma is None:
            n = x.size
            out = np.empty((n, n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = _FD_STEP
                out[:, :, k] = (self.raw(x + e) - self.raw(x - e)) / (2 * _FD_STEP)
            return out
        if self.metric is None:
            return np.asarray(self._dsigma(x), dtype=float)
        if g is None:
            g, dg = self.metric.raw(x), self.metric.dg(x)
        return np.asarray(self._dsigma(x, g, dg), dtype=float)


def _zero(dim: int, metric: MetricField = None, chart: ChartSpec = None):
    z1 = np.zeros((dim, dim))
    z2 = np.zeros((dim, dim, dim))
    return TwoFormField(lambda x: z1, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True)


def _constant(dim: int, metric: MetricField = None, chart: ChartSpec = None,
              b: float = 1.0):
    """b * dx^1 ^ dx^2, extended by zero in any further coordinates."""
    sig = np.zeros((dim, dim))
    sig[0, 1] = b
    sig[1, 0] = -b
    z2 = np.zeros((dim, dim, dim))
    return TwoFormField(lambda x: sig, dsigma=lambda x: z2, chart=chart,
                        broadcasts=True)


def _area_form(dim: int, metric: MetricField = None, chart: ChartSpec = None,
               b: float = 1.0):
    """b times the Riemannian area form sqrt(det g) dx^1 ^ dx^2 (dim 2)."""
    if dim != 2:
        raise ValueError("area_form is only defined on surfaces")
    if metric is None:
        raise ValueError("area_form needs the metric")

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

    return TwoFormField(eval_fn, dsigma=dsigma, chart=chart, metric=metric,
                        broadcasts=True)


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
