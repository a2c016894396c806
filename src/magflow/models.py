"""Built-in model spaces.

Registry keys: "euclidean", "flat_torus", "poincare_disk", "poincare_ball",
"round_sphere".  Each builder returns (ChartSpec, MetricField) with analytic
first and second derivative closures, so the finite-difference scheme can be
used as an independent cross-check, and an analytic inverse of g.  The
second-derivative closures broadcast over points of shape (..., dim).
"""
from __future__ import annotations

import numpy as np

from .geometry import ChartSpec, MetricField

__all__ = ["make_manifold", "MANIFOLDS"]


def _euclidean(dim: int = 2):
    chart = ChartSpec(dim=dim, sample_bounds=(-2 * np.ones(dim), 2 * np.ones(dim)))
    eye = np.eye(dim)
    zero1 = np.zeros((dim, dim, dim))
    zero2 = np.zeros((dim, dim, dim, dim))
    metric = MetricField(lambda x: eye, dg=lambda x: zero1, d2g=lambda x: zero2,
                         chart=chart, inv=lambda x, g: eye, broadcasts=True)
    return chart, metric


def _flat_torus(dim: int = 2, period: float = 2 * np.pi):
    chart = ChartSpec(dim=dim, periodic=[period] * dim,
                      sample_bounds=(np.zeros(dim), period * np.ones(dim)))
    eye = np.eye(dim)
    zero1 = np.zeros((dim, dim, dim))
    zero2 = np.zeros((dim, dim, dim, dim))
    metric = MetricField(lambda x: eye, dg=lambda x: zero1, d2g=lambda x: zero2,
                         chart=chart, inv=lambda x, g: eye, broadcasts=True)
    return chart, metric


def _poincare(dim: int, eps: float = 1e-3):
    """Poincare disk/ball model: g = 4/(1 - |x|^2)^2 * id, curvature -1."""
    chart = ChartSpec(
        dim=dim,
        domain_guard=lambda x: float(x @ x) < (1.0 - eps) ** 2,
        sample_bounds=(-0.7 * np.ones(dim), 0.7 * np.ones(dim)),
    )
    eye = np.eye(dim)

    def conf(x):
        return 4.0 / (1.0 - x @ x) ** 2

    def eval_fn(x):
        return conf(x) * eye

    def dg(x):
        u = 1.0 - x @ x
        dcoef = 16.0 * x / u**3                       # d_k (4 u^-2)
        return eye[:, :, None] * dcoef

    def d2g(x):
        # x is (..., dim); .T puts the point axes last, where the per-point
        # scalar broadcasts
        u = 1.0 - np.vecdot(x, x)
        xx = x[..., :, None] * x[..., None, :]
        d2coef = np.multiply.outer(16.0 / u**3, eye) + ((96.0 / u**4) * xx.T).T
        return eye[:, :, None, None] * d2coef[..., None, None, :, :]

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart,
                         inv=lambda x, g: eye / g[0, 0], broadcasts=True)
    return chart, metric


def _round_sphere(dim: int = 2, eps: float = 0.2):
    """Unit round sphere in hyperspherical angles (theta_1, ..., theta_dim).

    g is diagonal with g_ii = prod_{j < i} sin^2(theta_j).  The chart guard
    keeps all polar angles away from the coordinate singularities.
    """
    lo = eps * np.ones(dim)
    hi = (np.pi - eps) * np.ones(dim)

    def guard(x):
        return all(eps < t < np.pi - eps for t in x[:-1].tolist())

    chart = ChartSpec(dim=dim, domain_guard=guard,
                      periodic=[None] * (dim - 1) + [2 * np.pi],
                      sample_bounds=(lo, hi))

    def eval_fn(x):
        g = np.ones(dim)
        for i in range(1, dim):
            g[i] = g[i - 1] * np.sin(x[i - 1]) ** 2
        return np.diag(g)

    def _diag(x):
        g = np.ones(dim)
        for i in range(1, dim):
            g[i] = g[i - 1] * np.sin(x[i - 1]) ** 2
        return g

    def dg(x):
        g = _diag(x)
        out = np.zeros((dim, dim, dim))
        cot = np.zeros(dim)
        cot[:-1] = 1.0 / np.tan(x[:-1])
        for i in range(dim):
            for k in range(i):
                out[i, i, k] = 2.0 * g[i] * cot[k]
        return out

    # d_k d_l g_ii = g_ii (4 cot_k cot_l - 2 delta_kl csc^2_k) for k, l < i:
    # mask[i - 1, j - 1, k, l] = 1 where i = j and k, l < i
    tri = np.tri(dim - 1)
    mask = np.eye(dim - 1)[:, :, None, None] * (tri[:, None, :, None]
                                                * tri[:, None, None, :])
    eye2 = 2.0 * np.eye(dim - 1)

    def d2g(x):
        th = x[..., :-1]
        s2 = np.sin(th) ** 2
        c = 2.0 / np.tan(th)
        inner = c[..., :, None] * c[..., None, :] - eye2 / s2[..., :, None]
        gii = s2.cumprod(-1)                    # g_ii for i = 1 .. dim - 1
        out = np.zeros(x.shape[:-1] + (dim,) * 4)
        out[..., 1:, 1:, :-1, :-1] = mask * (gii[..., :, None, None, None]
                                             * inner[..., None, None, :, :])
        return out

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart,
                         inv=lambda x, g: np.diag(1.0 / np.diag(g)),
                         broadcasts=True)
    return chart, metric


MANIFOLDS = {
    "euclidean": _euclidean,
    "flat_torus": _flat_torus,
    "poincare_disk": lambda **kw: _poincare(dim=2, **kw),
    "poincare_ball": lambda dim=3, **kw: _poincare(dim=dim, **kw),
    "round_sphere": _round_sphere,
}


def make_manifold(name: str, **params):
    try:
        builder = MANIFOLDS[name]
    except KeyError:
        raise KeyError(f"unknown manifold {name!r}; known: {sorted(MANIFOLDS)}")
    return builder(**params)
