"""Built-in model spaces.

Registry keys: "euclidean", "flat_torus", "poincare_disk", "poincare_ball",
"round_sphere".  Each builder returns (ChartSpec, MetricField) with analytic
first and second derivative closures, so the finite-difference scheme can be
used as an independent cross-check.  Every array closure broadcasts over
points of shape (..., dim).  All five metrics are diagonal, so each also
gives `spray`, a closure on Python floats at one point: the geodesic
acceleration -Gamma(v, v) in closed form and g's diagonal, as lists.  It
declares g diagonal, so that g^-1 is the reciprocal of g's diagonal, and an
RK4 stage of `flow` reads the magnetic acceleration from it.  The chart
guards take a list of floats too.  Where the point axes are in the way,
the array closures work on x.T (or g.T) and write through out.T, in which
the point axes come last: an integer index there selects a coordinate at
every point, and a per-point scalar broadcasts.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .geometry import ChartSpec, MetricField, _float_ops

__all__ = ["make_manifold", "MANIFOLDS"]


def _per_point(c):
    """A scalar field's values c, one or one per point of a batch, shaped to
    scale the matrices (..., n, n) at those points."""
    return c if c.ndim == 0 else c[..., None, None]


def _flat(dim: int, low: float, high: float):
    """The flat metric g = id, sampled on the box [low, high]^dim."""
    chart = ChartSpec(dim=dim, sample_bounds=(low * np.ones(dim),
                                              high * np.ones(dim)))
    eye = np.eye(dim)
    zero1 = np.zeros((dim, dim, dim))
    zero2 = np.zeros((dim, dim, dim, dim))
    spray = [0.0] * dim, [1.0] * dim
    metric = MetricField(lambda x: eye, dg=lambda x: zero1, d2g=lambda x: zero2,
                         chart=chart, broadcasts=True,
                         spray=lambda x, v: spray)
    return chart, metric


def _euclidean(dim: int = 2):
    return _flat(dim, -2.0, 2.0)


def _flat_torus(dim: int = 2, period: float = 2 * np.pi):
    if not period > 0:
        raise ValueError(f"period must be positive, got {period!r}")
    return _flat(dim, 0.0, period)


def _poincare(dim: int = 3, eps: float = 1e-3):
    """Poincare disk/ball model: g = 4/(1 - |x|^2)^2 * id, curvature -1."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    r2 = (1.0 - eps) ** 2
    ops = _float_ops(dim)
    dot, lincomb = ops.dot, ops.lincomb
    chart = ChartSpec(
        dim=dim,
        domain_guard=lambda x: dot(x, x) < r2,
        sample_bounds=(-0.7 * np.ones(dim), 0.7 * np.ones(dim)),
    )
    eye = np.eye(dim)
    eye3 = eye[:, :, None]

    def eval_fn(x):
        return _per_point(4.0 / (1.0 - np.vecdot(x, x)) ** 2) * eye

    def dg(x):
        u = 1.0 - np.vecdot(x, x)
        dcoef = (16.0 * x.T / u**3).T                # d_k (4 u^-2)
        return eye3 * dcoef[..., None, None, :]

    def d2g(x):
        u = 1.0 - np.vecdot(x, x)
        xx = x[..., :, None] * x[..., None, :]
        d2coef = np.multiply.outer(16.0 / u**3, eye) + ((96.0 / u**4) * xx.T).T
        return eye[:, :, None, None] * d2coef[..., None, None, :, :]

    def spray(x, v):
        # g = e^(2 phi) id with e^phi = 2 / u, so d phi = 2 x / u and
        # -Gamma(v, v) = |v|^2 grad phi - 2 (d phi . v) v
        u = 1.0 - dot(x, x)
        p = 2.0 * dot(v, v) / u
        q = 4.0 * dot(x, v) / u
        return lincomb(p, x, q, v), [4.0 / (u * u)] * dim

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart,
                         broadcasts=True, spray=spray)
    return chart, metric


def _round_sphere(dim: int = 2, eps: float = 0.2):
    """Unit round sphere in hyperspherical angles (theta_1, ..., theta_dim).

    g is diagonal with g_ii = prod_{j < i} sin^2(theta_j).  The chart guard
    keeps all polar angles away from the coordinate singularities.
    """
    if not 0 < eps < np.pi / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps!r}")
    lo = eps * np.ones(dim)
    hi = (np.pi - eps) * np.ones(dim)
    top = np.pi - eps

    def guard(x):
        return all(eps < t < top for t in x[:-1])

    chart = ChartSpec(dim=dim, domain_guard=guard, sample_bounds=(lo, hi))
    pairs = [(i, k) for i in range(1, dim) for k in range(i)]

    def _sines(x):
        """sin^2 of the polar angles and their running products
        g_ii = prod_{j < i} sin^2(theta_j), i >= 2, point axes last."""
        s2 = np.sin(x.T[:-1]) ** 2
        return s2, np.multiply.accumulate(s2, axis=0)

    def eval_fn(x):
        out = np.zeros(x.shape[:-1] + (dim, dim))
        outT, gii = out.T, _sines(x)[1]
        outT[0, 0] = 1.0
        for i in range(1, dim):
            outT[i, i] = gii[i - 1]
        return out

    def dg(x):
        # d_k g_ii = 2 g_ii cot_k for k < i
        g2 = 2.0 * _sines(x)[1]
        cot = 1.0 / np.tan(x.T[:-1])
        out = np.zeros(x.shape[:-1] + (dim,) * 3)
        outT = out.T
        for i, k in pairs:
            outT[k, i, i] = g2[i - 1] * cot[k]
        return out

    tri = np.tri(dim - 1)

    def spray(x, v):
        # from g_ii = prod_{j < i} sin^2(theta_j) and, as in dg,
        # d_k g_ii = 2 g_ii cot_k for k < i, -Gamma(v, v)_i is
        # (cot_i / g_ii) sum_{j > i} g_jj v_j^2 - 2 v_i sum_{k < i} cot_k v_k
        d, cots = [1.0], []
        for t in x[:-1]:
            s = math.sin(t)
            d.append(d[-1] * (s * s))
            cots.append(1.0 / math.tan(t))
        tails = [0.0] * dim
        for i in range(dim - 1, 0, -1):
            tails[i - 1] = tails[i] + d[i] * (v[i] * v[i])
        out, h = [], 0.0    # h = sum_{k < i} cot_k v_k
        for c, t, di, u in zip(cots + [0.0], tails, d, v):
            out.append(c * t / di - 2.0 * u * h)
            h = h + c * u
        return out, d

    # d_k d_l g_ii = g_ii (4 cot_k cot_l - 2 delta_kl csc^2_k) for k, l < i:
    # mask[i - 1, j - 1, k, l] = 1 where i = j and k, l < i
    mask = np.eye(dim - 1)[:, :, None, None] * (tri[:, None, :, None]
                                                * tri[:, None, None, :])
    eye2 = 2.0 * np.eye(dim - 1)

    def d2g(x):
        s2, gii = _sines(x)
        c = 2.0 / np.tan(x[..., :-1])
        inner = c[..., :, None] * c[..., None, :] - eye2 / s2.T[..., :, None]
        out = np.zeros(x.shape[:-1] + (dim,) * 4)
        out[..., 1:, 1:, :-1, :-1] = mask * (gii.T[..., :, None, None, None]
                                             * inner[..., None, None, :, :])
        return out

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart,
                         broadcasts=True, spray=spray)
    return chart, metric


MANIFOLDS = {
    "euclidean": _euclidean,
    "flat_torus": _flat_torus,
    "poincare_disk": partial(_poincare, 2),
    "poincare_ball": _poincare,
    "round_sphere": _round_sphere,
}


def make_manifold(name: str, **params):
    try:
        builder = MANIFOLDS[name]
    except KeyError:
        raise KeyError(f"unknown manifold {name!r}; known: {sorted(MANIFOLDS)}")
    return builder(**params)
