"""Built-in model spaces.

Registry keys: "euclidean", "flat_torus", "poincare_disk", "poincare_ball",
"round_sphere".  Each builder returns (ChartSpec, MetricField) with analytic
first and second derivative closures, so the finite-difference scheme can be
used as an independent cross-check.  Every array closure broadcasts over
points of shape (..., dim).  All five metrics are diagonal: each declares
the geodesic acceleration -Gamma(v, v) in closed form and g's diagonal as a
fragment of index-level code (see `geometry`), and each guarded chart its
guard, from which the metric's `spray` and the chart's `domain_guard` are
generated, closures on Python floats at one point.  `spray` declares g
diagonal, so that g^-1 is the reciprocal of g's diagonal, and `flow` fuses
the fragments of a system into one RK4 stage.  Where the point axes are in
the way, the array closures work on x.T (or g.T) and write through out.T,
in which the point axes come last: an integer index there selects a
coordinate at every point, and a per-point scalar broadcasts.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .geometry import ChartSpec, MetricField, _closure

__all__ = ["make_manifold", "MANIFOLDS"]


def _per_point(c):
    """A scalar field's values c, one or one per point of a batch, shaped to
    scale the matrices (..., n, n) at those points."""
    return c if c.ndim == 0 else c[..., None, None]


def _dot(a: str, b: str, n: int) -> str:
    """The text of sum(map(mul, a, b)) on the locals a0, b0, ...: from 0.0,
    as `sum` starts from 0, so that a sum of -0.0 terms is 0.0."""
    return "0.0" + "".join(f" + {a}{i} * {b}{i}" for i in range(n))


def _flat_spray(n):
    return [f"a{i} = 0.0" for i in range(n)] + [f"d{i} = 1.0"
                                                 for i in range(n)]


def _flat(dim: int, low: float, high: float):
    """The flat metric g = id, sampled on the box [low, high]^dim."""
    chart = ChartSpec(dim=dim, sample_bounds=(low * np.ones(dim),
                                              high * np.ones(dim)))
    eye = np.eye(dim)
    zero1 = np.zeros((dim, dim, dim))
    zero2 = np.zeros((dim, dim, dim, dim))
    metric = MetricField(lambda x: eye, dg=lambda x: zero1, d2g=lambda x: zero2,
                         chart=chart, broadcasts=True,
                         spray=_closure("spray", dim, (_flat_spray, ())))
    return chart, metric


def _euclidean(dim: int = 2):
    return _flat(dim, -2.0, 2.0)


def _flat_torus(dim: int = 2, period: float = 2 * np.pi):
    if not period > 0:
        raise ValueError(f"period must be positive, got {period!r}")
    return _flat(dim, 0.0, period)


def _poincare_guard(n, r2):
    return [f"{_dot('x', 'x', n)} < {r2}"]


def _poincare_spray(n):
    # g = e^(2 phi) id with e^phi = 2 / u, so d phi = 2 x / u and
    # -Gamma(v, v) = |v|^2 grad phi - 2 (d phi . v) v
    return [f"u = 1.0 - ({_dot('x', 'x', n)})",
            f"p = 2.0 * ({_dot('v', 'v', n)}) / u",
            f"q = 4.0 * ({_dot('x', 'v', n)}) / u",
            *(f"a{i} = p * x{i} - q * v{i}" for i in range(n)),
            "e = 4.0 / (u * u)",
            *(f"d{i} = e" for i in range(n))]


def _poincare(dim: int = 3, eps: float = 1e-3):
    """Poincare disk/ball model: g = 4/(1 - |x|^2)^2 * id, curvature -1."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    r2 = (1.0 - eps) ** 2
    chart = ChartSpec(
        dim=dim,
        domain_guard=_closure("guard", dim, (_poincare_guard, (r2,))),
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

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart, broadcasts=True,
                         spray=_closure("spray", dim, (_poincare_spray, ())))
    return chart, metric


def _sphere_guard(n, eps, top):
    return [" and ".join(f"{eps} < x{i} < {top}" for i in range(n - 1))]


def _sphere_spray(n):
    # from g_ii = prod_{j < i} sin^2(theta_j) and, as in dg,
    # d_k g_ii = 2 g_ii cot_k for k < i, -Gamma(v, v)_i is
    # (cot_i / g_ii) sum_{j > i} g_jj v_j^2 - 2 v_i sum_{k < i} cot_k v_k,
    # with the cotangents k0, ..., the tail sums t0, ... and the running
    # sum h = sum_{k < i} cot_k v_k; the last cotangent is 0.0
    lines = ["d0 = 1.0"]
    for i in range(1, n):
        lines += [f"s = sin(x{i - 1})", f"d{i} = d{i - 1} * (s * s)",
                  f"k{i - 1} = 1.0 / tan(x{i - 1})"]
    lines.append(f"t{n - 1} = 0.0")
    lines += [f"t{i - 1} = t{i} + d{i} * (v{i} * v{i})"
              for i in range(n - 1, 0, -1)]
    lines.append("h = 0.0")
    for i in range(n - 1):
        lines += [f"a{i} = k{i} * t{i} / d{i} - 2.0 * v{i} * h",
                  f"h = h + k{i} * v{i}"]
    last = n - 1
    return lines + [f"a{last} = 0.0 * t{last} / d{last} - 2.0 * v{last} * h"]


def _round_sphere(dim: int = 2, eps: float = 0.2):
    """Unit round sphere in hyperspherical angles (theta_1, ..., theta_dim).

    g is diagonal with g_ii = prod_{j < i} sin^2(theta_j).  The chart guard
    keeps all polar angles away from the coordinate singularities.
    """
    if not 0 < eps < np.pi / 2:
        raise ValueError(f"eps must lie in (0, pi/2), got {eps!r}")
    lo = eps * np.ones(dim)
    hi = (np.pi - eps) * np.ones(dim)
    guard = _closure("guard", dim, (_sphere_guard, (eps, np.pi - eps)))
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

    eye2 = 2.0 * np.eye(dim - 1)

    def d2g(x):
        # d_k d_l g_ii = g_ii (4 cot_k cot_l - 2 delta_kl csc^2_k) for k, l < i
        s2, gii = _sines(x)
        c = 2.0 / np.tan(x[..., :-1])
        inner = c[..., :, None] * c[..., None, :] - eye2 / s2.T[..., :, None]
        out = np.zeros(x.shape[:-1] + (dim,) * 4)
        for i in range(1, dim):
            out[..., i, i, :i, :i] = (gii[i - 1][..., None, None]
                                      * inner[..., :i, :i])
        return out

    metric = MetricField(eval_fn, dg=dg, d2g=d2g, chart=chart, broadcasts=True,
                         spray=_closure("spray", dim, (_sphere_spray, ())))
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
