"""Chart-based Riemannian geometry: metrics, Christoffel symbols, curvature,
and tangent-space linear algebra.

Everything lives in a single coordinate chart.  A metric is a coefficient
function x -> g_ij(x) together with derivative closures (analytic where the
built-in models provide them, central finite differences otherwise).

Index conventions used throughout:
    dg[i, j, k]      = d g_ij / d x^k
    d2g[i, j, k, l]  = d^2 g_ij / d x^k d x^l
    Gamma[i, j, k]   = Gamma^i_{jk}
    R.up[i, j, k, l] = R^i_{jkl}, the coefficient of (R(e_k, e_l) e_j)^i
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegeneratePlane,
    DomainViolation,
    ZeroVector,
)

__all__ = [
    "ChartSpec",
    "MetricField",
    "CurvatureTensor",
    "TangentSplit",
    "PointGeometry",
    "christoffel",
    "dchristoffel",
    "riemann",
    "sectional",
    "project",
    "connector_split",
    "connector_reconstruct",
    "orthonormal_completion",
    "gram_schmidt",
]

_GS_SKIP = 1e-8  # near-parallel seed threshold for Gram-Schmidt


@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart with an optional domain guard."""

    dim: int
    domain_guard: Optional[Callable[[np.ndarray], bool]] = None
    # box used by random samplers: (low, high) arrays
    sample_bounds: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("chart dimension must be at least 2")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            return False
        if self.domain_guard is None:
            return True
        return bool(self.domain_guard(x))

    def require(self, x):
        if not self.contains(x):
            raise DomainViolation(f"point {x} outside chart domain")

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.sample_bounds if self.sample_bounds is not None else (
            -np.ones(self.dim), np.ones(self.dim))
        return _sample_box(rng, lo, hi, self.contains, DomainViolation(
            "could not sample a point inside the guard"))


def _sample_box(rng: np.random.Generator, lo, hi, accept,
                failure: Exception) -> np.ndarray:
    """A uniform draw from the box [lo, hi] that `accept` admits, within
    1000 tries; raises `failure` when none is admitted."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        if accept(x):
            return x
    raise failure


def _on_batch(point, broadcasts: bool, rank: int, X, *args) -> np.ndarray:
    """`point(x, *a)` at each row x of X (B, n), with the rows a of the
    arrays `args` alike, stacked to shape (B,) + (n,) * rank.  When its
    closures broadcast, `point` is called once on the whole batch, and may
    return one array for every row; otherwise once per row."""
    X = np.asarray(X, dtype=float)
    if not broadcasts:
        return np.array([point(*row) for row in zip(X, *args)])
    return np.broadcast_to(point(X, *args), X.shape[:1] + X.shape[-1:] * rank)


class MetricField:
    """Symmetric positive-definite coefficient field g_ij(x).

    dg / d2g are optional analytic closures; when absent, central
    differences with steps h1 (first order) and h2 (second order) are used.
    inv is an optional analytic closure (x, g) -> g^-1, given the
    coefficients g at x; when absent, g is inverted numerically.
    broadcasts declares that every closure (eval_fn, dg, d2g and inv)
    accepts points of shape (..., n), and inv coefficients of shape
    (..., n, n), returning its values stacked along the same leading axes,
    or one array for every point; only then do the `*_batch` methods call
    the closures on many points at once.  It takes effect only when dg and
    d2g are given, since the finite differences are taken point by point.
    """

    def __init__(self, eval_fn, dg=None, d2g=None, h1: float = 1e-5,
                 h2: float = 1e-4, chart: Optional[ChartSpec] = None,
                 inv=None, broadcasts: bool = False):
        self._eval = eval_fn
        self._dg = dg
        self._d2g = d2g
        self._inv = inv
        self.h1 = h1
        self.h2 = h2
        self.chart = chart
        self.broadcasts = broadcasts and dg is not None and d2g is not None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart is not None:
            self.chart.require(x)
        g = np.asarray(self._eval(x), dtype=float)
        return g

    def raw(self, x) -> np.ndarray:
        """Evaluate without the domain guard (used inside FD stencils)."""
        return np.asarray(self._eval(np.asarray(x, dtype=float)), dtype=float)

    def inverse(self, x, g: np.ndarray) -> np.ndarray:
        """g^-1 at x, given the coefficients g at x."""
        if self._inv is not None:
            return np.asarray(self._inv(x, g), dtype=float)
        return np.linalg.inv(g)

    def dg(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._dg is not None:
            return np.asarray(self._dg(x), dtype=float)
        n = x.size
        out = np.empty((n, n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = self.h1
            out[:, :, k] = (self.raw(x + e) - self.raw(x - e)) / (2 * self.h1)
        return out

    def d2g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._d2g is not None:
            return np.asarray(self._d2g(x), dtype=float)
        n = x.size
        h = self.h2
        out = np.empty((n, n, n, n))
        g0 = self.raw(x)
        for k in range(n):
            ek = np.zeros(n)
            ek[k] = h
            out[:, :, k, k] = (self.raw(x + ek) - 2 * g0 + self.raw(x - ek)) / h**2
            for l in range(k + 1, n):
                el = np.zeros(n)
                el[l] = h
                mixed = (self.raw(x + ek + el) - self.raw(x + ek - el)
                         - self.raw(x - ek + el) + self.raw(x - ek - el)) / (4 * h**2)
                out[:, :, k, l] = mixed
                out[:, :, l, k] = mixed
        return out

    # The values at each row of a batch X (B, n), stacked along axis 0; a
    # closure not declared broadcasting, and the finite differences, are
    # evaluated point by point.

    def raw_batch(self, X) -> np.ndarray:
        """`raw` at each row of X, shape (B, n, n)."""
        return _on_batch(self.raw, self.broadcasts, 2, X)

    def dg_batch(self, X) -> np.ndarray:
        """`dg` at each row of X, shape (B, n, n, n)."""
        return _on_batch(self.dg, self.broadcasts, 3, X)

    def d2g_batch(self, X) -> np.ndarray:
        """`d2g` at each row of X, shape (B, n, n, n, n)."""
        return _on_batch(self.d2g, self.broadcasts, 4, X)

    def inverse_batch(self, X, G) -> np.ndarray:
        """`inverse` at each row of X given the coefficients G (B, n, n)
        there, shape (B, n, n)."""
        return _on_batch(self.inverse, self.broadcasts, 2, X, G)

    def norm(self, x, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(max(v @ self(x) @ v, 0.0)))


@dataclass
class CurvatureTensor:
    """R^i_{jkl} plus the lowered form R_{ijkl} = g_im R^m_{jkl}."""

    up: np.ndarray
    low: np.ndarray

    def apply(self, u, v, w) -> np.ndarray:
        """(R(v, w) u)^i = R^i_{jkl} u^j v^k w^l."""
        return np.einsum("ijkl,j,k,l->i", self.up, u, v, w)


@dataclass
class TangentSplit:
    """Horizontal/vertical components of a 2n phase-tangent vector."""

    horizontal: np.ndarray
    vertical: np.ndarray


class PointGeometry:
    """The local geometry of a metric, and optionally of a 2-form, at one
    chart point, evaluated once and shared by everything computed there.

    Construction runs the chart guard once (`chart` defaults to the
    metric's) and evaluates g, dg, g^-1 (analytic, or the one factorisation
    of g) and the lowered Christoffel symbols
    gamma_low[l, j, k] = g_li Gamma^i_{jk}.  With a 2-form it also evaluates
    sigma, handing it g so that a form built from the metric does not
    evaluate the metric again.  `PointGeometry.batch` holds the same arrays
    for a batch of points, stacked along a leading axis, and every method
    then returns its tensors stacked alike.  The methods derive the
    remaining tensors on each call; a consumer calls each at most once per
    point, and an instance is never reused at another point.
    """

    __slots__ = ("metric", "form", "x", "g", "dg", "ginv", "gamma_low", "sigma")

    def __init__(self, metric: MetricField, x, form=None,
                 chart: Optional[ChartSpec] = None):
        x = np.asarray(x, dtype=float)
        chart = metric.chart if chart is None else chart
        if chart is not None:
            chart.require(x)
        self.metric = metric
        self.form = form
        self.x = x
        self.g = g = metric.raw(x)
        self.dg = metric.dg(x)
        self.ginv = metric.inverse(x, g)
        self.gamma_low = _gamma_low(self.dg)
        self.sigma = None if form is None else form.at(x, metric, g)

    @classmethod
    def batch(cls, metric: MetricField, X: np.ndarray, G: np.ndarray,
              form=None) -> "PointGeometry":
        """The geometry at each row of X (B, n), given the coefficients G
        (B, n, n) of `metric` there.  The points must have passed the chart
        guard already; no guard runs here."""
        geo = cls.__new__(cls)
        geo.metric = metric
        geo.form = form
        geo.x = X
        geo.g = G
        geo.dg = metric.dg_batch(X)
        geo.ginv = metric.inverse_batch(X, G)
        geo.gamma_low = _gamma_low(geo.dg)
        geo.sigma = None if form is None else form.at_batch(X, metric, G)
        return geo

    def dgamma_low(self) -> np.ndarray:
        """dgamma_low[l, j, k, m] = d gamma_low[l, j, k] / d x^m."""
        x = self.x
        d2g = self.metric.d2g(x) if x.ndim == 1 else self.metric.d2g_batch(x)
        t = d2g.swapaxes(-2, -3)
        return 0.5 * (t + d2g - t.swapaxes(-3, -4))

    def dsigma(self) -> np.ndarray:
        """dsigma[i, j, k] = d sigma_ij / d x^k."""
        if self.x.ndim == 1:
            return self.form.dsigma_at(self.x, self.metric, self.g, self.dg)
        return self.form.dsigma_batch(self.x, self.metric, self.g, self.dg)

    def christoffel(self) -> np.ndarray:
        """Gamma[i, j, k] = Gamma^i_{jk}."""
        return np.einsum("...il,...ljk->...ijk", self.ginv, self.gamma_low)

    def dchristoffel(self) -> np.ndarray:
        """dGamma[i, j, k, m] = d Gamma^i_{jk} / d x^m."""
        # gamma_low = g Gamma  =>  d_m Gamma = g^-1 (d_m gamma_low - d_m g Gamma)
        dg_Gamma = np.einsum("...lam,...ajk->...ljkm", self.dg,
                             self.christoffel())
        return np.einsum("...il,...ljkm->...ijkm", self.ginv,
                         self.dgamma_low() - dg_Gamma)

    def lorentz(self) -> np.ndarray:
        """Y with g(Yv, w) = sigma(v, w); as a matrix, g Y = sigma^T."""
        return -(self.ginv @ self.sigma)

    def dlorentz(self) -> np.ndarray:
        """dY[:, :, k] = d_k Y, from d_k(g Y) = d_k sigma^T."""
        # Y = -g^-1 sigma  =>  d_k Y = g^-1 d_k g g^-1 sigma - g^-1 d_k sigma
        ginv = self.ginv
        return np.einsum("...ia,...abk,...bj->...ijk", ginv, self.dg,
                         -self.lorentz()) \
            - np.einsum("...ia,...ajk->...ijk", ginv, self.dsigma())


def _gamma_low(dg: np.ndarray) -> np.ndarray:
    """gamma_low[..., l, j, k] from dg[..., i, j, k] = d g_ij / d x^k."""
    # 2 gamma_low[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    t = dg.swapaxes(-1, -2)
    return 0.5 * (t + dg - t.swapaxes(-2, -3))


def christoffel(g: MetricField, x) -> np.ndarray:
    return PointGeometry(g, x).christoffel()


def dchristoffel(g: MetricField, x) -> np.ndarray:
    """dGamma[i, j, k, m] = d Gamma^i_{jk} / d x^m."""
    return PointGeometry(g, x).dchristoffel()


def riemann(g: MetricField, x) -> CurvatureTensor:
    geo = PointGeometry(g, x)
    Gamma = geo.christoffel()
    dGamma = geo.dchristoffel()
    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #           + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    up = (np.einsum("iljk->ijkl", dGamma)
          - np.einsum("ikjl->ijkl", dGamma)
          + np.einsum("ikm,mlj->ijkl", Gamma, Gamma)
          - np.einsum("ilm,mkj->ijkl", Gamma, Gamma))
    low = np.einsum("im,mjkl->ijkl", geo.g, up)
    return CurvatureTensor(up=up, low=low)


def sectional(g: MetricField, x, v, w) -> float:
    """Sectional curvature of span{v, w} at x."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    gx = g(x)
    # normalize first so the degeneracy threshold is scale-aware
    nv, nw = np.sqrt(v @ gx @ v), np.sqrt(w @ gx @ w)
    if nv < 1e-300 or nw < 1e-300:
        raise DegeneratePlane("zero vector spans no plane")
    v, w = v / nv, w / nw
    gram = (v @ gx @ v) * (w @ gx @ w) - (v @ gx @ w) ** 2
    if gram < 1e-12:
        raise DegeneratePlane("vectors are numerically parallel")
    R = riemann(g, x)
    num = np.einsum("ijkl,i,j,k,l->", R.low, v, w, v, w)
    return float(num / gram)


def project(g: MetricField, x, v, w):
    """Split w into its component along v and its g-orthogonal complement."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    gx = g(x)
    vv = v @ gx @ v
    if vv <= 0 or not np.isfinite(vv):
        raise ZeroVector("projection direction must be nonzero")
    tang = (v @ gx @ w) / vv * v
    return tang, w - tang


def connector_split(g: MetricField, x, v, xi) -> TangentSplit:
    """Split a 2n-vector xi = (dx, dv) into (d pi (xi), K(xi))."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = x.size
    Gamma = christoffel(g, x)
    hor = xi[:n]
    vert = xi[n:] + np.einsum("ijk,j,k->i", Gamma, hor, v)
    return TangentSplit(horizontal=hor, vertical=vert)


def connector_reconstruct(g: MetricField, x, v, split: TangentSplit) -> np.ndarray:
    Gamma = christoffel(g, np.asarray(x, dtype=float))
    hor = split.horizontal
    dv = split.vertical - np.einsum("ijk,j,k->i", Gamma, hor, np.asarray(v, dtype=float))
    return np.concatenate([hor, dv])


def gram_schmidt(gx: np.ndarray, vectors) -> np.ndarray:
    """g-orthonormalize rows of `vectors`, skipping near-dependent ones."""
    out = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        for u in out:
            v -= (u @ gx @ v) * u
        nrm = np.sqrt(max(v @ gx @ v, 0.0))
        if nrm > _GS_SKIP:
            out.append(v / nrm)
    return np.array(out)


def orthonormal_completion(g: MetricField, x, v) -> np.ndarray:
    """Deterministic g-orthonormal frame (v/|v|, v_2, ..., v_n).

    Rows are the frame vectors.  Completion seeds are the standard basis
    vectors in order, with near-parallel seeds skipped.
    """
    return _completion(g(np.asarray(x, dtype=float)), np.asarray(v, dtype=float))


def _completion(gx: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`orthonormal_completion` given the metric coefficients gx at x."""
    nv = np.sqrt(max(v @ gx @ v, 0.0))
    if nv < 1e-300:
        raise ZeroVector("cannot complete the zero vector to a frame")
    n = v.size
    seeds = [v] + [np.eye(n)[i] for i in range(n)]
    frame = gram_schmidt(gx, seeds)
    if frame.shape[0] != n:
        raise ZeroVector("Gram-Schmidt failed to produce a full frame")
    return frame
