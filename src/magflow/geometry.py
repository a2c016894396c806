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

from dataclasses import dataclass
from functools import cache
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
_FD_STEP1 = 1e-5  # central-difference step of dg without a closure
_FD_STEP2 = 1e-4  # second-difference step of d2g without a closure
_identity = cache(np.eye)  # the n x n identity, built once per n; only read


@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart with an optional domain guard.

    The guard takes a point as a list of `dim` floats and says whether it
    lies in the chart; `contains` hands it x.tolist(), and the RK4 driver of
    `flow` its list state.  It must return False, not raise, at a point with
    infinite or NaN coordinates."""

    dim: int
    domain_guard: Optional[Callable[[list], bool]] = None
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
        return bool(self.domain_guard(x.tolist()))

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
    1000 tries; raises `failure` when none is admitted.  A draw is numpy's
    own formula for rng.uniform(lo, hi), without its per-call checks of the
    bounds: the same values and the same generator state after it."""
    lo = np.asarray(lo, dtype=float)
    span = np.asarray(hi, dtype=float) - lo
    for _ in range(1000):
        x = lo + span * rng.random(lo.shape)
        if accept(x):
            return x
    raise failure


def _on_batch(point, whole, rank: int, X, *args) -> np.ndarray:
    """`point(x, *a)` at each row x of X (B, n), with the rows a of the
    arrays `args` alike, stacked to shape (B,) + (n,) * rank.  Given a
    closure `whole` that broadcasts (rather than a false value), that is
    called once on the whole batch instead, and may return one array for
    every row."""
    if not whole:
        return np.array([point(*row) for row in zip(X, *args)])
    return np.broadcast_to(np.asarray(whole(X, *args), dtype=float),
                           X.shape[:1] + X.shape[-1:] * rank)


def _central_difference(f, x, h: float) -> np.ndarray:
    """(f(x + h e_k) - f(x - h e_k)) / 2h for each coordinate k of x,
    stacked along a last axis."""
    return np.stack([(f(x + e) - f(x - e)) / (2 * h)
                     for e in h * np.eye(x.size)], axis=-1)


class MetricField:
    """Symmetric positive-definite coefficient field g_ij(x).

    dg / d2g are optional analytic closures; when absent, central
    differences (steps `_FD_STEP1` and `_FD_STEP2`) are used.
    `raw`, `dg` and `d2g` take a point x (n,) or a batch X (B, n) and
    return their values at each row of a batch stacked along axis 0.
    broadcasts declares that every closure (eval_fn, dg and d2g) accepts
    points of shape (..., n), returning its values stacked along the same
    leading axes, or one array for every point; only then is a closure
    called on a whole batch, and otherwise once per row.  It takes effect
    only when dg and d2g are given, since the finite differences are taken
    point by point.
    spray is an optional closure at one point, given as lists x and v of n
    floats, that returns (a, d): the geodesic acceleration a = -Gamma(v, v)
    at (x, v) and g's diagonal d[i] = g_ii at x, as two lists of n floats.
    Giving it declares that g is diagonal: `inverse` then divides by g's
    diagonal, and an RK4 stage of `flow` reads the magnetic acceleration
    on Python floats, with no `PointGeometry`.  Its lists are only read, so
    it may return the same lists at every call.  It multiplies
    state-dependent floats rather than raising them to a power: a product
    overflows to inf, where ** raises.
    """

    def __init__(self, eval_fn, dg=None, d2g=None,
                 chart: Optional[ChartSpec] = None, broadcasts: bool = False,
                 spray=None):
        self._eval = eval_fn
        self._dg = dg
        self._d2g = d2g
        self.spray = spray
        self.chart = chart
        self.broadcasts = broadcasts and dg is not None and d2g is not None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart is not None:
            self.chart.require(x)
        return np.asarray(self._eval(x), dtype=float)

    def raw(self, x) -> np.ndarray:
        """Evaluate without the domain guard (used inside FD stencils)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(self._eval(x), dtype=float)
        return _on_batch(self.raw, self.broadcasts and self._eval, 2, x)

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """g^-1 from the coefficients g at a point (n, n) or a batch
        (B, n, n): the reciprocal of g's diagonal where `spray` declares g
        diagonal, otherwise numerically."""
        if self.spray is None:
            return np.linalg.inv(g)
        return _identity(g.shape[-1]) / g.diagonal(0, -2, -1)[..., None, :]

    def dg(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if self._dg is not None:
                return np.asarray(self._dg(x), dtype=float)
            return _central_difference(self.raw, x, _FD_STEP1)
        return _on_batch(self.dg, self.broadcasts and self._dg, 3, x)

    def d2g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if self._d2g is not None:
                return np.asarray(self._d2g(x), dtype=float)
            n, h = x.size, _FD_STEP2
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
                             - self.raw(x - ek + el)
                             + self.raw(x - ek - el)) / (4 * h**2)
                    out[:, :, k, l] = mixed
                    out[:, :, l, k] = mixed
            return out
        return _on_batch(self.d2g, self.broadcasts and self._d2g, 4, x)

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
    metric's) and evaluates g, dg, g^-1 (see `MetricField.inverse`) and the
    lowered Christoffel symbols gamma_low[l, j, k] = g_li Gamma^i_{jk}; g
    is taken as given when the caller holds it already.  With a 2-form (one
    built from this metric, if from any; see `MagneticSystem`) it also
    evaluates sigma, handing it g so that the metric is not evaluated
    again.  At a batch of points X (B, n) that have already passed the guard
    (a linear flow's recorded stage points, a block of curvature samples)
    no guard runs; the same arrays are stacked along a leading axis, and
    every method then returns its tensors stacked alike.  The methods derive
    the remaining tensors; `dchristoffel` and `dlorentz` take Gamma and Y
    from a caller that holds them.  An instance is never reused at another
    point.
    """

    __slots__ = ("metric", "form", "x", "g", "dg", "ginv", "gamma_low", "sigma")

    def __init__(self, metric: MetricField, x, form=None,
                 chart: Optional[ChartSpec] = None, g=None):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            chart = metric.chart if chart is None else chart
            if chart is not None:
                chart.require(x)
        self.metric = metric
        self.form = form
        self.x = x
        self.g = g = metric.raw(x) if g is None else g
        self.dg = metric.dg(x)
        self.ginv = metric.inverse(g)
        self.gamma_low = _gamma_low(self.dg)
        self.sigma = None if form is None else form.at(x, g)

    def dgamma_low(self) -> np.ndarray:
        """dgamma_low[l, j, k, m] = d gamma_low[l, j, k] / d x^m."""
        d2g = self.metric.d2g(self.x)
        t = d2g.swapaxes(-2, -3)
        return 0.5 * (t + d2g - t.swapaxes(-3, -4))

    def dsigma(self) -> np.ndarray:
        """dsigma[i, j, k] = d sigma_ij / d x^k."""
        return self.form.dsigma_at(self.x, self.g, self.dg)

    def christoffel(self) -> np.ndarray:
        """Gamma[i, j, k] = Gamma^i_{jk}."""
        return np.einsum("...il,...ljk->...ijk", self.ginv, self.gamma_low)

    def dchristoffel(self, Gamma=None) -> np.ndarray:
        """dGamma[i, j, k, m] = d Gamma^i_{jk} / d x^m, given Gamma =
        `christoffel()` or else deriving it."""
        # gamma_low = g Gamma  =>  d_m Gamma = g^-1 (d_m gamma_low - d_m g Gamma)
        Gamma = self.christoffel() if Gamma is None else Gamma
        dg_Gamma = np.einsum("...lam,...ajk->...ljkm", self.dg, Gamma)
        return np.einsum("...il,...ljkm->...ijkm", self.ginv,
                         self.dgamma_low() - dg_Gamma)

    def lorentz(self) -> np.ndarray:
        """Y with g(Yv, w) = sigma(v, w); as a matrix, g Y = sigma^T."""
        return -(self.ginv @ self.sigma)

    def dlorentz(self, Y=None) -> np.ndarray:
        """dY[:, :, k] = d_k Y, from d_k(g Y) = d_k sigma^T, given Y =
        `lorentz()` or else deriving it."""
        # g Y = -sigma  =>  d_k Y = -g^-1 (d_k g Y + d_k sigma)
        Y = self.lorentz() if Y is None else Y
        dgY = np.einsum("...abk,...bj->...ajk", self.dg, Y)
        return -np.einsum("...ia,...ajk->...ijk", self.ginv,
                          dgY + self.dsigma())


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
    dGamma = geo.dchristoffel(Gamma)
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


def _random_frame(rng: np.random.Generator, gx: np.ndarray,
                  k: int) -> np.ndarray:
    """k g-orthonormal rows, from Gram-Schmidt on a standard normal (k, n)
    draw; a draw with a near-dependent row is replaced by the next one."""
    while True:
        frame = gram_schmidt(gx, rng.standard_normal((k, gx.shape[0])))
        if frame.shape[0] == k:
            return frame


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
