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

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import islice
from types import FunctionType
from typing import Callable, Optional
from weakref import WeakKeyDictionary

import numpy as np

from .errors import (
    DegeneratePlane,
    DomainViolation,
    NonUnitVector,
    ZeroVector,
)

__all__ = [
    "ChartSpec",
    "MetricField",
    "CurvatureTensor",
    "PointGeometry",
    "christoffel",
    "dchristoffel",
    "riemann",
    "sectional",
    "project",
    "orthonormal_completion",
    "gram_schmidt",
]

_GS_SKIP = 1e-8  # Gram-Schmidt drops a row left with this share of its g-norm
_UNIT_TOL = 5e-9  # |v|_g of a g-unit v is within this of 1 (v g v within 1e-8)
_FD_STEP1 = 1e-5  # central-difference step of dg and dsigma without a closure
_FD_STEP2 = 1e-4  # central-difference step of d2g (of dg) without a closure
_identity = cache(np.eye)  # the n x n identity, built once per n; only read


@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart with an optional domain guard.

    The guard takes a point as a list of `dim` floats and says whether it
    lies in the chart; `contains` hands it x.tolist(), `sample_point` the
    list of its drawn point, and the RK4 driver of `flow` its list state.
    It must return False, not raise, at a point with infinite or NaN
    coordinates.  The built-in models generate their guards from fragments
    of index-level code (see `_closure`), which a fused RK4 stage inlines."""

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

    @cached_property
    def _sampler(self):
        """`sample_point`'s box as float arrays (lo, hi - lo), and its test
        of a drawn point: the guard on the point's list.  Built once per
        chart."""
        lo, hi = self.sample_bounds if self.sample_bounds is not None else (
            -np.ones(self.dim), np.ones(self.dim))
        lo = np.asarray(lo, dtype=float)
        guard = self.domain_guard
        accept = ((lambda x: True) if guard is None
                  else (lambda x: guard(x.tolist())))
        return lo, np.asarray(hi, dtype=float) - lo, accept

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform draw from `sample_bounds` ([-1, 1]^dim without them)
        that the guard admits, within 1000 tries; `DomainViolation` when
        none is admitted.  A draw is numpy's own formula for
        rng.uniform(lo, hi), without its per-call checks of the bounds: the
        same values and the same generator state after it."""
        lo, span, accept = self._sampler
        for _ in range(1000):
            x = lo + span * rng.random(lo.shape)
            if accept(x):
                return x
        raise DomainViolation("could not sample a point inside the guard")


def _on_batch(point, whole, rank: int, X, *args) -> np.ndarray:
    """`point(x, *a)` at each row x of X (B, n), with the rows a of the
    arrays `args` alike, stacked to shape (B,) + (n,) * rank.  Given a
    closure `whole` that broadcasts (rather than a false value), that is
    called once on the whole batch instead, and may return one array for
    every row."""
    if not whole:
        return np.array([point(*row) for row in zip(X, *args)])
    out = np.asarray(whole(X, *args), dtype=float)
    shape = X.shape[:1] + X.shape[-1:] * rank
    return out if out.shape == shape else np.broadcast_to(out, shape)


def _central_difference(f, x, h: float) -> np.ndarray:
    """(f(x + h e_k) - f(x - h e_k)) / 2h for each coordinate k of x,
    stacked along a last axis."""
    return np.stack([(f(x + e) - f(x - e)) / (2 * h)
                     for e in h * np.eye(x.size)], axis=-1)


def _second_difference(first, x, h: float) -> np.ndarray:
    """Second derivatives as the `_central_difference` of the first
    derivatives `first`, symmetrised in the last two axes."""
    H = _central_difference(first, x, h)
    return 0.5 * (H + H.swapaxes(-1, -2))


def _load_kernels(text: str) -> dict:
    """The one home of generated code: the names that the Python text
    defines, run with no builtins, and with the math functions and the
    error that the fragments, stages and steps read.  Every text comes from
    `_source`, which reads nothing but list lengths and fixed templates;
    each is run once per key of `_kernel`'s cache, when a system is built or
    first integrated, never at import."""
    scope = {"__builtins__": {}, "sqrt": math.sqrt, "sin": math.sin,
             "tan": math.tan, "DomainViolation": DomainViolation}
    exec(text, scope)
    return scope


# Fragments.  A built-in chart guard, diagonal metric or 2-form declares its
# float arithmetic at one point once, as a fragment: a tuple of pieces
# (template, values).  template(n, *names) returns the piece's lines of
# index-level Python at dimension n, in which the names (one per value)
# stand for the values.  The lines read and assign locals by role:
#     guard         one line, an expression of x0, ..., x{n-1}: the point
#                   lies in the chart
#     spray         a0, ..., the geodesic acceleration -Gamma(v, v), and
#                   d0, ..., g's diagonal, from x0, ... and v0, ...
#     magnetic_acc  w0, ..., the magnetic acceleration a_i + (Yv)_i, from
#                   the x, v, a and d above
# Any other closure is the one piece `_call` of its role.  The pieces of a
# fragment run in order: `MagneticSystem.rescale` adds one that scales d to
# a metric's, and one that undoes it to its form's.  `_closure` compiles a
# fragment into the closure of its role (`_FRAGMENTS` keeps which), and
# `_RK4Kernels` the fragments of a system's guard, spray and magnetic term
# into its RK4 kernels.  The code is compiled once per (role, templates, n),
# into a factory that binds the values, so that a system with other
# parameters or closures reuses it.
_FRAGMENTS = WeakKeyDictionary()    # each generated closure -> its fragment
# the letters of the locals of each role's list arguments, and of the lists
# it returns (a guard returns the value of its one line)
_ROLES = {"guard": ("x", ""), "spray": ("xv", "ad"),
          "magnetic_acc": ("xdva", "w")}


def _names(n: int, letters: str) -> str:
    """The text "c0, ..., c{n-1}, ..." of the locals of each letter c."""
    return ", ".join(f"{c}{i}" for c in letters for i in range(n))


def _lists(n: int, letters: str) -> str:
    """The text "[c0, ..., c{n-1}], ..." of a list per letter c."""
    return ", ".join(f"[{_names(n, c)}]" for c in letters)


def _call(role: str, n: int, fn: str) -> list:
    """The line of a closure of `role` that no fragment generated, the value
    fn: a call of it on new lists of its arguments' locals, which unpacks
    each list it returns into n locals (a list of another length raises
    `ValueError`)."""
    ins, outs = _ROLES[role]
    call = f"{fn}({_lists(n, ins)})"
    return [f"{_lists(n, outs)} = {call}" if outs else call]


def _stage_call(n: int, fn: str) -> list:
    """The line of an RK4 stage that no fragment generated, the value fn: a
    call of it on a new list x ++ v, whose list v ++ w it unpacks."""
    return [f"{_names(n, 'vw')} = {fn}([{_names(n, 'xv')}])"]


_CALLS = {**{role: partial(_call, role) for role in _ROLES},
          "stage": _stage_call}


def _stage_lines(n: int, guard: list, spray: list, form: list) -> list:
    """The lines of an RK4 stage from the lines of a guard (none: no guard),
    a spray and a magnetic_acc: w0, ... from x0, ... and v0, ..., raising
    `DomainViolation` where the guard fails."""
    check = []
    if guard:
        check = [f"if not ({guard[0]}):", "    raise DomainViolation("
                 f"f'point {{[{_names(n, 'x')}]}} outside chart domain')"]
    return check + spray + form


def _step_lines(n: int, stage: list, record: bool) -> tuple:
    """The lines and the returned list of `step(y, k1, half, hh, sixth,
    put)` (see `_RK4Kernels`), whose stages run the lines `stage`.  Each
    stage point x ++ v = Y + c K is taken from the last stage's K, its x
    before its v, so that x reads the v of that K; the bracket of the node
    update is summed from the left, one stage at a time, into S."""
    Y, K, S = ([f"{c}{i}" for i in range(2 * n)] for c in "YKS")
    xv, vw = _names(n, "xv").split(", "), _names(n, "vw").split(", ")

    def put(names):
        return [f"put(({', '.join(names)}))"] if record else []

    lines = [f"{', '.join(Y)} = y", f"{', '.join(K)} = k1", *put(Y + K[n:])]
    k, total = K, K         # the last stage's K; the bracket summed so far
    for c in ("half", "half", "hh"):
        if k is not K:
            lines += [f"{s} = {t} + 2.0 * {u}" for s, t, u in zip(S, total, k)]
            total = S
        lines += [f"{p} = {q} + {c} * {u}" for p, q, u in zip(xv, Y, k)]
        lines += stage + put(xv + vw[n:])
        k = vw
    return lines, "[" + ", ".join(f"{q} + sixth * ({t} + {u})"
                                  for q, t, u in zip(Y, total, k)) + "]"


def _source(role: str, n: int, *codes) -> str:
    """The text of `kernel(p0, p1, ...)`, which returns the closure of
    `role` with the values of the fragments whose codes ((template, number
    of values), ...) are given bound to p0, p1, ... in order: "guard",
    "spray" or "magnetic_acc" from one code; "stage", "step" or "record"
    (see `_RK4Kernels`) from the codes of a guard, a spray and a
    magnetic_acc, or from the one code of a stage."""
    params = [f"p{j}" for j in range(sum(k for c in codes for _, k in c))]
    free = iter(params)
    lines = [[line for template, k in code
              for line in template(n, *islice(free, k))] for code in codes]
    if role in _ROLES:
        ins, outs = _ROLES[role]
        args = ", ".join(ins)
        body = [f"{_names(n, c)} = {c}" for c in ins] + lines[0]
        out = _lists(n, outs) if outs else body.pop()
    else:
        stage = lines[0] if len(lines) == 1 else _stage_lines(n, *lines)
        if role == "stage":
            args, out = "y", f"[{_names(n, 'vw')}]"
            body = [f"{_names(n, 'xv')} = y"] + stage
        else:
            args = "y, k1, half, hh, sixth, put"
            body, out = _step_lines(n, stage, role == "record")
    return (f"def kernel({', '.join(params)}):\n    def {role}({args}):\n"
            + "".join(f"        {line}\n" for line in body)
            + f"        return {out}\n    return {role}\n")


@cache
def _kernel(role: str, n: int, *codes) -> Callable:
    """The compiled `kernel` of `_source(role, n, *codes)`."""
    return _load_kernels(_source(role, n, *codes))["kernel"]


def _binder(n: int, *fragments) -> Callable:
    """role -> the closure of `role` from the fragments given (see
    `_source`): the kernel of their templates and arities, which binds the
    values of their pieces in order.  Both are taken once, here."""
    codes = tuple(tuple((t, len(vs)) for t, vs in f) for f in fragments)
    values = [u for f in fragments for _, vs in f for u in vs]
    return lambda role: _kernel(role, n, *codes)(*values)


def _closure(role: str, n: int, *fragment) -> Callable:
    """The generated closure of `role` ("guard", "spray" or
    "magnetic_acc") on lists of n floats, from the fragment of the pieces
    given; `_fragment` gives the fragment back."""
    if n < 2:
        raise ValueError("chart dimension must be at least 2")
    fn = _binder(n, fragment)(role)
    _FRAGMENTS[fn] = fragment
    return fn


def _fragment(fn, role: str) -> tuple:
    """The fragment that `_closure` generated fn from; for any other closure
    of `role` (a user's, or a wrapper of a generated one), the one piece
    that calls it."""
    fragment = _FRAGMENTS.get(fn) if isinstance(fn, FunctionType) else None
    return ((_CALLS[role], (fn,)),) if fragment is None else fragment


class _RK4Kernels:
    """A system's RK4 kernels on lists of 2n floats, generated from the
    fragments of its chart guard (None: no guard), spray and magnetic_acc,
    or from that of one stage that no fragment generated (`_stage_call`),
    each built on first use: `stage(y)` -> v ++ (a + Yv) at y = x ++ v,
    which raises `DomainViolation` where the guard fails; `step(y, k1, half,
    hh, sixth, put)`, the rest of a step after k1 = f(y), inline with the
    operations of f and of the list expressions of the stages at
    y + half k1, y + half k2 and y + hh k3 and of the node
    y + sixth (k1 + 2.0 k2 + 2.0 k3 + k4), in their order, ignoring put;
    and `record`, that step handing put the floats (x, v, vdot) of each
    stage."""

    def __init__(self, n: int, *closures):
        roles = _ROLES if len(closures) == 3 else ("stage",)
        self._bind = _binder(n, *(() if fn is None else _fragment(fn, role)
                                  for fn, role in zip(closures, roles)))

    stage = cached_property(lambda self: self._bind("stage"))
    step = cached_property(lambda self: self._bind("step"))
    record = cached_property(lambda self: self._bind("record"))


class MetricField:
    """Symmetric positive-definite coefficient field g_ij(x).

    dg / d2g are optional analytic closures.  Without dg, dg is the central
    difference of `raw` (step `_FD_STEP1`); without d2g, d2g is the
    central difference of `dg` (step `_FD_STEP2`), symmetrised in its last
    two axes, the rule `ParamSubmanifold.hessian` applies to its Jacobian.
    `raw`, `dg` and `d2g` take a point x (n,) or a batch X (B, n) and
    return their values at each row of a batch stacked along axis 0.  As g
    is symmetric, dg and d2g are symmetric in their first two indices.
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
    overflows to inf, where ** raises.  `flow` fuses it with the chart guard
    and the form's magnetic_acc into one stage function (`_RK4Kernels`);
    the built-in models generate it from a fragment of index-level code.
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
            return _second_difference(self.dg, x, _FD_STEP2)
        return _on_batch(self.d2g, self.broadcasts and self._d2g, 4, x)

    def norm(self, x, v) -> float:
        return float(_g_norm(self(x), np.asarray(v, dtype=float)))


@dataclass
class CurvatureTensor:
    """R^i_{jkl} plus the lowered form R_{ijkl} = g_im R^m_{jkl}."""

    up: np.ndarray
    low: np.ndarray

    def apply(self, u, v, w) -> np.ndarray:
        """(R(v, w) u)^i = R^i_{jkl} u^j v^k w^l."""
        return np.einsum("ijkl,j,k,l->i", self.up, u, v, w)


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
    nv, nw = _g_norm(gx, v), _g_norm(gx, w)
    if not (nv > 0.0 and nw > 0.0):
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
    nv = _g_norm(gx, v)
    if not 0.0 < nv < np.inf:
        raise ZeroVector("projection direction must be nonzero")
    tang = (v / nv @ gx @ w) / nv * v
    return tang, w - tang


def gram_schmidt(gx: np.ndarray, vectors) -> np.ndarray:
    """g-orthonormalize rows of `vectors`, skipping near-dependent ones."""
    out = []
    for v in vectors:
        v = np.array(v, dtype=float)
        bound = _GS_SKIP * _g_norm(gx, v)
        for u in out:
            v -= (u @ gx @ v) * u
        nrm = _g_norm(gx, v)
        if nrm > bound:
            out.append(v / nrm)
    return np.array(out)


def _bilinear(U: np.ndarray, G: np.ndarray, W: np.ndarray) -> np.ndarray:
    """u @ g @ w for each row u of U (B, n), g of G (B, n, n) or G = g, and w
    of W, stacked, with the bits of `gram_schmidt`'s `u @ gx @ v`."""
    return np.vecdot(np.matmul(U[:, None, :], G)[:, 0], W)


def _scale(v):
    """(v 2^-e, e) for v (n,) or each row of V (B, n): 2^e is the power of
    two above its largest |entry| (1 for a zero v), so v 2^-e is in (-1, 1)."""
    # numpy's max along a short last axis costs about 50 ns a row
    e = np.frexp(reduce(np.maximum, np.abs(v).T))[1]
    return np.ldexp(v, -e[..., None]), e


def _g_norm(g: np.ndarray, v: np.ndarray):
    """|v|_g = sqrt(max(v g v, 0)) of v (n,) in g (n, n), or of each row of
    V (B, n) in G (B, n, n) or in one g, by `_bilinear`.  As in Blue's norm
    (ACM TOMS 4, 1978), v g v is taken on v scaled exactly by `_scale`, and
    the scaling undone on the root; one v in Blue's mid range (1e-100, 1e100)
    needs none.  No finite v overflows, and ordinary ones keep their bits."""
    if v.ndim == 1 and 1e-100 < max(map(abs, v.tolist())) < 1e100:
        return math.sqrt(max(v @ g @ v, 0.0))
    w, e = _scale(v)
    q = w @ g @ w if w.ndim == 1 else _bilinear(w, g, w)
    return np.ldexp(np.sqrt(np.maximum(q, 0.0)), e)


def _require_unit(g: np.ndarray, v: np.ndarray):
    """Raise `NonUnitVector` unless v is g-unit: |v|_g within `_UNIT_TOL`
    of 1, which a NaN entry never is."""
    nrm = _g_norm(g, v)
    if not abs(nrm - 1.0) <= _UNIT_TOL:
        raise NonUnitVector(f"expected a g-unit vector, |v|_g = {nrm}")


def _gram_schmidt_pairs(G: np.ndarray, P: np.ndarray):
    """`gram_schmidt` of each pair of rows P[i] (B, 2, n) in the metric
    G[i] (B, n, n), with its arithmetic and its `_GS_SKIP` rule: the first
    and second rows U, W (B, n) of the pairs, and a mask of the pairs with a
    near-dependent row, for which `gram_schmidt` returns fewer than two
    rows and U, W hold no frame."""
    U, W = P[:, 0], P[:, 1]
    nu, bound = _g_norm(G, U), _GS_SKIP * _g_norm(G, W)
    # a rejected first row divides by zero here; the mask covers it
    with np.errstate(divide="ignore", invalid="ignore"):
        U = U / nu[:, None]
        W = W - _bilinear(U, G, W)[:, None] * U
        nw = _g_norm(G, W)
        W = W / nw[:, None]
    return U, W, ~((nu > _GS_SKIP * nu) & (nw > bound))


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
    if not 0.0 < _g_norm(gx, v) < np.inf:
        raise ZeroVector("cannot complete a zero or non-finite vector")
    frame = gram_schmidt(gx, [v, *_identity(v.size)])
    if frame.shape[0] != v.size:
        raise ZeroVector("Gram-Schmidt failed to produce a full frame")
    return frame
