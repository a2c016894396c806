"""Parametrized submanifolds, classical and dynamical second fundamental
forms, invariance defects, exponential-image candidate hypersurfaces, the
augmented exponential map, the quadrature defect functional, and the
k-plane (Cartan-type) probe.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    BadDimension,
    DegenerateImage,
    DomainExit,
    DomainViolation,
    NotTangent,
    NonUnitVector,
    ProjectionFailure,
    RankDeficient,
)
from .flow import IntegratorConfig, PhaseState, dynamical_exp, integrate, variational_flow
from .geometry import (MetricField, PointGeometry, _central_difference,
                       _random_frame, _sample_box, gram_schmidt,
                       orthonormal_completion, sectional)
from .system import MagneticSystem

__all__ = [
    "ParamSubmanifold",
    "HyperplaneElement",
    "DynIIValue",
    "DefectReport",
    "classical_II",
    "dynamical_II",
    "invariance_defect",
    "dynamic_consistency_check",
    "candidate_submanifold",
    "candidate_hypersurface",
    "augmented_exp",
    "alpha_defect",
    "cartan_probe",
    "CartanReport",
    "make_submanifold",
]

_RANK_TOL = 1e-8
_TANGENT_TOL = 1e-8
_FD_STEP = 1e-4  # finite-difference step of jacobian and hessian
_ORBIT_NODES = 50  # orbit nodes projected by dynamic_consistency_check
_ALPHA_DIRECTIONS = 2  # exp-image directions sampled by alpha_defect
_ALPHA_QUAD = 64  # quadrature nodes on the unit tangent sphere of alpha_defect
_ALPHA_RADIUS = 0.5  # largest exp-image radius of alpha_defect
_PROJECT_ITER = 50  # Gauss-Newton iterations of a projection onto a submanifold


class ParamSubmanifold:
    """An immersion f: parameter domain (dim k) -> chart coordinates (dim n).

    Derivatives come from closures when provided, otherwise from central
    finite differences of f (Jacobian) and of the Jacobian (Hessian).
    """

    def __init__(self, k: int, f: Callable, jac: Optional[Callable] = None,
                 hess: Optional[Callable] = None,
                 guard: Optional[Callable] = None,
                 sample_bounds=None, name: str = "submanifold"):
        self.k = k
        self._f = f
        self._jac = jac
        self._hess = hess
        self.guard = guard
        self.sample_bounds = sample_bounds
        self.name = name

    def point(self, p) -> np.ndarray:
        return np.asarray(self._f(np.asarray(p, dtype=float)), dtype=float)

    def jacobian(self, p) -> np.ndarray:
        """J[i, a] = d f^i / d p^a, shape (n, k)."""
        p = np.asarray(p, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(p), dtype=float)
        return _central_difference(self.point, p, _FD_STEP)

    def hessian(self, p) -> np.ndarray:
        """H[i, a, b] = d^2 f^i / d p^a d p^b, shape (n, k, k)."""
        p = np.asarray(p, dtype=float)
        if self._hess is not None:
            return np.asarray(self._hess(p), dtype=float)
        H = _central_difference(self.jacobian, p, _FD_STEP)
        return 0.5 * (H + H.transpose(0, 2, 1))

    def sample_param(self, rng: np.random.Generator) -> np.ndarray:
        lo, hi = (self.sample_bounds if self.sample_bounds is not None
                  else (-0.5 * np.ones(self.k), 0.5 * np.ones(self.k)))
        return _sample_box(
            rng, lo, hi, lambda p: self.guard is None or self.guard(p),
            ProjectionFailure("could not sample a parameter inside the guard"))


@dataclass
class HyperplaneElement:
    """An oriented hyperplane at x, given by its g-unit normal."""

    x: np.ndarray
    normal: np.ndarray
    basis: Optional[np.ndarray] = None    # (n, n-1) spanning columns


@dataclass
class DynIIValue:
    """The two normal-valued components of the dynamical second fundamental
    form: (II([X_H]^T, v) - [X_V]^perp, [X_H]^perp)."""

    first: np.ndarray
    second: np.ndarray

    def norm_sq(self, gx: np.ndarray) -> float:
        return float(self.first @ gx @ self.first
                     + self.second @ gx @ self.second)


@dataclass
class DefectReport:
    sup: float
    mean: float
    samples: int
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"sup": self.sup, "mean": self.mean,
                           "samples": self.samples, "meta": self.meta},
                          indent=2, sort_keys=True, default=str)


def _tangent_frame(gx: np.ndarray, J: np.ndarray) -> np.ndarray:
    """g-orthonormal rows spanning the column space of J; checks rank."""
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.min() < _RANK_TOL:
        raise RankDeficient(
            f"parametrization Jacobian rank-deficient (sigma_min = {sv.min():.3e})")
    return gram_schmidt(gx, J.T)


def _normal_part(gx: np.ndarray, frame: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.asarray(w, dtype=float).copy()
    for e in frame:
        out -= (e @ gx @ out) * e
    return out


class _LocalData:
    """N at f(p), evaluated once for every tangent direction there: x, the
    Jacobian J and Hessian H of f, g, Gamma, the Lorentz force Y (None
    without a 2-form) and the g-orthonormal tangent frame (rows)."""

    def __init__(self, N: ParamSubmanifold, p, geometry: Callable):
        self.x = N.point(p)
        geo = geometry(self.x)
        self.g, self.Gamma = geo.g, geo.christoffel()
        self.Y = None if geo.sigma is None else geo.lorentz()
        self.J = N.jacobian(p)
        self.frame = _tangent_frame(self.g, self.J)
        self.H = N.hessian(p)


def _classical_II(loc: _LocalData, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    a, *_ = np.linalg.lstsq(loc.J, u, rcond=None)
    b, *_ = np.linalg.lstsq(loc.J, w, rcond=None)
    second = (np.einsum("iab,a,b->i", loc.H, a, b)
              + np.einsum("ijk,j,k->i", loc.Gamma, u, w))
    return _normal_part(loc.g, loc.frame, second)


def classical_II(g: MetricField, N: ParamSubmanifold, p, u, w) -> np.ndarray:
    """Second fundamental form II(u, w) at f(p), as an ambient normal vector."""
    return _classical_II(_LocalData(N, p, lambda x: PointGeometry(g, x)),
                         np.asarray(u, dtype=float), np.asarray(w, dtype=float))


def _dynamical_II(sys: MagneticSystem, loc: _LocalData,
                  v: np.ndarray) -> DynIIValue:
    if abs(v @ loc.g @ v - 1.0) > 1e-8:
        raise NonUnitVector("direction must be g-unit")
    perp_v = _normal_part(loc.g, loc.frame, v)
    if np.sqrt(max(perp_v @ loc.g @ perp_v, 0)) > _TANGENT_TOL:
        raise NotTangent("direction is not tangent to the submanifold")
    # X_H = v for semi-spray flows, so [X_H]^top = v and [X_H]^perp = 0
    xv = loc.Y @ v if sys.is_magnetic else sys.x_vertical(loc.x, v)
    first = _classical_II(loc, v, v) - _normal_part(loc.g, loc.frame, xv)
    return DynIIValue(first=first, second=perp_v)


def dynamical_II(sys: MagneticSystem, N: ParamSubmanifold, p, v) -> DynIIValue:
    """Dynamical second fundamental form of N at (f(p), v), v a g-unit vector
    tangent to N.  For semi-spray flows the second component vanishes."""
    return _dynamical_II(sys, _LocalData(N, p, sys.geometry),
                         np.asarray(v, dtype=float))


def invariance_defect(sys: MagneticSystem, N: ParamSubmanifold,
                      sample_count: int, seed: int = 0) -> DefectReport:
    """Sup and mean of ||II^phi||^2 over sampled (point, unit tangent) pairs.

    Zero (to tolerance) exactly when N is totally invariant on the sample.
    """
    rng = np.random.default_rng(seed)
    vals = np.empty(sample_count)
    for i in range(sample_count):
        loc = _LocalData(N, N.sample_param(rng), sys.geometry)
        v = loc.J @ rng.standard_normal(N.k)
        v = v / np.sqrt(v @ loc.g @ v)
        vals[i] = _dynamical_II(sys, loc, v).norm_sq(loc.g)
    return DefectReport(sup=float(vals.max()), mean=float(vals.mean()),
                        samples=sample_count,
                        meta={"seed": seed, "submanifold": N.name})


def _project_to_submanifold(N: ParamSubmanifold, y, q0):
    """Damped Gauss-Newton projection of the chart point y onto N."""
    q = np.asarray(q0, dtype=float).copy()
    r = N.point(q) - y
    cost = r @ r
    for _ in range(_PROJECT_ITER):
        J = N.jacobian(q)
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        if np.linalg.norm(step) < 1e-14:
            return q, np.sqrt(cost)
        lam = 1.0
        for _ in range(20):
            qn = q - lam * step
            rn = N.point(qn) - y
            cn = rn @ rn
            if cn <= cost:
                q, r, cost = qn, rn, cn
                break
            lam *= 0.5
        else:
            return q, np.sqrt(cost)
        if np.linalg.norm(lam * step) < 1e-12:
            return q, np.sqrt(cost)
    raise ProjectionFailure("Gauss-Newton projection did not converge")


def dynamic_consistency_check(sys: MagneticSystem, N: ParamSubmanifold, p, v,
                              T: float,
                              cfg: Optional[IntegratorConfig] = None) -> float:
    """Integrate the flow from tangent data and return the max distance to N
    of `_ORBIT_NODES` evenly spaced orbit nodes (chart-coordinate distance
    via projection)."""
    if not (0 < N.k < sys.dim):
        raise BadDimension("submanifold dimension must satisfy 0 < k < n")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    x = N.point(p)
    gx = sys.metric(x)
    if abs(v @ gx @ v - 1.0) > 1e-8:
        raise NonUnitVector("direction must be g-unit")
    traj = integrate(sys, PhaseState(x=x, v=v, s=1.0), T, cfg)
    idx = np.unique(np.linspace(0, len(traj.times) - 1,
                                _ORBIT_NODES).astype(int))
    worst = 0.0
    q = p.copy()
    for i in idx:
        q, dist = _project_to_submanifold(N, traj.states[i, :sys.dim], q)
        worst = max(worst, dist)
    return worst


def candidate_submanifold(sys: MagneticSystem, x, basis, radius: float,
                          cfg: Optional[IntegratorConfig] = None,
                          name: str = "exp-image") -> ParamSubmanifold:
    """The k-dimensional exp-image of a tangent k-plane at x.

    Parametrized by u in the plane, |u| <= radius, u -> exp_x(B u).  The
    Jacobian is computed from the variational flow (not finite differences
    of the exponential); the base point uses the exact tangent plane.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    B = np.asarray(basis, dtype=float)      # (n, k) g-orthonormal columns
    gx = sys.metric(x)
    frame = gram_schmidt(gx, B.T)
    if frame.shape[0] != B.shape[1]:
        raise DegenerateImage("plane basis is rank-deficient")
    B = frame.T
    k = B.shape[1]
    cfg = cfg or IntegratorConfig(step=1e-2)

    def f(u):
        return dynamical_exp(sys, x, B @ u, cfg)

    def jac(u):
        u = np.asarray(u, dtype=float)
        w = B @ u
        t = float(np.sqrt(w @ gx @ w))
        if t < 1e-12:
            return B.copy()
        uhat = w / t
        J2n, end = variational_flow(sys, PhaseState(x=x, v=uhat, s=1.0), t, cfg)
        n = sys.dim
        J_xv = J2n[:n, n:]
        v_end = end.v          # horizontal generator component at the endpoint
        g_uhat_B = (gx @ uhat) @ B                  # row of d|u| per parameter
        Duhat = (B - np.outer(uhat, g_uhat_B)) / t
        return J_xv @ Duhat + np.outer(v_end, g_uhat_B)

    bound = radius / np.sqrt(k)
    return ParamSubmanifold(
        k=k, f=f, jac=jac, guard=lambda u: float(u @ u) <= radius**2,
        sample_bounds=(-bound * np.ones(k) * 0.9, bound * np.ones(k) * 0.9),
        name=name)


def candidate_hypersurface(sys: MagneticSystem, x, plane,
                           radius: float) -> ParamSubmanifold:
    """Hyperplane case of `candidate_submanifold` (k = n - 1).

    `plane` is either a HyperplaneElement or an (n, n-1) basis array."""
    if isinstance(plane, HyperplaneElement):
        plane = (_plane_basis(sys, plane.x, plane.normal) if plane.basis is None
                 else plane.basis)
    basis = np.asarray(plane, dtype=float)
    if basis.shape != (sys.dim, sys.dim - 1):
        raise BadDimension("hyperplane basis must have shape (n, n-1)")
    return candidate_submanifold(sys, x, basis, radius,
                                 name="candidate-hypersurface")


def _plane_basis(sys: MagneticSystem, x, normal) -> np.ndarray:
    """(n, n-1) g-orthonormal columns spanning the hyperplane at x that is
    g-orthogonal to `normal`."""
    return orthonormal_completion(sys.metric, x, normal)[1:].T


def augmented_exp(sys: MagneticSystem, x, basis, v, t: float,
                  cfg: Optional[IntegratorConfig] = None):
    """E(x, Pi, v, t) = (exp_x(t v), d_{tv} exp_x(Pi)).

    Returns (endpoint coordinates, HyperplaneElement of the pushed plane)."""
    if not t > 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    B = np.asarray(basis, dtype=float)
    v = np.asarray(v, dtype=float)
    gx = sys.metric(x)
    if abs(v @ gx @ v - 1.0) > 1e-8:
        raise NonUnitVector("v must be g-unit")
    c, res, *_ = np.linalg.lstsq(B, v, rcond=None)
    if np.linalg.norm(B @ c - v) > 1e-8:
        raise NotTangent("v must lie in the plane")
    N = candidate_submanifold(sys, x, B, radius=t * 1.5, cfg=cfg)
    # candidate_submanifold re-orthonormalizes the basis; recompute coords
    Bo = N.jacobian(np.zeros(B.shape[1]))
    c, *_ = np.linalg.lstsq(Bo, v, rcond=None)
    y = N.point(t * c)
    P = N.jacobian(t * c)
    sv = np.linalg.svd(P, compute_uv=False)
    if sv.min() < 1e-10:
        raise DegenerateImage("pushed basis is rank-deficient")
    gy = sys.metric(y)
    pushed = gram_schmidt(gy, P.T)
    if pushed.shape[0] != P.shape[1]:
        raise DegenerateImage("pushed basis is rank-deficient")
    full = gram_schmidt(gy, np.vstack([pushed, np.eye(sys.dim)]))
    normal = full[-1]
    return y, HyperplaneElement(x=y, normal=normal, basis=pushed.T)


def _unit_sphere_nodes(k: int, count: int) -> np.ndarray:
    """Deterministic quadrature directions on S^{k-1} (coefficient space)."""
    if k == 1:
        return np.array([[1.0], [-1.0]])
    if k == 2:
        ang = 2 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    from scipy.stats import norm, qmc
    sob = qmc.Sobol(d=k, scramble=True, seed=12345)
    raw = sob.random(count)
    pts = norm.ppf(np.clip(raw, 1e-12, 1 - 1e-12))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _alpha_at(sys: MagneticSystem, N: ParamSubmanifold, p,
              quad_count: int) -> tuple:
    """Quadrature sup/mean of ||II^phi||^2 over unit tangents of N at f(p).

    The measure is the round measure in the g-orthonormal tangent frame; the
    reported mean is the normalized average over the fiber sphere."""
    loc = _LocalData(N, p, sys.geometry)
    nodes = _unit_sphere_nodes(loc.frame.shape[0], quad_count)
    vals = np.array([_dynamical_II(sys, loc, loc.frame.T @ c).norm_sq(loc.g)
                     for c in nodes])
    return float(vals.max()), float(vals.mean())


def alpha_defect(sys: MagneticSystem, x, basis) -> DefectReport:
    """Quadrature defect of the exp-image hypersurface S_Pi.

    Evaluates the fiber average of ||II^phi||^2 at x, with `_ALPHA_QUAD`
    quadrature nodes, and its pullback along the augmented exponential in
    `_ALPHA_DIRECTIONS` directions at t = 0.1, radius / 2 and radius (the
    radius `_ALPHA_RADIUS`).  Zero (to tolerance) exactly when S_Pi is
    totally invariant on the sample."""
    x = np.asarray(x, dtype=float)
    B = np.asarray(basis, dtype=float)
    N = candidate_submanifold(sys, x, B, _ALPHA_RADIUS)
    k = N.k
    sup0, mean0 = _alpha_at(sys, N, np.zeros(k), _ALPHA_QUAD)
    sups, means = [sup0], [mean0]
    radii = [0.1, 0.5 * _ALPHA_RADIUS, _ALPHA_RADIUS]  # t in [0.1, radius]
    dirs = _unit_sphere_nodes(k, _ALPHA_DIRECTIONS)
    Bo = N.jacobian(np.zeros(k))
    for c in dirs:
        v = Bo @ c
        for t in radii:
            try:
                y, elem = augmented_exp(sys, x, Bo, v, float(t))
            except DegenerateImage:
                sups.append(np.inf)
                means.append(np.inf)
                continue
            N2 = candidate_submanifold(sys, y, np.asarray(elem.basis),
                                       _ALPHA_RADIUS)
            s2, m2 = _alpha_at(sys, N2, np.zeros(k), _ALPHA_QUAD)
            sups.append(s2)
            means.append(m2)
    return DefectReport(sup=float(np.max(sups)), mean=float(np.mean(means)),
                        samples=len(sups),
                        meta={"radius": _ALPHA_RADIUS, "radii": radii,
                              "directions": _ALPHA_DIRECTIONS,
                              "quad_count": _ALPHA_QUAD})


@dataclass
class CartanReport:
    k: int
    planes: int
    defects: list
    fraction_invariant: float
    sec_variance: float
    sigma_norm_max: float
    verdict: str
    tol: float

    def to_json(self) -> str:
        d = {"k": self.k, "planes": self.planes,
             "fraction_invariant": self.fraction_invariant,
             "sec_variance": self.sec_variance,
             "sigma_norm_max": self.sigma_norm_max,
             "verdict": self.verdict, "tol": self.tol}
        return json.dumps(d, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("plane_id,defect,sec_variance\n")
        for i, d in enumerate(self.defects):
            buf.write(f"{i},{d!r},{self.sec_variance!r}\n")
        return buf.getvalue()


def _sigma_operator_norm(sys: MagneticSystem, x) -> float:
    """g-operator norm of the Lorentz force at x: with g = C C^T, |v|_g is
    |C^T v|, so it is the spectral norm of C^T Y C^-T."""
    geo = sys.geometry(x)
    Ct = np.linalg.cholesky(geo.g).T
    Y = geo.lorentz()
    return float(np.linalg.svd(Ct @ Y @ np.linalg.inv(Ct), compute_uv=False).max())


def cartan_probe(sys: MagneticSystem, k: int, plane_samples: int,
                 seed: int = 0, radius: float = 0.4, defect_samples: int = 4,
                 tol: float = 1e-6,
                 cfg: Optional[IntegratorConfig] = None) -> CartanReport:
    """Empirical probe of the k-plane axiom: sample tangent k-planes, build
    their exp-image candidates, and measure invariance defects together with
    the sectional-curvature spread and the size of the magnetic form.

    A sample is 'consistent' with the rigidity statement when either all
    defects vanish alongside constant curvature and vanishing form, or some
    defect is genuinely nonzero (no contradiction either way)."""
    n = sys.dim
    if not (1 < k < n):
        raise BadDimension(f"need 1 < k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    cfg = cfg or IntegratorConfig(step=1e-2)
    defects = []
    secs = []
    sigmas = []
    for i in range(plane_samples):
        # exp-images from points near the chart guard may leave the chart;
        # those planes carry no information, so resample instead of failing
        for _ in range(50):
            x = sys.chart.sample_point(rng)
            frame = _random_frame(rng, sys.metric(x), k)
            try:
                N = candidate_submanifold(sys, x, frame.T, radius, cfg)
                rep = invariance_defect(sys, N, defect_samples,
                                        seed=seed + 1000 + i)
            except (DomainExit, DomainViolation):
                continue
            break
        else:
            raise DomainExit("could not find a chart-interior tangent plane")
        defects.append(rep.sup)
        secs.append(sectional(sys.metric, x, frame[0], frame[1]))
        sigmas.append(_sigma_operator_norm(sys, x))
    defects_arr = np.array(defects)
    sec_var = float(np.var(secs))
    sig_max = float(np.max(sigmas))
    frac = float(np.mean(defects_arr < tol))
    all_invariant = bool(np.all(defects_arr < tol))
    if all_invariant and sec_var < tol and sig_max < tol:
        verdict = "consistent: all planes invariant, constant curvature, zero form"
    elif not all_invariant:
        verdict = "consistent: some planes fail invariance (no contradiction)"
    else:
        verdict = "inconsistent with the k-plane rigidity statement"
    return CartanReport(k=k, planes=plane_samples, defects=defects,
                        fraction_invariant=frac, sec_variance=sec_var,
                        sigma_norm_max=sig_max, verdict=verdict, tol=tol)


# -- builtin submanifold registry (used by the CLI and tests) --------------

# the keys each submanifold type reads
_SUBMANIFOLD_KEYS = {"hyperplane": ("type", "point", "normal", "basis", "extent"),
                     "sphere": ("type", "center", "radius"),
                     "exp_plane": ("type", "x", "basis", "radius")}


def make_submanifold(spec: dict, sys: MagneticSystem) -> ParamSubmanifold:
    """Build a submanifold from a declarative spec.

    Supported types: "hyperplane" {point, normal|basis, extent},
    "sphere" {center, radius}, "exp_plane" {x, basis, radius}.  A key the
    type does not read raises ValueError naming it."""
    kind = spec.get("type")
    if kind not in _SUBMANIFOLD_KEYS:
        raise ValueError(f"unknown submanifold type {kind!r}")
    for key in spec:
        if key not in _SUBMANIFOLD_KEYS[kind]:
            raise ValueError(f"unknown key {key!r} for a {kind} submanifold")
    n = sys.dim
    if kind == "hyperplane":
        if "normal" in spec and "basis" in spec:
            raise ValueError("a hyperplane takes 'normal' or 'basis', not both")
        point = _spec_array(spec, "point", n)
        extent = float(spec.get("extent", 1.0))
        if not extent > 0:
            raise ValueError(f"'extent' must be positive, got {extent!r}")
        if "basis" in spec:
            B = _spec_array(spec, "basis", n, planar=True)
        else:
            normal = _spec_array(spec, "normal", n)
            if not normal @ normal > 0:
                raise ValueError("'normal' must be nonzero")
            B = _plane_basis(sys, point, normal)
        k = B.shape[1]
        return ParamSubmanifold(
            k=k, f=lambda p: point + B @ p,
            jac=lambda p: B, hess=lambda p: np.zeros((n, k, k)),
            sample_bounds=(-extent * np.ones(k), extent * np.ones(k)),
            name="hyperplane")
    if kind == "sphere":
        if n != 3:
            raise BadDimension("builtin sphere submanifold needs an ambient dim 3")
        center = (_spec_array(spec, "center", 3) if "center" in spec
                  else np.zeros(3))
        r = float(spec["radius"])
        if not r > 0:
            raise ValueError(f"'radius' must be positive, got {r!r}")

        def f(p):
            th, ph = p
            return center + r * np.array([np.sin(th) * np.cos(ph),
                                          np.sin(th) * np.sin(ph),
                                          np.cos(th)])

        def jac(p):
            th, ph = p
            st, ct = np.sin(th), np.cos(th)
            sp, cp = np.sin(ph), np.cos(ph)
            return r * np.array([[ct * cp, -st * sp],
                                 [ct * sp, st * cp],
                                 [-st, 0.0]])

        def hess(p):
            th, ph = p
            st, ct = np.sin(th), np.cos(th)
            sp, cp = np.sin(ph), np.cos(ph)
            H = np.empty((3, 2, 2))
            H[0] = r * np.array([[-st * cp, -ct * sp], [-ct * sp, -st * cp]])
            H[1] = r * np.array([[-st * sp, ct * cp], [ct * cp, -st * sp]])
            H[2] = r * np.array([[-ct, 0.0], [0.0, 0.0]])
            return H

        return ParamSubmanifold(
            k=2, f=f, jac=jac, hess=hess,
            sample_bounds=(np.array([0.5, 0.0]),
                           np.array([np.pi - 0.5, 2 * np.pi])),
            name="sphere")
    return candidate_submanifold(sys, _spec_array(spec, "x", n),
                                 _spec_array(spec, "basis", n, planar=True),
                                 float(spec.get("radius", 0.5)))


def _spec_array(spec: dict, key: str, n: int, planar: bool = False):
    """spec[key] as a vector of n components or, if `planar`, as the basis
    of a k-plane: an (n, k) array with 1 <= k < n."""
    a = np.asarray(spec[key], dtype=float)
    if planar and not (a.ndim == 2 and a.shape[0] == n and 1 <= a.shape[1] < n):
        raise ValueError(f"{key!r} must have shape (n, k) with n = {n} and "
                         f"1 <= k < n, got shape {a.shape}")
    if not planar and a.shape != (n,):
        raise ValueError(f"{key!r} must have {n} components, "
                         f"got shape {a.shape}")
    return a
