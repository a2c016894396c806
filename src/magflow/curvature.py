"""Magnetic curvature: the endomorphisms A, R_s, M_s of the hyperplane
bundle v-perp, the s-magnetic sectional curvature, and a sampling-based
negativity report for the Anosov criterion.

For a g-unit v the operators act on w in v-perp:
    A(w)   = -(3/4) Y P_v(Y w) - (1/4) P_perp(Y^2 w)
    R_s(w) = s^2 R(w, v) v - s (nabla_w Y) v + (s/2) P_perp((nabla_v Y) w)
    M_s    = R_s + A
and Sec_s(v, w) = g(M_s(w), w) on orthonormal pairs (v, w).

Every operator at x is formed from one `PointGeometry` there, as an ambient
n x n matrix acting on chart vectors.  With P_v = v (g v)^T / g(v, v),
Gamma(u) the matrix Gamma^i_{jk} u^k, and d_v Y and D the matrices
dY[i, j, k] v^k and dY[i, j, k] v^j:
    A     = -(3/4) Y P_v Y - (1/4) (I - P_v) Y^2
    R_s   = s^2 J - s (D + Gamma(Y v) - Y Gamma(v)) + (s/2) (I - P_v) nabla_v Y
    J     = dGamma(v, v, .) - dGamma(., v, v) + Gamma(Gamma(v) v) - Gamma(v)^2
    nabla_v Y = d_v Y + [Gamma(v), Y]
where J w = R(w, v) v is the Jacobi operator, contracted from Gamma and
dGamma without forming the Riemann tensor, and dGamma(a, b, c) is
d_m Gamma^i_{jk} a^j b^k c^m, a matrix in the slot left open.
`magnetic_sectional` reads g(M_s w, w) off the ambient matrix, with no
frame; the `matrix` of a `PerpEndomorphism` is F g M F^T in the
deterministic orthonormal completion frame F of v.  `op_R` and
`magnetic_operator` form all three operators at their point, A, R_s and
M_s = A + R_s from one geometry, one Y, one P_v and one frame, as the
`curvature` subcommand does.

The ambient matrices are formed over any leading batch axes.
`sample_sectionals` runs only its random draws one sample at a time, in a
fixed order: a point, then a pair of vectors.  The metric, the Gram-Schmidt
frames and the sectional curvatures of each chunk of samples are evaluated
once per chunk, the curvatures on one batched `PointGeometry`, and a pair
with a near-dependent row is redrawn after its chunk's draws.
`magnetic_sectional` and the operators are the same code on one point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import _require_count
from .errors import NonOrthonormalFrame, NonpositiveSpeed
from .geometry import (PointGeometry, _completion, _gram_schmidt_pairs,
                       _random_frame, _require_unit)
from .system import MagneticSystem

__all__ = [
    "PerpEndomorphism",
    "op_A",
    "op_R",
    "magnetic_operator",
    "magnetic_sectional",
    "sample_sectionals",
    "AnosovReport",
    "anosov_report",
]

_FRAME_TOL = 1e-10


@dataclass
class PerpEndomorphism:
    """An endomorphism of v-perp: its ambient matrix acting on chart vectors,
    and its matrix in the deterministic orthonormal completion frame of v
    (frame rows e_2 ... e_n)."""

    x: np.ndarray
    v: np.ndarray
    frame: np.ndarray          # (n-1, n) rows spanning v-perp
    matrix: np.ndarray         # (n-1, n-1)
    ambient: np.ndarray        # (n, n)


def _check_speed(s):
    if not s > 0:
        raise NonpositiveSpeed(f"speed must be positive, got {s}")


def _unit_point(sys, x, v):
    """The geometry at x, and v as an array, checked to be g-unit."""
    geo = sys.geometry(x)
    v = np.asarray(v, dtype=float)
    _require_unit(geo.g, v)
    return geo, v


def _perp_endos(geo: PointGeometry, v, *ambients) -> list:
    """Each ambient matrix as a `PerpEndomorphism` at the point of `geo`, in
    one completion frame of v."""
    frame = _completion(geo.g, v)[1:]
    return [PerpEndomorphism(x=geo.x, v=v, frame=frame,
                             matrix=frame @ geo.g @ ambient @ frame.T,
                             ambient=ambient) for ambient in ambients]


def _gdot(M, u):
    """M u, for matrices M (..., n, n) and vectors u (..., n) alike."""
    return np.einsum("...ij,...j->...i", M, u)


def _projector(g, v):
    """P_v, the g-orthogonal projection onto the line of v."""
    gv = _gdot(g, v)
    return v[..., :, None] * (gv / np.vecdot(v, gv)[..., None])[..., None, :]


def _ambient_A(Y, Pv):
    Y2 = Y @ Y
    return -0.75 * (Y @ Pv @ Y) - 0.25 * (Y2 - Pv @ Y2)


def _ambient_R(geo: PointGeometry, s, v, Y, Pv):
    Gamma = geo.christoffel()
    dGamma = geo.dchristoffel(Gamma)
    dY = geo.dlorentz(Y)
    # Gamma(v), symmetric in j, k
    Gv = np.einsum("...ijk,...k->...ij", Gamma, v)
    jacobi = (np.einsum("...ijkm,...j,...k->...im", dGamma, v, v)
              - np.einsum("...ijkm,...k,...m->...ij", dGamma, v, v)
              + np.einsum("...ijk,...k->...ij", Gamma, _gdot(Gv, v))
              - Gv @ Gv)
    nabla_w_Y_v = (np.einsum("...ijk,...j->...ik", dY, v)
                   + np.einsum("...ijk,...k->...ij", Gamma, _gdot(Y, v))
                   - Y @ Gv)
    nabla_v_Y = np.einsum("...ijk,...k->...ij", dY, v) + Gv @ Y - Y @ Gv
    perp = nabla_v_Y - Pv @ nabla_v_Y
    return s * s * jacobi - s * nabla_w_Y_v + 0.5 * s * perp


def _ambient_M(geo: PointGeometry, s, v):
    Y, Pv = geo.lorentz(), _projector(geo.g, v)
    return _ambient_A(Y, Pv) + _ambient_R(geo, s, v, Y, Pv)


def _operators(sys: MagneticSystem, s: float, x, v) -> list:
    """A, R_s and M_s = A + R_s at (x, v), from one geometry, one Y, one P_v
    and one frame."""
    _check_speed(s)
    geo, v = _unit_point(sys, x, v)
    Y, Pv = geo.lorentz(), _projector(geo.g, v)
    A, R = _ambient_A(Y, Pv), _ambient_R(geo, s, v, Y, Pv)
    return _perp_endos(geo, v, A, R, A + R)


def op_A(sys: MagneticSystem, x, v) -> PerpEndomorphism:
    geo, v = _unit_point(sys, x, v)
    return _perp_endos(geo, v, _ambient_A(geo.lorentz(),
                                          _projector(geo.g, v)))[0]


def op_R(sys: MagneticSystem, s: float, x, v) -> PerpEndomorphism:
    return _operators(sys, s, x, v)[1]


def magnetic_operator(sys: MagneticSystem, s: float, x, v) -> PerpEndomorphism:
    return _operators(sys, s, x, v)[2]


def magnetic_sectional(sys: MagneticSystem, s: float, x, v, w) -> float:
    """g(M_s(w), w) for a g-orthonormal ordered pair (v, w)."""
    return float(_sectional(sys.geometry(x), s, np.asarray(v, dtype=float),
                            np.asarray(w, dtype=float)))


def _sectional(geo: PointGeometry, s: float, v, w):
    """`magnetic_sectional` at the points of `geo`, one point or a batch,
    with v and w alike."""
    gv, gw = _gdot(geo.g, v), _gdot(geo.g, w)
    worst = np.max(np.abs([np.vecdot(v, gv) - 1.0, np.vecdot(w, gw) - 1.0,
                           np.vecdot(gv, w)]))
    if not worst <= _FRAME_TOL:          # a NaN frame fails too
        raise NonOrthonormalFrame("(v, w) must be g-orthonormal")
    _check_speed(s)
    return np.vecdot(gw, _gdot(_ambient_M(geo, s, v), w))


# samples drawn before their metric, frames and sectional curvatures are
# evaluated together; bounds the memory of a large sample count
_CHUNK = 256


def sample_sectionals(sys: MagneticSystem, s: float, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """`count` s-magnetic sectional curvatures, each at a chart point drawn
    from `rng` on a g-orthonormal pair drawn from it after the point.

    The draws run in order, one sample at a time: its point, which the
    sampler checks against the chart guard, then a standard normal (2, n)
    draw.  Each chunk of `_CHUNK` samples then evaluates the metric at its
    points once, orthonormalises its pairs by the batched Gram-Schmidt, and
    its curvatures on one batched geometry.  A pair with a near-dependent
    row (probability of order 1e-16 per sample) is redrawn by
    `_random_frame` after all of its chunk's draws, not at once: only then
    does the draw order differ from completing each sample in turn."""
    n = sys.dim
    vals = np.empty(count)
    sample, normal = sys.chart.sample_point, rng.standard_normal
    for start in range(0, count, _CHUNK):
        m = min(_CHUNK, count - start)
        X, P = np.empty((m, n)), np.empty((m, 2, n))
        for i in range(m):
            X[i] = sample(rng)
            normal(out=P[i])
        G = sys.metric.raw(X)
        V, W, rejected = _gram_schmidt_pairs(G, P)
        for i in np.flatnonzero(rejected):
            V[i], W[i] = _random_frame(rng, G[i], 2)
        geo = PointGeometry(sys.metric, X, sys.sigma, g=G)
        vals[start:start + m] = _sectional(geo, s, V, W)
    return vals


@dataclass
class AnosovReport:
    min: float
    max: float
    mean: float
    samples: int
    speed: float
    verdict: str


def anosov_report(sys: MagneticSystem, s: float, sample_count: int,
                  seed: int = 0) -> AnosovReport:
    """Sample s-magnetic sectional curvatures over random orthonormal frames.

    A negative maximum certifies the negativity hypothesis of the Anosov
    criterion **on the sample only**; this is a sampling certificate, not a
    proof.
    """
    _require_count("sample_count", sample_count)
    vals = sample_sectionals(sys, s, sample_count, np.random.default_rng(seed))
    mx = float(vals.max())
    verdict = ("criterion satisfied on sample" if mx < 0
               else "criterion not satisfied on sample")
    return AnosovReport(min=float(vals.min()), max=mx, mean=float(vals.mean()),
                        samples=sample_count, speed=s, verdict=verdict)
