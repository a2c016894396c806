"""Hyperbolicity diagnostics: finite-time Lyapunov spectra via segmented QR
of the variational flow, vertical-vs-contracting transversality angles,
volume drift, and conjugate-point scans of the dynamical exponential.

All growth rates are measured in the Sasaki-type inner product induced by
the connector splitting (|xi|^2 = |d pi xi|_g^2 + |K xi|_g^2); chart
coordinates alone would mix in the conformal factor of the chart.

A spectrum, a volume drift and a conjugate-point scan each integrate their
orbit once: one `variational_segments` call gives J over every QR segment
or scan radius and the orbit's nodes at the segment ends, the Sasaki
frames at all nodes are built and inverted as one batch, and only the QR
(or the composition of J over the radii) runs segment by segment.  The
step budget of `IntegratorConfig.max_steps` therefore bounds the whole
horizon.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnreliableSplitting
from .flow import (DIAGNOSTIC_STEP, IntegratorConfig, PhaseState, generator,
                   variational_flow, variational_segments)
from .geometry import (PointGeometry, _g_norm, _identity, _scale,
                       orthonormal_completion)
from .system import MagneticSystem

__all__ = [
    "LyapunovReport",
    "lyapunov_spectrum",
    "transversality_angle",
    "volume_drift",
    "conjugate_point_scan",
]

_QR_INTERVAL = 0.1  # default time between QR re-orthonormalizations
_GAP_FACTOR = 10.0  # least expansion over free-flow growth for an angle


def sasaki_frame_matrix(sys: MagneticSystem, x, v) -> np.ndarray:
    """Linear map taking chart phase-tangents (dx, dv) to coordinates that
    are Euclidean-orthonormal for the Sasaki-type metric, at a point (n,)
    or a batch (B, n) of points x with velocities v stacked alike."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.shape[-1]
    geo = PointGeometry(sys.metric, x)
    # |C xi|_2^2 = xi^T g xi
    C = np.swapaxes(np.linalg.cholesky(geo.g), -1, -2)
    Gv = np.einsum("...ijk,...k->...ij", geo.christoffel(), v)
    T = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
    T[..., :n, :n] = C
    T[..., n:, :n] = C @ Gv
    T[..., n:, n:] = C
    return T


@dataclass
class LyapunovReport:
    exponents: np.ndarray         # sorted descending
    horizon: float
    interval: float

    @property
    def total(self) -> float:
        return float(self.exponents.sum())


def _require_horizon(name: str, value,
                     cfg: Optional[IntegratorConfig] = None) -> None:
    """Reject a horizon that is not a finite positive number, or, given
    `cfg`, one shorter than its step, naming it: over less than one step an
    orbit hardly moves, and a growth rate read from it measures nothing."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if cfg is not None and not value >= cfg.step:
        raise ValueError(f"{name} = {value!r} is shorter than one integrator "
                         f"step {cfg.step!r}")


def _require_count(name: str, value) -> None:
    """Reject a count that is not a positive int, naming it."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def _qr_segments(T):
    """The number of equal QR segments of length about `_QR_INTERVAL`
    over T."""
    return max(1, int(round(T / _QR_INTERVAL)))


def _segmented_qr(sys, state, T, nseg, cfg):
    """Run the QR method over `nseg` equal segments of one orbit, integrated
    once; returns the accumulated log |R_ii|, one per phase direction."""
    n = sys.dim
    Js, nodes = variational_segments(sys, state, T, nseg, cfg)
    frames = sasaki_frame_matrix(sys, nodes[:, :n], nodes[:, n:])
    # J over each segment in the Sasaki frames at its two ends
    A = frames[1:] @ Js @ np.linalg.inv(frames[:-1])
    Q = np.eye(2 * n)
    logs = np.zeros(2 * n)
    for Aseg in A:
        Q, R = np.linalg.qr(Aseg @ Q)
        d = np.diag(R)
        Q *= np.where(d == 0, 1.0, np.sign(d))
        logs += np.log(np.abs(d))
    return logs


def lyapunov_spectrum(sys: MagneticSystem, state: PhaseState, T: float,
                      steps: Optional[int] = None,
                      cfg: Optional[IntegratorConfig] = None) -> LyapunovReport:
    """Finite-time Lyapunov exponents of the phase flow (all 2n of them).

    The QR re-orthonormalization runs every `_QR_INTERVAL` time units, or
    on `steps` equal segments when given; the report's interval is the
    segment length used.  The default `cfg` steps by `DIAGNOSTIC_STEP`, and
    T must span one of its steps."""
    cfg = cfg or IntegratorConfig(step=DIAGNOSTIC_STEP)
    _require_horizon("T", T, cfg)
    if steps is not None:
        _require_count("steps", steps)
    nseg = _qr_segments(T) if steps is None else steps
    logs = _segmented_qr(sys, state, T, nseg, cfg)
    exps = np.sort(logs / T)[::-1]
    return LyapunovReport(exponents=exps, horizon=T, interval=T / nseg)


def _restricted_basis(sys, state, T0):
    """Euclidean-orthonormal basis, in the coordinates of the Sasaki frame T0
    at `state`, of the complement of the flow and speed-scaling directions."""
    n = sys.dim
    X = T0 @ generator(sys, state.x, state.v)
    V = T0 @ np.concatenate([np.zeros(n), state.v])
    M = np.stack([w / _g_norm(_identity(2 * n), w) for w in (X, V)])
    # orthonormal complement via SVD
    _, _, Vt = np.linalg.svd(M)
    return Vt[2:].T                                  # (2n, 2n-2)


def transversality_angle(sys: MagneticSystem, state: PhaseState, T: float,
                         cfg: Optional[IntegratorConfig] = None) -> float:
    """Minimal principal angle between the finite-time most-contracted
    subspace (dimension n-1, restricted to the flow-orthogonal and
    speed-preserving complement) and the vertical distribution.

    Raises UnreliableSplitting when the top expansion over the horizon does
    not exceed free-flow (polynomial) growth by `_GAP_FACTOR`.  The default
    `cfg` steps by `DIAGNOSTIC_STEP`, and T must span one of its steps.
    """
    cfg = cfg or IntegratorConfig(step=DIAGNOSTIC_STEP)
    _require_horizon("T", T, cfg)
    n = sys.dim
    J, end = variational_flow(sys, state, T, cfg)
    T0 = sasaki_frame_matrix(sys, state.x, state.v)
    T1 = sasaki_frame_matrix(sys, end.x, end.v)
    Jt = T1 @ J @ np.linalg.inv(T0)
    P = _restricted_basis(sys, state, T0)
    A = Jt @ P
    U, S, Vt = np.linalg.svd(A)
    threshold = _GAP_FACTOR * (1.0 + T)
    if S.max() < threshold:
        raise UnreliableSplitting(
            f"top expansion {S.max():.3e} below the reliability threshold "
            f"{threshold:.3e} for horizon {T}")
    d = n - 1
    contracted = P @ Vt[-d:].T                       # (2n, d), orthonormal
    vert = np.zeros((2 * n, n))
    vert[n:, :] = np.eye(n)                          # vertical = last n coords
    cos = np.linalg.svd(vert.T @ contracted, compute_uv=False)
    return float(np.arccos(np.clip(cos.max(), -1.0, 1.0)))


def volume_drift(sys: MagneticSystem, state: PhaseState, T: float,
                 cfg: Optional[IntegratorConfig] = None) -> float:
    """Volume-preservation defect per unit time.

    This is |log det| of the variational flow in Sasaki-orthonormal frames,
    accumulated segment by segment: the per-segment conjugation frames
    telescope, QR factors preserve |det|, and the running sum of log |R_ii|
    stays well conditioned where a single end-to-end determinant (condition
    ~ e^(2 lambda T)) loses the contracting factors to roundoff.  The
    default `cfg` steps by `DIAGNOSTIC_STEP`, and T must span one of its
    steps."""
    cfg = cfg or IntegratorConfig(step=DIAGNOSTIC_STEP)
    _require_horizon("T", T, cfg)
    logs = _segmented_qr(sys, state, T, _qr_segments(T), cfg)
    return float(abs(logs.sum()) / T)


def conjugate_point_scan(sys: MagneticSystem, x, direction, t_max: float,
                         steps: int,
                         cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """Scan radii t in (0, t_max] and report the smallest singular value of
    the derivative of the dynamical exponential at t * direction, restricted
    to the hyperplane g-orthogonal to the direction (the radial derivative
    is an isometry and never degenerates).  Zeros flag conjugate points.

    Returns an array of rows (t, sigma_min).  The first radius
    t_max / steps must not underflow to 0.  The default `cfg` is
    `IntegratorConfig()`."""
    _require_horizon("t_max", t_max)
    _require_count("steps", steps)
    _require_horizon("t_max / steps", t_max / steps)
    x = np.asarray(x, dtype=float)
    # scaled by an exact power of two first, so that no g-norm overflows
    u = _scale(np.asarray(direction, dtype=float))[0]
    norm = sys.metric.norm(x, u)
    if not 0 < norm < np.inf:
        raise ValueError(f"direction must have a positive g-norm, got {norm}")
    u = u / norm
    n = sys.dim
    perp = orthonormal_completion(sys.metric, x, u)[1:].T   # (n, n-1)
    ts = np.linspace(t_max / steps, t_max, steps)
    Js, nodes = variational_segments(sys, PhaseState(x=x, v=u, s=1.0), t_max,
                                     steps, cfg)
    # g-weights at the radii's end points, which passed the chart guard
    Cends = np.swapaxes(np.linalg.cholesky(sys.metric.raw(nodes[1:, :n])),
                        -1, -2)
    out = np.empty((steps, 2))
    J = np.eye(2 * n)
    for i, (t, Jseg, Cend) in enumerate(zip(ts, Js, Cends)):
        J = Jseg @ J
        # d exp restricted to direction-perp: J_xv P / t, g-weighted
        M = Cend @ (J[:n, n:] @ perp) / t
        out[i] = (t, np.linalg.svd(M, compute_uv=False).min())
    return out
