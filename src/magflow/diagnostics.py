"""Hyperbolicity diagnostics: finite-time Lyapunov spectra via segmented QR
of the variational flow, vertical-vs-contracting transversality angles,
volume drift, and conjugate-point scans of the dynamical exponential.

All growth rates are measured in the Sasaki-type inner product induced by
the connector splitting (|xi|^2 = |d pi xi|_g^2 + |K xi|_g^2); chart
coordinates alone would mix in the conformal factor of the chart.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnreliableSplitting
from .flow import IntegratorConfig, PhaseState, generator, variational_flow
from .geometry import PointGeometry, orthonormal_completion
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
    are Euclidean-orthonormal for the Sasaki-type metric."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size
    geo = PointGeometry(sys.metric, x)
    C = np.linalg.cholesky(geo.g).T                 # |C xi|_2^2 = xi^T g xi
    Gv = np.einsum("ijk,k->ij", geo.christoffel(), v)
    T = np.zeros((2 * n, 2 * n))
    T[:n, :n] = C
    T[n:, :n] = C @ Gv
    T[n:, n:] = C
    return T


@dataclass
class LyapunovReport:
    exponents: np.ndarray         # sorted descending
    horizon: float
    interval: float

    @property
    def total(self) -> float:
        return float(self.exponents.sum())

    def to_json(self) -> str:
        return json.dumps({
            "exponents": [float(e) for e in self.exponents],
            "sum": self.total, "horizon": self.horizon,
            "interval": self.interval,
        }, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("index,exponent\n")
        for i, e in enumerate(self.exponents):
            buf.write(f"{i},{float(e)!r}\n")
        return buf.getvalue()


def _segmented_qr(sys, state, T, interval, cfg):
    """Run the QR method over segments of length about `interval`; returns
    the accumulated log |R_ii|, one per phase direction."""
    n = sys.dim
    nseg = max(1, int(round(T / interval)))
    dt = T / nseg
    cur = state
    Tm = sasaki_frame_matrix(sys, cur.x, cur.v)
    Q = np.eye(2 * n)
    logs = np.zeros(2 * n)
    for _ in range(nseg):
        Jseg, nxt = variational_flow(sys, cur, dt, cfg)
        Tn = sasaki_frame_matrix(sys, nxt.x, nxt.v)
        A = Tn @ Jseg @ np.linalg.inv(Tm)
        Qn, R = np.linalg.qr(A @ Q)
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        Qn *= sign
        R = (R.T * sign).T
        logs += np.log(np.abs(np.diag(R)))
        Q, Tm, cur = Qn, Tn, nxt
    return logs


def lyapunov_spectrum(sys: MagneticSystem, state: PhaseState, T: float,
                      steps: Optional[int] = None,
                      cfg: Optional[IntegratorConfig] = None) -> LyapunovReport:
    """Finite-time Lyapunov exponents of the phase flow (all 2n of them).

    The QR re-orthonormalization runs every `_QR_INTERVAL` time units, or
    on `steps` equal segments when given."""
    if not T > 0:
        raise ValueError("T must be positive")
    cfg = cfg or IntegratorConfig(step=1e-2)
    interval = _QR_INTERVAL if steps is None else T / steps
    logs = _segmented_qr(sys, state, T, interval, cfg)
    exps = np.sort(logs / T)[::-1]
    return LyapunovReport(exponents=exps, horizon=T, interval=interval)


def _restricted_basis(sys, state, T0):
    """Euclidean-orthonormal basis, in the coordinates of the Sasaki frame T0
    at `state`, of the complement of the flow and speed-scaling directions."""
    n = sys.dim
    X = T0 @ generator(sys, state.x, state.v)
    V = T0 @ np.concatenate([np.zeros(n), state.v])
    M = np.stack([X / np.linalg.norm(X), V / np.linalg.norm(V)])
    # orthonormal complement via SVD
    _, _, Vt = np.linalg.svd(M)
    return Vt[2:].T                                  # (2n, 2n-2)


def transversality_angle(sys: MagneticSystem, state: PhaseState, T: float,
                         cfg: Optional[IntegratorConfig] = None) -> float:
    """Minimal principal angle between the finite-time most-contracted
    subspace (dimension n-1, restricted to the flow-orthogonal and
    speed-preserving complement) and the vertical distribution.

    Raises UnreliableSplitting when the top expansion over the horizon does
    not exceed free-flow (polynomial) growth by `_GAP_FACTOR`.
    """
    cfg = cfg or IntegratorConfig(step=1e-2)
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
    ~ e^(2 lambda T)) loses the contracting factors to roundoff."""
    if not T > 0:
        raise ValueError("T must be positive")
    cfg = cfg or IntegratorConfig(step=1e-2)
    logs = _segmented_qr(sys, state, T, _QR_INTERVAL, cfg)
    return float(abs(logs.sum()) / T)


def conjugate_point_scan(sys: MagneticSystem, x, direction, t_max: float,
                         steps: int,
                         cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """Scan radii t in (0, t_max] and report the smallest singular value of
    the derivative of the dynamical exponential at t * direction, restricted
    to the hyperplane g-orthogonal to the direction (the radial derivative
    is an isometry and never degenerates).  Zeros flag conjugate points.

    Returns an array of rows (t, sigma_min)."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    cfg = cfg or IntegratorConfig(step=1e-3)
    x = np.asarray(x, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / sys.metric.norm(x, u)
    n = sys.dim
    perp = orthonormal_completion(sys.metric, x, u)[1:].T   # (n, n-1)
    ts = np.linspace(t_max / steps, t_max, steps)
    out = np.empty((steps, 2))
    cur = PhaseState(x=x, v=u, s=1.0)
    J = np.eye(2 * n)
    t_prev = 0.0
    for i, t in enumerate(ts):
        Jseg, cur = variational_flow(sys, cur, t - t_prev, cfg)
        J = Jseg @ J
        t_prev = t
        gy = sys.metric(cur.x)
        Cend = np.linalg.cholesky(gy).T
        # d exp restricted to direction-perp: J_xv P / t, g-weighted
        M = Cend @ (J[:n, n:] @ perp) / t
        out[i] = (t, np.linalg.svd(M, compute_uv=False).min())
    return out
