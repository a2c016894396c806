"""Magnetic parallel transport, the frame-extension flow, and closed-orbit
holonomy sampling.

Transported vectors solve W' = -Gamma(xdot, W) + Y W along the orbit; this
is integrated in one coupled system with the base flow (not post-hoc along a
stored trajectory) to avoid interpolation error.  The diagnostic covariant
derivative on stored grids lives in `magnetic_covariant_derivative`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainExit, GridMismatch, NotPeriodic
from .flow import (IntegratorConfig, PhaseState, Trajectory, _acceleration,
                   _rk4_path)
from .geometry import orthonormal_completion
from .system import MagneticSystem

__all__ = [
    "FrameState",
    "OrthogonalHolonomy",
    "magnetic_covariant_derivative",
    "parallel_transport",
    "frame_flow",
    "closed_orbit_holonomy",
]


@dataclass
class FrameState:
    """A phase state together with an orthonormal completion v_2 ... v_n."""

    state: PhaseState
    completion: np.ndarray        # (n-1, n) rows

    @staticmethod
    def from_state(sys: MagneticSystem, state: PhaseState) -> "FrameState":
        frame = orthonormal_completion(sys.metric, state.x, state.v)
        return FrameState(state=state, completion=frame[1:])

    def gram_drift(self, sys: MagneticSystem) -> float:
        """Max deviation of the frame's g-Gram matrix from the identity."""
        x = self.state.x
        g = sys.metric(x)
        v = self.state.v / sys.metric.norm(x, self.state.v)
        full = np.vstack([v, self.completion])
        return float(np.max(np.abs(full @ g @ full.T - np.eye(full.shape[0]))))


@dataclass
class OrthogonalHolonomy:
    matrix: np.ndarray            # (n-1, n-1)
    period: float
    start: PhaseState
    return_distance: float

    def to_csv(self) -> str:
        lines = [f"# period,{self.period!r}",
                 f"# return_distance,{self.return_distance!r}"]
        for row in self.matrix:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def magnetic_covariant_derivative(sys: MagneticSystem, traj: Trajectory,
                                  W_samples: np.ndarray) -> np.ndarray:
    """(D W)(t) = DW/dt - Y W at interior trajectory nodes.

    W_samples has shape (N, n) on the trajectory's exact time grid; the time
    derivative uses a 5-point (4th order) central stencil matching the RK4
    order, so the two outermost nodes on each side are returned as NaN.
    """
    W = np.asarray(W_samples, dtype=float)
    if W.shape[0] != len(traj.times) or W.shape[1] != traj.n:
        raise GridMismatch("W_samples must match the trajectory grid")
    t = traj.times
    if len(t) < 5:
        raise GridMismatch("need at least 5 nodes for the 4th-order stencil")
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-8):
        raise GridMismatch("trajectory grid must be uniform")
    n = traj.n
    out = np.full_like(W, np.nan)
    dW = (W[:-4] - 8 * W[1:-3] + 8 * W[3:-1] - W[4:]) / (12 * h)
    for i in range(2, len(t) - 2):
        geo = sys.geometry(traj.states[i, :n])
        xdot = traj.states[i, n:]
        out[i] = (dW[i - 2] + np.einsum("ijk,j,k->i", geo.christoffel(), xdot, W[i])
                  - geo.lorentz() @ W[i])
    return out


def _transport_rhs(sys, y, n, m):
    """Coupled base + m transported vectors.  The base slice is computed by
    the same code as `integrate`, keeping the base path bit-identical; the
    transported vectors share its point geometry."""
    x, v = y[:n], y[n:2 * n]
    geo = sys.geometry(x)
    out = np.empty_like(y)
    out[:n] = v
    out[n:2 * n] = _acceleration(sys, geo, v)
    # Y - Gamma(v, .) = -g^-1 (gamma_low(v, .) + sigma)
    B = -geo.ginv.dot(geo.gamma_low.dot(v) + geo.sigma)
    out[2 * n:] = y[2 * n:].reshape(m, n).dot(B.T).ravel()
    return out


def parallel_transport(sys: MagneticSystem, state: PhaseState, w0, T: float,
                       cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """Magnetic (D-)parallel transport of w0 along the orbit; returns W(T)."""
    cfg = cfg or IntegratorConfig()
    n = sys.dim
    y0 = np.concatenate([state.x, state.v, np.asarray(w0, dtype=float)])
    times, path, exited = _rk4_path(
        sys, y0, T, cfg, rhs=lambda y: _transport_rhs(sys, y, n, 1))
    if exited:
        raise DomainExit("transport orbit left the chart")
    return path[-1][2 * n:]


def frame_flow(sys: MagneticSystem, frame: FrameState, T: float,
               cfg: Optional[IntegratorConfig] = None) -> FrameState:
    """Frame-extension flow: advance the base state and D-parallel-transport
    the completion vectors; the first frame vector stays the velocity."""
    cfg = cfg or IntegratorConfig()
    n = sys.dim
    m = frame.completion.shape[0]
    y0 = np.concatenate([frame.state.x, frame.state.v,
                         frame.completion.ravel()])
    times, path, exited = _rk4_path(
        sys, y0, T, cfg, rhs=lambda y: _transport_rhs(sys, y, n, m))
    if exited:
        raise DomainExit("frame orbit left the chart")
    yend = path[-1]
    state = PhaseState(x=yend[:n], v=yend[n:2 * n], s=frame.state.s)
    return FrameState(state=state, completion=yend[2 * n:].reshape(m, n))


def _return_distance(sys, z0, tau, cfg):
    from .flow import integrate
    n = sys.dim
    traj = integrate(sys, PhaseState(x=z0[:n], v=z0[n:], s=1.0), tau, cfg)
    if traj.exited:
        return np.inf
    return float(np.linalg.norm(traj.states[-1] - z0))


def closed_orbit_holonomy(sys: MagneticSystem, state: PhaseState,
                          period_guess: float,
                          cfg: Optional[IntegratorConfig] = None,
                          tol: float = 1e-6) -> OrthogonalHolonomy:
    """Holonomy of the frame flow around a numerically closed orbit.

    The period is refined by golden-section minimization of the phase-space
    return distance near the guess; the transported completion is expressed
    in the initial orthonormal completion of v-perp.
    """
    from scipy.optimize import minimize_scalar
    cfg = cfg or IntegratorConfig()
    z0 = np.concatenate([state.x, state.v])
    lo, hi = 0.9 * period_guess, 1.1 * period_guess
    res = minimize_scalar(lambda t: _return_distance(sys, z0, t, cfg),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    # the bounded minimiser returns fun = f(x) at the x it returns
    tau, dist = float(res.x), float(res.fun)
    if not np.isfinite(dist) or dist > tol:
        raise NotPeriodic(
            f"return distance {dist:.3e} exceeds {tol} near the guessed period")
    f0 = FrameState.from_state(sys, state)
    f1 = frame_flow(sys, f0, tau, cfg)
    g = sys.metric(state.x)
    init = f0.completion                              # rows e_2 ... e_n
    Q = init @ g @ f1.completion.T                    # Q[a,b] = g(e_a, v_b(tau))
    return OrthogonalHolonomy(matrix=Q, period=tau, start=state,
                              return_distance=dist)
