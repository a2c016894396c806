"""Magnetic parallel transport, the frame-extension flow, and closed-orbit
holonomy sampling.

Transported vectors solve W' = -Gamma(xdot, W) + Y W, a linear flow along
`integrate`'s orbit; the two-pass driver of `flow`, which also solves the
variational flow, advances them over the orbit's RK4 stages, so no stored
trajectory is interpolated.  The diagnostic covariant derivative on stored
grids lives in `magnetic_covariant_derivative`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainExit, GridMismatch, NonFiniteState, NotPeriodic
from .flow import (IntegratorConfig, PhaseState, Trajectory, _end_state,
                   _linear_flow, generator, integrate)
from .geometry import _g_norm, _identity, _scale, orthonormal_completion
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
    return_distance: float


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


def _transport(sys: MagneticSystem, state: PhaseState, W: np.ndarray,
               T: float, cfg: Optional[IntegratorConfig], what: str):
    """The end state of the orbit of `state` run to T, and the rows of W
    (m, n) D-parallel transported along it: W' = W B^T with
    B = Y - Gamma(xdot, .) = -g^-1 (gamma_low(xdot, .) + sigma)."""
    def matrices(geo, v, acc):
        Gv = np.einsum("...ljk,...k->...lj", geo.gamma_low, v)
        return -np.matmul(geo.ginv, Gv + geo.sigma)

    Wts, nodes = _linear_flow(sys, state, T, cfg, matrices, W.T, what)
    return _end_state(nodes, state), Wts[0].T


def parallel_transport(sys: MagneticSystem, state: PhaseState, w0, T: float,
                       cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """Magnetic (D-)parallel transport of w0 along the orbit; returns W(T).
    The default `cfg` is `IntegratorConfig()`."""
    W = np.asarray(w0, dtype=float)[None]
    return _transport(sys, state, W, T, cfg, "transport")[1][0]


def frame_flow(sys: MagneticSystem, frame: FrameState, T: float,
               cfg: Optional[IntegratorConfig] = None) -> FrameState:
    """Frame-extension flow: advance the base state and D-parallel-transport
    the completion vectors; the first frame vector stays the velocity.
    The default `cfg` is `IntegratorConfig()`."""
    end, W = _transport(sys, frame.state, frame.completion, T, cfg, "frame")
    return FrameState(state=end, completion=W)


def _hermite_nearest(sys, t, y, z0) -> float:
    """The time in [t[0], t[-1]] at which the cubic Hermite interpolant of
    the nodes (t, y) and their generator values comes nearest z0.

    On each step, with s in [0, 1] and h its length, the interpolant minus
    z0 is a cubic c0 + c1 s + c2 s^2 + c3 s^3 in s, so its squared norm is a
    polynomial of degree 6 (finite: `_scale` puts all steps' c in (-1, 1));
    its minimum lies at a real root of its derivative in [0, 1] or an end."""
    n = sys.dim
    f = np.array([generator(sys, yk[:n], yk[n:]) for yk in y])
    h, dy = np.diff(t)[:, None], np.diff(y, axis=0)
    C = np.stack([y[:-1] - z0, h * f[:-1],
                  3.0 * dy - h * (2.0 * f[:-1] + f[1:]),
                  -2.0 * dy + h * (f[:-1] + f[1:])], axis=1)
    C = _scale(C.ravel())[0].reshape(C.shape)
    best, tau = np.inf, float(t[0])
    for k, c in enumerate(C):
        gram = c @ c.T
        sq = np.zeros(7)                  # sq[m] = sum of c_j . c_k, j + k = m
        for j in range(4):
            sq[j:j + 4] += gram[j]
        sq = sq[::-1]                     # highest power first, as np.roots
        d = np.polyder(sq)
        # np.roots divides by the leading coefficient; leading ones that the
        # largest coefficient would overflow add nothing on [0, 1]: dropped
        d = d[np.argmax(np.abs(d) >= np.abs(d).max() / np.finfo(float).max):]
        roots = np.roots(d)
        s = np.concatenate([[0.0, 1.0], roots[np.isreal(roots)].real])
        s = s[(s >= 0.0) & (s <= 1.0)]
        vals = np.polyval(sq, s)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, tau = vals[i], float(t[k] + s[i] * h[k, 0])
    return tau


def _require_guess(period_guess, step: float) -> None:
    """Reject a period guess shorter than 2 / 0.9 steps, or one whose window
    end 1.1 times it is not finite, naming it: every orbit returns within
    O(t) of its start near t = 0, so the window [0.9, 1.1] times the guess
    must begin at least two steps later, or it finds a spurious period
    there."""
    if not (2.0 * step / 0.9 <= period_guess and 1.1 * period_guess < np.inf):
        raise ValueError(f"period_guess = {period_guess!r}: 0.9 times it "
                         f"must span two steps of {step!r}, and 1.1 times "
                         f"it must be finite")


def closed_orbit_holonomy(sys: MagneticSystem, state: PhaseState,
                          period_guess: float,
                          cfg: Optional[IntegratorConfig] = None,
                          tol: float = 1e-6) -> OrthogonalHolonomy:
    """Holonomy of the frame flow around a numerically closed orbit.

    The guess must pass `_require_guess` (else `ValueError`), so that the
    window [0.9, 1.1] times the guess begins two steps after t = 0.  The
    orbit is integrated once to 1.1 times the guess.  Of its nodes in the
    window, the one nearest the start in phase space and the steps on
    either side of it give the period: the time, clamped to the window, at
    which the cubic Hermite interpolant of those nodes comes nearest the
    start.  The frame flow then runs once to that period; its final base
    state gives the return distance, and the transported completion is
    expressed in the initial orthonormal completion of v-perp.  The return
    distance must be within tol times the orbit's scale, max(1, the largest
    phase-space distance of a node in the window from the start), since the
    rounding of an orbit grows with its size; where the orbit sits in the
    chart does not enter it.  The default `cfg` is `IntegratorConfig()`.
    """
    cfg = cfg or IntegratorConfig()
    _require_guess(period_guess, cfg.step)
    z0 = np.concatenate([state.x, state.v])
    eye = _identity(z0.size)              # distances in phase space
    lo, hi = 0.9 * period_guess, 1.1 * period_guess
    try:
        traj = integrate(sys, state, hi, cfg)
    except NonFiniteState as exc:
        raise NotPeriodic(f"{exc}, before 1.1 times the guessed period") from exc
    # the last node is at hi unless the orbit left the chart
    window = np.flatnonzero(traj.times >= lo)
    if window.size == 0:
        raise NotPeriodic("the orbit left the chart before the guessed period")
    d = _g_norm(eye, traj.states[window] - z0)
    i = window[np.argmin(d)]
    near = slice(i - 1, i + 2)                      # t[0] = 0 < lo, so i >= 1
    tau = _hermite_nearest(sys, traj.times[near], traj.states[near], z0)
    # the step before the nearest node may begin before the window
    tau = min(max(tau, lo), hi)
    f0 = FrameState.from_state(sys, state)
    try:
        f1 = frame_flow(sys, f0, tau, cfg)
    except DomainExit as exc:
        raise NotPeriodic(f"{exc} near the guessed period") from exc
    dist = float(_g_norm(eye, np.concatenate([f1.state.x, f1.state.v]) - z0))
    scale = max(1.0, float(d.max()))
    if not np.isfinite(dist) or dist > tol * scale:
        raise NotPeriodic(f"return distance {dist:.3e} exceeds {tol} times "
                          f"the orbit's scale {scale:.3e} near the guessed "
                          f"period")
    g = sys.metric(state.x)
    init = f0.completion                              # rows e_2 ... e_n
    Q = init @ g @ f1.completion.T                    # Q[a,b] = g(e_a, v_b(tau))
    return OrthogonalHolonomy(matrix=Q, period=tau, return_distance=dist)
