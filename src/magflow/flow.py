"""Integration of the magnetic / semi-spray ODE on a chart.

The chart form of the equation of motion is
    xdot^i = v^i
    vdot^i = -Gamma^i_{jk}(x) v^j v^k + X_V^i(x, v)
with X_V = Y(x) v for a magnetic system.  It is integrated by fixed-step
RK4.  Speed drift along the orbit is recorded, never silently corrected
(unless renormalization is explicitly enabled), so it can serve as an error
indicator.

The variational flow Jdot = Df J is solved in two passes over blocks of
`_BLOCK_STEPS` steps.  The base orbit is integrated with `integrate`'s RK4,
recording at every stage the local geometry it evaluated; then Df is
evaluated at all recorded stages at once, with the second derivatives of
the metric and the form taken on the whole batch, and J is advanced by the
RK4 propagator of each step,
    P = I + h/6 (D1 + 2 D2 Z2 + 2 D3 Z3 + D4 Z4),
    Z2 = I + h/2 D1,  Z3 = I + h/2 D2 Z2,  Z4 = I + h D3 Z3,
where D1..D4 are Df at the step's four stages.  This is the coupled RK4 of
(state, J) rearranged: Df depends only on the base orbit.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainExit, DomainViolation, NonpositiveSpeed,
                     StepLimitExceeded)
from .system import MagneticSystem

__all__ = [
    "PhaseState",
    "IntegratorConfig",
    "Trajectory",
    "generator",
    "generator_jacobian",
    "integrate",
    "dynamical_exp",
    "oddness_residual",
    "variational_flow",
]


@dataclass(frozen=True)
class PhaseState:
    """A point-with-velocity pair (x, v) with its nominal speed."""

    x: np.ndarray
    v: np.ndarray
    s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.s <= 0:
            raise NonpositiveSpeed(f"nominal speed must be positive, got {self.s}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: the nominal step, whether `integrate`
    rescales v to the nominal speed after every step, and the step budget."""

    step: float = 1e-3
    renormalize_speed: bool = False
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("the step must be positive")


@dataclass
class Trajectory:
    times: np.ndarray                 # (N,)
    states: np.ndarray                # (N, 2n)
    nominal_speed: float
    speed_drift: float                # max relative g-norm deviation
    drift_per_node: np.ndarray        # (N,) relative g-norm deviation
    exited: bool = False              # orbit left the chart guard

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    def state(self, i: int) -> PhaseState:
        n = self.n
        return PhaseState(x=self.states[i, :n], v=self.states[i, n:],
                          s=self.nominal_speed)

    @property
    def final(self) -> PhaseState:
        return self.state(len(self.times) - 1)

    def to_csv(self) -> str:
        """Header `t, x1..xn, v1..vn, speed_drift`; one row per node."""
        n = self.n
        cols = (["t"] + [f"x{i+1}" for i in range(n)]
                + [f"v{i+1}" for i in range(n)] + ["speed_drift"])
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for t, y, d in zip(self.times, self.states, self.drift_per_node):
            row = [repr(float(t))] + [repr(float(u)) for u in y]
            row.append(repr(float(d)))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def _acceleration(sys: MagneticSystem, geo, v: np.ndarray) -> np.ndarray:
    """vdot = -Gamma(v, v) + X_V(x, v) at the point of `geo`.

    For a magnetic system X_V = Y v = -g^-1 sigma v, so both terms share one
    product with g^-1: vdot = -g^-1 (gamma_low(v, v) + sigma v)."""
    if sys.is_magnetic:
        return -geo.ginv.dot((geo.gamma_low.dot(v) + geo.sigma).dot(v))
    return sys.x_vertical(geo.x, v) - geo.ginv.dot(geo.gamma_low.dot(v).dot(v))


class _StageBlock:
    """The base-orbit quantities of up to `capacity` RK4 stages: the stage
    point x, its v and acceleration, and the `PointGeometry` arrays there,
    each stacked along a leading stage axis.  `count` stages are filled."""

    def __init__(self, n: int, capacity: int):
        self.count = 0
        self.x = np.empty((capacity, n))
        self.v = np.empty((capacity, n))
        self.acc = np.empty((capacity, n))
        self.g = np.empty((capacity, n, n))
        self.dg = np.empty((capacity, n, n, n))
        self.ginv = np.empty((capacity, n, n))
        self.gamma_low = np.empty((capacity, n, n, n))
        self.sigma = np.empty((capacity, n, n))

    def record(self, geo, v: np.ndarray, acc: np.ndarray):
        i = self.count
        self.x[i] = geo.x
        self.v[i] = v
        self.acc[i] = acc
        self.g[i] = geo.g
        self.dg[i] = geo.dg
        self.ginv[i] = geo.ginv
        self.gamma_low[i] = geo.gamma_low
        self.sigma[i] = geo.sigma
        self.count = i + 1


def _acceleration_jacobian(sys: MagneticSystem, blk: _StageBlock) -> np.ndarray:
    """The n x 2n blocks (d vdot/dx, d vdot/dv) at the filled stages of
    `blk`, shape (count, n, 2n); analytic for magnetic systems with
    derivative closures, finite differences for the part of a custom
    vertical field.

    The analytic part is a = -g^-1 r with r = gamma_low(v, v) + sigma v
    (without the sigma term for a custom vertical field), so
    d_q a = -g^-1 (d_q r + d_q g a) and da/dv = -g^-1 dr/dv.  With
    dgamma_low as in `PointGeometry` and g symmetric,
    d_q gamma_low(v, v)_l = (A[l, k, q] - A[k, l, q] / 2) v^k, where
    A[l, k, q] = d_k d_q g_lj v^j."""
    m = blk.count
    x, v, dg, ginv = blk.x[:m], blk.v[:m], blk.dg[:m], blk.ginv[:m]
    A = np.einsum("bljkq,bj->blkq", sys.metric.d2g_batch(x), v)
    r_x = np.einsum("blkq,bk->blq", A - 0.5 * A.transpose(0, 2, 1, 3), v)
    Gv = np.einsum("bljk,bk->blj", blk.gamma_low[:m], v)
    r_v = 2.0 * Gv
    if sys.is_magnetic:
        dsigma = sys.sigma.dsigma_batch(x, sys.metric, blk.g[:m], dg)
        r_x = r_x + np.einsum("bljq,bj->blq", dsigma, v)
        r_v = r_v + blk.sigma[:m]
        a = blk.acc[:m]
    else:
        a = -np.einsum("bij,bj->bi", ginv, np.einsum("blj,bj->bl", Gv, v))
    r_x = r_x + np.einsum("bijq,bj->biq", dg, a)
    L = -np.matmul(ginv, np.concatenate([r_x, r_v], axis=2))
    if not sys.is_magnetic:
        n, h = v.shape[1], 1e-6
        for b in range(m):
            xb, vb = x[b], v[b]
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                L[b, :, k] += (sys.x_vertical(xb + e, vb)
                               - sys.x_vertical(xb - e, vb)) / (2 * h)
                L[b, :, n + k] += (sys.x_vertical(xb, vb + e)
                                   - sys.x_vertical(xb, vb - e)) / (2 * h)
    return L


def _generator_jacobians(sys: MagneticSystem, blk: _StageBlock) -> np.ndarray:
    """Df = [[0, I], [d vdot/dx, d vdot/dv]] at the filled stages of `blk`."""
    n = blk.x.shape[1]
    D = np.zeros((blk.count, 2 * n, 2 * n))
    D[:, :n, n:] = np.eye(n)
    D[:, n:] = _acceleration_jacobian(sys, blk)
    return D


def generator(sys: MagneticSystem, x, v) -> np.ndarray:
    """The 2n generator (xdot, vdot) of the flow at (x, v)."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([v, _acceleration(sys, sys.geometry(x), v)])


def generator_jacobian(sys: MagneticSystem, x, v) -> np.ndarray:
    """2n x 2n Jacobian of the generator; analytic for magnetic systems
    with derivative closures, finite differences for custom vertical fields.
    """
    v = np.asarray(v, dtype=float)
    geo = sys.geometry(x)
    one = _StageBlock(v.size, 1)
    one.record(geo, v, _acceleration(sys, geo, v))
    return _generator_jacobians(sys, one)[0]


def _step_size(T, h, max_steps):
    """The number of fixed RK4 steps over T >= 0 for a nominal step h, and
    their size."""
    if T < 0:
        raise ValueError(f"the horizon T must be nonnegative, got {T}")
    nsteps = max(1, int(round(T / h)))
    if nsteps > max_steps:
        raise StepLimitExceeded(f"{nsteps} steps exceed the budget {max_steps}")
    return nsteps, T / nsteps


def _rk4_path(sys, y0, T, cfg, rhs=None, observe=None, speed=None):
    """Shared fixed-step RK4 driver over time T with the step and budget of
    `cfg`.  `rhs(y) -> ydot` defaults to the plain generator; `observe(t, y)`
    is called at every accepted node; a `speed` rescales v to that g-norm
    after every step."""
    n = sys.dim
    f = (lambda y: generator(sys, y[:n], y[n:])) if rhs is None else rhs
    nsteps, hh = _step_size(T, cfg.step, cfg.max_steps)
    y = np.array(y0, dtype=float)
    times = [0.0]
    path = [y.copy()]
    exited = False
    for k in range(1, nsteps + 1):
        try:
            k1 = f(y)
            k2 = f(y + 0.5 * hh * k1)
            k3 = f(y + 0.5 * hh * k2)
            k4 = f(y + hh * k3)
        except DomainViolation:
            # a stage point crossed the chart guard: report a clean exit
            exited = True
            break
        ynew = y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs = ynew[:n]
        if not sys.chart.contains(xs):
            exited = True
            break
        if speed is not None:
            nrm = sys.metric.norm(xs, ynew[n:2 * n])
            if nrm > 0:
                ynew[n:2 * n] *= speed / nrm
        y = ynew
        t = k * hh               # not accumulated, so the last node is T
        times.append(t)
        path.append(y.copy())
        if observe is not None:
            observe(t, y)
    return np.array(times), np.array(path), exited


def integrate(sys: MagneticSystem, state: PhaseState, T: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the flow for time T.  On chart exit a partial trajectory is
    returned with `exited=True` rather than raising, since orbit escape is
    informative for open-chart models."""
    cfg = cfg or IntegratorConfig()
    if not np.isfinite(T):
        raise ValueError("T must be finite")
    n = sys.dim
    sys.chart.require(state.x)
    times, path, exited = _rk4_path(
        sys, np.concatenate([state.x, state.v]), T, cfg,
        speed=state.s if cfg.renormalize_speed else None)
    # every node passed the chart guard, so the metric is read unguarded
    g = sys.metric.raw_batch(path[:, :n])
    V = path[:, n:]
    speeds = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", V, g, V), 0.0))
    drifts = np.abs(speeds - state.s) / state.s
    return Trajectory(times=times, states=path, nominal_speed=state.s,
                      speed_drift=float(drifts.max()), drift_per_node=drifts,
                      exited=exited)


def dynamical_exp(sys: MagneticSystem, x, u,
                  cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """exp_x(u): footpoint of the time-|u| flow of (x, u/|u|); x for u = 0."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    sys.chart.require(x)
    t = sys.metric.norm(x, u)
    if t == 0.0:
        return x.copy()
    traj = integrate(sys, PhaseState(x=x, v=u / t, s=1.0), t, cfg)
    if traj.exited:
        raise DomainExit("dynamical exponential left the chart", partial=traj)
    return traj.final.x


def oddness_residual(sys: MagneticSystem, x, v) -> float:
    """|X_V(x,-v) + X_V(x,v)|_g, which vanishes for magnetic systems; for a
    custom vertical field it reports the failure of oddness.  (The
    horizontal part X_H(x, v) = v of a semi-spray flow is odd by
    construction.)"""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return sys.metric.norm(x, sys.x_vertical(x, v) + sys.x_vertical(x, -v))


# RK4 steps whose stages are recorded before their Jacobians are evaluated
# together and J is advanced over them; bounds the memory of a long orbit
_BLOCK_STEPS = 64


def _advance(D: np.ndarray, h: float, J: np.ndarray) -> np.ndarray:
    """J advanced over the RK4 steps whose stage Jacobians are
    D[4k], ..., D[4k + 3], by the step propagators of the module docstring."""
    eye = np.eye(D.shape[-1])
    D1, D2, D3, D4 = D[0::4], D[1::4], D[2::4], D[3::4]
    K2 = D2 @ (eye + (0.5 * h) * D1)
    K3 = D3 @ (eye + (0.5 * h) * K2)
    K4 = D4 @ (eye + h * K3)
    for P in eye + (h / 6.0) * (D1 + 2.0 * K2 + 2.0 * K3 + K4):
        J = P.dot(J)
    return J


def variational_flow(sys: MagneticSystem, state: PhaseState, T: float,
                     cfg: Optional[IntegratorConfig] = None,
                     J0: Optional[np.ndarray] = None,
                     return_final_state: bool = False):
    """Solve Jdot = Df J along the orbit, J(0) = identity (or J0), in the
    two passes of the module docstring; the orbit is `integrate`'s."""
    cfg = cfg or IntegratorConfig()
    n = sys.dim
    sys.chart.require(state.x)
    J = np.eye(2 * n) if J0 is None else np.asarray(J0, dtype=float)
    _, h = _step_size(T, cfg.step, cfg.max_steps)
    blk = _StageBlock(n, 4 * _BLOCK_STEPS)

    def rhs(y):
        # the operations of `generator`, recording the stage
        x, v = y[:n], y[n:]
        geo = sys.geometry(x)
        acc = _acceleration(sys, geo, v)
        blk.record(geo, v, acc)
        return np.concatenate([v, acc])

    def advance():
        nonlocal J
        J = _advance(_generator_jacobians(sys, blk), h, J)
        blk.count = 0

    def observe(t, y):
        if blk.count == 4 * _BLOCK_STEPS:
            advance()

    _, path, exited = _rk4_path(
        sys, np.concatenate([state.x, state.v]), T, cfg, rhs=rhs,
        observe=observe)
    if exited:
        raise DomainExit("variational orbit left the chart")
    if blk.count:
        advance()
    if return_final_state:
        return J, PhaseState(x=path[-1, :n], v=path[-1, n:], s=state.s)
    return J
