"""Integration of the magnetic / semi-spray ODE on a chart.

The chart form of the equation of motion is
    xdot^i = v^i
    vdot^i = -Gamma^i_{jk}(x) v^j v^k + X_V^i(x, v)
with X_V = Y(x) v for a magnetic system.  It is integrated by one
fixed-step RK4 driver on Python floats: at n <= 3 the cost of an array
operation is its call, not its arithmetic.  The state is two lists of n
floats, x and v, and a stage is a function acc(x, v) -> list of n floats
that raises `DomainViolation` outside the chart.  For a magnetic system on
a diagonal metric whose form gives its float closure (`MetricField.spray`
and `TwoFormField.lorentz_v`, as every built-in model and form does) a
stage runs the chart guard and adds the metric's -Gamma(v, v) and the
form's Yv, as floats; otherwise it builds the point's `PointGeometry` on
arrays.  `generator` evaluates the same stage.  Nodes are stored as float64
rows.  Speed drift along the orbit, against the g-speed of its first node,
is recorded, never silently corrected (unless renormalization is explicitly
enabled), so it can serve as an error indicator.

The variational flow Jdot = Df J and magnetic parallel transport (see
`transport`) are linear flows Zdot = M Z along the base orbit.  One driver
solves both in two passes over blocks of `_BLOCK_STEPS` steps.  The base
orbit is integrated with `integrate`'s RK4 driver and stage, recording
each stage's point, velocity and acceleration; then one `PointGeometry` is
built on the batch of the block's recorded points (unguarded, since each
passed the guard in its stage), M is evaluated at all its stages at once
(for Df, with the second derivatives of the metric and the form taken on
the whole batch), and Z is advanced by the RK4 propagator of each step,
    P = I + h/6 (D1 + 2 D2 Z2 + 2 D3 Z3 + D4 Z4),
    Z2 = I + h/2 D1,  Z3 = I + h/2 D2 Z2,  Z4 = I + h D3 Z3,
where D1..D4 are M at the step's four stages.  This is the coupled RK4 of
(state, Z) rearranged: M depends only on the base orbit.
"""
from __future__ import annotations

import io
import logging
from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Optional

import numpy as np

from .errors import (DomainExit, DomainViolation, NonpositiveSpeed,
                     StepLimitExceeded)
from .geometry import PointGeometry, _central_difference
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

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PhaseState:
    """A point-with-velocity pair (x, v) with its nominal speed."""

    x: np.ndarray
    v: np.ndarray
    s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if not self.s > 0:
            raise NonpositiveSpeed(f"nominal speed must be positive, got {self.s}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: the nominal step, whether `integrate`
    rescales v to the nominal speed after every step, and the step budget."""

    step: float = 1e-3
    renormalize_speed: bool = False
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("the step must be positive")


@dataclass
class Trajectory:
    times: np.ndarray                 # (N,)
    states: np.ndarray                # (N, 2n)
    nominal_speed: float
    drift_per_node: np.ndarray        # (N,) relative g-norm deviation
    exited: bool = False              # orbit left the chart guard

    @property
    def speed_drift(self) -> float:   # max relative g-norm deviation
        return float(self.drift_per_node.max())

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
        """Header `t, x1..xn, v1..vn, speed_drift`; one row per node, and a
        last line `# exited,True` when the orbit left the chart."""
        n = self.n
        cols = (["t"] + [f"x{i+1}" for i in range(n)]
                + [f"v{i+1}" for i in range(n)] + ["speed_drift"])
        table = np.column_stack([self.times, self.states, self.drift_per_node])
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        # one row of Python floats at a time: a list of the whole table
        # would raise the peak memory of a long orbit
        buf.writelines(",".join(map(repr, row.tolist())) + "\n"
                       for row in table)
        if self.exited:
            buf.write("# exited,True\n")
        return buf.getvalue()


def _acceleration(sys: MagneticSystem, geo, v: np.ndarray) -> np.ndarray:
    """vdot = -Gamma(v, v) + X_V(x, v) at the point of `geo`.

    For a magnetic system X_V = Y v = -g^-1 sigma v, so both terms share one
    product with g^-1: vdot = -g^-1 (gamma_low(v, v) + sigma v)."""
    if sys.is_magnetic:
        return -geo.ginv.dot((geo.gamma_low.dot(v) + geo.sigma).dot(v))
    return sys.x_vertical(geo.x, v) - geo.ginv.dot(geo.gamma_low.dot(v).dot(v))


def _generator_jacobians(sys: MagneticSystem, geo: PointGeometry,
                         v: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Df = [[0, I], [d vdot/dx, d vdot/dv]] at the point(s) of `geo`, with
    v and acc there stacked alike; analytic for magnetic systems with
    derivative closures, finite differences for a custom vertical field.

    The analytic part is a = -g^-1 r with r = gamma_low(v, v) + sigma v
    (without the sigma term for a custom vertical field), so
    d_q a = -g^-1 (d_q r + d_q g a) and da/dv = -g^-1 dr/dv."""
    n = v.shape[-1]
    Gv = np.einsum("...ljk,...k->...lj", geo.gamma_low, v)
    r_x = np.einsum("...ljkq,...j,...k->...lq", geo.dgamma_low(), v, v)
    r_v = 2.0 * Gv
    if sys.is_magnetic:
        r_x = r_x + np.einsum("...ljq,...j->...lq", geo.dsigma(), v)
        r_v = r_v + geo.sigma
        a = acc
    else:
        a = -np.einsum("...ij,...j->...i", geo.ginv,
                       np.einsum("...lj,...j->...l", Gv, v))
    r_x = r_x + np.einsum("...ijq,...j->...iq", geo.dg, a)
    L = -np.matmul(geo.ginv, np.concatenate([r_x, r_v], axis=-1))
    if not sys.is_magnetic:
        f, h = sys.x_vertical, 1e-6
        for Lb, xb, vb in zip(L.reshape(-1, n, 2 * n), geo.x.reshape(-1, n),
                              v.reshape(-1, n)):
            Lb[:, :n] += _central_difference(lambda y: f(y, vb), xb, h)
            Lb[:, n:] += _central_difference(partial(f, xb), vb, h)
    D = np.zeros(v.shape[:-1] + (2 * n, 2 * n))
    D[..., :n, n:] = np.eye(n)
    D[..., n:, :] = L
    return D


def _lean_acceleration(sys: MagneticSystem, guard=None):
    """The magnetic acceleration -Gamma(v, v) + Yv on Python floats,
    acc(x, v) -> list of n floats at lists x, v of n floats, which raises
    `DomainViolation` at a point that fails the `guard`, if one is given;
    None unless the system is magnetic, its metric gives `spray` and its
    form gives `lorentz_v`."""
    spray, lorentz_v = sys.metric.spray, sys.sigma.lorentz_v
    if not sys.is_magnetic or spray is None or lorentz_v is None:
        return None

    def acc(x, v):
        if guard is not None and not guard(x):
            raise DomainViolation(f"point {x} outside chart domain")
        a, d = spray(x, v)
        return list(map(add, a, lorentz_v(x, d, v)))
    return acc


def _stage(sys: MagneticSystem):
    """The RK4 stage acc(x, v) -> list of n floats at lists x, v of n
    floats, which raises `DomainViolation` at a point outside the chart:
    the float acceleration behind the chart guard, or else the acceleration
    from the point's `PointGeometry` (which runs the guard itself)."""
    lean = _lean_acceleration(sys, sys.chart.domain_guard)
    if lean is not None:
        return lean
    return lambda x, v: _acceleration(sys, sys.geometry(x),
                                      np.array(v)).tolist()


def generator(sys: MagneticSystem, x, v) -> np.ndarray:
    """The 2n generator (xdot, vdot) of the flow at (x, v); the acceleration
    is the RK4 stage's, on Python floats where the system allows it."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    lean = _lean_acceleration(sys)
    if lean is None:
        return np.concatenate([v, _acceleration(sys, sys.geometry(x), v)])
    sys.chart.require(x)
    vl = v.tolist()
    return np.array(vl + lean(x.tolist(), vl))


def generator_jacobian(sys: MagneticSystem, x, v) -> np.ndarray:
    """2n x 2n Jacobian of the generator; analytic for magnetic systems
    with derivative closures, finite differences for custom vertical fields.
    """
    v = np.asarray(v, dtype=float)
    geo = sys.geometry(x)
    return _generator_jacobians(sys, geo, v, _acceleration(sys, geo, v))


def _step_size(T, h, max_steps):
    """The number of fixed RK4 steps over T >= 0 for a nominal step h, and
    their size, a Python float; at least one step for T > 0, none (of size
    0) for T = 0."""
    if T < 0:
        raise ValueError(f"the horizon T must be nonnegative, got {T}")
    nsteps = max(int(T > 0), int(round(T / h)))
    if nsteps > max_steps:
        raise StepLimitExceeded(f"{nsteps} steps exceed the budget {max_steps}")
    return nsteps, float(T) / max(nsteps, 1)


def _rk4_path(sys, x, v, T, cfg, acc=None, speed=None):
    """Shared fixed-step RK4 driver over time T with the step and budget of
    `cfg`, on the lists x, v of n floats.  `acc(x, v) -> list` is the stage
    acceleration (`_stage` by default), which raises `DomainViolation` at a
    point outside the chart; a `speed` rescales v to that g-norm after every
    step.  Returns the node times, the nodes (x, v) as rows and whether the
    orbit left the chart."""
    n = sys.dim
    f = _stage(sys) if acc is None else acc
    inside = sys.chart.domain_guard
    nsteps, hh = _step_size(T, cfg.step, cfg.max_steps)
    half, sixth = 0.5 * hh, hh / 6.0
    # rows of the nodes; the memory of rows never written is never touched
    path = np.empty((nsteps + 1, 2 * n))
    path[0] = x + v
    nodes = 1
    exited = False
    for _ in range(nsteps):
        try:
            a1 = f(x, v)
            x2 = [p + half * q for p, q in zip(x, v)]
            v2 = [p + half * q for p, q in zip(v, a1)]
            a2 = f(x2, v2)
            x3 = [p + half * q for p, q in zip(x, v2)]
            v3 = [p + half * q for p, q in zip(v, a2)]
            a3 = f(x3, v3)
            x4 = [p + hh * q for p, q in zip(x, v3)]
            v4 = [p + hh * q for p, q in zip(v, a3)]
            a4 = f(x4, v4)
        except DomainViolation:
            # a stage point crossed the chart guard: report a clean exit
            exited = True
            break
        x = [p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
             for p, k1, k2, k3, k4 in zip(x, v, v2, v3, v4)]
        v = [p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
             for p, k1, k2, k3, k4 in zip(v, a1, a2, a3, a4)]
        if inside is not None and not inside(x):
            exited = True
            break
        if speed is not None:
            nrm = sys.metric.norm(x, v)
            if nrm > 0:
                scale = float(speed / nrm)
                v = [u * scale for u in v]
        path[nodes] = x + v
        nodes += 1
    # node k sits at k * hh, not at a running sum, so the last node is T
    return np.arange(nodes) * hh, path[:nodes], exited


def integrate(sys: MagneticSystem, state: PhaseState, T: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the flow for time T.  On chart exit a partial trajectory is
    returned with `exited=True` rather than raising, since orbit escape is
    informative for open-chart models.  Drift is measured from the first
    node's g-speed (or `state.s` if that is 0 or inf), which is logged as a
    warning where it differs from `state.s`, the renormalization target."""
    cfg = cfg or IntegratorConfig()
    if not np.isfinite(T):
        raise ValueError("T must be finite")
    n = sys.dim
    sys.chart.require(state.x)
    times, path, exited = _rk4_path(
        sys, state.x.tolist(), state.v.tolist(), T, cfg,
        speed=state.s if cfg.renormalize_speed else None)
    # every node passed the chart guard, so the metric is read unguarded
    g = sys.metric.raw(path[:, :n])
    V = path[:, n:]
    speeds = np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", V, g, V), 0.0))
    base = speeds[0] if 0.0 < speeds[0] < np.inf else state.s
    if abs(speeds[0] - state.s) > 1e-8 * state.s:
        log.warning("initial g-speed %r differs from the nominal speed %r",
                    float(speeds[0]), state.s)
    return Trajectory(times=times, states=path, nominal_speed=state.s,
                      drift_per_node=np.abs(speeds - base) / base,
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


# RK4 steps whose stages are recorded before their matrices M are evaluated
# together and Z is advanced over them; bounds the memory of a long orbit
_BLOCK_STEPS = 64


def _advance(D: np.ndarray, h: float, Z: np.ndarray) -> np.ndarray:
    """Z advanced over the RK4 steps whose stage matrices M are
    D[4k], ..., D[4k + 3], by the step propagators of the module docstring."""
    eye = np.eye(D.shape[-1])
    D1, D2, D3, D4 = D[0::4], D[1::4], D[2::4], D[3::4]
    K2 = D2 @ (eye + (0.5 * h) * D1)
    K3 = D3 @ (eye + (0.5 * h) * K2)
    K4 = D4 @ (eye + h * K3)
    for P in eye + (h / 6.0) * (D1 + 2.0 * K2 + 2.0 * K3 + K4):
        Z = P.dot(Z)
    return Z


def _linear_flow(sys: MagneticSystem, state: PhaseState, T: float,
                 cfg: Optional[IntegratorConfig], matrices, Z: np.ndarray,
                 what: str):
    """Z advanced over T by Zdot = M Z along `integrate`'s (unrenormalized)
    orbit of `state`, in the two passes of the module docstring, and the
    end state of that orbit.  `matrices(geo, v, acc)` gives M at a block of
    stages from their `PointGeometry` batch, velocities and accelerations."""
    cfg = cfg or IntegratorConfig()
    n = sys.dim
    sys.chart.require(state.x)
    _, h = _step_size(T, cfg.step, cfg.max_steps)
    stage = _stage(sys)
    rows = []                       # (x, v, acc) at each recorded stage

    def advance():
        # every recorded point passed the chart guard in the stage
        nonlocal Z
        X, V, A = np.split(np.array(rows), 3, axis=1)
        rows.clear()
        geo = PointGeometry(sys.metric, X, sys.sigma)
        Z = _advance(matrices(geo, V, A), h, Z)

    def acc(x, v):
        # the stage, recording it; a full block of whole steps is first
        # advanced over
        if len(rows) == 4 * _BLOCK_STEPS:
            advance()
        a = stage(x, v)
        rows.append(x + v + a)
        return a

    _, path, exited = _rk4_path(sys, state.x.tolist(), state.v.tolist(), T,
                                cfg, acc=acc)
    if exited:
        raise DomainExit(f"{what} orbit left the chart")
    if rows:
        advance()
    return Z, PhaseState(x=path[-1, :n], v=path[-1, n:], s=state.s)


def variational_flow(sys: MagneticSystem, state: PhaseState, T: float,
                     cfg: Optional[IntegratorConfig] = None):
    """Solve Jdot = Df J along the orbit, J(0) = identity, in the two passes
    of the module docstring; returns J(T) and the end state of the orbit,
    which is `integrate`'s."""
    return _linear_flow(sys, state, T, cfg, partial(_generator_jacobians, sys),
                        np.eye(2 * sys.dim), "variational")
