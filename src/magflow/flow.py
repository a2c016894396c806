"""Integration of the magnetic / semi-spray ODE on a chart.

The chart form of the equation of motion is
    xdot^i = v^i
    vdot^i = -Gamma^i_{jk}(x) v^j v^k + X_V^i(x, v)
with X_V = Y(x) v for a magnetic system.  It is integrated by one
fixed-step RK4 driver on Python floats: at n <= 3 the cost of an array
operation is its call, not its arithmetic.  The state is one list
y = x ++ v of 2n floats, and a stage f(y) -> k = v ++ vdot raises
`DomainViolation` outside the chart.  For a magnetic system on a diagonal
metric whose form gives its float closure (`MetricField.spray` and
`TwoFormField.magnetic_acc`, as every built-in model and form does) a stage
runs on floats; otherwise it builds the point's `PointGeometry` on arrays.
One builder, `geometry._RK4Kernels`, makes a system's kernels on its first
orbit, which the system keeps until its guard, spray, magnetic_acc or
vertical field is replaced.  It compiles them from the fragments of
index-level code of the chart guard, the spray and the magnetic term (a
closure that no fragment generated, or the `PointGeometry` stage, is a piece
that calls it).  The stage unpacks y into locals, runs the guard, then the
geodesic acceleration and g's diagonal, then the magnetic term, and returns
one list; the step runs the rest of an RK4 step after the stage at its node,
stages 2-4 at the points y + c k and the node update, inline on locals.
Every generated line does the floating-point operations of the closures
and list expressions it replaced, in the same order, so that the orbits
keep their bits.  `generator` evaluates the same stage.  A node is checked
by the guard of the next step's first stage, the last node by the guard
alone.  Every orbit, linear flows' included, runs through this one driver,
which checks the horizon and the start point.  Speed drift along the
orbit, against the g-speed of its first node, is recorded and never
corrected, so it serves as an error indicator.

The variational flow Jdot = Df J and magnetic parallel transport (see
`transport`) are linear flows Zdot = M Z along the base orbit.  One driver
solves both in two passes over blocks of `_BLOCK_STEPS` steps.  The
recording RK4 step appends each stage (x, v, vdot) to one flat list of
floats, which the driver hands over once a block, read into one buffer;
then one `PointGeometry` is built on the batch of their points (unguarded:
each passed the guard in its stage), M is evaluated at all the stages at
once (for Df, with the second derivatives of the metric and the form taken
on the whole batch), and Z is advanced by the RK4 propagator of each step,
    P = I + h/6 (D1 + 2 D2 Z2 + 2 D3 Z3 + D4 Z4),
    Z2 = I + h/2 D1,  Z3 = I + h/2 D2 Z2,  Z4 = I + h D3 Z3,
where D1..D4 are M at the step's four stages.  This is the coupled RK4 of
(state, Z) rearranged: M depends only on the base orbit.

The driver cuts the flow at segment ends that fall on RK4 nodes (the
discrete QR method of Dieci, Russell & Van Vleck, SIAM J. Numer. Anal. 34,
1997): the orbit runs on a grid of equal segments of k whole steps, and
the propagator loop appends Z and restarts it at the identity after every
k-th step, counted across blocks, which keep their `_BLOCK_STEPS` whatever
k is.  It returns the stack of Z over each segment and the orbit's nodes
at the segment ends, as `variational_segments` does; `variational_flow`
and transport are the one-segment case.  `IntegratorConfig.max_steps`
bounds the steps of a whole call, all segments together.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import (DomainExit, DomainViolation, NonFiniteState,
                     NonpositiveSpeed, StepLimitExceeded)
from .geometry import (PointGeometry, _central_difference, _g_norm,
                       _RK4Kernels)
from .system import MagneticSystem

__all__ = [
    "PhaseState",
    "IntegratorConfig",
    "DIAGNOSTIC_STEP",
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
    """Fixed-step RK4 settings: the nominal step and the step budget.  No
    setting corrects the orbit; its speed drift is recorded instead.  The
    default step is that of the orbit entry points: `integrate`,
    `dynamical_exp`, the linear flows, `closed_orbit_holonomy` and
    `conjugate_point_scan`."""

    step: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("the step must be positive")


# The coarser default step of the tangent diagnostics and the exp-images,
# whose orbits carry a variational flow: `lyapunov_spectrum`,
# `transversality_angle`, `volume_drift`, `candidate_submanifold` and
# `cartan_probe`
DIAGNOSTIC_STEP = 1e-2


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
    lead, n = v.shape[:-1], v.shape[-1]
    Gv = np.einsum("...ljk,...k->...lj", geo.gamma_low, v)
    # r_x = dgamma_low(v, v), without building dgamma_low:
    # d2g[l, j, k, q] v^j v^k - d2g[j, k, l, q] v^j v^k / 2
    vv = np.einsum("...j,...k->...jk", v, v).reshape(lead + (1, 1, n * n))
    d2g = geo.metric.d2g(geo.x).reshape(lead + (1, n * n, n * n))
    r_x = ((vv @ d2g.reshape(lead + (n, n * n, n)))[..., 0, :]
           - 0.5 * (vv @ d2g)[..., 0, 0, :].reshape(lead + (n, n)))
    r_v = 2.0 * Gv
    # dg, dsigma contract over their leading index by (anti)symmetry: faster
    if sys.is_magnetic:
        r_x = r_x - np.einsum("...jlq,...j->...lq", geo.dsigma(), v)
        r_v = r_v + geo.sigma
        a = acc
    else:
        a = -np.einsum("...ij,...j->...i", geo.ginv,
                       np.einsum("...lj,...j->...l", Gv, v))
    r_x = r_x + np.einsum("...jiq,...j->...iq", geo.dg, a)
    L = -np.matmul(geo.ginv, np.concatenate([r_x, r_v], axis=-1))
    if not sys.is_magnetic:
        f, h = sys.x_vertical, 1e-6
        for Lb, xb, vb in zip(L.reshape(-1, n, 2 * n), geo.x.reshape(-1, n),
                              v.reshape(-1, n)):
            Lb[:, :n] += _central_difference(lambda y: f(y, vb), xb, h)
            Lb[:, n:] += _central_difference(partial(f, xb), vb, h)
    D = np.zeros(lead + (2 * n, 2 * n))
    D[..., :n, n:] = np.eye(n)
    D[..., n:, :] = L
    return D


def _kernels(sys: MagneticSystem) -> _RK4Kernels:
    """The RK4 kernels of `sys`, built on first use and kept on it while
    its chart guard, spray, magnetic_acc and vertical field stay the same
    objects.  Their stage f(y) -> k = v ++ vdot at a list y = x ++ v
    raises `DomainViolation` outside the chart: vdot = -Gamma(v, v) + Yv on
    floats where the system is magnetic and gives both float closures,
    otherwise from the point's `PointGeometry` (which runs the guard)."""
    guard, spray, acc = (sys.chart.domain_guard, sys.metric.spray,
                         sys.sigma.magnetic_acc)
    key = (guard, spray, acc, sys.vertical_field)
    if sys._kernels is None or sys._kernels[0] != key:
        n = sys.dim
        if sys.is_magnetic and spray is not None and acc is not None:
            kernels = _RK4Kernels(n, guard, spray, acc)
        else:
            kernels = _RK4Kernels(n, lambda y: y[n:] + _acceleration(
                sys, sys.geometry(y[:n]), np.array(y[n:])).tolist())
        sys._kernels = key, kernels
    return sys._kernels[1]


def generator(sys: MagneticSystem, x, v) -> np.ndarray:
    """The 2n generator (xdot, vdot) of the flow at (x, v): the RK4
    stage's, which runs the chart guard once, on Python floats where the
    system allows it."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    return np.array(_kernels(sys).stage(x.tolist() + v.tolist()))


def generator_jacobian(sys: MagneticSystem, x, v) -> np.ndarray:
    """2n x 2n Jacobian of the generator; analytic for magnetic systems
    with derivative closures, finite differences for custom vertical fields.
    """
    v = np.asarray(v, dtype=float)
    geo = sys.geometry(x)
    return _generator_jacobians(sys, geo, v, _acceleration(sys, geo, v))


def _step_size(T, h, max_steps, segments=1):
    """The number of fixed RK4 steps over a finite T >= 0 for a nominal step
    h, and their size, a Python float: `segments` equal segments of k whole
    steps each, k = round(T / segments / h), at least one for T > 0 and none
    (of size 0) for T = 0.  The budget `max_steps` bounds all segments * k."""
    if not 0 <= T < np.inf:
        raise ValueError(f"horizon T must be finite and nonnegative: {T}")
    dt = float(T) / segments
    # capped just past the budget, so that an infinite dt / h exceeds it
    k = max(int(T > 0), round(min(dt / h, max_steps + 1)))
    nsteps = segments * k
    if nsteps > max_steps:
        raise StepLimitExceeded(f"T = {T}, h = {h}: over {max_steps} steps")
    return nsteps, dt / max(k, 1)


def _rk4_path(sys, state, T, cfg, record=None, segments=1):
    """The one RK4 driver: the orbit of `state`, whose start must pass the
    chart guard, over time T with the step and budget of `cfg`, on the grid
    of `segments` equal segments of whole steps (`_step_size`), stepping a
    list y = x ++ v with the kernels of `_kernels`: the first stage
    k1 = f(y), then the rest of the step.  `record(flat)`, if given, gets
    the stages (x1, v1, vdot1, ..., x4, v4, vdot4) of each step as one flat
    list of floats, one block of `_BLOCK_STEPS` steps at a time, the last
    after the finite check below if the orbit stayed in; the list is
    cleared after each call.  Returns the node times, the nodes (x, v) as
    rows and whether the orbit left the chart; raises `NonFiniteState` if a
    node it wrote is not finite (a chart without a guard never stops a
    blow-up)."""
    n = sys.dim
    kernels, flat = _kernels(sys), []   # flat: the block's stage floats
    f, put = kernels.stage, flat.extend
    step = kernels.step if record is None else kernels.record
    inside = sys.chart.domain_guard
    nsteps, hh = _step_size(T, cfg.step, cfg.max_steps, segments)
    sys.chart.require(state.x)
    y = state.x.tolist() + state.v.tolist()
    half, sixth = 0.5 * hh, hh / 6.0
    # rows of the nodes; the memory of rows never written is never touched
    path = np.empty((nsteps + 1, 2 * n))
    nodes, written = [], 0          # the block's nodes; the rows written
    for i in range(nsteps):
        if i - written == _BLOCK_STEPS:
            path[written:i] = nodes
            nodes, written = [], i
            if flat:
                record(flat)
                flat.clear()
        try:
            k1 = f(y)
            nodes.append(y)
            y = step(y, k1, half, hh, sixth, put)
        except DomainViolation:
            # a node or stage point crossed the chart guard: a clean exit
            exited = True
            break
    else:  # the last node, which no further stage checks
        exited = inside is not None and not inside(y[:n])
        if not exited:
            nodes.append(y)
    path = path[:written + len(nodes)]
    path[written:] = np.reshape(nodes, (-1, 2 * n))     # nodes may be []
    if not np.isfinite(path).all():
        first = np.argmin(np.isfinite(path).all(axis=1))
        raise NonFiniteState(
            f"the orbit reached a non-finite state at t = {first * hh}")
    if flat and not exited:
        record(flat)
    # node k sits at k * hh, not at a running sum, so the last node of one
    # segment is T
    return np.arange(len(path)) * hh, path, exited


def integrate(sys: MagneticSystem, state: PhaseState, T: float,
              cfg: Optional[IntegratorConfig] = None) -> Trajectory:
    """Integrate the flow for time T.  On chart exit a partial trajectory is
    returned with `exited=True` rather than raising, since orbit escape is
    informative for open-chart models.  Drift is measured from the first
    node's g-speed (or `state.s` if that is 0 or inf), which is logged as a
    warning where it differs from `state.s`; it is recorded per node and
    never corrected.  The default `cfg` is `IntegratorConfig()`."""
    cfg = cfg or IntegratorConfig()
    n = sys.dim
    times, path, exited = _rk4_path(sys, state, T, cfg)
    # every node passed the chart guard, so the metric is read unguarded
    speeds = _g_norm(sys.metric.raw(path[:, :n]), path[:, n:])
    base = speeds[0] if 0.0 < speeds[0] < np.inf else state.s
    if abs(speeds[0] - state.s) > 1e-8 * state.s:
        log.warning("initial g-speed %r differs from the nominal speed %r",
                    float(speeds[0]), state.s)
    return Trajectory(times=times, states=path, nominal_speed=state.s,
                      drift_per_node=np.abs(speeds - base) / base,
                      exited=exited)


def dynamical_exp(sys: MagneticSystem, x, u,
                  cfg: Optional[IntegratorConfig] = None) -> np.ndarray:
    """exp_x(u): footpoint of the time-|u| flow of (x, u/|u|); x for u = 0.
    The default `cfg` is `IntegratorConfig()`."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    # the driver checks the start; where no orbit is run, it is checked here
    t = float(_g_norm(sys.metric.raw(x), u))
    if not 0.0 < t < np.inf:
        sys.chart.require(x)
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


def _advance(D: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step propagators of the module docstring, one for each step
    whose stage matrices M are D[4j], ..., D[4j + 3]."""
    eye = np.eye(D.shape[-1])
    D1, D2, D3, D4 = D[0::4], D[1::4], D[2::4], D[3::4]
    K2 = D2 @ (eye + (0.5 * h) * D1)
    K3 = D3 @ (eye + (0.5 * h) * K2)
    K4 = D4 @ (eye + h * K3)
    return eye + (h / 6.0) * (D1 + 2.0 * K2 + 2.0 * K3 + K4)


def _linear_flow(sys: MagneticSystem, state: PhaseState, T: float,
                 cfg: Optional[IntegratorConfig], matrices, Z: np.ndarray,
                 what: str, segments: int = 1):
    """Z advanced by Zdot = M Z along `integrate`'s orbit of `state` (the
    same driver, its drift never corrected) over `segments` equal segments
    of k whole steps (`_step_size`), in the two passes and with the cuts of
    the module docstring (so Z is square unless there is one segment).
    `matrices(geo, v, acc)` gives M at each block of stages the driver
    hands over, from their `PointGeometry` batch, velocities and
    accelerations.  Returns the stack of Z over each segment and the
    orbit's nodes (x, v) at the segment ends as rows, the start first; at
    T = 0 every segment is empty, so each Z is the given one and each node
    the start."""
    cfg = cfg or IntegratorConfig()
    nsteps, h = _step_size(T, cfg.step, cfg.max_steps, segments)
    k = nsteps // segments
    cuts = []                       # Z at each segment end
    done = 0                        # steps Z has been advanced over

    def advance(flat):
        # every stage point passed the chart guard in its stage; after
        # every k-th step of the flow Z is cut and restarts at the identity
        nonlocal Z, done
        # (x, v, acc) at each stage, read into one buffer
        X, V, A = np.fromiter(flat, float, len(flat)).reshape(
            -1, 3, sys.dim).swapaxes(0, 1)
        geo = PointGeometry(sys.metric, X, sys.sigma)
        for done, Pj in enumerate(_advance(matrices(geo, V, A), h), done + 1):
            Z = Pj.dot(Z)
            if done % k == 0:
                cuts.append(Z)
                Z = np.eye(len(Z))

    _, path, exited = _rk4_path(sys, state, T, cfg, record=advance,
                                segments=segments)
    if exited:
        raise DomainExit(f"{what} orbit left the chart")
    return np.array(cuts or [Z] * segments), path[np.arange(segments + 1) * k]


def _end_state(path: np.ndarray, state: PhaseState) -> PhaseState:
    """The last node of a path of `state`'s orbit, with its nominal speed."""
    n = state.x.size
    return PhaseState(x=path[-1, :n], v=path[-1, n:], s=state.s)


def variational_flow(sys: MagneticSystem, state: PhaseState, T: float,
                     cfg: Optional[IntegratorConfig] = None):
    """Solve Jdot = Df J along the orbit, J(0) = identity, in the two passes
    of the module docstring; returns J(T) and the end state of the orbit,
    which is `integrate`'s.  The default `cfg` is `IntegratorConfig()`."""
    Js, nodes = variational_segments(sys, state, T, 1, cfg)
    return Js[0], _end_state(nodes, state)


def variational_segments(sys: MagneticSystem, state: PhaseState, T: float,
                         segments: int, cfg: Optional[IntegratorConfig] = None):
    """The variational flow over `segments` equal segments of [0, T] along
    one orbit of `state`, integrated once: each segment is
    k = max(1, round(T / segments / h)) RK4 steps of size T / segments / k,
    and the step budget bounds all segments * k of them.  Returns `Js`
    (segments, 2n, 2n), J over each segment from the identity, and `nodes`
    (segments + 1, 2n), the orbit's nodes (x, v) at the segment ends, the
    start first.  The default `cfg` is `IntegratorConfig()`."""
    return _linear_flow(sys, state, T, cfg, partial(_generator_jacobians, sys),
                        np.eye(2 * sys.dim), "variational", segments)

