"""Tests for magnetic parallel transport, the frame flow, and holonomy."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magflow import (DomainExit, FrameState, GridMismatch, IntegratorConfig,
                     MagneticSystem, NotPeriodic, PhaseState, christoffel,
                     closed_orbit_holonomy, frame_flow, integrate,
                     magnetic_covariant_derivative, make_form, make_manifold,
                     parallel_transport)
from magflow.flow import _BLOCK_STEPS, generator

from conftest import MODEL_NAMES, strength, system, unit


# ---------------------------------------------------------------------------
# covariant derivative on stored grids


def test_cov_derivative_of_velocity_vanishes():
    # along a magnetic orbit, D(xdot) = 0 by the equation of motion
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    traj = integrate(sys, PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0),
                     2.0, IntegratorConfig(step=1e-3))
    n = sys.dim
    W = traj.states[:, n:]
    D = magnetic_covariant_derivative(sys, traj, W)
    interior = D[2:-2]
    assert np.all(np.isfinite(interior))
    assert np.max(np.abs(interior)) < 1e-6


def test_cov_derivative_constant_field_flat():
    # flat metric: DW = dW/dt - Y W = -Y W for a constant W
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    traj = integrate(sys, PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0),
                     1.0, IntegratorConfig(step=1e-3))
    W = np.tile([1.0, 0.0], (len(traj.times), 1))
    D = magnetic_covariant_derivative(sys, traj, W)
    # Y = [[0, -1], [1, 0]] for b=1, so -Y e1 = (0, -1)
    assert np.allclose(D[2:-2], [0.0, -1.0], atol=1e-10)


def test_cov_derivative_of_transported_field_vanishes():
    sys = system("poincare_disk", "area_form", b=1.0)
    x0 = np.array([0.1, 0.0])
    v0 = unit(sys.metric, x0, [0.3, 1.0])
    state = PhaseState(x=x0, v=v0, s=1.0)
    cfg = IntegratorConfig(step=1e-3)
    traj = integrate(sys, state, 1.0, cfg)
    # W at each node by one transport step from the node before; each step
    # runs the trajectory's own RK4 step, so W lies on its grid
    h = traj.times[1]
    W = [unit(sys.metric, x0, [0.0, 1.0])]
    for k in range(1, len(traj.times)):
        W.append(parallel_transport(sys, traj.state(k - 1), W[-1], h, cfg))
    D = magnetic_covariant_derivative(sys, traj, np.array(W))
    assert np.nanmax(np.abs(D)) < 1e-6


def test_cov_derivative_edge_nodes_nan():
    sys = system("euclidean", manifold_params={"dim": 2})
    traj = integrate(sys, PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0),
                     0.1, IntegratorConfig(step=1e-2))
    W = np.ones((len(traj.times), 2))
    D = magnetic_covariant_derivative(sys, traj, W)
    assert np.all(np.isnan(D[:2])) and np.all(np.isnan(D[-2:]))
    assert np.all(np.isfinite(D[2:-2]))


def test_cov_derivative_grid_mismatch():
    sys = system("euclidean", manifold_params={"dim": 2})
    traj = integrate(sys, PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0),
                     0.1, IntegratorConfig(step=1e-2))
    with pytest.raises(GridMismatch):
        magnetic_covariant_derivative(sys, traj,
                                      np.ones((len(traj.times) - 1, 2)))
    with pytest.raises(GridMismatch):
        magnetic_covariant_derivative(sys, traj, np.ones((len(traj.times), 3)))
    short = integrate(sys, PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0),
                      0.03, IntegratorConfig(step=1e-2))
    with pytest.raises(GridMismatch):
        magnetic_covariant_derivative(sys, short,
                                      np.ones((len(short.times), 2)))


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_flat_is_rotation():
    # flat metric, constant Y: W(t) = exp(tY) w0
    b = 1.3
    sys = system("euclidean", "constant", {"dim": 2}, b=b)
    state = PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0)
    w0 = np.array([1.0, 0.0])
    for t in (0.5, 1.0, 2.0):
        W = parallel_transport(sys, state, w0, t, IntegratorConfig(step=1e-3))
        expect = np.array([np.cos(b * t), np.sin(b * t)])
        assert np.allclose(W, expect, atol=1e-9)


def test_transport_preserves_metric_pairings():
    sys = system("poincare_disk", "area_form", b=1.0)
    x0 = np.array([0.2, -0.1])
    v0 = unit(sys.metric, x0, [1.0, 0.4])
    state = PhaseState(x=x0, v=v0, s=1.0)
    cfg = IntegratorConfig(step=1e-3)
    a0 = np.array([0.3, 0.8])
    b0 = np.array([-0.5, 0.2])
    g0 = sys.metric(x0)
    traj = integrate(sys, state, 3.0, cfg)
    xT = traj.states[-1][:2]
    aT = parallel_transport(sys, state, a0, 3.0, cfg)
    bT = parallel_transport(sys, state, b0, 3.0, cfg)
    gT = sys.metric(xT)
    assert abs(aT @ gT @ bT - a0 @ g0 @ b0) < 1e-8


def test_transport_domain_exit():
    sys = system("poincare_disk")
    x0 = np.array([0.0, 0.0])
    v0 = unit(sys.metric, x0, [1.0, 0.0])
    with pytest.raises(DomainExit):
        parallel_transport(sys, PhaseState(x=x0, v=v0, s=1.0),
                           [0.0, 1.0], 30.0, IntegratorConfig(step=1e-2))


def _coupled_rk4(sys, state, T, step, W0):
    """Reference: RK4 on the coupled state (x, v, W) with rows
    W' = Y W - Gamma(xdot, W), Y and Gamma evaluated at every stage."""
    n = sys.dim
    nsteps = max(1, int(round(T / step)))
    h = T / nsteps

    def f(y):
        x, v, W = y[:n], y[n:2 * n], y[2 * n:].reshape(-1, n)
        B = sys.lorentz(x) - np.einsum("ijk,j->ik", christoffel(sys.metric, x), v)
        return np.concatenate([generator(sys, x, v), (W @ B.T).ravel()])

    y = np.concatenate([state.x, state.v, W0.ravel()])
    for _ in range(nsteps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[2 * n:].reshape(W0.shape)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_transport_matches_coupled_rk4(name, rng):
    # the stage propagators applied along `integrate`'s orbit are the coupled
    # RK4 of (x, v, W) rearranged: same W up to rounding over more than two
    # blocks, and the end state of `integrate` to the bit
    chart, metric = make_manifold(name)
    n = chart.dim
    for form in ["zero", "constant"] + (["area_form"] if n == 2 else []):
        sys = MagneticSystem(chart, metric,
                             make_form(form, n, metric, chart, **strength(form, 1.3)))
        # a start well inside every chart, at half speed, so the orbit stays in
        x = (np.pi / 2 if name == "round_sphere" else 0.0) + rng.uniform(-0.3, 0.3, n)
        st = PhaseState(x=x, v=0.5 * unit(metric, x, rng.standard_normal(n)), s=0.5)
        step = 1e-2
        T = (2 * _BLOCK_STEPS + 5) * step
        cfg = IntegratorConfig(step=step)
        f0 = FrameState(state=st, completion=rng.standard_normal((n - 1, n)))
        f1 = frame_flow(sys, f0, T, cfg)
        ref = _coupled_rk4(sys, st, T, step, f0.completion)
        assert np.abs(f1.completion - ref).max() <= 1e-12 * np.abs(ref).max(), form
        w = parallel_transport(sys, st, f0.completion[0], T, cfg)
        assert np.abs(w - ref[0]).max() <= 1e-12 * np.abs(ref).max(), form
        final = integrate(sys, st, T, cfg).final
        assert np.array_equal(f1.state.x, final.x), form
        assert np.array_equal(f1.state.v, final.v), form


# ---------------------------------------------------------------------------
# frame flow


def test_frame_flow_gram_drift_small(model):
    name, chart, metric = model
    sys = system(name)
    lo, hi = chart.sample_bounds
    x0 = (np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float)) / 2
    v0 = unit(sys.metric, x0, np.arange(1.0, sys.dim + 1.0))
    f0 = FrameState.from_state(sys, PhaseState(x=x0, v=v0, s=1.0))
    assert f0.gram_drift(sys) < 1e-12
    f1 = frame_flow(sys, f0, 2.0, IntegratorConfig(step=1e-3))
    assert f1.gram_drift(sys) < 1e-9


def test_frame_flow_larmor_frame_returns():
    # R^3, b dx1^dx2: the orbit closes after 2*pi/b and so does the frame
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    x0 = np.zeros(3)
    v0 = np.array([1.0, 0.0, 0.0])
    f0 = FrameState.from_state(sys, PhaseState(x=x0, v=v0, s=1.0))
    f1 = frame_flow(sys, f0, 2 * np.pi, IntegratorConfig(step=1e-3))
    assert np.allclose(f1.state.x, x0, atol=1e-9)
    assert np.allclose(f1.completion, f0.completion, atol=1e-7)


def test_frame_flow_torus_constant():
    # flat torus, no field: transport is trivial, the frame is constant
    sys = system("flat_torus")
    x0 = np.array([1.0, 2.0])
    v0 = np.array([0.6, 0.8])
    f0 = FrameState.from_state(sys, PhaseState(x=x0, v=v0, s=1.0))
    f1 = frame_flow(sys, f0, 1.5, IntegratorConfig(step=1e-3))
    assert np.allclose(f1.completion, f0.completion, atol=1e-10)


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_larmor_identity():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    state = PhaseState(x=np.zeros(3), v=np.array([1.0, 0.0, 0.0]), s=1.0)
    hol = closed_orbit_holonomy(sys, state, 2 * np.pi,
                                IntegratorConfig(step=5e-3))
    assert hol.matrix.shape == (2, 2)
    assert np.allclose(hol.matrix, np.eye(2), atol=1e-6)
    assert abs(hol.period - 2 * np.pi) < 1e-6
    # orthogonality of the holonomy matrix
    assert np.allclose(hol.matrix.T @ hol.matrix, np.eye(2), atol=1e-6)


def test_holonomy_planar_scalar():
    sys = system("euclidean", "constant", {"dim": 2}, b=2.0)
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    hol = closed_orbit_holonomy(sys, state, np.pi,
                                IntegratorConfig(step=5e-3))
    assert hol.matrix.shape == (1, 1)
    assert abs(abs(hol.matrix[0, 0]) - 1.0) < 1e-6


def test_holonomy_not_periodic():
    sys = system("euclidean", manifold_params={"dim": 2})
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    with pytest.raises(NotPeriodic):
        closed_orbit_holonomy(sys, state, 1.0, IntegratorConfig(step=1e-2))


def test_holonomy_integrates_once_and_flows_the_frame_once(monkeypatch):
    # one dense orbit refines the period and one frame flow to it gives both
    # the holonomy and the return distance
    from magflow import flow, transport
    sys = system("euclidean", "constant", {"dim": 2}, b=2.0)
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    orbits, frames = [], []
    integrate_, frame_flow_ = flow.integrate, transport.frame_flow

    def counted(*args, **kwargs):
        orbits.append(args[2])
        return integrate_(*args, **kwargs)

    def recorded(*args, **kwargs):
        frames.append((args[2], frame_flow_(*args, **kwargs)))
        return frames[-1][1]

    monkeypatch.setattr(flow, "integrate", counted)
    monkeypatch.setattr(transport, "integrate", counted)
    monkeypatch.setattr(transport, "frame_flow", recorded)
    hol = closed_orbit_holonomy(sys, state, np.pi, IntegratorConfig(step=5e-3))
    assert len(orbits) == 1
    ((tau, end),) = frames
    z0 = np.concatenate([state.x, state.v])
    assert hol.period == tau
    assert hol.return_distance == float(np.linalg.norm(
        np.concatenate([end.state.x, end.state.v]) - z0))


def test_holonomy_guess_below_two_steps_rejected(monkeypatch):
    # a window [0.9, 1.1] x guess that begins before two steps is rejected
    # as an argument before the frame flow runs: the period would fall near
    # the start of the orbit, where the return distance is 0
    from magflow import transport
    sys = system("euclidean", "constant", {"dim": 2}, b=2.0)
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    guess, periods = 1e-3, []
    frame_flow_ = transport.frame_flow

    def recorded(*args, **kwargs):
        periods.append(args[2])
        return frame_flow_(*args, **kwargs)

    monkeypatch.setattr(transport, "frame_flow", recorded)
    with pytest.raises(ValueError, match="^period_guess = 0.001"):
        closed_orbit_holonomy(sys, state, guess, IntegratorConfig(step=1e-2))
    assert periods == []


def test_holonomy_guess_near_zero_rejected():
    # on the disk every orbit returns within O(t) of its start, so a guess
    # of 1e-6 at step 0.01 would otherwise give a period near 9e-7
    sys = system("poincare_disk", "area_form", b=1.0)
    state = PhaseState(x=np.array([0.1, 0.0]),
                       v=unit(sys.metric, [0.1, 0.0], [1.0, 0.0]), s=1.0)
    with pytest.raises(ValueError, match="two steps"):
        closed_orbit_holonomy(sys, state, 1e-6, IntegratorConfig(step=1e-2))


def test_holonomy_escaping_orbit_not_periodic():
    # speed 4 above the field strength 1: the orbit leaves the disk
    sys = system("poincare_disk", "area_form", b=1.0)
    x0 = np.zeros(2)
    state = PhaseState(x=x0, v=4.0 * unit(sys.metric, x0, [1.0, 0.0]), s=4.0)
    with pytest.raises(NotPeriodic):
        closed_orbit_holonomy(sys, state, 3.0, IntegratorConfig(step=1e-2))


def test_holonomy_blown_up_orbit_not_periodic():
    # vdot = 10 |v|^2 v blows up at t = 0.05, long before the guess
    chart, metric = make_manifold("euclidean", dim=2)
    sys = MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                         vertical_field=lambda x, v: 10.0 * v * (v @ v))
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    with np.errstate(all="ignore"), pytest.raises(NotPeriodic):
        closed_orbit_holonomy(sys, state, 1.0, IntegratorConfig(step=1e-2))


@pytest.mark.parametrize("guess", [0.0, -1.0])
def test_holonomy_rejects_nonpositive_guess(guess):
    sys = system("euclidean", "constant", {"dim": 2}, b=2.0)
    state = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    with pytest.raises(ValueError):
        closed_orbit_holonomy(sys, state, guess, IntegratorConfig(step=1e-2))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(b=st.floats(0.5, 6.0),
       x=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       angle=st.floats(0.0, 2 * np.pi),
       factor=st.floats(0.95, 1.05))
def test_holonomy_larmor_property(b, x, angle, factor):
    # R^3, b dx1^dx2, velocity in the x1x2-plane: a circle of period 2 pi/b
    # along which the frame returns to itself
    sys = system("euclidean", "constant", {"dim": 3}, b=b)
    period = 2 * np.pi / b
    state = PhaseState(x=x, v=[np.cos(angle), np.sin(angle), 0.0], s=1.0)
    hol = closed_orbit_holonomy(sys, state, factor * period,
                                IntegratorConfig(step=1e-2))
    assert abs(hol.period - period) <= 1e-6 * period
    assert np.max(np.abs(hol.matrix - np.eye(2))) <= 1e-6


# ---------------------------------------------------------------------------
# base path consistency


def test_transport_base_path_matches_integrate():
    sys = system("poincare_disk", "area_form", b=1.0)
    x0 = np.array([0.1, 0.2])
    v0 = unit(sys.metric, x0, [1.0, -0.5])
    state = PhaseState(x=x0, v=v0, s=1.0)
    cfg = IntegratorConfig(step=1e-3)
    traj = integrate(sys, state, 2.0, cfg)
    f0 = FrameState.from_state(sys, state)
    f1 = frame_flow(sys, f0, 2.0, cfg)
    assert np.array_equal(f1.state.x, traj.states[-1][:2])
    assert np.array_equal(f1.state.v, traj.states[-1][2:])
