import numpy as np
import pytest

from magflow import (IntegratorConfig, MagneticSystem, PhaseState,
                     christoffel, connector_split, dynamical_exp, integrate,
                     make_form, make_manifold, oddness_residual,
                     variational_flow)
from magflow.flow import _var_rhs, generator, generator_jacobian
from magflow.geometry import dchristoffel
from magflow.transport import _transport_rhs

from conftest import counted_system, system, unit


# -- generator -------------------------------------------------------------

def test_generator_straight_line():
    sys = system("euclidean", "zero", {"dim": 2})
    out = generator(sys, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_generator_larmor_acceleration():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    out = generator(sys, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_generator_matches_orbit_second_derivative():
    # v-dot from the generator vs a central difference of the orbit itself
    sys = system("poincare_disk", "zero")
    x0, v0 = np.array([0.1, 0.05]), np.array([0.3, -0.2])
    traj = integrate(sys, PhaseState(x=x0, v=v0,
                                     s=sys.metric.norm(x0, v0)),
                     2e-3, IntegratorConfig(step=1e-3))
    n = 2
    fd = (traj.states[2, n:] - traj.states[0, n:]) / (2e-3)
    mid = traj.states[1]
    assert np.abs(fd - generator(sys, mid[:n], mid[n:])[n:]).max() < 1e-8


def test_semi_spray_consistency(rng):
    # connector split of the generator: horizontal = v, vertical = X_V
    for name in ("euclidean", "poincare_disk"):
        sys = system(name, "constant" if name == "euclidean" else "area_form",
                     b=1.0)
        x = sys.chart.sample_point(rng)
        v = rng.standard_normal(2)
        split = connector_split(sys.metric, x, v, generator(sys, x, v))
        assert np.array_equal(split.horizontal, v)
        assert np.abs(split.vertical - sys.lorentz(x) @ v).max() < 1e-12


@pytest.mark.parametrize("name, form, params", [
    ("round_sphere", "zero", {}),
    ("poincare_disk", "area_form", {"b": 1.0}),
    ("poincare_ball", "constant", {"b": 2.0}),
])
def test_geometry_evaluated_once_per_point(name, form, params):
    # one RK4 stage of every flow evaluates the metric and runs the chart
    # guard exactly once, at its single point
    sys, calls = counted_system(name, form, **params)
    n = sys.dim
    x = np.full(n, 1.0) if name == "round_sphere" else np.full(n, 0.2)
    v = np.linspace(0.3, -0.4, n)
    stages = {
        "generator": lambda: generator(sys, x, v),
        "variational": lambda: _var_rhs(
            sys, np.concatenate([x, v, np.eye(2 * n).ravel()]), n),
        "transport": lambda: _transport_rhs(
            sys, np.concatenate([x, v, np.eye(n)[1:].ravel()]), n, n - 1),
    }
    for stage, run in stages.items():
        calls.update(metric=0, guard=0)
        run()
        assert calls == {"metric": 1, "guard": 1}, stage


def test_generator_and_jacobian_match_tensor_formulas(rng):
    # the folded g^-1 products agree with the tensor-by-tensor formulas
    # vdot = -Gamma(v, v) + Y v and its derivatives in x and v
    for name, form, kw in [("euclidean", "constant", {"b": 1.0}),
                           ("round_sphere", "zero", {}),
                           ("poincare_disk", "area_form", {"b": 1.5}),
                           ("poincare_ball", "constant", {"b": 0.7})]:
        sys = system(name, form, **kw)
        n = sys.dim
        for _ in range(3):
            x = sys.chart.sample_point(rng)
            v = rng.standard_normal(n)
            G, dG = christoffel(sys.metric, x), dchristoffel(sys.metric, x)
            Y, dY = sys.lorentz(x), sys.dlorentz(x)
            acc = -np.einsum("ijk,j,k->i", G, v, v) + Y @ v
            dx = (-np.einsum("ijkm,j,k->im", dG, v, v)
                  + np.einsum("ijk,j->ik", dY, v))
            dv = -2.0 * np.einsum("ijk,k->ij", G, v) + Y
            J = generator_jacobian(sys, x, v)
            scale = 1.0 + np.abs(dx).max()
            assert np.abs(generator(sys, x, v)[n:] - acc).max() < 1e-12 * scale
            assert np.abs(J[n:, :n] - dx).max() < 1e-12 * scale
            assert np.abs(J[n:, n:] - dv).max() < 1e-12 * scale
            assert np.array_equal(J[:n], np.hstack([np.zeros((n, n)),
                                                    np.eye(n)]))


# -- integrate -------------------------------------------------------------

def test_larmor_circle_closure():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    traj = integrate(sys, st, 2 * np.pi, IntegratorConfig(step=1e-3))
    assert np.abs(traj.states[-1] - traj.states[0]).max() < 1e-6
    # closed form x(t) = (sin t, 1 - cos t) at an interior node
    i = len(traj.times) // 2
    t = traj.times[i]
    assert np.abs(traj.states[i, :2]
                  - [np.sin(t), 1 - np.cos(t)]).max() < 1e-9


def test_disk_diameter_geodesic_stays_on_axis():
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0]))
    traj = integrate(sys, st, 3.0, IntegratorConfig(step=1e-3))
    assert np.abs(traj.states[:, 1]).max() < 1e-9
    assert not traj.exited


def test_speed_drift_small_and_fourth_order():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.1, 0.0])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([1.0, 0.4])))
    drift = {}
    for h in (1e-3, 5e-4):
        traj = integrate(sys, st, 10.0, IntegratorConfig(step=h))
        drift[h] = traj.speed_drift
    assert drift[1e-3] < 1e-7
    # RK4: halving the step shrinks the drift by ~2^4
    assert drift[5e-4] < drift[1e-3] / 8


def test_exit_returns_partial_trajectory():
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0]))
    traj = integrate(sys, st, 50.0, IntegratorConfig(step=1e-2))
    assert traj.exited
    assert traj.times[-1] < 50.0
    assert np.abs(traj.states[-1, :2]).max() < 1.0


def test_renormalization_pins_speed():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.1, 0.0])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([1.0, 0.4])))
    traj = integrate(sys, st, 5.0,
                     IntegratorConfig(step=1e-2, renormalize_speed=True))
    assert traj.speed_drift < 1e-13


def test_trajectory_csv_header():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    traj = integrate(sys, PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0])),
                     0.01, IntegratorConfig(step=1e-3))
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2,speed_drift"
    assert len(lines) == len(traj.times) + 1


# -- dynamical exponential -------------------------------------------------

def test_exp_zero_vector_is_identity():
    sys = system("poincare_disk", "area_form", b=1.0)
    x = np.array([0.2, -0.1])
    assert np.array_equal(dynamical_exp(sys, x, np.zeros(2)), x)


def test_exp_larmor_quarter_circle():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    y = dynamical_exp(sys, np.zeros(2), np.array([np.pi / 2, 0.0]),
                      IntegratorConfig(step=1e-3))
    assert np.abs(y - [1.0, 1.0]).max() < 1e-8


def test_exp_geodesic_reduction_disk():
    # radial profile tanh(t/2) of the hyperbolic exponential at the origin
    sys = system("poincare_disk", "zero")
    cfg = IntegratorConfig(step=1e-3)
    for t in (0.5, 1.0, 2.0):
        y = dynamical_exp(sys, np.zeros(2), np.array([t / 2, 0.0]), cfg)
        assert np.abs(y - [np.tanh(t / 2), 0.0]).max() < 1e-8


# -- oddness ---------------------------------------------------------------

def test_oddness_magnetic_default(rng):
    sys = system("poincare_disk", "area_form", b=1.0)
    x = sys.chart.sample_point(rng)
    res = oddness_residual(sys, x, rng.standard_normal(2))
    assert res[0] < 1e-12 and res[1] < 1e-12


def test_oddness_constant_field_fails():
    chart, metric = make_manifold("euclidean", dim=2)
    from magflow.forms import make_form
    c = np.array([0.3, 0.4])
    sys = MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                         vertical_field=lambda x, v: c)
    res = oddness_residual(sys, np.zeros(2), np.array([1.0, 0.0]))
    assert res[0] < 1e-12
    assert res[1] == pytest.approx(2 * np.linalg.norm(c), abs=1e-12)


def test_oddness_cubic_field_passes():
    chart, metric = make_manifold("euclidean", dim=2)
    from magflow.forms import make_form
    sys = MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                         vertical_field=lambda x, v: v * (v @ v))
    res = oddness_residual(sys, np.zeros(2), np.array([1.0, 2.0]))
    assert res[1] < 1e-12


# -- variational flow ------------------------------------------------------

def test_variational_free_flow_closed_form():
    sys = system("euclidean", "zero", {"dim": 2})
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    T = 1.7
    J = variational_flow(sys, st, T, IntegratorConfig(step=1e-2))
    expect = np.eye(4)
    expect[:2, 2:] = T * np.eye(2)
    assert np.abs(J - expect).max() < 1e-12


def test_variational_flow_direction_equivariance():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.1, 0.0])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([1.0, 0.4])))
    cfg = IntegratorConfig(step=1e-3)
    J, end = variational_flow(sys, st, 2.0, cfg, return_final_state=True)
    lhs = J @ generator(sys, st.x, st.v)
    rhs = generator(sys, end.x, end.v)
    assert np.abs(lhs - rhs).max() < 1e-6


def test_variational_vs_finite_differences():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.15, -0.1])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([0.8, 0.5])))
    cfg = IntegratorConfig(step=5e-3)
    T, delta = 0.5, 1e-6
    J = variational_flow(sys, st, T, cfg)
    y0 = np.concatenate([st.x, st.v])
    for j in range(4):
        e = np.zeros(4)
        e[j] = delta
        plus = integrate(sys, PhaseState(x=y0[:2] + e[:2], v=y0[2:] + e[2:],
                                         s=st.s), T, cfg).states[-1]
        minus = integrate(sys, PhaseState(x=y0[:2] - e[:2], v=y0[2:] - e[2:],
                                          s=st.s), T, cfg).states[-1]
        col = (plus - minus) / (2 * delta)
        assert np.abs(col - J[:, j]).max() / max(np.abs(J[:, j]).max(), 1.0) \
            < 1e-4


# -- rescaling equivalence -------------------------------------------------

@pytest.mark.parametrize("s", [0.5, 2.0])
def test_rescaling_equivalence(s):
    sys = system("poincare_disk", "area_form", b=4.0)
    x0 = np.array([0.1, 0.0])
    v = unit(sys.metric, x0, np.array([1.0, 0.3])) * s
    cfg = IntegratorConfig(step=1e-2)
    orig = integrate(sys, PhaseState(x=x0, v=v, s=s), 10.0, cfg)
    resc = integrate(sys.rescale(s), PhaseState(x=x0, v=v, s=1.0), 10.0, cfg)
    assert np.abs(orig.states - resc.states).max() < 1e-8
