import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magflow import (IntegratorConfig, MagneticSystem, MetricField, PhaseState,
                     augmented_exp, candidate_submanifold, christoffel,
                     conjugate_point_scan, connector_split, dynamical_exp,
                     integrate, lyapunov_spectrum, make_form, make_manifold,
                     oddness_residual, op_R, parallel_transport,
                     variational_flow, volume_drift)
from magflow.errors import (DomainExit, DomainViolation, NonpositiveSpeed,
                            StepLimitExceeded)
from magflow.flow import (_BLOCK_STEPS, _rk4_path, _stage, generator,
                          generator_jacobian)
from magflow.geometry import dchristoffel

from conftest import MODEL_NAMES, counted_system, strength, system, unit


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
    ("euclidean", "constant", {"b": 1.0}),
])
def test_geometry_evaluated_once_per_point(name, form, params):
    # one RK4 stage of every flow evaluates the metric and runs the chart
    # guard exactly once, at its single point; a chart without a guard runs
    # none.  A lean stage reads the float closure `spray` in place of the
    # metric and builds no `PointGeometry`, also on the rescaled system
    # (s^-2 g, s^-2 sigma); without `spray` the stage takes the
    # `PointGeometry` path and evaluates the metric itself
    for broadcasts in (False, True):
        for lean in (True, False):
            sys, calls = counted_system(name, form, broadcasts, lean, **params)
            guarded = sys.chart.domain_guard is not None
            n = sys.dim
            x = np.full(n, 1.0) if name == "round_sphere" else np.full(n, 0.2)
            v = np.linspace(0.3, -0.4, n)
            st, cfg = PhaseState(x=x, v=v), IntegratorConfig(step=1e-2)
            stage = {"metric": int(not lean), "spray": int(lean)}
            # the metric on a batch of B points: once, or once per point
            batch = (lambda B: 1) if broadcasts else (lambda B: B)
            for s in (1.0, 1.7):
                resc = sys.rescale(s)
                calls.update(metric=0, spray=0, guard=0)
                generator(resc, x, v)
                assert calls == {**stage, "guard": int(guarded)}, (
                    "generator", s, lean)
                # one RK4 step: its four stages, and the guard calls at the
                # start point and the new node.  `integrate` then reads the
                # metric on its two nodes for the speed drift; the linear
                # flows' block pass rebuilds the geometry at the four
                # recorded stage points, and runs no guard
                flows = {
                    "integrate": (lambda: integrate(resc, st, 1e-2, cfg), 2),
                    "variational": (lambda: variational_flow(
                        resc, st, 1e-2, cfg), 4),
                    "transport": (lambda: parallel_transport(
                        resc, st, np.eye(n)[1], 1e-2, cfg), 4),
                }
                for flow, (run, points) in flows.items():
                    calls.update(metric=0, spray=0, guard=0)
                    run()
                    assert calls == {"metric": 4 * stage["metric"]
                                     + batch(points),
                                     "spray": 4 * stage["spray"],
                                     "guard": 6 * guarded}, (
                                         flow, s, broadcasts, lean)


_PAIRS = [(name, form) for name in MODEL_NAMES
          for form in ("zero", "constant", "area_form")
          if form != "area_form" or make_manifold(name)[0].dim == 2]


@pytest.mark.parametrize("name, form", _PAIRS)
def test_lean_stage_matches_point_geometry_stage(name, form):
    # the float stage and the `PointGeometry` stage (the same model with its
    # `spray` withheld) give the same orbit and the same variational J
    # over more than two blocks, on the model and rescaled
    assert len(_PAIRS) == 14
    lean, generic = (system(name, form, **strength(form, 1.3)) for _ in "ab")
    generic.metric.spray = None
    n = lean.dim
    x = np.full(n, 1.0) if name == "round_sphere" else np.full(n, 0.1)
    v = unit(lean.metric, x, np.linspace(0.3, -0.4, n))
    cfg = IntegratorConfig(step=1e-2)
    T = (2 * _BLOCK_STEPS + 10) * cfg.step
    for s in (1.0, 1.7):
        a, b = lean.rescale(s), generic.rescale(s)
        assert a.metric.spray is not None and b.metric.spray is None
        st = PhaseState(x=x, v=v)
        ta, tb = integrate(a, st, T, cfg), integrate(b, st, T, cfg)
        assert not ta.exited and ta.states.shape == tb.states.shape
        Ja, Jb = (variational_flow(c, st, T, cfg)[0] for c in (a, b))
        # fast along the first coordinate, an orbit leaves a guarded chart,
        # and both stages end it at the same node
        fast = PhaseState(x=x, v=20.0 * unit(a.metric, x, np.eye(n)[0]))
        ea, eb = integrate(a, fast, T, cfg), integrate(b, fast, T, cfg)
        assert ea.exited == eb.exited == (a.chart.domain_guard is not None)
        assert ea.states.shape == eb.states.shape
        for p, q in ((ta.states, tb.states), (Ja, Jb), (ea.states, eb.states)):
            assert np.abs(p - q).max() <= 1e-12 * np.abs(q).max(), (s, p, q)
        # T = 0 takes no step, and the step budget holds on both stages
        for c in (a, b):
            start = integrate(c, st, 0.0, cfg)
            assert np.array_equal(start.states, [np.concatenate([x, v])])
            assert np.array_equal(start.times, [0.0])
            with pytest.raises(StepLimitExceeded):
                integrate(c, st, T, IntegratorConfig(step=1e-2, max_steps=10))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_PAIRS),
       unit_point=st.lists(st.floats(0.25, 0.75), min_size=3, max_size=3),
       v=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       b=st.floats(-3, 3))
def test_time_reversal(pair, unit_point, v, b):
    # the orbit of (x(T), -v(T)) under -sigma returns to (x0, -v0) at T.
    # RK4 is of order 4, so each leg errs by O(T h^4) and the round trip by
    # at most their sum: halving h shrinks the defect at least 16-fold, down
    # to roundoff.  From the middle of the sample box, a unit-speed orbit
    # stays in the chart up to T = 0.5
    name, form = pair
    fw, bw = (system(name, form, **strength(form, c)) for c in (b, -b))
    lo, hi = fw.chart.sample_bounds
    x = lo + (hi - lo) * np.array(unit_point[:fw.dim])
    assume(np.abs(v[:fw.dim]).max() > 0.1)
    v0 = unit(fw.metric, x, v[:fw.dim])
    defects = []
    for h in (0.05, 0.025):
        cfg = IntegratorConfig(step=h)
        end = integrate(fw, PhaseState(x=x, v=v0), 0.5, cfg).final
        back = integrate(bw, PhaseState(x=end.x, v=-end.v,
                                        s=fw.metric.norm(end.x, end.v)),
                         0.5, cfg)
        assert not back.exited
        defects.append(np.abs(np.concatenate([back.final.x - x,
                                              back.final.v + v0])).max())
    assert defects[1] <= defects[0] / 16 + 1e-12, defects


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


def test_speed_drift_is_measured_from_the_first_node(caplog):
    # on the disk, v = (1, 0) at the origin has g-speed 2, not the nominal
    # 1: the drift is measured from the first node's g-speed, and the
    # mismatch is logged once
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]), s=1.0)
    with caplog.at_level("WARNING", logger="magflow.flow"):
        traj = integrate(sys, st, 1.0, IntegratorConfig(step=1e-2))
    assert traj.drift_per_node[0] == 0.0
    assert traj.speed_drift < 1e-8
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("magflow.flow", "WARNING")]
    caplog.clear()
    with caplog.at_level("WARNING", logger="magflow.flow"):
        integrate(sys, PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0])),
                  1.0, IntegratorConfig(step=1e-2))
    assert not caplog.records


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


def test_rk4_node_times_land_on_the_horizon():
    # node k sits at k * (T / nsteps), not at a running sum of steps, so the
    # last node is T to within one ulp
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    for T, h in [(10.0, 1e-3), (2 * np.pi, 1e-3), (0.7, 1e-2), (3.3, 7e-3)]:
        times = integrate(sys, st, T, IntegratorConfig(step=h)).times
        k = np.arange(len(times))
        assert np.array_equal(times, k * (T / (len(times) - 1)))
        assert abs(times[-1] - T) <= np.spacing(T), (T, h)


def _array_rk4(sys, acc, x, v, T, step):
    """Reference: RK4 on the array y = (x, v), with the stage `acc` at each
    stage's lists and the chart guard at each new node; returns the nodes
    and whether the orbit left the chart."""
    n = sys.dim
    nsteps = max(int(T > 0), int(round(T / step)))
    hh = T / max(nsteps, 1)

    def f(y):
        return np.concatenate([y[n:], acc(y[:n].tolist(), y[n:].tolist())])

    y = np.concatenate([x, v])
    path = [y]
    for _ in range(nsteps):
        try:
            k1 = f(y)
            k2 = f(y + 0.5 * hh * k1)
            k3 = f(y + 0.5 * hh * k2)
            k4 = f(y + hh * k3)
        except DomainViolation:
            return np.array(path), True
        y = y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not sys.chart.contains(y[:n]):
            return np.array(path), True
        path.append(y)
    return np.array(path), False


@pytest.mark.parametrize("case", ["poincare_disk-area_form", "round_sphere3-constant",
                                  "rescaled-ball-constant", "fd-only-metric",
                                  "custom-vertical-field", "escaping-disk"])
def test_rk4_driver_matches_array_rk4(case):
    # the list driver takes the array RK4's steps to the bit, given the same
    # stage, and stops where it leaves the chart; the node times are k h
    escaping = case == "escaping-disk"
    sys = (system("poincare_disk", "zero") if escaping
           else _VARIATIONAL_CASES[case]())
    n = sys.dim
    x = np.full(n, np.pi / 2 - 0.2) if "sphere" in case else np.full(n, 0.1)
    v = (1.0 if escaping else 0.5) * unit(sys.metric, x, np.linspace(0.3, -0.4, n))
    cfg = IntegratorConfig(step=1e-2)
    T = 10.0 if escaping else 1.23
    stage = _stage(sys)
    times, path, exited = _rk4_path(sys, x.tolist(), v.tolist(), T, cfg)
    ref, ref_exited = _array_rk4(sys, stage, x, v, T, cfg.step)
    assert exited == ref_exited == escaping
    assert np.array_equal(path, ref)
    assert np.array_equal(times, np.arange(len(ref)) * (T / round(T / cfg.step)))


def test_huge_speed_exits_without_a_warning():
    # at speed 1e200 the float stage overflows to inf and nan, never to an
    # exception or a floating-point warning, and the first stage step
    # leaves the disk: a flagged partial trajectory of the initial node
    sys = system("poincare_disk", "area_form", b=1.0)
    x = np.array([0.1, 0.0])
    st = PhaseState(x=x, v=1e200 * unit(sys.metric, x, [1.0, 0.5]), s=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sys, st, 1.0, IntegratorConfig(step=1e-2))
    assert traj.exited
    assert np.array_equal(traj.states, [np.concatenate([st.x, st.v])])


def test_negative_horizon_rejected():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    for run in (integrate, variational_flow):
        with pytest.raises(ValueError, match="nonnegative"):
            run(sys, st, -3.0, IntegratorConfig(step=1e-2))


_NAN = float("nan")
_X, _V, _E = [0.1, 0.0], [0.5, 0.0], np.eye(2)[:, :1]


@pytest.mark.parametrize("check, error", [
    (lambda sys: PhaseState(x=_X, v=_V, s=_NAN), NonpositiveSpeed),
    (lambda sys: sys.rescale(_NAN), NonpositiveSpeed),
    (lambda sys: IntegratorConfig(step=_NAN), ValueError),
    (lambda sys: op_R(sys, _NAN, _X, _V), NonpositiveSpeed),
    (lambda sys: lyapunov_spectrum(sys, PhaseState(x=_X, v=_V), _NAN),
     ValueError),
    (lambda sys: volume_drift(sys, PhaseState(x=_X, v=_V), _NAN), ValueError),
    (lambda sys: conjugate_point_scan(sys, _X, _V, _NAN, 4), ValueError),
    (lambda sys: candidate_submanifold(sys, _X, _E, _NAN), ValueError),
    (lambda sys: augmented_exp(sys, _X, _E, _V, _NAN), ValueError),
], ids=["state_speed", "rescale", "step", "op_R_speed", "lyapunov_T",
        "volume_T", "conjugate_t_max", "radius", "augmented_t"])
def test_nan_fails_every_positivity_check(check, error):
    # each check is written so that NaN, which compares false with 0 both
    # ways, is not taken for a positive number
    with pytest.raises(error, match="positive"):
        check(system("poincare_disk", "area_form", b=1.0))


def test_trajectory_csv_matches_per_element_formatting():
    # the rows are the repr of every float, as formatting each element on
    # its own gives, and an exited orbit ends in `# exited,True`
    sys = system("poincare_ball", "constant", b=0.5)
    x = np.array([0.1, -0.2, 0.05])
    st = PhaseState(x=x, v=unit(sys.metric, x, [0.3, 0.5, -0.2]))
    traj = integrate(sys, st, 50.0, IntegratorConfig(step=1e-2))
    assert traj.exited
    rows = ["t,x1,x2,x3,v1,v2,v3,speed_drift"]
    for t, y, d in zip(traj.times, traj.states, traj.drift_per_node):
        rows.append(",".join([repr(float(t))] + [repr(float(u)) for u in y]
                             + [repr(float(d))]))
    assert traj.to_csv() == "\n".join(rows + ["# exited,True", ""])


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
    assert oddness_residual(sys, x, rng.standard_normal(2)) < 1e-12


def test_oddness_constant_field_fails():
    chart, metric = make_manifold("euclidean", dim=2)
    from magflow.forms import make_form
    c = np.array([0.3, 0.4])
    sys = MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                         vertical_field=lambda x, v: c)
    res = oddness_residual(sys, np.zeros(2), np.array([1.0, 0.0]))
    assert res == pytest.approx(2 * np.linalg.norm(c), abs=1e-12)


def test_oddness_cubic_field_passes():
    chart, metric = make_manifold("euclidean", dim=2)
    from magflow.forms import make_form
    sys = MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                         vertical_field=lambda x, v: v * (v @ v))
    assert oddness_residual(sys, np.zeros(2), np.array([1.0, 2.0])) < 1e-12


# -- variational flow ------------------------------------------------------

def test_variational_free_flow_closed_form():
    sys = system("euclidean", "zero", {"dim": 2})
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    T = 1.7
    J, _ = variational_flow(sys, st, T, IntegratorConfig(step=1e-2))
    expect = np.eye(4)
    expect[:2, 2:] = T * np.eye(2)
    assert np.abs(J - expect).max() < 1e-12


def test_variational_flow_direction_equivariance():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.1, 0.0])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([1.0, 0.4])))
    cfg = IntegratorConfig(step=1e-3)
    J, end = variational_flow(sys, st, 2.0, cfg)
    lhs = J @ generator(sys, st.x, st.v)
    rhs = generator(sys, end.x, end.v)
    assert np.abs(lhs - rhs).max() < 1e-6


def test_variational_vs_finite_differences():
    sys = system("poincare_disk", "area_form", b=2.0)
    x0 = np.array([0.15, -0.1])
    st = PhaseState(x=x0, v=unit(sys.metric, x0, np.array([0.8, 0.5])))
    cfg = IntegratorConfig(step=5e-3)
    T, delta = 0.5, 1e-6
    J, _ = variational_flow(sys, st, T, cfg)
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


def _coupled_rk4(sys, state, T, step, J0):
    """Reference: RK4 on the coupled state (x, v, J) with Jdot = Df J, Df
    from `generator_jacobian` at every stage."""
    n = sys.dim
    nsteps = max(1, int(round(T / step)))
    h = T / nsteps

    def f(y):
        x, v, J = y[:n], y[n:2 * n], y[2 * n:].reshape(2 * n, -1)
        return np.concatenate([generator(sys, x, v),
                               (generator_jacobian(sys, x, v) @ J).ravel()])

    y = np.concatenate([state.x, state.v, J0.ravel()])
    for _ in range(nsteps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[2 * n:].reshape(J0.shape)


def _fd_only_disk():
    chart, metric = make_manifold("poincare_disk")
    fd = MetricField(metric.raw, chart=chart)       # no derivative closures
    return MagneticSystem(chart, fd, make_form("area_form", 2, fd, chart, b=1.5))


def _custom_field_disk():
    chart, metric = make_manifold("poincare_disk")
    return MagneticSystem(chart, metric, make_form("zero", 2, metric, chart),
                          vertical_field=lambda x, v: (1.0 + x[0]) * np.array(
                              [-v[1], v[0]]) + 0.3 * x[1] * v * (v @ v))


_VARIATIONAL_CASES = {
    **{f"{name}-{form}": (lambda name=name, form=form:
                          system(name, form, **strength(form, 1.3)))
       for name in ("euclidean", "flat_torus", "poincare_disk", "round_sphere")
       for form in ("zero", "constant", "area_form")},
    "poincare_ball-zero": lambda: system("poincare_ball", "zero"),
    "poincare_ball-constant": lambda: system("poincare_ball", "constant", b=0.8),
    "round_sphere3-constant": lambda: system("round_sphere", "constant",
                                             {"dim": 3}, b=0.6),
    "rescaled-disk-area_form": lambda: system("poincare_disk", "area_form",
                                              b=2.0).rescale(1.7),
    "rescaled-ball-constant": lambda: system("poincare_ball", "constant",
                                             b=1.0).rescale(0.6),
    "custom-vertical-field": _custom_field_disk,
    "fd-only-metric": _fd_only_disk,
    "rescaled-fd-only-metric": lambda: _fd_only_disk().rescale(1.5),
}


@pytest.mark.parametrize("case", sorted(_VARIATIONAL_CASES))
def test_variational_flow_matches_coupled_rk4(case, rng):
    # the two-pass scheme is the coupled RK4 of (state, J) rearranged: same
    # J up to rounding, and the orbit of `integrate` to the bit, over more
    # than two blocks; J J0 is the flow started at a J0 of fewer columns
    sys = _VARIATIONAL_CASES[case]()
    n = sys.dim
    # a start well inside every chart, at half speed, so the orbit stays in
    x = (np.pi / 2 if "sphere" in case else 0.0) + rng.uniform(-0.3, 0.3, n)
    st = PhaseState(x=x, v=0.5 * unit(sys.metric, x, rng.standard_normal(n)),
                    s=0.5)
    step = 1e-2
    T = (2 * _BLOCK_STEPS + 5) * step
    cfg = IntegratorConfig(step=step)
    J, end = variational_flow(sys, st, T, cfg)
    for J0 in (np.eye(2 * n), rng.standard_normal((2 * n, n))):
        ref = _coupled_rk4(sys, st, T, step, J0)
        assert np.abs(J @ J0 - ref).max() <= 1e-12 * np.abs(ref).max(), case
    final = integrate(sys, st, T, cfg).final
    assert np.array_equal(end.x, final.x) and np.array_equal(end.v, final.v)


def test_variational_d2g_once_per_block():
    # the second derivatives of the metric are evaluated on a whole block of
    # stages at once, not at each of the 4N stages
    chart, metric = make_manifold("poincare_ball")
    calls = []

    def d2g(x):
        calls.append(np.shape(x))
        return metric.d2g(x)

    counted = MetricField(metric.raw, dg=metric.dg, d2g=d2g, chart=chart,
                          broadcasts=True)
    sys = MagneticSystem(chart, counted,
                         make_form("constant", 3, counted, chart, b=1.0))
    x = np.array([0.1, -0.2, 0.05])
    st = PhaseState(x=x, v=unit(counted, x, np.array([0.3, 0.5, -0.2])))
    cfg = IntegratorConfig(step=1e-2)
    variational_flow(sys, st, (2 * _BLOCK_STEPS + 3) * 1e-2, cfg)
    assert calls == [(4 * _BLOCK_STEPS, 3)] * 2 + [(12, 3)]
    calls.clear()                       # an orbit of exactly one block
    variational_flow(sys, st, _BLOCK_STEPS * 1e-2, cfg)
    assert calls == [(4 * _BLOCK_STEPS, 3)]


def test_variational_flow_keeps_exit_and_step_limit():
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0]))
    with pytest.raises(DomainExit):
        variational_flow(sys, st, 50.0, IntegratorConfig(step=1e-2))
    with pytest.raises(StepLimitExceeded):
        variational_flow(sys, st, 1.0, IntegratorConfig(step=1e-2, max_steps=10))


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
