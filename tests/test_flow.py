import math
import warnings
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from magflow import (ChartSpec, FrameState, IntegratorConfig, MagneticSystem,
                     MetricField, PhaseState, augmented_exp,
                     candidate_submanifold, christoffel,
                     conjugate_point_scan, dynamical_exp, frame_flow, integrate, lyapunov_spectrum,
                     make_form, make_manifold, oddness_residual, op_R,
                     parallel_transport, TwoFormField, variational_flow,
                     volume_drift)
from magflow.diagnostics import sasaki_frame_matrix
from magflow.errors import (DomainExit, DomainViolation, NonpositiveSpeed,
                            StepLimitExceeded)
from magflow.flow import (_BLOCK_STEPS, _generator_jacobians, _rk4_path,
                          _stage, generator, generator_jacobian,
                          variational_segments)
from magflow.geometry import PointGeometry, _kernel, dchristoffel

from conftest import (MODEL_NAMES, conformal_system, counted_system,
                      kernel_floats, outcome, strength, system, unit)


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
    # the Sasaki frame T = [[C, 0], [C Gamma(., v), C]] of the generator:
    # the horizontal part is C v, and the connector part is C X_V = C Y v
    for name in ("euclidean", "poincare_disk"):
        sys = system(name, "constant" if name == "euclidean" else "area_form",
                     b=1.0)
        x = sys.chart.sample_point(rng)
        v = rng.standard_normal(2)
        T = sasaki_frame_matrix(sys, x, v)
        C = T[:2, :2]
        split = T @ generator(sys, x, v)
        assert np.array_equal(split[:2], C @ v)
        assert np.abs(split[2:] - C @ (sys.lorentz(x) @ v)).max() < 1e-12


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


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_linear_flows_at_zero_horizon_return_their_start(name, rng):
    # T = 0 takes no RK4 step: J over every (empty) segment is the
    # identity, a transported vector and frame are the given ones, and the
    # orbit stays at its start
    sys = system(name, "constant", b=1.0)
    x = sys.chart.sample_point(rng)
    st = PhaseState(x=x, v=unit(sys.metric, x, rng.standard_normal(sys.dim)))
    J, end = variational_flow(sys, st, 0.0)
    assert np.array_equal(J, np.eye(2 * sys.dim))
    assert np.array_equal(end.x, st.x) and np.array_equal(end.v, st.v)
    Js, nodes = variational_segments(sys, st, 0.0, 3)
    assert np.array_equal(Js, [np.eye(2 * sys.dim)] * 3)
    assert np.array_equal(nodes, [np.concatenate([st.x, st.v])] * 4)
    w0 = rng.standard_normal(sys.dim)
    assert np.array_equal(parallel_transport(sys, st, w0, 0.0), w0)
    frame = FrameState.from_state(sys, st)
    moved = frame_flow(sys, frame, 0.0)
    assert np.array_equal(moved.completion, frame.completion)
    assert np.array_equal(moved.state.x, st.x)


@pytest.mark.parametrize("case", ["poincare_disk-area_form", "round_sphere3-constant",
                                  "custom-vertical-field"])
def test_variational_flow_is_the_one_segment_case(case, rng):
    sys = _VARIATIONAL_CASES[case]()
    n = sys.dim
    x = (np.pi / 2 if "sphere" in case else 0.0) + rng.uniform(-0.3, 0.3, n)
    st = PhaseState(x=x, v=unit(sys.metric, x, rng.standard_normal(n)))
    cfg = IntegratorConfig(step=1e-2)
    J, end = variational_flow(sys, st, 1.3, cfg)
    Js, nodes = variational_segments(sys, st, 1.3, 1, cfg)
    assert Js.shape == (1, 2 * n, 2 * n) and np.array_equal(Js[0], J)
    assert np.array_equal(nodes, [np.concatenate([st.x, st.v]),
                                  np.concatenate([end.x, end.v])])


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


def _df_from_dgamma_low(geo, v, acc):
    """Df of a magnetic system from the n^4 tensor `dgamma_low`, contracted
    as einsum("...ljkq,...j,...k->...lq", dgamma_low, v, v)."""
    n = v.shape[-1]
    r_x = (np.einsum("...ljkq,...j,...k->...lq", geo.dgamma_low(), v, v)
           + np.einsum("...ljq,...j->...lq", geo.dsigma(), v)
           + np.einsum("...ijq,...j->...iq", geo.dg, acc))
    r_v = 2.0 * np.einsum("...ljk,...k->...lj", geo.gamma_low, v) + geo.sigma
    D = np.zeros(v.shape[:-1] + (2 * n, 2 * n))
    D[..., :n, n:] = np.eye(n)
    D[..., n:, :] = -np.matmul(geo.ginv, np.concatenate([r_x, r_v], axis=-1))
    return D


def _finite_difference_system():
    """A 3-dim magnetic system whose metric, not diagonal, gives only its
    coefficients and whose form, of x alone, gives no dsigma: dg, d2g and
    dsigma are central differences."""
    chart = ChartSpec(dim=3)

    def g(x):
        s = np.sin(x)
        return np.eye(3) + 0.5 * np.outer(s, s)

    def sigma(x):
        a, b, c = np.cos(x[1]), x[0] * x[2], np.sin(x[0] + x[2])
        return np.array([[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]])

    return MagneticSystem(chart, MetricField(g, chart=chart),
                          TwoFormField(sigma, chart=chart))


@pytest.mark.parametrize("name, form",
                         _PAIRS + [("finite-differences", None)])
def test_generator_jacobians_match_dgamma_low_contraction(name, form, rng):
    # the Jacobians contracted straight from d2g, and over the leading index
    # of dg and dsigma, agree with those from the n^4 tensor dgamma_low, on
    # a batch of 256 stages and at a single point; the last case takes dg,
    # d2g and dsigma from central differences
    sys = (_finite_difference_system() if form is None
           else system(name, form, **strength(form, 1.3)))
    n = sys.dim
    X = np.array([sys.chart.sample_point(rng) for _ in range(256)])
    V, A = rng.standard_normal((2,) + X.shape)
    batch = PointGeometry(sys.metric, X, sys.sigma)
    cases = [(batch, V, A), (sys.geometry(X[0]), V[0], A[0])]
    for geo, v, acc in cases:
        got = _generator_jacobians(sys, geo, v, acc)
        want = _df_from_dgamma_low(geo, v, acc)
        assert got.shape == want.shape == v.shape[:-1] + (2 * n, 2 * n)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# -- integrate -------------------------------------------------------------

@pytest.mark.parametrize("steps", [1, 7])
@pytest.mark.parametrize("lean", [True, False])
def test_orbit_of_n_steps_runs_the_guard_4n_plus_2_times(steps, lean):
    # an orbit of N steps that stays in the chart runs the guard 4N + 2
    # times: at its start, at each of its 4N stage points (the first stage
    # of a step, at its node, is that node's check) and at its last node
    sys, calls = counted_system("poincare_disk", "area_form", lean=lean, b=1.0)
    x = np.array([0.1, 0.0])
    st = PhaseState(x=x, v=0.5 * unit(sys.metric, x, [1.0, 0.5]), s=0.5)
    cfg = IntegratorConfig(step=1e-2)
    for run in (integrate, variational_flow):
        calls.update(guard=0)
        run(sys, st, steps * cfg.step, cfg)
        assert calls["guard"] == 4 * steps + 2, run.__name__
    assert not integrate(sys, st, steps * cfg.step, cfg).exited


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


@pytest.mark.parametrize("speed", [1e-300, 1e200])
def test_speed_drift_at_extreme_speeds(speed, caplog):
    # v g v underflows to 0 at speed 1e-300 and overflows at 1e200; the
    # g-speed is read from v scaled by the power of two of its largest entry
    sys = system("flat_torus", "constant", b=2.0)
    st = PhaseState(x=np.array([1.0, 2.0]), v=speed * np.array([0.6, 0.8]),
                    s=speed)
    with caplog.at_level("WARNING", logger="magflow.flow"):
        traj = integrate(sys, st, 0.05, IntegratorConfig())
    assert traj.speed_drift < 1e-14
    assert not caplog.records


def test_exit_returns_partial_trajectory():
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0]))
    traj = integrate(sys, st, 50.0, IntegratorConfig(step=1e-2))
    assert traj.exited
    assert traj.times[-1] < 50.0
    assert np.abs(traj.states[-1, :2]).max() < 1.0


# -- generated stages ------------------------------------------------------
# The hand-written float closures that the built-in fragments replaced, kept
# as the reference: every generated closure and stage must give their bits.

def _reference_closures(name, n):
    """The chart guard (None: no guard) and the `spray` of a built-in model
    at its default parameters, as closures on lists."""
    def dot(a, b):
        return sum(map(mul, a, b))

    if name in ("euclidean", "flat_torus"):
        return None, lambda x, v: ([0.0] * n, [1.0] * n)
    if name.startswith("poincare"):
        r2 = (1.0 - 1e-3) ** 2

        def spray(x, v):
            u = 1.0 - dot(x, x)
            p = 2.0 * dot(v, v) / u
            q = 4.0 * dot(x, v) / u
            return [p * a - q * b for a, b in zip(x, v)], [4.0 / (u * u)] * n
        return (lambda x: dot(x, x) < r2), spray
    eps, top = 0.2, np.pi - 0.2

    def spray(x, v):
        d, cots = [1.0], []
        for t in x[:-1]:
            s = math.sin(t)
            d.append(d[-1] * (s * s))
            cots.append(1.0 / math.tan(t))
        tails = [0.0] * n
        for i in range(n - 1, 0, -1):
            tails[i - 1] = tails[i] + d[i] * (v[i] * v[i])
        out, h = [], 0.0
        for c, t, di, u in zip(cots + [0.0], tails, d, v):
            out.append(c * t / di - 2.0 * u * h)
            h = h + c * u
        return out, d
    return (lambda x: all(eps < t < top for t in x[:-1])), spray


def _reference_acc(form, b):
    """The `magnetic_acc` of a built-in form of strength b."""
    if form == "zero":
        return lambda x, d, v, a: [u + 0.0 for u in a]
    if form == "constant":
        return lambda x, d, v, a: ([a[0] + -b * v[1] / d[0],
                                    a[1] + b * v[0] / d[1]]
                                   + [u + 0.0 for u in a[2:]])

    def area(x, d, v, a):
        r = math.sqrt(d[1] / d[0])
        return [a[0] + -b * r * v[1], a[1] + b / r * v[0]]
    return area


def _reference_system(sys, name, form, b):
    """`sys` with the reference closures in place of its generated ones."""
    guard, spray = _reference_closures(name, sys.dim)
    chart = ChartSpec(dim=sys.dim, domain_guard=guard,
                      sample_bounds=sys.chart.sample_bounds)
    metric = MetricField(sys.metric.raw, dg=sys.metric.dg, d2g=sys.metric.d2g,
                         chart=chart, spray=spray)
    sigma = TwoFormField(lambda x: sys.sigma.at(x), chart=chart,
                         magnetic_acc=_reference_acc(form, b))
    return MagneticSystem(chart, metric, sigma)


_STAGE_MODELS = [("euclidean", {"dim": 2}), ("euclidean", {"dim": 3}),
                 ("flat_torus", {}), ("poincare_disk", {}),
                 ("poincare_ball", {}), ("round_sphere", {"dim": 2}),
                 ("round_sphere", {"dim": 3}), ("round_sphere", {"dim": 4})]
_STAGE_CASES = [((name, params), form) for name, params in _STAGE_MODELS
                for form in ("zero", "constant", "area_form")
                if form != "area_form"
                or make_manifold(name, **params)[0].dim == 2]


def _points(data, name, n):
    """A point x near which the stage is checked: inside the sample box,
    any floats, signed zeros, or just inside or outside the chart guard."""
    params = {"dim": n} if name in ("euclidean", "round_sphere") else {}
    lo, hi = make_manifold(name, **params)[0].sample_bounds
    kind = data.draw(st.sampled_from(["inside", "floats", "zeros", "edge"]))
    if kind == "inside":
        u = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
        return (lo + (hi - lo) * np.array(u)).tolist()
    if kind == "floats":
        return data.draw(st.lists(kernel_floats, min_size=n, max_size=n))
    if kind == "zeros":
        return data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n,
                                  max_size=n))
    if name.startswith("poincare"):
        # on the ray of a drawn direction, within ulps of the radius 1 - eps
        r = data.draw(st.sampled_from([math.nextafter(0.999, 0), 0.999,
                                       math.nextafter(0.999, 2)]))
        u = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=n,
                                        max_size=n))) + 1e-3
        return (r * u / np.linalg.norm(u)).tolist()
    x = [1.0] * n
    i = data.draw(st.integers(0, n - 1))
    x[i] = data.draw(st.sampled_from([
        e for t in (0.2, np.pi - 0.2) for e in (math.nextafter(t, 0), t,
                                                math.nextafter(t, 4))]))
    return x


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(_STAGE_CASES), s=st.sampled_from([1.0, 1.7]),
       data=st.data())
def test_generated_stage_matches_the_closure_stage(case, s, data):
    # every built-in model x form pair, on the model and rescaled: the
    # generated stage, guard, spray and magnetic_acc give the bits (or the
    # error) of the hand-written closures, also at floats of any size,
    # signed zeros and points just outside the guard
    (name, params), form = case
    b = data.draw(kernel_floats)
    gen = system(name, form, params, **strength(form, b))
    ref = _reference_system(gen, name, form, float(b)).rescale(s)
    gen = gen.rescale(s)
    n = gen.dim
    fused = _stage(gen)
    assert fused.__code__.co_filename == "<string>"      # generated
    assert _stage(ref).__code__.co_filename != "<string>"
    x = _points(data, name, n)
    v, a, d = (data.draw(st.lists(kernel_floats, min_size=n, max_size=n))
               for _ in range(3))
    assert outcome(fused, x + v) == outcome(_stage(ref), x + v)
    guard = ref.chart.domain_guard
    assert (gen.chart.domain_guard is None if guard is None
            else gen.chart.domain_guard(x) is guard(x))
    assert outcome(lambda *u: sum(gen.metric.spray(*u), []), x, v) == outcome(
        lambda *u: sum(ref.metric.spray(*u), []), x, v)
    assert outcome(gen.sigma.magnetic_acc, x, d, v, a) == outcome(
        ref.sigma.magnetic_acc, x, d, v, a)


def test_area_form_stages_share_one_code_object():
    # the stage code is compiled once per fragment set and dimension; a
    # system with another strength b binds its own value to the same code
    _stage(system("poincare_disk", "area_form", b=0.5))
    before = _kernel.cache_info().currsize
    y = [0.1, 0.2, 0.3, 0.4]
    stages = [_stage(system("poincare_disk", "area_form", b=b))
              for b in np.linspace(-2.0, 2.0, 50)]
    assert _kernel.cache_info().currsize == before
    assert len({f.__code__ for f in stages}) == 1
    assert len({f(y)[3] for f in stages}) == 50


def test_exit_at_a_block_boundary():
    # an orbit whose first node outside the chart opens a block, sits in
    # one, or is the last node ends at the node before it, as a flagged
    # partial trajectory; a linear flow along it raises `DomainExit`
    free = system("euclidean", "constant", {"dim": 2}, b=1.0)
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    cfg = IntegratorConfig(step=1e-2)
    T = 2 * _BLOCK_STEPS * cfg.step
    full = integrate(free, st, T, cfg)
    for k in (_BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS):
        wall = full.states[k, :2].tolist()      # the one point outside
        chart = ChartSpec(dim=2, domain_guard=lambda x: x != wall)
        sys = MagneticSystem(chart, free.metric, free.sigma)
        traj = integrate(sys, st, T, cfg)
        assert traj.exited and np.array_equal(traj.states, full.states[:k])
        with pytest.raises(DomainExit):
            variational_flow(sys, st, T, cfg)


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


def _array_rk4(sys, stage, x, v, T, step):
    """Reference: RK4 on the array y = (x, v), with the `stage` at each
    stage's list and the chart guard at each new node; returns the nodes
    and whether the orbit left the chart."""
    n = sys.dim
    nsteps = max(int(T > 0), int(round(T / step)))
    hh = T / max(nsteps, 1)

    def f(y):
        return np.array(stage(y.tolist()))

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
    times, path, exited = _rk4_path(sys, PhaseState(x=x, v=v), T, cfg)
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
    # every orbit, linear flows' included, takes its horizon through one
    # rule: a negative, infinite or NaN horizon fails with one message
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    st = PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0]))
    frame = FrameState.from_state(sys, st)
    cfg = IntegratorConfig(step=1e-2)
    runs = [lambda T: integrate(sys, st, T, cfg),
            lambda T: variational_flow(sys, st, T, cfg),
            lambda T: parallel_transport(sys, st, [0.0, 1.0], T, cfg),
            lambda T: frame_flow(sys, frame, T, cfg)]
    for T in (-3.0, np.inf, np.nan):
        for run in runs:
            with pytest.raises(ValueError, match="nonnegative"):
                run(T)


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


# -- dynamical exponential -------------------------------------------------

def test_exp_zero_vector_is_identity():
    sys = system("poincare_disk", "area_form", b=1.0)
    x = np.array([0.2, -0.1])
    assert np.array_equal(dynamical_exp(sys, x, np.zeros(2)), x)


def test_exp_checks_its_start_once(monkeypatch):
    # the driver checks the start of an orbit; at u = 0 no orbit is run,
    # so the start is checked there and a point outside the chart rejected
    sys = system("poincare_disk", "area_form", b=1.0)
    calls = []
    require = ChartSpec.require
    monkeypatch.setattr(ChartSpec, "require",
                        lambda self, x: calls.append(1) or require(self, x))
    dynamical_exp(sys, np.array([0.2, -0.1]), np.array([0.3, 0.1]))
    assert len(calls) == 1
    with pytest.raises(DomainViolation):
        dynamical_exp(sys, np.array([1.5, 0.0]), np.zeros(2))


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


def test_variational_closures_once_per_block():
    # the metric, its two derivatives, the form and its derivative are each
    # evaluated once per block, on the batch of its 4N stage points; a
    # float stage evaluates none of them
    chart, metric = make_manifold("poincare_disk")
    calls = {}

    def counted(key, fn):
        def wrapper(x, *args):
            calls.setdefault(key, []).append(np.shape(x))
            return fn(x, *args)
        return wrapper

    counted_metric = MetricField(
        counted("raw", metric.raw), dg=counted("dg", metric.dg),
        d2g=counted("d2g", metric.d2g), chart=chart, broadcasts=True,
        spray=metric.spray)
    area = make_form("area_form", 2, counted_metric, chart, b=1.0)
    form = TwoFormField(counted("sigma", area.at),
                        dsigma=counted("dsigma", area.dsigma_at), chart=chart,
                        metric=counted_metric, broadcasts=True,
                        magnetic_acc=area.magnetic_acc)
    sys = MagneticSystem(chart, counted_metric, form)
    x = np.array([0.1, -0.2])
    st = PhaseState(x=x, v=unit(counted_metric, x, np.array([0.3, 0.5])))
    calls.clear()
    variational_flow(sys, st, (2 * _BLOCK_STEPS + 3) * 1e-2,
                     IntegratorConfig(step=1e-2))
    blocks = [(4 * _BLOCK_STEPS, 2)] * 2 + [(12, 2)]
    assert calls == dict.fromkeys(["raw", "dg", "sigma", "d2g", "dsigma"],
                                  blocks)


def _twisted_omega(sys, z):
    """The twisted symplectic form omega_sigma = d(g_ij v^j dx^i) + pi* sigma
    on TM at z = (x, v), as the matrix
        [[Dg^T - Dg - sigma, -g], [g, 0]],  (Dg)_ik = d_k g_ij v^j,
    with sigma's sign that of g(Yv, w) = sigma(v, w)."""
    n = sys.dim
    x, v = z[:n], z[n:]
    Dg = np.einsum("ijk,j->ik", sys.metric.dg(x), v)
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, :n] = Dg.T - Dg - sys.sigma.at(x)
    omega[:n, n:] = -sys.metric.raw(x)
    omega[n:, :n] = sys.metric.raw(x)
    return omega


@settings(max_examples=8, deadline=None, derandomize=True)
@given(case=st.sampled_from(["disk-area_form", "sphere3-constant",
                             "conformal"]),
       unit_point=st.lists(st.floats(0.2, 0.8), min_size=3, max_size=3),
       v=st.lists(st.floats(-1, 1), min_size=3, max_size=3).filter(
           lambda u: max(map(abs, u)) > 0.1),
       b=st.floats(1.2, 2.0))
def test_flows_preserve_the_twisted_symplectic_form(case, unit_point, v, b):
    # a magnetic flow preserves omega_sigma, on any metric and closed form,
    # so its Jacobian J satisfies J^T Omega(z_T) J = Omega(z_0).  For
    # `variational_flow`'s J, RK4 breaks it by O(T h^4): halving h shrinks
    # the defect about 16-fold.  That J reads the stage accelerations, whose
    # terms cancel from the identity, so the flow map's own Jacobian, by
    # central differences of `integrate`, checks the stage values too.  An
    # orbit that leaves the chart before T = 1 is not checked
    sys = {"disk-area_form": lambda: system("poincare_disk", "area_form", b=b),
           "sphere3-constant": lambda: system("round_sphere", "constant",
                                              {"dim": 3}, b=b),
           "conformal": conformal_system}[case]()
    n = sys.dim
    lo, hi = sys.chart.sample_bounds or (-np.ones(n), np.ones(n))
    x = lo + (hi - lo) * np.array(unit_point[:n])
    z0 = np.concatenate([x, unit(sys.metric, x, v[:n])])
    omega0 = _twisted_omega(sys, z0)

    def defect(J, zT):
        return (np.abs(J.T @ _twisted_omega(sys, zT) @ J - omega0).max()
                / np.abs(omega0).max())

    def state(z):
        return PhaseState(x=z[:n], v=z[n:], s=sys.metric.norm(z[:n], z[n:]))

    try:
        flows = [variational_flow(sys, state(z0), 1.0,
                                  IntegratorConfig(step=h))
                 for h in (1e-2, 5e-3)]
    except DomainExit:
        reject()
    linear = [defect(J, np.concatenate([end.x, end.v])) for J, end in flows]
    assert linear[0] <= 1e-6, linear
    assert linear[1] <= 1.5 * linear[0] / 16, linear
    cfg = IntegratorConfig(step=1e-2)
    plus, minus = ([integrate(sys, state(z0 + e), 1.0, cfg)
                    for e in sign * 1e-5 * np.eye(2 * n)] for sign in (1, -1))
    assume(not any(traj.exited for traj in plus + minus))
    J = np.array([p.states[-1] - m.states[-1]
                  for p, m in zip(plus, minus)]).T / 2e-5
    J_var, end = flows[0]
    assert defect(J, np.concatenate([end.x, end.v])) <= 1e-7
    assert np.abs(J - J_var).max() <= 1e-5 * np.abs(J).max()


def test_variational_flow_keeps_exit_and_step_limit():
    # the step budget bounds the whole horizon, not one segment: 10
    # segments of 10 steps exceed a budget of 50
    sys = system("poincare_disk", "zero")
    st = PhaseState(x=np.zeros(2), v=np.array([0.5, 0.0]))
    with pytest.raises(DomainExit):
        variational_flow(sys, st, 50.0, IntegratorConfig(step=1e-2))
    with pytest.raises(DomainExit):
        variational_segments(sys, st, 50.0, 500, IntegratorConfig(step=1e-2))
    with pytest.raises(StepLimitExceeded):
        variational_flow(sys, st, 1.0, IntegratorConfig(step=1e-2, max_steps=10))
    with pytest.raises(StepLimitExceeded):
        variational_segments(sys, st, 1.0, 10,
                             IntegratorConfig(step=1e-2, max_steps=50))


@pytest.mark.parametrize("case", ["poincare_disk-area_form", "round_sphere3-constant",
                                  "custom-vertical-field"])
@pytest.mark.parametrize("T, segments, step", [
    (1.3, 13, 1e-2),        # 10 steps a segment, which does not divide a block
    (2.0, 2, 1e-2),         # 100 steps a segment, longer than a block
    (1.3, 13, 0.03),        # 3 steps of 1/30 a segment: T / h is not whole
])
def test_variational_segments_match_one_flow(case, T, segments, step, rng):
    # the segments' J compose to the flow over the same grid, and the nodes
    # are `integrate`'s on that grid, over more than two blocks
    sys = _VARIATIONAL_CASES[case]()
    n = sys.dim
    x = (np.pi / 2 if "sphere" in case else 0.0) + rng.uniform(-0.3, 0.3, n)
    st = PhaseState(x=x, v=0.5 * unit(sys.metric, x, rng.standard_normal(n)),
                    s=0.5)
    Js, nodes = variational_segments(sys, st, T, segments,
                                     IntegratorConfig(step=step))
    k = max(1, round(T / segments / step))
    cfg = IntegratorConfig(step=T / (segments * k))
    J, _ = variational_flow(sys, st, T, cfg)
    prod = np.eye(2 * n)
    for Jseg in Js:
        prod = Jseg @ prod
    assert Js.shape == (segments, 2 * n, 2 * n)
    assert np.abs(prod - J).max() <= 1e-12 * np.abs(J).max()
    ref = integrate(sys, st, T, cfg).states[::k]
    assert nodes.shape == (segments + 1, 2 * n)
    assert np.array_equal(nodes[0], np.concatenate([st.x, st.v]))
    assert np.abs(nodes - ref).max() <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_PAIRS),
       unit_point=st.lists(st.floats(0.25, 0.75), min_size=3, max_size=3),
       v=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       b=st.floats(-3, 3))
def test_speed_conservation(pair, unit_point, v, b):
    # Y is g-skew, so the flow keeps the g-speed; RK4 keeps it to O(T h^4),
    # so halving h shrinks the drift at least 8-fold, down to roundoff.
    # From the middle of the sample box a unit-speed orbit stays in the
    # chart up to T = 0.5
    name, form = pair
    sys = system(name, form, **strength(form, b))
    lo, hi = sys.chart.sample_bounds
    x = lo + (hi - lo) * np.array(unit_point[:sys.dim])
    assume(np.abs(v[:sys.dim]).max() > 0.1)
    st0 = PhaseState(x=x, v=unit(sys.metric, x, v[:sys.dim]))
    drift = [integrate(sys, st0, 0.5, IntegratorConfig(step=h)).speed_drift
             for h in (0.05, 0.025)]
    assert drift[0] <= 1e-4
    assert drift[1] <= drift[0] / 8 + 1e-13, drift


@settings(max_examples=30, deadline=None, derandomize=True)
@given(pair=st.sampled_from([p for p in _PAIRS if p[1] != "zero"]),
       unit_point=st.lists(st.floats(0.25, 0.75), min_size=3, max_size=3),
       v=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       b=st.floats(-3, 3), s=st.floats(0.25, 2.0))
def test_rescaling_lemma(pair, unit_point, v, b, s):
    # the speed-s orbit of (g, sigma) is the unit-speed orbit of
    # `rescale(s)` = (g / s^2, sigma / s^2), and the unit-speed orbit of
    # (g, sigma / s) run s times as long: x(t) = y(s t), v(t) = s y'(s t),
    # node by node on the step h and s h
    name, form = pair
    sys = system(name, form, **strength(form, b))
    slow = system(name, form, **strength(form, b / s))
    lo, hi = sys.chart.sample_bounds
    x = lo + (hi - lo) * np.array(unit_point[:sys.dim])
    assume(np.abs(v[:sys.dim]).max() > 0.1)
    u = unit(sys.metric, x, v[:sys.dim])
    T, h = 0.5 / s, 0.025 / s
    fast = integrate(sys, PhaseState(x=x, v=s * u, s=s), T,
                     IntegratorConfig(step=h)).states
    resc = integrate(sys.rescale(s), PhaseState(x=x, v=s * u), T,
                     IntegratorConfig(step=h)).states
    unit_orbit = integrate(slow, PhaseState(x=x, v=u), s * T,
                           IntegratorConfig(step=s * h)).states
    n = sys.dim
    unit_orbit[:, n:] *= s
    scale = np.abs(fast).max()
    assert fast.shape == resc.shape == unit_orbit.shape
    assert np.abs(resc - fast).max() <= 1e-12 * scale
    assert np.abs(unit_orbit - fast).max() <= 1e-12 * scale


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
