import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magflow import (ChartSpec, MetricField, anosov_report, magnetic_operator,
                     magnetic_sectional, make_manifold, op_A, op_R,
                     orthonormal_completion, riemann, sectional)
from magflow import curvature
from magflow.curvature import _CHUNK, _gdot, _sectional, sample_sectionals
from magflow.errors import NonOrthonormalFrame, NonpositiveSpeed, NonUnitVector
from magflow.geometry import PointGeometry, gram_schmidt, project

from conftest import counted_system, strength, system, unit


# -- operator A ------------------------------------------------------------

def test_op_A_zero_form():
    sys = system("poincare_disk", "zero")
    x = np.zeros(2)
    A = op_A(sys, x, np.array([0.5, 0.0]))
    assert np.abs(A.matrix).max() < 1e-14


def test_op_A_planar_constant_field():
    # Y = b * rotation, so A = b^2 id on v-perp
    b = 1.5
    sys = system("euclidean", "constant", {"dim": 2}, b=b)
    A = op_A(sys, np.zeros(2), np.array([1.0, 0.0]))
    assert A.matrix == pytest.approx(np.array([[b * b]]), abs=1e-12)


def test_op_A_field_kernel_direction():
    # v = e3 lies in the kernel of Y: A = -(1/4) P Y^2 = (b^2/4) id on e1, e2
    b = 2.0
    sys = system("euclidean", "constant", {"dim": 3}, b=b)
    A = op_A(sys, np.zeros(3), np.array([0.0, 0.0, 1.0]))
    assert np.abs(A.matrix - (b * b / 4) * np.eye(2)).max() < 1e-12


def test_op_A_requires_unit_vector():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    with pytest.raises(NonUnitVector):
        op_A(sys, np.zeros(2), np.array([2.0, 0.0]))


# -- operator R ------------------------------------------------------------

def test_op_R_flat_constant():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    R = op_R(sys, 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert np.abs(R.matrix).max() < 1e-12


def test_op_R_disk_geodesic_case():
    sys = system("poincare_disk", "zero")
    R = op_R(sys, 1.0, np.zeros(2), np.array([0.5, 0.0]))
    assert R.matrix == pytest.approx(np.array([[-1.0]]), abs=1e-8)


def test_op_R_reduces_to_jacobi_operator(rng):
    # sigma = 0: R_s(w) = s^2 R(w, v)v, compared against the curvature tensor
    sys = system("poincare_ball", "zero")
    for s in (0.5, 2.0):
        x = sys.chart.sample_point(rng)
        gx = sys.metric(x)
        v = unit(sys.metric, x, rng.standard_normal(3))
        R = op_R(sys, s, x, v)
        tensor = riemann(sys.metric, x)
        for w in R.frame:
            expect = s * s * tensor.apply(v, w, v)
            assert np.abs(R.ambient @ w - expect).max() < 1e-8


# -- combined operator and sectional curvature ------------------------------

def test_magnetic_operator_disk_area_form(rng):
    # hyperbolic surface with unit area form: M_s = (1 - s^2) id on v-perp
    sys = system("poincare_disk", "area_form", b=1.0)
    for s in (0.5, 1.0, 2.0):
        x = sys.chart.sample_point(rng)
        v = unit(sys.metric, x, rng.standard_normal(2))
        M = magnetic_operator(sys, s, x, v)
        assert M.matrix == pytest.approx(np.array([[1 - s * s]]), abs=1e-8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(unit_point=st.lists(st.floats(0, 1), min_size=2, max_size=2),
       angle=st.floats(0, 2 * np.pi), side=st.sampled_from([1.0, -1.0]),
       s=st.floats(0.05, 4.0))
def test_sectional_on_hyperbolic_plane_is_one_minus_s_squared(unit_point,
                                                              angle, side, s):
    # the hyperbolic plane with its area form: Sec_s = 1 - s^2 at every
    # point, on every g-orthonormal plane (v, w) of either orientation
    sys = system("poincare_disk", "area_form", b=1.0)
    lo, hi = sys.chart.sample_bounds
    x = lo + (hi - lo) * np.array(unit_point)
    v = unit(sys.metric, x, [np.cos(angle), np.sin(angle)])
    w = side * unit(sys.metric, x, [-np.sin(angle), np.cos(angle)])
    sec = magnetic_sectional(sys, s, x, v, w)
    assert abs(sec - (1.0 - s * s)) <= 1e-12 * (1.0 + s * s)


def _reference_operators(sys, s, x, v):
    """A, R_s and M_s as actions on w, term by term from the module
    docstring's definitions, through the public tensors."""
    Y = sys.lorentz(x)
    R = riemann(sys.metric, x)
    nabla_v_Y = sys.nabla_lorentz(x, v)

    def A(w):
        Yw = Y @ w
        along, _ = project(sys.metric, x, v, Yw)
        _, perp = project(sys.metric, x, v, Y @ Yw)
        return -0.75 * (Y @ along) - 0.25 * perp

    def R_s(w):
        _, perp = project(sys.metric, x, v, nabla_v_Y @ w)
        return (s * s * R.apply(v, w, v) - s * (sys.nabla_lorentz(x, w) @ v)
                + 0.5 * s * perp)

    return A, R_s, lambda w: A(w) + R_s(w)


@pytest.mark.parametrize("name, params", [("poincare_ball", {}),
                                          ("round_sphere", {"dim": 3})])
def test_operators_match_definitions_where_Y_is_not_parallel(name, params, rng):
    # nabla Y != 0, so the s-linear terms of R_s take part
    sys = system(name, "constant", params, b=1.3)
    for _ in range(5):
        x = sys.chart.sample_point(rng)
        g = sys.metric(x)
        v, w = gram_schmidt(g, rng.standard_normal((2, 3)))
        s = rng.uniform(0.5, 2.5)
        assert np.abs(g @ sys.nabla_lorentz(x, v)).max() > 1e-2
        frame = orthonormal_completion(sys.metric, x, v)[1:]
        ops = (op_A(sys, x, v), op_R(sys, s, x, v),
               magnetic_operator(sys, s, x, v))
        for op, action in zip(ops, _reference_operators(sys, s, x, v)):
            expect = np.array([[ea @ g @ action(eb) for eb in frame]
                               for ea in frame])
            assert np.array_equal(op.frame, frame)
            assert np.abs(op.matrix - expect).max() < 1e-10
            assert np.abs(op.ambient @ w - action(w)).max() < 1e-10
        M = _reference_operators(sys, s, x, v)[2]
        assert abs(magnetic_sectional(sys, s, x, v, w) - w @ g @ M(w)) < 1e-10


@pytest.mark.parametrize("name, form, params", [
    ("round_sphere", "constant", {"b": 1.0}),
    ("poincare_disk", "area_form", {"b": 1.0}),
    ("poincare_ball", "constant", {"b": 2.0}),
])
def test_curvature_evaluates_geometry_once(name, form, params):
    # each operator and each sectional curvature evaluates the metric and
    # runs the chart guard exactly once, at its single point
    sys, calls = counted_system(name, form, **params)
    n = sys.dim
    x = np.full(n, 1.0) if name == "round_sphere" else np.full(n, 0.2)
    v, w = gram_schmidt(sys.metric(x), np.eye(n)[:2] + 0.3)
    for run in (lambda: magnetic_sectional(sys, 1.5, x, v, w),
                lambda: op_A(sys, x, v), lambda: op_R(sys, 1.5, x, v),
                lambda: magnetic_operator(sys, 1.5, x, v)):
        calls.update(metric=0, guard=0)
        run()
        assert calls == {"metric": 1, "spray": 0, "guard": 1}


@pytest.mark.parametrize("name, form, params", [
    ("round_sphere", "constant", {"b": 1.0}),
    ("poincare_disk", "area_form", {"b": 1.0}),
    ("poincare_ball", "constant", {"b": 2.0}),
])
def test_sample_sectionals_evaluates_geometry_once(name, form, params,
                                                   monkeypatch):
    # one metric evaluation per sample, and no chart-guard call besides those
    # of the point sampler's own rejection loop
    sys, calls = counted_system(name, form, **params)
    sampler = ChartSpec.sample_point
    sampling = []

    def counted_sampler(chart, rng):
        before = calls["guard"]
        x = sampler(chart, rng)
        sampling.append(calls["guard"] - before)
        return x

    monkeypatch.setattr(ChartSpec, "sample_point", counted_sampler)
    count = 20
    sample_sectionals(sys, 1.5, count, np.random.default_rng(3))
    assert len(sampling) == count
    assert calls == {"metric": count, "spray": 0, "guard": sum(sampling)}


@pytest.mark.parametrize("name, form, params", [
    ("round_sphere", "constant", {"b": 1.0}),
    ("poincare_disk", "area_form", {"b": 1.0}),
    ("poincare_ball", "constant", {"b": 2.0}),
])
def test_sample_sectionals_evaluates_a_broadcasting_metric_once_per_chunk(
        name, form, params):
    # a metric that broadcasts is evaluated once per chunk of samples
    sys, calls = counted_system(name, form, broadcasts=True, **params)
    for count, chunks in ((20, 1), (_CHUNK + 9, 2)):
        calls.update(metric=0)
        sample_sectionals(sys, 1.5, count, np.random.default_rng(3))
        assert calls["metric"] == chunks


@pytest.mark.parametrize("name, form, params", [
    ("round_sphere", "constant", {"b": 1.0}),
    ("poincare_disk", "area_form", {"b": 1.0}),
    ("poincare_ball", "constant", {"b": 2.0}),
])
def test_curvature_derives_gamma_and_lorentz_once(name, form, params,
                                                  monkeypatch):
    # Gamma and Y are derived once per point, and once per chunk of
    # `sample_sectionals`: `dchristoffel` and `dlorentz` take them from the
    # caller rather than deriving them again
    derived = {"christoffel": 0, "lorentz": 0}
    for method in derived:
        def counted(geo, method=method,
                    original=getattr(PointGeometry, method)):
            derived[method] += 1
            return original(geo)
        monkeypatch.setattr(PointGeometry, method, counted)
    sys = system(name, form, **params)
    n = sys.dim
    x = np.full(n, 1.0) if name == "round_sphere" else np.full(n, 0.2)
    v, w = gram_schmidt(sys.metric(x), np.eye(n)[:2] + 0.3)
    # (Gamma, Y) derivations of each run; two chunks of samples
    for run, counts in (
            (lambda: magnetic_sectional(sys, 1.5, x, v, w), (1, 1)),
            (lambda: op_R(sys, 1.5, x, v), (1, 1)),
            (lambda: magnetic_operator(sys, 1.5, x, v), (1, 1)),
            (lambda: op_A(sys, x, v), (0, 1)),
            (lambda: sample_sectionals(sys, 1.5, _CHUNK + 1,
                                       np.random.default_rng(3)), (2, 2))):
        derived.update(christoffel=0, lorentz=0)
        run()
        assert (derived["christoffel"], derived["lorentz"]) == counts


def _user_metric_system(analytic):
    """The Poincare disk with its area form, through a metric whose closures
    are not declared broadcasting (analytic) or with no derivative closures
    at all (finite differences)."""
    from magflow import MagneticSystem, make_form
    chart, metric = make_manifold("poincare_disk")

    def point_only(fn):
        def wrapper(*args):
            assert np.ndim(args[0]) == 1, "a point closure got a batch"
            return fn(*args)
        return wrapper

    if analytic:
        user = MetricField(point_only(metric.raw), dg=point_only(metric.dg),
                           d2g=point_only(metric.d2g), chart=chart)
    else:
        user = MetricField(point_only(metric.raw), chart=chart)
    return MagneticSystem(chart, user,
                          make_form("area_form", 2, user, chart, b=1.2))


_MODELS = [("euclidean", {"dim": 3}), ("flat_torus", {}), ("poincare_disk", {}),
           ("poincare_ball", {}), ("round_sphere", {}), ("round_sphere", {"dim": 3})]
_SAMPLED_SYSTEMS = [
    pytest.param(lambda n=n, f=f, p=p: system(n, f, p, **strength(f, 1.3)),
                 id=f"{n}{p.get('dim', '')}-{f}")
    for n, p in _MODELS for f in ("zero", "constant", "area_form")
    if f != "area_form" or (n in ("poincare_disk", "round_sphere") and not p)
] + [
    pytest.param(lambda: system("poincare_disk", "area_form",
                                b=1.3).rescale(1.6), id="rescaled"),
    pytest.param(lambda: _user_metric_system(analytic=True), id="user"),
    pytest.param(lambda: _user_metric_system(analytic=False),
                 id="finite-differences"),
]


def _sampled_cases():
    return [pytest.param(*case.values, 40, id=case.id)
            for case in _SAMPLED_SYSTEMS] + [
        pytest.param(lambda: system("round_sphere", "constant", b=0.8),
                     _CHUNK + 9, id="more-than-one-chunk"),
    ]


def _drawn_one_at_a_time(sys, count, rng):
    """The (x, v, w) of `count` samples, each drawn to completion in turn:
    its point, then standard normal pairs until Gram-Schmidt keeps both
    rows."""
    samples = []
    for _ in range(count):
        x = sys.chart.sample_point(rng)
        while True:
            frame = gram_schmidt(sys.metric(x),
                                 rng.standard_normal((2, sys.dim)))
            if frame.shape[0] == 2:
                break
        samples.append((x, frame[0], frame[1]))
    return samples


@pytest.mark.parametrize("build, count", _sampled_cases())
def test_sample_sectionals_matches_point_sectionals(build, count):
    # the batched chunks give, sample by sample, the magnetic_sectional of
    # the same draws made one at a time, in the same order
    sys = build()
    for s in (0.6, 1.7):
        rng, ours = np.random.default_rng(9), np.random.default_rng(9)
        vals = sample_sectionals(sys, s, count, ours)
        ref = np.array([magnetic_sectional(sys, s, x, v, w) for x, v, w in
                        _drawn_one_at_a_time(sys, count, rng)])
        assert ours.bit_generator.state == rng.bit_generator.state
        assert vals.shape == (count,)
        assert np.abs(vals - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("count", [1, 40, _CHUNK + 9])
@pytest.mark.parametrize("build", _SAMPLED_SYSTEMS)
def test_sample_sectionals_keeps_the_draw_order(build, count):
    # the generator ends where drawing each sample to completion in turn
    # leaves it, across chunk ends
    sys = build()
    rng, ours = np.random.default_rng(2), np.random.default_rng(2)
    sample_sectionals(sys, 1.2, count, ours)
    _drawn_one_at_a_time(sys, count, rng)
    assert ours.bit_generator.state == rng.bit_generator.state


class _ZeroFirstPair:
    """A generator whose first standard normal draw has a zero first row."""

    def __init__(self, seed):
        self.rng, self.zeroed = np.random.default_rng(seed), False

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        if not self.zeroed:
            out[0], self.zeroed = 0.0, True
        return out


@pytest.mark.parametrize("count", [1, 40])
def test_sample_sectionals_redraws_a_dependent_pair(count, monkeypatch):
    # the first sample's pair has a zero row; it is redrawn, and every pair
    # the curvatures are taken on is g-orthonormal
    sys = system("poincare_ball", "constant", b=1.0)
    seen = []

    def recorded(geo, s, V, W):
        seen.append((geo.g, V, W))
        return _sectional(geo, s, V, W)

    monkeypatch.setattr(curvature, "_sectional", recorded)
    rng = _ZeroFirstPair(4)
    vals = sample_sectionals(sys, 1.5, count, rng)
    assert rng.zeroed
    assert vals.shape == (count,) and np.isfinite(vals).all()
    (G, V, W), = seen
    for a, b, expect in ((V, V, 1.0), (W, W, 1.0), (V, W, 0.0)):
        assert np.abs(np.vecdot(a, _gdot(G, b)) - expect).max() < 1e-12


def test_sectional_checks_every_frame_and_the_speed():
    sys = system("poincare_ball", "constant", b=1.0)
    rng = np.random.default_rng(4)
    X = np.array([sys.chart.sample_point(rng) for _ in range(5)])
    G = sys.metric.raw(X)
    V, W = np.array([gram_schmidt(g, rng.standard_normal((2, 3)))
                     for g in G]).transpose(1, 0, 2)
    geo = PointGeometry(sys.metric, X, sys.sigma, g=G)
    assert _sectional(geo, 1.5, V, W).shape == (5,)
    W[3] = W[3] + 1e-9 * V[3]              # one frame slightly skew
    with pytest.raises(NonOrthonormalFrame):
        _sectional(geo, 1.5, V, W)
    with pytest.raises(NonpositiveSpeed):
        sample_sectionals(sys, 0.0, 3, rng)
    v, w = V[0], np.array(W[0])
    with pytest.raises(NonpositiveSpeed):
        magnetic_sectional(sys, -1.0, X[0], v, w)
    with pytest.raises(NonOrthonormalFrame):
        magnetic_sectional(sys, 1.0, X[0], v, 2.0 * w)


def test_magnetic_sectional_flat_torus(rng):
    sys = system("flat_torus", "zero")
    x = sys.chart.sample_point(rng)
    v, w = gram_schmidt(sys.metric(x), rng.standard_normal((2, 2)))
    assert magnetic_sectional(sys, 1.0, x, v, w) == pytest.approx(0, abs=1e-12)


def test_magnetic_sectional_planar_field(rng):
    b = 0.8
    sys = system("euclidean", "constant", {"dim": 2}, b=b)
    x = sys.chart.sample_point(rng)
    v, w = gram_schmidt(np.eye(2), rng.standard_normal((2, 2)))
    for s in (0.5, 1.0, 3.0):
        assert magnetic_sectional(sys, s, x, v, w) == \
            pytest.approx(b * b, abs=1e-10)


def test_magnetic_sectional_rejects_skew_frames():
    sys = system("euclidean", "zero", {"dim": 2})
    with pytest.raises(NonOrthonormalFrame):
        magnetic_sectional(sys, 1.0, np.zeros(2), np.array([1.0, 0.0]),
                           np.array([0.5, 1.0]))
    # a NaN frame has a NaN orthonormality defect, which fails the check
    # rather than giving a NaN curvature
    sys = system("poincare_disk", "area_form", b=1.0)
    with pytest.raises(NonOrthonormalFrame):
        magnetic_sectional(sys, 1.0, np.zeros(2), np.array([np.nan, 0.0]),
                           np.array([0.0, 0.5]))


def test_geodesic_reduction_sectional(rng):
    # sigma = 0: magnetic sectional = s^2 * Riemannian sectional
    for name in ("poincare_ball", "round_sphere"):
        sys = system(name, "zero")
        for _ in range(100):
            x = sys.chart.sample_point(rng)
            pair = gram_schmidt(sys.metric(x),
                                rng.standard_normal((2, sys.dim)))
            if pair.shape[0] < 2:
                continue
            v, w = pair
            base = sectional(sys.metric, x, v, w)
            for s in (0.5, 2.0):
                assert magnetic_sectional(sys, s, x, v, w) == \
                    pytest.approx(s * s * base, abs=1e-8)


def test_sign_agreement_under_rescaling(rng):
    sys = system("poincare_disk", "area_form", b=1.0)
    for s in (0.5, 2.0):
        r = sys.rescale(s)
        for _ in range(10):
            x = sys.chart.sample_point(rng)
            v, w = gram_schmidt(sys.metric(x), rng.standard_normal((2, 2)))
            a = magnetic_sectional(sys, s, x, v, w)
            rv, rw = gram_schmidt(r.metric(x), rng.standard_normal((2, 2)))
            b = magnetic_sectional(r, 1.0, x, rv, rw)
            assert np.sign(round(a, 10)) == np.sign(round(b, 10))


def test_op_A_ignores_derivative_scheme(rng):
    # A depends on sigma and g pointwise only, not on their derivatives,
    # analytic or by finite differences
    chart, g = make_manifold("poincare_disk")
    g_coarse = MetricField(g.raw, chart=chart)
    from magflow import MagneticSystem, make_form
    x = np.array([0.3, -0.2])
    out = []
    for met in (g, g_coarse):
        sig = make_form("area_form", 2, met, chart, b=1.0)
        sys = MagneticSystem(chart, met, sig)
        v = unit(met, x, np.array([1.0, 0.7]))
        out.append(op_A(sys, x, v).matrix)
    assert np.abs(out[0] - out[1]).max() < 1e-12


# -- Anosov sampling report ------------------------------------------------

def test_anosov_report_negative_regime():
    sys = system("poincare_disk", "area_form", b=1.0)
    rep = anosov_report(sys, 2.0, 50, seed=1)
    assert rep.max == pytest.approx(-3.0, abs=1e-6)
    assert rep.verdict == "criterion satisfied on sample"


def test_anosov_report_positive_regime():
    sys = system("poincare_disk", "area_form", b=1.0)
    rep = anosov_report(sys, 0.5, 50, seed=1)
    assert rep.max == pytest.approx(0.75, abs=1e-6)
    assert rep.verdict != "criterion satisfied on sample"


def test_anosov_report_flat_torus():
    sys = system("flat_torus", "zero")
    rep = anosov_report(sys, 1.0, 20, seed=1)
    assert abs(rep.max) < 1e-10 and abs(rep.min) < 1e-10
    assert rep.verdict != "criterion satisfied on sample"
