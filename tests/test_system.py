import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magflow import (MagneticSystem, MetricField, christoffel,
                     closedness_residual, make_form, make_manifold)
from magflow.errors import NonpositiveSpeed

from conftest import MODEL_NAMES, strength, system


ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


# -- Lorentz operator ------------------------------------------------------

def test_lorentz_zero_form():
    sys = system("poincare_disk", "zero")
    assert np.allclose(sys.lorentz(np.array([0.2, 0.1])), 0, atol=1e-15)


def test_lorentz_constant_form_is_rotation_generator():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    assert np.allclose(sys.lorentz(np.zeros(2)), ROT, atol=1e-14)


def test_lorentz_area_form_squares_to_minus_identity(rng):
    sys = system("poincare_disk", "area_form", b=1.0)
    for _ in range(5):
        x = sys.chart.sample_point(rng)
        Y = sys.lorentz(x)
        assert np.abs(Y @ Y + np.eye(2)).max() < 1e-10


def test_lorentz_matches_sigma_and_is_skew(rng):
    for name, form, kw in [("euclidean", "constant", {"b": 0.7}),
                           ("poincare_disk", "area_form", {"b": 1.3}),
                           ("flat_torus", "constant", {"b": 2.0})]:
        sys = system(name, form, **kw)
        for _ in range(100):
            x = sys.chart.sample_point(rng)
            g, Y, sig = sys.metric(x), sys.lorentz(x), sys.sigma(x)
            v, w = rng.standard_normal((2, sys.dim))
            assert abs(v @ g @ (Y @ w) + (Y @ v) @ g @ w) < 1e-10
            assert abs((Y @ v) @ g @ w - sig @ w @ v) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(MODEL_NAMES),
       form=st.sampled_from(["zero", "constant", "area_form"]),
       unit_point=st.lists(st.floats(0, 1), min_size=3, max_size=3),
       u=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       w=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       b=st.floats(-3, 3))
def test_lorentz_is_g_skew_adjoint(name, form, unit_point, u, w, b):
    # g(Yu, w) = -g(u, Yw) for the array Y and for the float closure
    # `magnetic_acc` of the RK4 stage (given a zero acceleration), which is
    # why Y does no work
    assume(form != "area_form" or make_manifold(name)[0].dim == 2)
    sys = system(name, form, **strength(form, b))
    n = sys.dim
    lo, hi = sys.chart.sample_bounds
    x = lo + (hi - lo) * np.array(unit_point[:n])
    assume(sys.chart.contains(x))
    u, w = np.array(u[:n]), np.array(w[:n])
    g, Y = sys.metric(x), sys.lorentz(x)
    _, d = sys.metric.spray(x.tolist(), u.tolist())

    def Yv(v):
        return np.array(sys.sigma.magnetic_acc(x.tolist(), d, v.tolist(),
                                               [0.0] * n))

    size = np.abs(g).max() * (1.0 + np.abs(Y).max()) * (1.0 + u @ u + w @ w)
    for Yu, Yw in ((Y @ u, Y @ w), (Yv(u), Yv(w))):
        assert abs(Yu @ g @ w + u @ g @ Yw) <= 1e-13 * size


# -- covariant derivative of Y ---------------------------------------------

def test_nabla_lorentz_constant_flat_zero():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    assert np.allclose(sys.nabla_lorentz(np.zeros(2), np.array([1.0, 2.0])),
                       0, atol=1e-14)


def test_nabla_lorentz_area_form_parallel(rng):
    # the Riemannian area form is parallel, so nabla Y = 0
    sys = system("poincare_disk", "area_form", b=1.0)
    for _ in range(5):
        x = sys.chart.sample_point(rng)
        w = rng.standard_normal(2)
        assert np.abs(sys.nabla_lorentz(x, w)).max() < 1e-6


def test_nabla_lorentz_linear_coefficient_flat():
    # sigma = x^1 dx^dy on flat space: nabla_{e1} Y = d_1 Y = rotation
    chart, metric = make_manifold("euclidean", dim=2)
    from magflow.forms import TwoFormField
    sig = TwoFormField(lambda x: x[0] * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                       chart=chart)
    sys = MagneticSystem(chart, metric, sig)
    nab = sys.nabla_lorentz(np.array([0.5, 0.2]), np.array([1.0, 0.0]))
    assert np.allclose(nab, ROT, atol=1e-9)


def test_nabla_lorentz_is_linear_in_w(rng):
    sys = system("poincare_disk", "area_form", b=1.0)
    x = np.array([0.3, -0.1])
    for _ in range(5):
        w1, w2 = rng.standard_normal((2, 2))
        a = rng.standard_normal()
        lhs = sys.nabla_lorentz(x, a * w1 + w2)
        rhs = a * sys.nabla_lorentz(x, w1) + sys.nabla_lorentz(x, w2)
        assert np.abs(lhs - rhs).max() < 1e-10


# -- closedness ------------------------------------------------------------

def test_closedness_constant_form():
    sys = system("euclidean", "constant", {"dim": 3}, b=2.0)
    assert closedness_residual(sys.sigma, np.zeros(3)) == pytest.approx(0, abs=1e-14)


def test_closedness_any_surface_form():
    sys = system("poincare_disk", "area_form", b=1.0)
    assert closedness_residual(sys.sigma, np.array([0.2, 0.3])) == \
        pytest.approx(0, abs=1e-14)


def test_area_form_derivative_matches_central_difference(rng):
    sys = system("poincare_disk", "area_form", b=1.5)
    h = 1e-6
    for _ in range(5):
        x = sys.chart.sample_point(rng)
        fd = np.stack([(sys.sigma.raw(x + h * e) - sys.sigma.raw(x - h * e))
                       / (2 * h) for e in np.eye(2)], axis=-1)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(sys.sigma.dsigma(x) - fd).max() < 1e-7 * scale


def test_area_form_matches_determinant(rng):
    # sqrt(g00 g11 - g01 g10) is the Riemannian area density sqrt(det g)
    for name in ("poincare_disk", "round_sphere", "flat_torus"):
        sys = system(name, "area_form", b=1.5)
        for _ in range(5):
            x = sys.chart.sample_point(rng)
            c = 1.5 * np.sqrt(np.linalg.det(sys.metric(x)))
            assert sys.sigma(x)[0, 1] == pytest.approx(c, rel=1e-14, abs=0)
            assert sys.sigma(x)[1, 0] == -sys.sigma(x)[0, 1]


def test_dsigma_batch_matches_point_calls(rng):
    # every built-in form derivative broadcasts, also through `rescale`: on
    # a (B, n) batch it gives the values of B single-point calls
    cases = [system(name, form, **strength(form, 1.3))
             for name in ("poincare_disk", "round_sphere")
             for form in ("zero", "constant", "area_form")]
    cases += [system("poincare_ball", "constant", b=0.7),
              system("poincare_disk", "area_form", b=1.3).rescale(2.0)]
    for sys in cases:
        assert sys.sigma.broadcasts
        X = np.array([sys.chart.sample_point(rng) for _ in range(6)])
        G = np.array([sys.metric.raw(x) for x in X])
        DG = np.array([sys.metric.dg(x) for x in X])
        single = np.array([sys.sigma.dsigma_at(x, g, dg)
                           for x, g, dg in zip(X, G, DG)])
        assert np.array_equal(sys.sigma.dsigma_at(X, G, DG), single)


def test_every_closure_batch_matches_point_calls(rng):
    # every built-in closure broadcasts, also through `rescale`: on a (B, n)
    # batch it gives the values of B single-point calls (up to the summation
    # order of a vector dot product on the ball)
    cases = [system(name, form, params, **strength(form, 1.3))
             for name, params in [("euclidean", {"dim": 3}), ("flat_torus", {}),
                                  ("poincare_disk", {}), ("poincare_ball", {}),
                                  ("round_sphere", {}),
                                  ("round_sphere", {"dim": 3})]
             for form in ("zero", "constant")]
    cases += [system(name, "area_form", b=1.3)
              for name in ("poincare_disk", "round_sphere")]
    cases += [c.rescale(1.7) for c in cases[-3:]]
    for sys in cases:
        m, f = sys.metric, sys.sigma
        assert m.broadcasts and f.broadcasts
        X = np.array([sys.chart.sample_point(rng) for _ in range(6)])
        G = np.array([m.raw(x) for x in X])
        DG = np.array([m.dg(x) for x in X])
        pairs = [(m.raw(X), G), (m.dg(X), DG),
                 (m.d2g(X), [m.d2g(x) for x in X]),
                 (m.inverse(G), [m.inverse(g) for g in G]),
                 (f.at(X, G), [f.at(x, g) for x, g in zip(X, G)]),
                 (f.dsigma_at(X, G, DG),
                  [f.dsigma_at(x, g, dg) for x, g, dg in zip(X, G, DG)])]
        for batch, single in pairs:
            single = np.array(single)
            assert batch.shape == single.shape
            assert np.abs(batch - single).max() <= 1e-15 * np.abs(single).max()


def test_batches_of_undeclared_closures_run_point_by_point(rng):
    # closures not declared broadcasting and finite differences are never
    # handed a batch
    chart, metric = make_manifold("poincare_disk")
    seen = []

    def point(fn):
        def wrapper(*args):
            seen.append(np.shape(args[0]))
            return fn(*args)
        return wrapper

    user = MetricField(point(metric.raw), dg=point(metric.dg),
                       d2g=point(metric.d2g), chart=chart)
    fd = MetricField(point(metric.raw), chart=chart, broadcasts=True)
    assert not user.broadcasts and not fd.broadcasts
    X = np.array([chart.sample_point(rng) for _ in range(3)])
    for m in (user, fd):
        m.d2g(X)
        m.inverse(m.raw(X))
    # the area form of `user` reads `user`'s coefficients, taken point-wise
    area = make_form("area_form", 2, user, chart, b=1.0)
    G, DG = user.raw(X), user.dg(X)
    assert np.array_equal(area.at(X, G), np.array([area(x) for x in X]))
    assert np.array_equal(area.dsigma_at(X, G, DG),
                          np.array([area.dsigma(x) for x in X]))
    assert seen and set(seen) == {(2,)}


def test_closedness_nonclosed_example():
    # sigma = x^3 dx^1 ^ dx^2 has d sigma = dx^3 ^ dx^1 ^ dx^2, residual 1
    from magflow.forms import TwoFormField
    def coeff(x):
        s = np.zeros((3, 3))
        s[0, 1], s[1, 0] = x[2], -x[2]
        return s
    sig = TwoFormField(coeff)
    assert closedness_residual(sig, np.array([0.1, 0.2, 0.3])) == \
        pytest.approx(1.0, abs=1e-9)


# -- rescaling -------------------------------------------------------------

def test_rescale_identity_at_one():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    assert sys.rescale(1.0) is sys


def test_rescale_scales_metric_and_form():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    r = sys.rescale(2.0)
    x = np.array([0.4, -0.3])
    assert np.allclose(r.metric(x), np.eye(2) / 4, atol=1e-14)
    assert np.allclose(r.sigma(x), sys.sigma(x) / 4, atol=1e-14)
    # Y = g^-1 sigma-hat is invariant under the common scaling
    assert np.abs(r.lorentz(x) - sys.lorentz(x)).max() < 1e-12


def test_rescale_scales_metric_built_form(rng):
    # the area form reads the rescaled metric's coefficients through g / c
    sys = system("poincare_disk", "area_form", b=1.5)
    for s in (0.5, 3.0):
        r = sys.rescale(s)
        for _ in range(3):
            x = sys.chart.sample_point(rng)
            assert np.allclose(r.sigma(x), sys.sigma(x) / s**2,
                               rtol=1e-14, atol=0)
            assert np.allclose(r.sigma.dsigma(x), sys.sigma.dsigma(x) / s**2,
                               rtol=1e-12, atol=1e-14)
            assert np.array_equal(r.geometry(x).sigma, r.sigma(x))


def test_form_of_another_metric_is_rejected(rng):
    # a form built from a metric belongs to that metric: paired with any
    # other one, the system is refused, while a metric-free form and the
    # form built from the system's own metric are accepted
    chart, metric = make_manifold("poincare_disk")
    area = make_form("area_form", 2, metric, chart, b=1.0)
    doubled = MetricField(lambda x: 2.0 * metric.raw(x),
                          dg=lambda x: 2.0 * metric.dg(x),
                          d2g=lambda x: 2.0 * metric.d2g(x), chart=chart)
    with pytest.raises(ValueError, match="another metric"):
        MagneticSystem(chart, doubled, area)
    MagneticSystem(chart, doubled, make_form("constant", 2, doubled, chart))
    own = MagneticSystem(chart, doubled,
                         make_form("area_form", 2, doubled, chart, b=1.0))
    x = chart.sample_point(rng)
    assert np.array_equal(own.geometry(x).sigma, 2.0 * area(x))


def test_rescale_preserves_christoffel(rng):
    sys = system("poincare_disk", "area_form", b=1.0)
    r = sys.rescale(0.5)
    for _ in range(5):
        x = sys.chart.sample_point(rng)
        assert np.abs(christoffel(sys.metric, x)
                      - christoffel(r.metric, x)).max() < 1e-8


def test_rescale_rejects_nonpositive_speed():
    sys = system("euclidean", "zero", {"dim": 2})
    with pytest.raises(NonpositiveSpeed):
        sys.rescale(-1.0)


def test_rescaled_lorentz_identical_on_models(rng):
    for name, form, kw in [("euclidean", "constant", {"b": 1.0}),
                           ("poincare_disk", "area_form", {"b": 1.0})]:
        sys = system(name, form, **kw)
        for s in (0.5, 2.0):
            r = sys.rescale(s)
            for _ in range(10):
                x = sys.chart.sample_point(rng)
                assert np.abs(r.lorentz(x) - sys.lorentz(x)).max() < 1e-12
