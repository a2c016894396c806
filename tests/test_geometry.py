import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magflow import (ChartSpec, MagneticSystem, MetricField, christoffel,
                     connector_split, make_form, make_manifold,
                     orthonormal_completion, riemann, sectional)
from magflow.errors import DegeneratePlane, DomainViolation, ZeroVector
from magflow.geometry import PointGeometry, connector_reconstruct, project

from conftest import strength, unit


# -- metric evaluation -----------------------------------------------------

def test_euclidean_metric_is_identity():
    _, g = make_manifold("euclidean", dim=2)
    assert np.array_equal(g(np.array([0.3, -1.2])), np.eye(2))


def test_disk_metric_at_origin():
    # conformal factor 4 / (1 - |x|^2)^2 evaluates to 4 at the origin
    _, g = make_manifold("poincare_disk")
    assert np.allclose(g(np.zeros(2)), 4 * np.eye(2), atol=1e-14)


def test_disk_guard_rejects_boundary_point():
    _, g = make_manifold("poincare_disk")  # guard margin 1e-3
    with pytest.raises(DomainViolation):
        g(np.array([0.999, 0.0]))


def test_metric_positive_definite_at_samples(model, rng):
    _, chart, g = model
    for _ in range(10):
        x = chart.sample_point(rng)
        w = np.linalg.eigvalsh(g(x))
        assert w.min() > 0


def test_analytic_inverse_matches_numerical(model, rng):
    name, chart, metric = model
    for _ in range(5):
        x = chart.sample_point(rng)
        g = metric(x)
        assert np.allclose(metric.inverse(g), np.linalg.inv(g),
                           rtol=1e-14, atol=0), name


def test_builtin_inverse_is_reciprocal_diagonal(model, rng):
    # every built-in metric declares `spray`, so g^-1 is the reciprocal
    # of g's diagonal to the bit, at one point and on a batch
    name, chart, metric = model
    G = metric.raw(np.array([chart.sample_point(rng) for _ in range(50)]))
    want = np.array([np.diag(1.0 / np.diag(g)) for g in G])
    assert np.array_equal(metric.inverse(G[0]), want[0]), name
    assert np.array_equal(metric.inverse(G), want), name


def test_d2g_batch_matches_point_calls(rng):
    # every built-in second-derivative closure broadcasts: on a (B, n) batch
    # it gives the values of B single-point calls (up to the summation order
    # of a vector dot product)
    for name, params in [("euclidean", {"dim": 3}), ("flat_torus", {}),
                         ("poincare_disk", {}), ("poincare_ball", {}),
                         ("round_sphere", {}), ("round_sphere", {"dim": 3})]:
        chart, metric = make_manifold(name, **params)
        assert metric.broadcasts, name
        X = np.array([chart.sample_point(rng) for _ in range(7)])
        single = np.array([metric.d2g(x) for x in X])
        batch = metric.d2g(X)
        assert batch.shape == single.shape, name
        assert np.abs(batch - single).max() <= 1e-15 * np.abs(single).max(), name


def test_d2g_batch_evaluates_undeclared_closures_point_by_point(rng):
    # a closure not declared broadcasting is never handed a batch: this one
    # would return a well-shaped wrong answer on one
    chart, metric = make_manifold("poincare_disk")
    seen = []

    def d2g(x):
        seen.append(np.shape(x))
        return x[0] * metric.d2g(x)

    user = MetricField(metric.raw, dg=metric.dg, d2g=d2g, chart=chart)
    X = np.array([chart.sample_point(rng) for _ in range(4)])
    assert not user.broadcasts
    assert np.array_equal(user.d2g(X),
                          np.array([x[0] * metric.d2g(x) for x in X]))
    assert seen == [(2,)] * 4


# -- Christoffel symbols ---------------------------------------------------

def test_christoffel_flat_is_zero():
    _, g = make_manifold("euclidean", dim=3)
    assert np.allclose(christoffel(g, np.array([1.0, 2.0, 3.0])), 0, atol=1e-15)


def test_christoffel_sphere_closed_form():
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta) = -0.5 at theta = pi/4
    _, g = make_manifold("round_sphere", dim=2)
    G = christoffel(g, np.array([np.pi / 4, 1.0]))
    assert G[0, 1, 1] == pytest.approx(-0.5, abs=1e-10)


def test_christoffel_symmetry_and_fd_agreement(model, rng):
    name, chart, g = model
    # the same metric with the analytic derivative closures stripped falls
    # back to central differences; the two pipelines must agree
    g_fd = MetricField(g.raw, chart=chart)
    for _ in range(100):
        x = chart.sample_point(rng)
        G = christoffel(g, x)
        assert np.array_equal(G, np.swapaxes(G, 1, 2))
        assert np.allclose(G, christoffel(g_fd, x), atol=1e-6)


# -- curvature -------------------------------------------------------------

def test_dchristoffel_matches_inverse_derivative_formula(model, rng):
    # reference: d Gamma = d(g^-1) gamma_low + g^-1 d gamma_low with
    # d(g^-1) = -g^-1 dg g^-1, the formula the reuse of Gamma replaced
    name, chart, metric = model
    for _ in range(5):
        geo = PointGeometry(metric, chart.sample_point(rng))
        ginv = geo.ginv
        dginv = -np.einsum("ia,abm,bl->ilm", ginv, geo.dg, ginv)
        ref = (np.einsum("ilm,ljk->ijkm", dginv, geo.gamma_low)
               + np.einsum("il,ljkm->ijkm", ginv, geo.dgamma_low()))
        scale = 1.0 + np.abs(ref).max()
        assert np.abs(geo.dchristoffel() - ref).max() < 1e-13 * scale, name


def test_riemann_flat_zero():
    _, g = make_manifold("euclidean", dim=3)
    R = riemann(g, np.array([0.1, 0.2, 0.3]))
    assert np.allclose(R.up, 0, atol=1e-14)


def test_riemann_symmetries_and_bianchi(model, rng):
    _, chart, g = model
    for _ in range(5):
        x = chart.sample_point(rng)
        low = riemann(g, x).low
        scale = max(np.abs(low).max(), 1.0)
        assert np.abs(low + np.swapaxes(low, 2, 3)).max() / scale < 1e-8
        assert np.abs(low + np.swapaxes(low, 0, 1)).max() / scale < 1e-8
        bianchi = (low + np.einsum("ijkl->iklj", low)
                   + np.einsum("ijkl->iljk", low))
        assert np.abs(bianchi).max() / scale < 1e-8


def test_sectional_constant_curvature_models(rng):
    for name, value in [("poincare_disk", -1.0), ("poincare_ball", -1.0),
                        ("round_sphere", 1.0)]:
        chart, g = make_manifold(name)
        for _ in range(3):
            x = chart.sample_point(rng)
            v, w = rng.standard_normal((2, chart.dim))
            assert sectional(g, x, v, w) == pytest.approx(value, abs=1e-6)


def test_sectional_flat_torus_zero(rng):
    chart, g = make_manifold("flat_torus")
    x = chart.sample_point(rng)
    assert sectional(g, x, np.array([1.0, 0.2]), np.array([0.1, 1.0])) == \
        pytest.approx(0.0, abs=1e-12)


def test_sectional_degenerate_plane():
    chart, g = make_manifold("poincare_disk")
    v = np.array([1.0, 2.0])
    with pytest.raises(DegeneratePlane):
        sectional(g, np.zeros(2), v, 3.0 * v)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3),
       d=st.floats(-3, 3))
def test_sectional_gl2_invariance(a, b, c, d):
    if abs(a * d - b * c) < 1e-3:
        return
    chart, g = make_manifold("round_sphere", dim=3)
    x = np.array([1.1, 0.9, 2.0])
    v = np.array([1.0, 0.3, -0.2])
    w = np.array([0.1, 1.0, 0.4])
    s1 = sectional(g, x, v, w)
    s2 = sectional(g, x, a * v + b * w, c * v + d * w)
    assert s2 == pytest.approx(s1, rel=1e-10)


_BUILTINS = [("euclidean", {"dim": 2}), ("euclidean", {"dim": 3}),
             ("flat_torus", {}), ("poincare_disk", {}), ("poincare_ball", {}),
             ("round_sphere", {"dim": 2}), ("round_sphere", {"dim": 3}),
             ("round_sphere", {"dim": 4})]


def _point_in(chart, unit_point):
    """The point of the chart's sample box at the fractions `unit_point`."""
    lo, hi = chart.sample_bounds
    return lo + (hi - lo) * np.array(unit_point[:chart.dim])


def _close(got, want):
    got = np.array(got)
    return (got.shape == want.shape
            and np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(_BUILTINS),
       unit_point=st.lists(st.floats(0, 1), min_size=4, max_size=4),
       v=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       s=st.sampled_from([1.0, 1.7]))
def test_builtin_diagonal_closure_matches_raw_and_dg(model, unit_point, v, s):
    # `spray` declares a diagonal g; on floats at one point it gives the
    # geodesic acceleration a = -Gamma(v, v), with Gamma from raw and dg,
    # and g's diagonal d[i] = g_ii as lists, also on the rescaled metric
    # s^-2 g
    name, params = model
    chart, metric = make_manifold(name, **params)
    g = MagneticSystem(chart, metric, make_form("zero", chart.dim)).rescale(
        s).metric
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    v = np.array(v[:chart.dim])
    gx = g.raw(x)
    assert np.array_equal(gx, np.diag(np.diag(gx)))
    a, d = g.spray(x.tolist(), v.tolist())
    assert all(type(u) is float for u in a + d)
    assert _close(a, -np.einsum("ijk,j,k->i", christoffel(g, x), v, v))
    assert _close(d, np.diag(gx))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=st.sampled_from(_BUILTINS),
       form=st.sampled_from(["zero", "constant", "area_form"]),
       unit_point=st.lists(st.floats(0, 1), min_size=4, max_size=4),
       v=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       b=st.floats(-3, 3), s=st.sampled_from([1.0, 1.7]))
def test_builtin_form_closure_matches_at(model, form, unit_point, v, b, s):
    # `lorentz_v` at one point, given g's diagonal there from `spray`, is
    # the Lorentz force Yv = -g^-1 sigma v, with sigma from `at`, also on
    # the rescaled system (s^-2 g, s^-2 sigma)
    name, params = model
    chart, metric = make_manifold(name, **params)
    assume(form != "area_form" or chart.dim == 2)
    sys = MagneticSystem(chart, metric, make_form(
        form, chart.dim, metric, chart, **strength(form, b))).rescale(s)
    x = _point_in(chart, unit_point)
    assume(chart.contains(x))
    v = np.array(v[:chart.dim])
    _, d = sys.metric.spray(x.tolist(), v.tolist())
    got = sys.sigma.lorentz_v(x.tolist(), d, v.tolist())
    assert all(type(u) is float for u in got)
    assert _close(got, sys.lorentz(x) @ v)


def test_box_sampler_draws_as_uniform():
    # a chart's sampler draws rng.uniform(lo, hi) to the bit until the guard
    # admits a point (the ball's box has corners outside it), and leaves the
    # generator in the same state
    for name in ("poincare_ball", "round_sphere"):
        chart, _ = make_manifold(name)
        lo, hi = chart.sample_bounds
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            y = theirs.uniform(lo, hi)
            while not chart.contains(y):
                y = theirs.uniform(lo, hi)
            assert np.array_equal(chart.sample_point(ours), y)
        assert ours.bit_generator.state == theirs.bit_generator.state


# -- projections and the connector -----------------------------------------

def test_project_along_self():
    chart, g = make_manifold("euclidean", dim=2)
    v = np.array([0.7, -0.2])
    tang, norm = project(g, np.zeros(2), v, v)
    assert np.allclose(tang, v, atol=1e-14)
    assert np.allclose(norm, 0, atol=1e-14)


def test_project_orthogonal_case():
    chart, g = make_manifold("euclidean", dim=2)
    tang, norm = project(g, np.zeros(2), np.array([1.0, 0.0]),
                         np.array([0.0, 1.0]))
    assert np.allclose(tang, 0, atol=1e-14)
    assert np.allclose(norm, [0.0, 1.0], atol=1e-14)


def test_project_conformal_preserves_angles():
    # conformal metrics preserve Euclidean orthogonality
    chart, g = make_manifold("poincare_disk")
    x = np.array([0.5, 0.0])
    tang, norm = project(g, x, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert np.allclose(tang, [1.0, 0.0], atol=1e-12)
    assert np.allclose(norm, [0.0, 1.0], atol=1e-12)


def test_project_zero_vector_rejected():
    chart, g = make_manifold("euclidean", dim=2)
    with pytest.raises(ZeroVector):
        project(g, np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


def test_connector_flat_case():
    chart, g = make_manifold("euclidean", dim=2)
    split = connector_split(g, np.zeros(2), np.array([1.0, 0.0]),
                            np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(split.horizontal, [1.0, 2.0])
    assert np.allclose(split.vertical, [3.0, 4.0])


def test_connector_round_trip(model, rng):
    _, chart, g = model
    n = chart.dim
    for _ in range(10):
        x = chart.sample_point(rng)
        v = rng.standard_normal(n)
        xi = rng.standard_normal(2 * n)
        split = connector_split(g, x, v, xi)
        back = connector_reconstruct(g, x, v, split)
        assert np.abs(back - xi).max() < 1e-12 * max(1.0, np.abs(xi).max())


# -- orthonormal completion ------------------------------------------------

def test_completion_euclidean_standard():
    _, g = make_manifold("euclidean", dim=3)
    frame = orthonormal_completion(g, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert np.allclose(frame, np.eye(3), atol=1e-14)


def test_completion_deterministic_sign():
    _, g = make_manifold("euclidean", dim=2)
    frame = orthonormal_completion(g, np.zeros(2), np.array([0.0, 2.0]))
    assert np.allclose(frame[0], [0.0, 1.0], atol=1e-14)
    # Gram-Schmidt against the first standard-basis seed fixes the sign
    assert np.allclose(frame[1], [1.0, 0.0], atol=1e-14)
    again = orthonormal_completion(g, np.zeros(2), np.array([0.0, 2.0]))
    assert np.array_equal(frame, again)


def test_completion_disk_origin():
    _, g = make_manifold("poincare_disk")
    frame = orthonormal_completion(g, np.zeros(2), np.array([1.0, 0.0]))
    assert np.allclose(frame[0], [0.5, 0.0], atol=1e-14)
    assert np.allclose(frame[1], [0.0, 0.5], atol=1e-14)


def test_completion_is_g_orthonormal(model, rng):
    _, chart, g = model
    for _ in range(5):
        x = chart.sample_point(rng)
        v = rng.standard_normal(chart.dim)
        frame = orthonormal_completion(g, x, v)
        gram = frame @ g(x) @ frame.T
        assert np.abs(gram - np.eye(chart.dim)).max() < 1e-10
