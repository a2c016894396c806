import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from magflow import (ChartSpec, IntegratorConfig, MagneticSystem, MetricField,
                     alpha_defect, anosov_report, augmented_exp, op_A,
                     candidate_hypersurface, candidate_submanifold,
                     cartan_probe, classical_II,
                     dynamic_consistency_check, dynamical_II,
                     invariance_defect, make_form, make_submanifold)
from magflow.errors import BadDimension, NonUnitVector, NotTangent
from magflow import flow, submanifold
from magflow.submanifold import _FD_STEP, HyperplaneElement, ParamSubmanifold

from conftest import conformal_system, system, unit


def _plane_e12(sys, extent=1.0):
    return make_submanifold({"type": "hyperplane", "point": [0, 0, 0],
                             "normal": [0, 0, 1], "extent": extent}, sys)


def _unit_sphere(sys):
    return make_submanifold({"type": "sphere", "center": [0, 0, 0],
                             "radius": 1.0}, sys)


# -- classical second fundamental form --------------------------------------

def test_classical_II_affine_plane_zero():
    sys = system("euclidean", "zero", {"dim": 3})
    N = _plane_e12(sys)
    II = classical_II(sys.metric, N, np.array([0.1, 0.2]),
                      np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.abs(II).max() < 1e-12


def test_classical_II_round_sphere_unit_norm():
    sys = system("euclidean", "zero", {"dim": 3})
    N = _unit_sphere(sys)
    p = np.array([0.4, 1.1])
    J = N.jacobian(p)
    u = J[:, 0] / np.linalg.norm(J[:, 0])   # ambient unit tangent
    II = classical_II(sys.metric, N, p, u, u)
    assert np.linalg.norm(II) == pytest.approx(1.0, abs=1e-6)
    # mean curvature vector of the unit sphere points inward
    assert II @ N.point(p) == pytest.approx(-1.0, abs=1e-6)


def test_classical_II_totally_geodesic_disk():
    sys = system("poincare_ball", "zero")
    f = lambda p: np.array([p[0], p[1], 0.0])
    N = ParamSubmanifold(k=2, f=f,
                         sample_bounds=(-0.5 * np.ones(2), 0.5 * np.ones(2)))
    II = classical_II(sys.metric, N, np.array([0.2, -0.1]),
                      np.array([1.0, 0.3, 0.0]), np.array([0.2, 1.0, 0.0]))
    assert np.abs(II).max() < 1e-8


def test_classical_II_symmetry(rng):
    sys = system("euclidean", "zero", {"dim": 3})
    N = _unit_sphere(sys)
    p = np.array([1.0, 0.7])
    J = N.jacobian(p)
    u, w = (J @ rng.standard_normal((2, 2))).T
    a = classical_II(sys.metric, N, p, u, w)
    b = classical_II(sys.metric, N, p, w, u)
    assert np.abs(a - b).max() < 1e-10


# -- dynamical second fundamental form --------------------------------------

def test_dynamical_II_totally_geodesic_plane():
    sys = system("poincare_ball", "zero")
    f = lambda p: np.array([p[0], p[1], 0.0])
    N = ParamSubmanifold(k=2, f=f,
                         sample_bounds=(-0.5 * np.ones(2), 0.5 * np.ones(2)))
    p = np.array([0.1, 0.2])
    x = N.point(p)
    v = unit(sys.metric, x, np.array([1.0, 0.5, 0.0]))
    val = dynamical_II(sys, N, p, v)
    assert np.abs(val.first).max() < 1e-9
    assert np.abs(val.second).max() < 1e-12


def test_dynamical_II_sphere_geodesic_flow():
    sys = system("euclidean", "zero", {"dim": 3})
    N = _unit_sphere(sys)
    p = np.array([0.8, 0.3])
    J = N.jacobian(p)
    v = J[:, 0] / np.linalg.norm(J[:, 0])
    val = dynamical_II(sys, N, p, v)
    assert np.linalg.norm(val.first) == pytest.approx(1.0, abs=1e-6)


def test_dynamical_II_totally_magnetic_plane():
    # {x3 = 0} with sigma = b dx1^dx2: Yv stays in the plane, so II^phi = 0
    sys = system("euclidean", "constant", {"dim": 3}, b=1.5)
    N = _plane_e12(sys)
    val = dynamical_II(sys, N, np.array([0.2, -0.3]), np.array([1.0, 0.0, 0.0]))
    assert np.abs(val.first).max() < 1e-12
    assert np.abs(val.second).max() < 1e-12


def test_dynamical_II_input_validation():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    N = _plane_e12(sys)
    with pytest.raises(NonUnitVector):
        dynamical_II(sys, N, np.zeros(2), np.array([2.0, 0.0, 0.0]))
    with pytest.raises(NotTangent):
        dynamical_II(sys, N, np.zeros(2), np.array([0.0, 0.0, 1.0]))


def test_dynamical_II_second_component_vanishes_for_magnetic(rng):
    sys = system("euclidean", "constant", {"dim": 3}, b=2.0)
    N = _unit_sphere(sys)
    for _ in range(10):
        p = N.sample_param(rng)
        J = N.jacobian(p)
        v = J @ rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        val = dynamical_II(sys, N, p, v)
        assert np.abs(val.second).max() < 1e-12


def test_parity_decomposition(rng):
    # even part in v of the first component = II-part; odd part = -[X_V]-perp
    sys = system("euclidean", "constant", {"dim": 3}, b=1.3)
    N = _unit_sphere(sys)
    p = np.array([0.9, 0.4])
    J = N.jacobian(p)
    v = J @ rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    plus = dynamical_II(sys, N, p, v).first
    minus = dynamical_II(sys, N, p, -v).first
    odd = 0.5 * (plus - minus)
    x = N.point(p)
    nu = x / np.linalg.norm(x)
    xv_perp = (sys.lorentz(x) @ v) @ nu * nu
    assert np.abs(odd + xv_perp).max() < 1e-10
    even = 0.5 * (plus + minus)
    II = classical_II(sys.metric, N, p, v, v)
    assert np.abs(even - II).max() < 1e-8


# -- invariance defect and dynamic consistency ------------------------------

def test_defect_totally_geodesic_disk():
    sys = system("poincare_ball", "zero")
    f = lambda p: np.array([p[0], p[1], 0.0])
    N = ParamSubmanifold(k=2, f=f,
                         sample_bounds=(-0.5 * np.ones(2), 0.5 * np.ones(2)))
    rep = invariance_defect(sys, N, 16, seed=3)
    assert rep.sup < 1e-10


def test_defect_euclidean_sphere_radius():
    sys = system("euclidean", "zero", {"dim": 3})
    for r in (1.0, 2.0):
        N = make_submanifold({"type": "sphere", "center": [0, 0, 0],
                              "radius": r}, sys)
        rep = invariance_defect(sys, N, 16, seed=3)
        assert rep.sup == pytest.approx(1 / r ** 2, abs=1e-6)


def test_defect_totally_magnetic_plane():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    rep = invariance_defect(sys, _plane_e12(sys), 16, seed=3)
    assert rep.sup < 1e-10


def test_consistency_totally_magnetic_plane():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    N = _plane_e12(sys, extent=3.0)
    d = dynamic_consistency_check(sys, N, np.zeros(2),
                                  np.array([1.0, 0.0, 0.0]), 5.0,
                                  IntegratorConfig(step=1e-3))
    assert d < 1e-6


def test_consistency_sphere_geodesics_escape():
    sys = system("euclidean", "zero", {"dim": 3})
    N = _unit_sphere(sys)
    p = np.array([np.pi / 2, 0.0])
    J = N.jacobian(p)
    v = J[:, 1] / np.linalg.norm(J[:, 1])
    d = dynamic_consistency_check(sys, N, p, v, 1.0,
                                  IntegratorConfig(step=1e-2))
    assert 0.05 < d < 0.5


def test_consistency_rejects_full_dimension():
    sys = system("euclidean", "zero", {"dim": 2})
    N = ParamSubmanifold(k=2, f=lambda p: np.asarray(p, dtype=float),
                         sample_bounds=(-np.ones(2), np.ones(2)))
    with pytest.raises(BadDimension):
        dynamic_consistency_check(sys, N, np.zeros(2), np.array([1.0, 0.0]),
                                  1.0)


# -- exp-image candidates ---------------------------------------------------

def test_candidate_flat_is_affine_plane():
    sys = system("euclidean", "zero", {"dim": 3})
    elem = HyperplaneElement(x=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]))
    N = candidate_hypersurface(sys, np.zeros(3), elem, radius=1.0)
    p = np.array([0.3, -0.4])
    assert abs(N.point(p)[2]) < 1e-12


def test_candidate_geodesic_disk_invariant():
    sys = system("poincare_ball", "zero")
    basis = np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]).T
    N = candidate_submanifold(sys, np.zeros(3), basis, radius=0.8)
    rep = invariance_defect(sys, N, 8, seed=2)
    assert rep.sup < 1e-8


def test_candidate_totally_magnetic_plane():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    basis = np.eye(3)[:, :2]
    N = candidate_submanifold(sys, np.zeros(3), basis, radius=1.0)
    for p in (np.array([0.3, 0.1]), np.array([-0.5, 0.7])):
        assert abs(N.point(p)[2]) < 1e-10
    rep = invariance_defect(sys, N, 8, seed=2)
    assert rep.sup < 1e-10


@pytest.mark.parametrize("step", [1e-2, 3e-3])
@pytest.mark.parametrize("manifold, form, x, basis", [
    ("poincare_ball", "zero", [0.1, 0.0, 0.05], np.eye(3)[:, :2]),
    ("poincare_disk", "area_form", [0.1, -0.05], np.eye(2)[:, :1])])
def test_exp_image_point_is_its_jacobian_flows_end(monkeypatch, manifold, form,
                                                   x, basis, step):
    # a point of an exp-image and its Jacobian come from one orbit: N.point(u)
    # is the end point of the variational flow behind N.jacobian(u), to the bit
    sys = system(manifold, form, **({"b": 1.5} if form != "zero" else {}))
    N = candidate_submanifold(sys, np.array(x), basis, radius=0.6,
                              cfg=IntegratorConfig(step=step))
    ends = []
    flow_of = submanifold.variational_flow

    def recorded(*args):
        J, end = flow_of(*args)
        ends.append(end)
        return J, end

    monkeypatch.setattr(submanifold, "variational_flow", recorded)
    for u in (np.full(N.k, 0.3), np.linspace(-0.4, 0.2, N.k)):
        N.jacobian(u)
        assert np.array_equal(N.point(u), ends[-1].x)
    assert len(ends) == 2


def _counting(monkeypatch, module, name, calls):
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_defect_sample_evaluates_exp_image_once(monkeypatch):
    # one sample: f(p) and J(p) are one variational flow, and the
    # directional second derivative H(a, a) two Jacobians, for any k
    sys = system("poincare_ball", "zero")
    calls = {"integrate": 0, "variational_flow": 0}
    _counting(monkeypatch, flow, "integrate", calls)
    _counting(monkeypatch, submanifold, "variational_flow", calls)
    for k in (1, 2):
        N = candidate_submanifold(sys, np.array([0.1, 0.0, 0.05]),
                                  np.eye(3)[:, :k], radius=0.3)
        calls.update(integrate=0, variational_flow=0)
        invariance_defect(sys, N, 1, seed=3)
        assert calls == {"integrate": 0, "variational_flow": 3}


def test_augmented_exp_runs_one_flow(monkeypatch):
    # the pushed point and plane (y, P) come from one variational flow
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    calls = {"integrate": 0, "variational_flow": 0}
    _counting(monkeypatch, flow, "integrate", calls)
    _counting(monkeypatch, submanifold, "variational_flow", calls)
    augmented_exp(sys, np.zeros(3), np.eye(3)[:, :2],
                  np.array([1.0, 0.0, 0.0]), 0.5)
    assert calls == {"integrate": 0, "variational_flow": 1}


def test_closure_hessian_takes_no_jacobian(monkeypatch):
    # with a Hessian closure, H(a, a) is the closure contracted with a
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    N = _unit_sphere(sys)
    p = np.array([1.0, 0.5])
    J = N.jacobian(p)
    calls = {"jacobian": 0}
    _counting(monkeypatch, ParamSubmanifold, "jacobian", calls)
    N.hessian(p, np.array([0.3, -0.8]))
    assert calls == {"jacobian": 0}
    dynamical_II(sys, N, p, J[:, 0] / np.linalg.norm(J[:, 0]))
    assert calls == {"jacobian": 1}     # J at p itself


def _hessian_cases():
    ball = system("poincare_ball", "zero")
    disk = system("poincare_disk", "area_form", b=1.0)
    euclid = system("euclidean", "zero", {"dim": 3})
    return {
        "hyperplane": make_submanifold(
            {"type": "hyperplane", "point": [0.1, 0, 0],
             "normal": [1, 1, 1]}, euclid),
        "sphere": _unit_sphere(euclid),
        "exp-plane-ball": make_submanifold(
            {"type": "exp_plane", "x": [0.1, -0.2, 0.05],
             "basis": [[1, 0], [0, 1], [0.2, 0.3]], "radius": 0.4}, ball),
        "exp-plane-disk": make_submanifold(
            {"type": "exp_plane", "x": [0.2, 0.1], "basis": [[1], [0.5]],
             "radius": 0.4}, disk),
    }


_HESSIAN_CASES = _hessian_cases()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(_HESSIAN_CASES)),
       unit_p=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
       a=st.lists(st.floats(-1, 1), min_size=2, max_size=2))
def test_directional_hessian_agrees_with_full(case, unit_p, a):
    N = _HESSIAN_CASES[case]
    lo, hi = N.sample_bounds
    p = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.array(unit_p[:N.k])
    # with a nonzero form an exp-image is C^1 but not C^2 at u = 0, where
    # its second derivative jumps by the Lorentz force: no stencil of an
    # exp-image straddles u = 0
    assume(not case.startswith("exp") or p @ p > (2 * _FD_STEP) ** 2)
    a = np.array(a[:N.k])
    full = np.einsum("iab,a,b->i", N.hessian(p), a, a)
    assert np.abs(N.hessian(p, a) - full).max() < 1e-6


def test_alpha_quadrature_evaluates_hessian_once(monkeypatch):
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    N = _unit_sphere(sys)
    calls = {"hessian": 0}
    _counting(monkeypatch, ParamSubmanifold, "hessian", calls)
    sup, mean = submanifold._alpha_at(sys, N, np.array([1.0, 0.5]), 64)
    assert calls["hessian"] == 1
    assert 0 < mean <= sup


def test_submanifold_keeps_no_per_point_state(rng):
    sys = system("euclidean", "zero", {"dim": 3})
    N = ParamSubmanifold(2, lambda p: np.array([p[0], p[1], p @ p]))

    def state():
        return {key: len(val) if hasattr(val, "__len__") else val
                for key, val in vars(N).items()}

    before = state()
    for _ in range(20):
        p = rng.uniform(-0.5, 0.5, 2)
        N.hessian(p)
        classical_II(sys.metric, N, p, N.jacobian(p)[:, 0], N.jacobian(p)[:, 1])
    assert state() == before


def test_make_submanifold_rejects_unread_keys():
    sys = system("euclidean", "zero", {"dim": 3})
    with pytest.raises(ValueError, match="'raduis'"):
        make_submanifold({"type": "sphere", "raduis": 2.0}, sys)
    with pytest.raises(ValueError, match="'center'"):
        make_submanifold({"type": "hyperplane", "point": [0, 0, 0],
                          "normal": [0, 0, 1], "center": [0, 0, 0]}, sys)
    with pytest.raises(ValueError, match="unknown submanifold type"):
        make_submanifold({"type": "torus"}, sys)


# -- augmented exponential ---------------------------------------------------

def test_augmented_exp_flat_translation():
    sys = system("euclidean", "zero", {"dim": 3})
    basis = np.eye(3)[:, :2]
    y, elem = augmented_exp(sys, np.zeros(3), basis, np.array([1.0, 0.0, 0.0]),
                            0.7)
    assert np.abs(y - [0.7, 0.0, 0.0]).max() < 1e-10
    assert abs(abs(elem.normal[2]) - 1.0) < 1e-10


def test_augmented_exp_preserves_magnetic_plane():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    basis = np.eye(3)[:, :2]
    for t in (0.5, 1.5):
        y, elem = augmented_exp(sys, np.zeros(3), basis,
                                np.array([1.0, 0.0, 0.0]), t)
        assert abs(y[2]) < 1e-10
        assert abs(abs(elem.normal[2]) - 1.0) < 1e-8


def test_augmented_exp_geodesic_disk_normal():
    sys = system("poincare_ball", "zero")
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T
    v = unit(sys.metric, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    y, elem = augmented_exp(sys, np.zeros(3), basis, v, 0.8)
    assert abs(y[2]) < 1e-8
    gx = sys.metric(y)
    nu = elem.normal
    assert abs(nu @ gx @ nu - 1) < 1e-10
    # the normal of the geodesic disk stays the e3-axis direction
    assert abs(nu[0]) < 1e-6 and abs(nu[1]) < 1e-6


# -- alpha defect ------------------------------------------------------------

def test_alpha_defect_geodesic_disk():
    sys = system("poincare_ball", "zero")
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T
    rep = alpha_defect(sys, np.zeros(3), basis)
    assert rep.sup < 1e-8


def test_alpha_defect_affine_plane_flat():
    sys = system("euclidean", "zero", {"dim": 3})
    basis = np.eye(3)[:, :2]
    rep = alpha_defect(sys, np.array([0.0, 0.0, 1.0]), basis)
    assert rep.sup < 1e-10


def test_alpha_defect_misaligned_plane_positive():
    # span{e1, e3} is not preserved: orbits tangent to e1 curl out of it
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    basis = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T
    rep = alpha_defect(sys, np.zeros(3), basis)
    assert rep.sup > 1e-3


def test_alpha_defect_hyperplanes_of_four_space():
    # a 3-dimensional exp-image takes its directions on S^2 from a
    # fixed-seed standard normal draw, normalised: the same unit vectors at
    # every call
    nodes = submanifold._unit_sphere_nodes(3, 64)
    assert nodes.shape == (64, 3)
    assert np.array_equal(nodes, submanifold._unit_sphere_nodes(3, 64))
    assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-15
    free = system("euclidean", "zero", {"dim": 4})
    rep = alpha_defect(free, np.array([0.0, 0.0, 0.0, 1.0]), np.eye(4)[:, :3])
    assert rep.sup < 1e-20
    # under b dx^1 ^ dx^2, orbits tangent to e2 curl out of span{e2, e3, e4}
    magnetic = system("euclidean", "constant", {"dim": 4}, b=1.0)
    rep = alpha_defect(magnetic, np.zeros(4), np.eye(4)[:, 1:])
    assert rep.sup > 0.5


def test_conformal_metric_derivatives_match_finite_differences():
    sys = conformal_system()
    fd = MetricField(sys.metric.raw)
    x = np.array([0.3, -0.2, 0.1])
    assert np.abs(sys.metric.dg(x) - fd.dg(x)).max() < 1e-8
    assert np.abs(sys.metric.d2g(x) - fd.d2g(x)).max() < 1e-6


def test_alpha_defect_off_the_space_forms():
    # on g = e^{2 phi} delta the exp-image of span{e1, e2} is not invariant
    # under the free flow.  alpha_defect (the full Hessian at 6 parameters
    # of the exp-image) and invariance_defect (directional Hessians at 40
    # random parameters) are two code paths that must agree on its size
    sys = conformal_system()
    x, basis = np.array([0.3, 0.0, 0.0]), np.eye(3)[:, :2]
    rep = alpha_defect(sys, x, basis)
    N = candidate_submanifold(sys, x, basis, 0.5)
    ref = invariance_defect(sys, N, 40, seed=0).sup
    assert rep.samples == 6
    assert ref / 10 < rep.sup < 10 * ref


# -- g-unit checks -----------------------------------------------------------

_NAN = np.array([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("check", [
    pytest.param(lambda sys, N: op_A(sys, np.zeros(3), _NAN), id="op_A"),
    pytest.param(lambda sys, N: dynamical_II(sys, N, np.zeros(2), _NAN),
                 id="dynamical_II"),
    pytest.param(lambda sys, N: dynamic_consistency_check(
        sys, N, np.zeros(2), _NAN, 1.0), id="dynamic_consistency_check"),
    pytest.param(lambda sys, N: augmented_exp(
        sys, np.zeros(3), np.eye(3)[:, :2], _NAN, 0.5), id="augmented_exp"),
])
def test_nan_direction_is_not_g_unit(check):
    # abs(nan - 1) > tol is False: a NaN direction passed every g-unit
    # check written that way
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    with pytest.raises(NonUnitVector):
        check(sys, _plane_e12(sys))


# -- Cartan probe ------------------------------------------------------------

_BAD_COUNTS = {
    "defect-zero-samples": ("sample_count", lambda sys: invariance_defect(
        sys, _plane_e12(sys), 0)),
    "defect-negative-samples": ("sample_count", lambda sys: invariance_defect(
        sys, _plane_e12(sys), -1)),
    "defect-fractional-samples": ("sample_count", lambda sys: invariance_defect(
        sys, _plane_e12(sys), 2.5)),
    "cartan-zero-planes": ("plane_samples", lambda sys: cartan_probe(
        sys, 2, 0)),
    "cartan-negative-planes": ("plane_samples", lambda sys: cartan_probe(
        sys, 2, -1)),
    "cartan-zero-defect-samples": ("defect_samples", lambda sys: cartan_probe(
        sys, 2, 1, defect_samples=0)),
    "cartan-negative-defect-samples": ("defect_samples",
                                       lambda sys: cartan_probe(
                                           sys, 2, 1, defect_samples=-1)),
    "anosov-zero-samples": ("sample_count", lambda sys: anosov_report(
        sys, 1.0, 0)),
    "anosov-fractional-samples": ("sample_count", lambda sys: anosov_report(
        sys, 1.0, 2.5)),
    "anosov-boolean-samples": ("sample_count", lambda sys: anosov_report(
        sys, 1.0, True)),
}


@pytest.mark.parametrize("case", sorted(_BAD_COUNTS))
def test_sample_counts_must_be_positive_ints(case):
    # a sample count that is not a positive int is rejected, naming the
    # argument, before numpy reduces over an empty or negative sample
    name, call = _BAD_COUNTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be a positive int"):
        call(system("euclidean", "zero", {"dim": 3}))


def test_cartan_probe_dimension_guard():
    sys = system("euclidean", "zero", {"dim": 3})
    with pytest.raises(BadDimension):
        cartan_probe(sys, 3, 2)


def test_cartan_probe_space_form_consistent():
    sys = system("poincare_ball", "zero")
    rep = cartan_probe(sys, 2, 5, seed=4, radius=0.3, defect_samples=2)
    assert rep.fraction_invariant == 1.0
    assert rep.sec_variance < 1e-8
    assert rep.verdict.startswith("consistent")


def test_cartan_probe_magnetic_flags_noninvariant_planes():
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    rep = cartan_probe(sys, 2, 8, seed=4, radius=0.3, defect_samples=2)
    assert max(rep.defects) > 1e-3
    assert "some planes fail" in rep.verdict


def test_sigma_operator_norm_non_diagonal_metric():
    # sup |Y v|_g / |v|_g, the square root of the largest eigenvalue of the
    # generalised problem (Y^T g Y, g), on a constant metric that is far from
    # diagonal; diagonal metrics cannot tell C Y C^-1 from C^T Y C^-T
    G = np.array([[2.0, 1.9, 0.0], [1.9, 2.0, 0.3], [0.0, 0.3, 1.0]])
    chart = ChartSpec(dim=3)
    metric = MetricField(lambda x: G, dg=lambda x: np.zeros((3, 3, 3)),
                         d2g=lambda x: np.zeros((3, 3, 3, 3)), chart=chart)
    sys = MagneticSystem(chart, metric,
                         make_form("constant", 3, metric, chart, b=1.0))
    x = np.zeros(3)
    Y = sys.lorentz(x)
    oracle = np.sqrt(scipy.linalg.eigh(Y.T @ G @ Y, G, eigvals_only=True).max())
    assert abs(submanifold._sigma_operator_norm(sys, x) - oracle) < 1e-12 * oracle


def test_defect_consistency_equivalence(rng):
    # vanishing defect and bounded orbit distance agree on the same samples
    magnetic = system("euclidean", "constant", {"dim": 3}, b=1.0)
    plane = _plane_e12(magnetic, extent=3.0)
    assert invariance_defect(magnetic, plane, 8, seed=1).sup < 1e-8
    d = dynamic_consistency_check(magnetic, plane, np.zeros(2),
                                  np.array([1.0, 0.0, 0.0]), 2.0,
                                  IntegratorConfig(step=1e-3))
    assert d < 1e-5
    free = system("euclidean", "zero", {"dim": 3})
    sphere = _unit_sphere(free)
    assert invariance_defect(free, sphere, 8, seed=1).sup > 1e-8
    p = np.array([np.pi / 2, 0.0])
    J = sphere.jacobian(p)
    v = J[:, 1] / np.linalg.norm(J[:, 1])
    assert dynamic_consistency_check(free, sphere, p, v, 1.0,
                                     IntegratorConfig(step=1e-2)) > 1e-5
