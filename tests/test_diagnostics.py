"""Tests for the hyperbolicity diagnostics: Lyapunov spectra, splitting
transversality, volume drift, and conjugate-point scans."""
import numpy as np
import pytest

import magflow.flow
from magflow import (DomainExit, IntegratorConfig, MagneticSystem, PhaseState,
                     StepLimitExceeded, UnreliableSplitting,
                     conjugate_point_scan, lyapunov_spectrum,
                     transversality_angle, variational_flow, volume_drift)
from magflow.diagnostics import sasaki_frame_matrix

from conftest import system, unit


def _disk_state(sys, x=(0.0, 0.0), v=(1.0, 0.0)):
    x = np.asarray(x, dtype=float)
    return PhaseState(x=x, v=unit(sys.metric, x, v), s=1.0)


@pytest.fixture(scope="module")
def disk():
    return system("poincare_disk", manifold_params={"eps": 1e-10})


# ---------------------------------------------------------------------------
# Lyapunov spectra


def test_disk_geodesic_top_exponent(disk):
    rep = lyapunov_spectrum(disk, _disk_state(disk), 20.0,
                            cfg=IntegratorConfig(step=1e-2))
    assert abs(rep.exponents[0] - 1.0) < 0.05
    assert abs(rep.exponents[-1] + 1.0) < 0.05
    assert abs(rep.total) < 0.05


def test_torus_exponents_vanish():
    sys = system("flat_torus")
    state = PhaseState(x=[0.0, 0.0], v=[0.6, 0.8], s=1.0)
    rep = lyapunov_spectrum(sys, state, 20.0, cfg=IntegratorConfig(step=1e-2))
    assert np.max(np.abs(rep.exponents)) < 1e-2


def test_larmor_exponents_vanish():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    state = PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0)
    rep = lyapunov_spectrum(sys, state, 20.0, cfg=IntegratorConfig(step=1e-2))
    assert np.max(np.abs(rep.exponents)) < 1e-2


def test_spectrum_time_reversal_negates(disk):
    fwd = lyapunov_spectrum(disk, _disk_state(disk), 20.0,
                            cfg=IntegratorConfig(step=1e-2))
    bwd = lyapunov_spectrum(disk, _disk_state(disk, v=(-1.0, 0.0)), 20.0,
                            cfg=IntegratorConfig(step=1e-2))
    # finite-time estimates: reversed orbit sees the mirrored spectrum
    assert abs(fwd.exponents[0] - (-bwd.exponents[-1])) < 0.1 * fwd.exponents[0]


def test_spectrum_report_invariants(disk):
    rep = lyapunov_spectrum(disk, _disk_state(disk), 10.0,
                            cfg=IntegratorConfig(step=1e-2))
    assert np.all(np.diff(rep.exponents) <= 0)       # sorted descending
    assert rep.exponents.size == 4                   # full phase spectrum
    # the flow direction always contributes a zero exponent
    assert np.min(np.abs(rep.exponents)) < 0.05


def test_spectrum_steps_override(disk):
    rep = lyapunov_spectrum(disk, _disk_state(disk), 10.0, steps=50,
                            cfg=IntegratorConfig(step=1e-2))
    assert rep.interval == pytest.approx(0.2)
    assert abs(rep.exponents[0] - 1.0) < 0.1


def test_spectrum_rejects_nonpositive_horizon(disk):
    with pytest.raises(ValueError):
        lyapunov_spectrum(disk, _disk_state(disk), 0.0)


@pytest.mark.parametrize("T, interval", [(0.04, 0.04), (0.25, 0.125),
                                         (5.0, 0.1), (8.0, 0.1), (10.0, 0.1)])
def test_spectrum_reports_interval_used(disk, T, interval):
    # T / round(T / 0.1) segments: one of 0.04, two of 0.125, and exactly
    # the default 0.1 where T is a whole number of them
    rep = lyapunov_spectrum(disk, _disk_state(disk), T,
                            cfg=IntegratorConfig(step=1e-2))
    assert rep.interval == interval


_BAD_ARGUMENTS = {
    "lyapunov-negative-steps": ("steps", lambda sys, st: lyapunov_spectrum(
        sys, st, 2.0, steps=-4)),
    "lyapunov-fractional-steps": ("steps", lambda sys, st: lyapunov_spectrum(
        sys, st, 2.0, steps=2.5)),
    "lyapunov-zero-steps": ("steps", lambda sys, st: lyapunov_spectrum(
        sys, st, 2.0, steps=0)),
    "lyapunov-infinite-T": ("T", lambda sys, st: lyapunov_spectrum(
        sys, st, np.inf)),
    "volume-infinite-T": ("T", lambda sys, st: volume_drift(sys, st, np.inf)),
    "scan-zero-steps": ("steps", lambda sys, st: conjugate_point_scan(
        sys, st.x, st.v, 1.0, 0)),
    "scan-zero-direction": ("direction", lambda sys, st: conjugate_point_scan(
        sys, st.x, np.zeros(2), 1.0, 10)),
    "scan-infinite-t_max": ("t_max", lambda sys, st: conjugate_point_scan(
        sys, st.x, st.v, np.inf, 10)),
    "angle-nan-T": ("T", lambda sys, st: transversality_angle(
        sys, st, np.nan)),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_diagnostics_reject_bad_counts_and_horizons(disk, case):
    # a count that is not a positive int and a horizon that is not finite
    # are rejected before any flow, naming the argument
    name, call = _BAD_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(disk, _disk_state(disk))


def _segmented_qr_reference(sys, state, T, nseg, cfg):
    """The QR method with one `variational_flow` per segment, each started
    at the last one's end state, and one Sasaki frame per segment end."""
    n = sys.dim
    dt = T / nseg
    cur = state
    Tm = sasaki_frame_matrix(sys, cur.x, cur.v)
    Q = np.eye(2 * n)
    logs = np.zeros(2 * n)
    for _ in range(nseg):
        Jseg, nxt = variational_flow(sys, cur, dt, cfg)
        Tn = sasaki_frame_matrix(sys, nxt.x, nxt.v)
        Qn, R = np.linalg.qr(Tn @ Jseg @ np.linalg.inv(Tm) @ Q)
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        Qn *= sign
        R = (R.T * sign).T
        logs += np.log(np.abs(np.diag(R)))
        Q, Tm, cur = Qn, Tn, nxt
    return logs


@pytest.mark.parametrize("model", ["poincare_disk-area_form", "round_sphere-constant"])
@pytest.mark.parametrize("T, interval, step", [
    (6.0, 1.0, 1e-2),       # 100 steps a segment, longer than a block
    (4.0, 0.1, 1e-2),       # 10 steps a segment, which does not divide a block
    (3.0, 0.1, 0.03),       # 3 steps of 1/30 a segment: interval / h is not whole
])
def test_one_flow_qr_matches_per_segment_flows(model, T, interval, step):
    # one orbit cut at the segment ends gives the spectrum and the volume
    # drift of one flow per segment
    name, form = model.split("-")
    # the deep disk chart keeps the hyperbolic orbit inside up to T = 6
    sys = system(name, form, {"eps": 1e-10} if name == "poincare_disk" else None,
                 b=1.5)
    x = np.array([np.pi / 2, 0.3] if name == "round_sphere" else [0.1, -0.2])
    state = PhaseState(x=x, v=2.0 * unit(sys.metric, x, [0.6, 0.8]), s=2.0)
    cfg = IntegratorConfig(step=step)
    nseg = round(T / interval)
    ref = _segmented_qr_reference(sys, state, T, nseg, cfg)
    rep = lyapunov_spectrum(sys, state, T, steps=nseg, cfg=cfg)
    assert np.abs(rep.exponents - np.sort(ref / T)[::-1]).max() <= 1e-12
    if interval == 0.1:
        assert abs(volume_drift(sys, state, T, cfg) - abs(ref.sum()) / T) <= 1e-12


def test_diagnostics_integrate_their_orbit_once(disk, monkeypatch):
    # a spectrum, a volume drift and a scan each integrate their orbit
    # once (one `_rk4_path`), whatever their number of segments
    calls = []
    path = magflow.flow._rk4_path

    def counted(*args, **kwargs):
        calls.append(1)
        return path(*args, **kwargs)

    monkeypatch.setattr(magflow.flow, "_rk4_path", counted)
    cfg = IntegratorConfig(step=1e-2)
    lyapunov_spectrum(disk, _disk_state(disk), 2.0, cfg=cfg)
    assert len(calls) == 1
    volume_drift(disk, _disk_state(disk), 2.0, cfg)
    assert len(calls) == 2
    conjugate_point_scan(disk, [0.0, 0.0], [1.0, 0.0], 1.0, 10, cfg)
    assert len(calls) == 3


@pytest.mark.parametrize("T", [5e-324, 1e-300, 5e-3])
def test_sub_step_horizon_is_rejected_naming_T(T):
    # over less than one step of its `cfg` (default or given) an orbit
    # hardly moves, so a spectrum, an angle or a drift over it would report
    # no growth as a measurement; one whole step is accepted
    sys = system("poincare_disk", "area_form", b=1.0)
    st = PhaseState(x=np.array([0.1, 0.0]),
                    v=2.0 * unit(sys.metric, [0.1, 0.0], [1.0, 0.0]), s=2.0)
    for fn in (lyapunov_spectrum, volume_drift, transversality_angle):
        for cfg in (None, IntegratorConfig(step=1e-2)):
            with pytest.raises(ValueError, match="T = .* shorter than one "
                                                 "integrator step 0.01"):
                fn(sys, st, T, cfg=cfg)
    assert lyapunov_spectrum(sys, st, 1e-2).exponents.size == 4
    assert np.isfinite(volume_drift(sys, st, 1e-2))


def test_diagnostics_keep_exit_and_whole_horizon_budget():
    # a chart exit in mid-horizon raises; the step budget bounds the whole
    # horizon (100 steps), not one segment (10 steps)
    sys = system("poincare_disk")
    st = _disk_state(sys)
    cfg = IntegratorConfig(step=1e-2)
    with pytest.raises(DomainExit):
        lyapunov_spectrum(sys, st, 10.0, cfg=cfg)
    with pytest.raises(DomainExit):
        conjugate_point_scan(sys, st.x, st.v, 10.0, 10, cfg)
    tight = IntegratorConfig(step=1e-2, max_steps=50)
    for call in (lambda: lyapunov_spectrum(sys, st, 1.0, cfg=tight),
                 lambda: volume_drift(sys, st, 1.0, tight),
                 lambda: conjugate_point_scan(sys, st.x, st.v, 1.0, 10, tight)):
        with pytest.raises(StepLimitExceeded):
            call()


# ---------------------------------------------------------------------------
# transversality angle


def test_disk_geodesic_angle_is_pi_over_4(disk):
    ang = transversality_angle(disk, _disk_state(disk), 20.0,
                               cfg=IntegratorConfig(step=1e-2))
    assert abs(ang - np.pi / 4) < 0.05


def test_angle_unreliable_on_torus():
    sys = system("flat_torus")
    state = PhaseState(x=[0.0, 0.0], v=[0.6, 0.8], s=1.0)
    with pytest.raises(UnreliableSplitting):
        transversality_angle(sys, state, 10.0, cfg=IntegratorConfig(step=1e-2))


def test_angle_fast_magnetic_disk_stabilizes():
    # s > 1 with a weak field: still Anosov, with a field-tilted splitting
    sys = system("poincare_disk", "area_form", {"eps": 1e-10}, b=1.0)
    x = np.array([0.0, 0.0])
    v = unit(sys.metric, x, [1.0, 0.0]) * 2.0
    state = PhaseState(x=x, v=v, s=2.0)
    a1 = transversality_angle(sys, state, 5.0, cfg=IntegratorConfig(step=1e-2))
    a2 = transversality_angle(sys, state, 10.0, cfg=IntegratorConfig(step=1e-2))
    assert a1 > 0.1
    assert abs(a2 - a1) < 0.1 * a1                   # horizon-doubling stable


# ---------------------------------------------------------------------------
# volume drift


def test_volume_drift_disk_small(disk):
    drift = volume_drift(disk, _disk_state(disk), 20.0,
                         cfg=IntegratorConfig(step=1e-2))
    assert drift < 0.05


def test_volume_drift_larmor_small():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    state = PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0)
    assert volume_drift(sys, state, 20.0, IntegratorConfig(step=1e-2)) < 0.01


def test_volume_drift_detects_dissipation():
    chart_metric = system("euclidean", manifold_params={"dim": 2})
    sys = MagneticSystem(chart_metric.chart, chart_metric.metric,
                         chart_metric.sigma,
                         vertical_field=lambda x, v: -0.1 * v)
    state = PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0)
    drift = volume_drift(sys, state, 10.0, IntegratorConfig(step=1e-2))
    assert abs(drift - 0.2) < 1e-3


# ---------------------------------------------------------------------------
# conjugate-point scan


def test_scan_sphere_conjugate_near_pi():
    sys = system("round_sphere")
    x = np.array([np.pi / 2, 0.0])
    rows = conjugate_point_scan(sys, x, [0.0, 1.0], 4.0, 80,
                                IntegratorConfig(step=1e-3))
    ts, sig = rows[:, 0], rows[:, 1]
    assert np.allclose(sig, np.abs(np.sin(ts)) / ts, atol=1e-8)
    i = np.argmin(sig)
    assert abs(ts[i] - np.pi) < 0.06
    assert sig[i] < 1e-2


def test_scan_disk_no_conjugate_points(disk):
    rows = conjugate_point_scan(disk, [0.0, 0.0], [1.0, 0.0], 5.0, 50,
                                IntegratorConfig(step=1e-3))
    ts, sig = rows[:, 0], rows[:, 1]
    assert np.allclose(sig, np.sinh(ts) / ts, atol=1e-8)
    assert np.all(sig > 0)
    assert np.all(np.diff(sig) > 0)                  # strictly increasing


def test_scan_flat_is_one():
    sys = system("euclidean", manifold_params={"dim": 2})
    rows = conjugate_point_scan(sys, [0.0, 0.0], [0.3, 0.4], 3.0, 30,
                                IntegratorConfig(step=1e-3))
    assert np.allclose(rows[:, 1], 1.0, atol=1e-10)


def test_scan_short_radii_near_one(disk):
    rows = conjugate_point_scan(disk, [0.0, 0.0], [1.0, 0.0], 0.05, 5,
                                IntegratorConfig(step=1e-3))
    assert np.allclose(rows[:, 1], 1.0, atol=1e-3)


def test_scan_rejects_bad_horizon(disk):
    with pytest.raises(ValueError):
        conjugate_point_scan(disk, [0.0, 0.0], [1.0, 0.0], -1.0, 10)
