"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -s`) and
asserts both the numerical targets and the runtime budget.
"""
import json
import time

import numpy as np
from click.testing import CliRunner

from magflow import (DomainExit, FrameState, IntegratorConfig, PhaseState,
                     closed_orbit_holonomy, conjugate_point_scan,
                     dynamic_consistency_check, dynamical_exp, frame_flow,
                     integrate, invariance_defect, lyapunov_spectrum,
                     magnetic_sectional, make_submanifold, variational_flow)
from magflow.cli import main as cli_main
from magflow.geometry import gram_schmidt
from magflow.submanifold import cartan_probe

from conftest import system, unit


def _report(num: int, title: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {title} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} numerical check failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_larmor_closure():
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    state = PhaseState(x=[0.0, 0.0], v=[1.0, 0.0], s=1.0)
    integrate(sys, state, 0.01, IntegratorConfig(step=1e-3))  # warm-up
    t0 = time.perf_counter()
    traj = integrate(sys, state, 2 * np.pi, IntegratorConfig(step=1e-3))
    end = traj.final
    ok = (np.linalg.norm(end.x - state.x) < 1e-6
          and np.linalg.norm(end.v - state.v) < 1e-6)
    _report(1, "Larmor orbit closes after one period", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_02_sectional_curvature_constant():
    t0 = time.perf_counter()
    sys = system("poincare_disk", "area_form", b=1.0)
    rng = np.random.default_rng(2)
    ok = True
    signs = {}
    for s in (0.5, 1.0, 2.0):
        worst = 0.0
        for _ in range(50):
            x = sys.chart.sample_point(rng)
            gx = sys.metric(x)
            pair = gram_schmidt(gx, rng.standard_normal((2, 2)))
            sec = magnetic_sectional(sys, s, x, pair[0], pair[1])
            worst = max(worst, abs(sec - (1.0 - s * s)))
        signs[s] = 1.0 - s * s
        ok = ok and worst < 1e-6
    ok = ok and signs[0.5] > 0 and signs[1.0] == 0 and signs[2.0] < 0
    _report(2, "magnetic sectional curvature equals 1 - s^2 on the disk", ok,
            time.perf_counter() - t0, 1.0)


def test_criterion_03_rescaling_lemma():
    t0 = time.perf_counter()
    cases = [
        ("euclidean", "constant", {"dim": 2}, {"b": 1.0}, [0.0, 0.0], [1.0, 0.0]),
        ("flat_torus", "constant", None, {"b": 1.0}, [0.5, 0.5], [1.0, 0.0]),
        ("poincare_disk", "area_form", {"eps": 1e-10}, {"b": 4.0},
         [0.1, 0.0], [0.0, 1.0]),
        ("poincare_ball", "zero", {"eps": 1e-10}, {}, [0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0]),
        ("round_sphere", "zero", None, {}, [np.pi / 2, 0.0], [0.0, 1.0]),
    ]
    cfg = IntegratorConfig(step=1e-2)
    worst = 0.0
    for name, form, mp, fp, x0, d in cases:
        sys = system(name, form, mp, **fp)
        x0 = np.asarray(x0, dtype=float)
        for s in (0.5, 2.0):
            v = unit(sys.metric, x0, d) * s
            a = integrate(sys, PhaseState(x=x0, v=v, s=s), 10.0, cfg)
            b = integrate(sys.rescale(s), PhaseState(x=x0, v=v, s=1.0),
                          10.0, cfg)
            assert not a.exited and not b.exited
            worst = max(worst, float(np.max(np.abs(a.states - b.states))))
    _report(3, "speed-s flow matches the unit-speed flow of the rescaled "
               "system", worst < 1e-8, time.perf_counter() - t0, 5.0)


def test_criterion_04_geodesic_reduction():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(step=5e-3)
    rng = np.random.default_rng(4)
    worst = 0.0

    disk = system("poincare_disk")
    for _ in range(20):
        alpha = rng.uniform(0, 2 * np.pi)
        t = rng.uniform(0.1, 2.0)
        e = np.array([np.cos(alpha), np.sin(alpha)])
        y = dynamical_exp(disk, [0.0, 0.0], (t / 2.0) * e, cfg)
        worst = max(worst, float(np.linalg.norm(y - np.tanh(t / 2.0) * e)))

    sph = system("round_sphere")
    theta0, phi0 = np.pi / 2, 0.3
    p = np.array([np.sin(theta0) * np.cos(phi0),
                  np.sin(theta0) * np.sin(phi0), np.cos(theta0)])
    e_th = np.array([np.cos(theta0) * np.cos(phi0),
                     np.cos(theta0) * np.sin(phi0), -np.sin(theta0)])
    e_ph = np.array([-np.sin(phi0), np.cos(phi0), 0.0])
    for _ in range(20):
        psi = rng.uniform(-1.2, 1.2)
        t = rng.uniform(0.1, 2.0)
        u_chart = t * np.array([np.sin(psi), np.cos(psi)])
        w = np.sin(psi) * e_th + np.cos(psi) * e_ph
        q = np.cos(t) * p + np.sin(t) * w
        oracle = np.array([np.arccos(np.clip(q[2], -1, 1)),
                           np.arctan2(q[1], q[0])])
        y = dynamical_exp(sph, [theta0, phi0], u_chart, cfg)
        worst = max(worst, float(np.linalg.norm(y - oracle)))

    _report(4, "field-free dynamical exponential equals the Riemannian one",
            worst < 1e-8, time.perf_counter() - t0, 5.0)


def test_criterion_05_totally_magnetic_characterization():
    t0 = time.perf_counter()
    sys = system("euclidean", "constant", {"dim": 3}, b=1.0)
    plane = make_submanifold({"type": "hyperplane", "point": [0.0, 0.0, 0.0],
                              "normal": [0.0, 0.0, 1.0], "extent": 2.0}, sys)
    rep = invariance_defect(sys, plane, 32, seed=5)
    dist_plane = dynamic_consistency_check(
        sys, plane, [0.3, -0.2], [1.0, 0.0, 0.0], 5.0,
        IntegratorConfig(step=1e-3))

    free = system("euclidean", manifold_params={"dim": 3})
    sphere = make_submanifold({"type": "sphere", "center": [0.0, 0.0, 0.0],
                               "radius": 1.0}, free)
    rep_s = invariance_defect(free, sphere, 32, seed=5)
    p = np.array([np.pi / 2, 0.0])
    xs = sphere.point(p)
    v = sphere.jacobian(p)[:, 1]
    v = v / np.linalg.norm(v)
    dist_sphere = dynamic_consistency_check(free, sphere, p, v, 1.0,
                                            IntegratorConfig(step=1e-3))

    ok = (rep.sup < 1e-10 and dist_plane < 1e-6
          and abs(rep_s.sup - 1.0) < 1e-6 and abs(rep_s.mean - 1.0) < 1e-6
          and dist_sphere > 1e-2)
    _report(5, "dynamical second fundamental form characterizes invariance",
            ok, time.perf_counter() - t0, 10.0)


def test_criterion_06_cartan_probe():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(step=2e-2)
    ball = system("poincare_ball")
    rep_b = cartan_probe(ball, k=2, plane_samples=100, seed=6,
                         defect_samples=2, cfg=cfg)
    s3 = system("round_sphere", manifold_params={"dim": 3})
    rep_s = cartan_probe(s3, k=2, plane_samples=100, seed=6,
                         defect_samples=2, cfg=cfg)
    euc = system("euclidean", "constant", {"dim": 3}, b=1.0)
    rep_e = cartan_probe(euc, k=2, plane_samples=10, seed=6,
                         defect_samples=2, cfg=cfg)
    ok = (max(rep_b.defects) < 1e-6 and rep_b.sec_variance < 1e-8
          and max(rep_s.defects) < 1e-6 and rep_s.sec_variance < 1e-8
          and max(rep_e.defects) > 1e-3)
    _report(6, "plane-axiom probe separates constant-curvature free flows "
               "from a genuine magnetic system", ok,
            time.perf_counter() - t0, 60.0)


def test_criterion_07_transport_compatibility():
    t0 = time.perf_counter()
    cases = [
        ("euclidean", "constant", {"dim": 2}, {"b": 1.0}, [0.0, 0.0], [1.0, 0.0]),
        ("flat_torus", "zero", None, {}, [0.5, 0.5], [0.6, 0.8]),
        ("poincare_disk", "area_form", None, {"b": 2.0}, [0.1, 0.0], [0.0, 1.0]),
        ("poincare_ball", "zero", {"eps": 1e-10}, {}, [0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0]),
        ("round_sphere", "zero", None, {}, [np.pi / 2, 0.0], [0.0, 1.0]),
    ]
    cfg = IntegratorConfig(step=8e-3)
    worst = 0.0
    for name, form, mp, fp, x0, d in cases:
        sys = system(name, form, mp, **fp)
        x0 = np.asarray(x0, dtype=float)
        v0 = unit(sys.metric, x0, d)
        f0 = FrameState.from_state(sys, PhaseState(x=x0, v=v0, s=1.0))
        f1 = frame_flow(sys, f0, 10.0, cfg)
        worst = max(worst, f1.gram_drift(sys))
    larmor = system("euclidean", "constant", {"dim": 3}, b=1.0)
    hol = closed_orbit_holonomy(
        larmor, PhaseState(x=np.zeros(3), v=[1.0, 0.0, 0.0], s=1.0),
        2 * np.pi, IntegratorConfig(step=1e-2))
    ok = (worst < 1e-9
          and np.max(np.abs(hol.matrix - np.eye(2))) < 1e-6)
    _report(7, "frame flow preserves Gram matrices; Larmor holonomy is the "
               "identity", ok, time.perf_counter() - t0, 5.0)


def test_criterion_08_hyperbolicity():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(step=1e-2)
    disk = system("poincare_disk", manifold_params={"eps": 1e-10})
    rep = lyapunov_spectrum(disk, PhaseState(x=[0.0, 0.0], v=[0.5, 0.0],
                                             s=1.0), 20.0, cfg=cfg)
    torus = system("flat_torus")
    rep_t = lyapunov_spectrum(torus, PhaseState(x=[0.0, 0.0], v=[0.6, 0.8],
                                                s=1.0), 20.0, cfg=cfg)
    ok = (abs(rep.exponents[0] - 1.0) < 0.05
          and abs(rep.total) < 0.05
          and np.max(np.abs(rep_t.exponents)) < 1e-2)
    _report(8, "disk geodesic flow has unit top exponent and zero sum; "
               "torus spectrum vanishes", ok, time.perf_counter() - t0, 30.0)


def test_criterion_09_conjugate_points():
    t0 = time.perf_counter()
    sph = system("round_sphere")
    rows = conjugate_point_scan(sph, [np.pi / 2, 0.0], [0.0, 1.0], 4.0, 80,
                                IntegratorConfig(step=1e-3))
    i = int(np.argmin(rows[:, 1]))
    disk = system("poincare_disk")
    rows_d = conjugate_point_scan(disk, [0.0, 0.0], [1.0, 0.0], 5.0, 50,
                                  IntegratorConfig(step=1e-3))
    ok = (rows[i, 1] < 1e-2 and abs(rows[i, 0] - np.pi) < 0.1
          and np.all(rows_d[:, 1] > 0) and np.all(np.diff(rows_d[:, 1]) > 0))
    _report(9, "conjugate-point scan finds t = pi on the sphere and nothing "
               "on the disk", ok, time.perf_counter() - t0, 10.0)


def test_criterion_10_variational_correctness():
    t0 = time.perf_counter()
    cfg = IntegratorConfig(step=2e-3)
    T, eps = 0.3, 1e-6
    rng = np.random.default_rng(10)
    worst = 0.0
    for name in ("euclidean", "flat_torus", "poincare_disk", "poincare_ball",
                 "round_sphere"):
        sys = system(name)
        n = sys.dim
        done = 0
        while done < 10:
            x = sys.chart.sample_point(rng)
            v = unit(sys.metric, x, rng.standard_normal(n))
            state = PhaseState(x=x, v=v, s=1.0)
            try:
                J, _ = variational_flow(sys, state, T, cfg)
                y0 = np.concatenate([x, v])
                Jfd = np.empty((2 * n, 2 * n))
                for j in range(2 * n):
                    dy = np.zeros(2 * n)
                    dy[j] = eps
                    cols = []
                    for yy in (y0 + dy, y0 - dy):
                        tr = integrate(
                            sys,
                            PhaseState(x=yy[:n], v=yy[n:],
                                       s=sys.metric.norm(yy[:n], yy[n:])),
                            T, cfg)
                        if tr.exited:
                            raise _Resample()
                        cols.append(tr.states[-1])
                    Jfd[:, j] = (cols[0] - cols[1]) / (2 * eps)
            except (_Resample, DomainExit):
                continue
            rel = np.linalg.norm(J - Jfd) / np.linalg.norm(Jfd)
            worst = max(worst, float(rel))
            done += 1
    _report(10, "variational flow matches finite-difference Jacobians",
            worst < 1e-4, time.perf_counter() - t0, 30.0)


class _Resample(Exception):
    pass


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    sc = {
        "manifold": {"name": "poincare_disk", "params": {"eps": 1e-10}},
        "magnetic": {"name": "zero"},
        "speed": 1.0,
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "integrator": {"step": 1e-2},
        "seed": 11,
        "params": {"T": 10.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    runner = CliRunner()
    payloads = []
    for rep, threads in (("r1", "1"), ("r2", "4"), ("r3", "1")):
        blob = {}
        for cmd, files in (("integrate", ["trajectory.csv"]),
                           ("lyapunov", ["lyapunov.json", "lyapunov.csv"])):
            out = tmp_path / rep / cmd
            res = runner.invoke(cli_main, [cmd, str(path), "--out", str(out),
                                           "--threads", threads])
            assert res.exit_code == 0, res.output
            for f in files:
                blob[f"{cmd}/{f}"] = (out / f).read_bytes()
        payloads.append(blob)
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(11, "identical seeds give byte-identical outputs across thread "
                "counts", ok, time.perf_counter() - t0, 60.0)
