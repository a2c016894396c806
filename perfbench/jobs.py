"""Seeded job lists for the three benchmark workloads, with their oracles.

A job is one `magflow` CLI run: a subcommand, a scenario written to disk
and a check that reads the job's output files and compares them with a
closed-form answer.  The seed decides positions, directions, speeds, field
strengths and the program's own sampling seeds; it never decides a horizon,
a step or a sample count, so every seed asks for about the same work.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("orbits", "ensembles", "tangents")

# A check returns a list of problems (empty means the job passed) and
# whether the orbit left the chart, which is a flagged partial result.
Check = Callable[[Path], "tuple[list[str], bool]"]


@dataclass
class Job:
    name: str
    command: str
    scenario: dict
    check: Check
    scenario_path: Path = field(default=None)


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _within(label, err, tol):
    return [] if err <= tol else [f"{label} error {err:.3e} > {tol:.1e}"]


def _trajectory(out: Path, T: float, h: float):
    """Rows of trajectory.csv and whether the orbit stopped before T."""
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    partial = rows[-1, 0] < T - 0.5 * h
    return rows, partial


def _time_grid(rows, T, h):
    nsteps = max(1, int(round(T / h)))
    k = np.arange(len(rows))
    return float(np.max(np.abs(rows[:, 0] - k * (T / nsteps))))


# -- closed-form orbits ------------------------------------------------------

def _larmor(x0, v0, b, t):
    """Constant field b on the x1x2-plane: v rotates counterclockwise at
    rate b, further coordinates move uniformly."""
    z0 = complex(x0[0], x0[1])
    w0 = complex(v0[0], v0[1])
    rot = np.exp(1j * b * t)
    z = z0 + w0 * (rot - 1.0) / (1j * b)
    w = w0 * rot
    x = np.empty((len(t), len(x0)))
    v = np.empty_like(x)
    x[:, 0], x[:, 1] = z.real, z.imag
    v[:, 0], v[:, 1] = w.real, w.imag
    x[:, 2:] = x0[2:] + np.outer(t, v0[2:])
    v[:, 2:] = v0[2:]
    return x, v


def _larmor_check(x0, v, s, b, T, h, tol=1e-8):
    v0 = np.asarray(v) * (s / np.linalg.norm(v))

    def check(out):
        rows, partial = _trajectory(out, T, h)
        n = len(x0)
        x, vel = _larmor(np.asarray(x0), v0, b, rows[:, 0])
        return (_within("time grid", _time_grid(rows, T, h), 1e-9)
                + _within("position", np.abs(rows[:, 1:1 + n] - x).max(), tol)
                + _within("velocity", np.abs(rows[:, 1 + n:1 + 2 * n] - vel).max(), tol)
                ), partial
    return check


def _disk_circle_check(x0, v, s, b, T, h, tol=1e-8):
    """Area-form orbits on the Poincare disk.  The isometry z -> (z - a) /
    (1 - conj(a) z) moves x0 to the origin without turning v; there the
    orbit is the Euclidean circle through 0, tangent to v, of radius
    s / (2 b), curving left.  It is a closed circle for s < b and leaves
    every compact part of the chart for s > b."""
    a = complex(x0[0], x0[1])
    u = complex(v[0], v[1])
    u /= abs(u)
    radius = s / (2.0 * b)
    centre = 1j * u * radius

    def check(out):
        rows, partial = _trajectory(out, T, h)
        z = rows[:, 1] + 1j * rows[:, 2]
        w = (z - a) / (1.0 - np.conj(a) * z)
        lam = 2.0 / (1.0 - np.abs(z) ** 2)
        speed = lam * np.hypot(rows[:, 3], rows[:, 4])
        return (_within("circle", np.abs(np.abs(w - centre) - radius).max(), tol)
                + _within("speed", np.abs(speed - s).max() / s, tol)), partial
    return check


def _ball_radial_check(u, s, T, h, tol=1e-8):
    """Geodesics of the Poincare ball from the origin: x(t) = tanh(s t / 2) u."""
    u = np.asarray(u) / np.linalg.norm(u)

    def check(out):
        rows, partial = _trajectory(out, T, h)
        x = np.outer(np.tanh(0.5 * s * rows[:, 0]), u)
        return _within("position", np.abs(rows[:, 1:4] - x).max(), tol), partial
    return check


def _sphere_point(th, ph):
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)


def _sphere_great_circle_check(x0, v, s, T, h, tol=1e-8):
    """Geodesics of the unit 2-sphere in polar angles: the embedded point is
    cos(s t) p0 + sin(s t) u0 with u0 the unit initial direction."""
    th, ph = x0
    p0 = _sphere_point(th, ph)
    e_th = np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)])
    e_ph = np.array([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0.0])
    u0 = v[0] * e_th + v[1] * e_ph
    u0 /= np.linalg.norm(u0)

    def check(out):
        rows, partial = _trajectory(out, T, h)
        t = rows[:, 0][:, None]
        exact = np.cos(s * t) * p0 + np.sin(s * t) * u0
        got = _sphere_point(rows[:, 1], rows[:, 2])
        return _within("position", np.abs(got - exact).max(), tol), partial
    return check


def _transport_check(w0, b, T, tol=1e-8):
    """Flat metric with a constant field: W(T) is w0 turned by the angle b T
    in the x1x2-plane."""
    c, sn = np.cos(b * T), np.sin(b * T)
    want = np.array([c * w0[0] - sn * w0[1], sn * w0[0] + c * w0[1], w0[2]])

    def check(out):
        got = np.asarray(json.loads((out / "transport.json").read_text())["w"])
        return _within("W(T)", np.abs(got - want).max(), tol), False
    return check


def _holonomy_check(period, m, tol=1e-6):
    """Closed orbits whose velocity returns to itself: holonomy = identity."""
    def check(out):
        lines = (out / "holonomy.csv").read_text().strip().split("\n")
        got_period = float(lines[0].split(",")[1])
        Q = np.array([[float(c) for c in line.split(",")] for line in lines[2:]])
        problems = _within("period", abs(got_period - period) / period, tol)
        if Q.shape != (m, m):
            return problems + [f"holonomy shape {Q.shape} != {(m, m)}"], False
        return problems + _within("holonomy", np.abs(Q - np.eye(m)).max(), tol), False
    return check


# -- curvature oracles -------------------------------------------------------

def _sec_oracle(model, s):
    """Sec_s: 1 - s^2 on the disk with its unit area form, s^2 K with the
    zero form (K = -1 on the ball, +1 on spheres)."""
    return {"disk": 1.0 - s * s, "ball": -s * s, "sphere2": s * s, "sphere3": s * s}[model]


def _sec_check(model, s, samples, verdict, tol=1e-6):
    want = _sec_oracle(model, s)

    def check(out):
        name = "anosov.json" if verdict else "sec.json"
        data = json.loads((out / name).read_text())
        problems = []
        for key in ("min", "max", "mean"):
            problems += _within(f"Sec {key}", abs(data[key] - want), tol)
        if data["samples"] != samples:
            problems.append(f"samples {data['samples']} != {samples}")
        if verdict:
            expect = ("criterion satisfied on sample" if want < 0
                      else "criterion not satisfied on sample")
            if data["verdict"] != expect:
                problems.append(f"verdict {data['verdict']!r}, want {expect!r}")
        return problems, False
    return check


def _curvature_check(model, s, n, tol=1e-6):
    """A = b^2 on the disk (b = 1) and 0 for the zero form; R_s = s^2 K."""
    K = {"disk": -1.0, "ball": -1.0, "sphere2": 1.0, "sphere3": 1.0}[model]
    A = (1.0 if model == "disk" else 0.0) * np.eye(n - 1)
    R = s * s * K * np.eye(n - 1)

    def check(out):
        data = json.loads((out / "curvature.json").read_text())
        problems = []
        for key, want in (("A", A), ("R", R), ("M", A + R)):
            problems += _within(key, np.abs(np.asarray(data[key]) - want).max(), tol)
        return problems, False
    return check


# -- variational oracles -----------------------------------------------------

def _lyapunov_disk_check(s, tol=0.1):
    """Geodesic flow of the hyperbolic plane at speed s: exponents s, 0, 0, -s
    summing to 0.  The top two are checked through their sum, the growth rate
    of the horizontal plane; a single finite-time exponent carries a
    transient of order log|sin a| / T (a the angle between v and the first
    frame vector) that a short horizon does not wash out."""
    def check(out):
        e = np.asarray(json.loads((out / "lyapunov.json").read_text())["exponents"])
        return (_within("top pair", abs((e[0] + e[1]) / s - 1.0), tol)
                + _within("sum", abs(e.sum()), 1e-5)), False
    return check


def _lyapunov_torus_check(tol=1e-8):
    def check(out):
        e = np.asarray(json.loads((out / "lyapunov.json").read_text())["exponents"])
        return _within("exponent", np.abs(e).max(), tol), False
    return check


def _conjugate_check(t_max, steps, tol=1e-6):
    """Unit sphere: sigma_min(t) = |sin t| / t, smallest at the grid point
    nearest pi."""
    def check(out):
        rows = np.loadtxt(out / "conjugate_scan.csv", delimiter=",", skiprows=1, ndmin=2)
        t = rows[:, 0]
        problems = _within("sigma_min", np.abs(rows[:, 1] - np.abs(np.sin(t)) / t).max(), tol)
        problems += _within("minimum", abs(t[np.argmin(rows[:, 1])] - np.pi),
                            0.5 * t_max / steps + 1e-9)
        return problems, False
    return check


def _angle_check(tol=1e-6):
    """Hyperbolic plane: stable and vertical directions meet at pi / 4."""
    def check(out):
        ang = json.loads((out / "angle.json").read_text())["angle"]
        return _within("angle", abs(ang - np.pi / 4), tol), False
    return check


def _volume_check(tol=1e-6):
    """Liouville volume is preserved."""
    def check(out):
        return _within("drift", json.loads((out / "volume.json").read_text())["drift"], tol), False
    return check


def _regimes_check(grid, tol=1e-6):
    """max Sec_s = 1 - s^2 flips sign at s = 1, and so does hyperbolicity:
    the top exponent is 0 below s = 1 and sqrt(s^2 - 1) above it."""
    def check(out):
        lines = (out / "regimes.csv").read_text().strip().split("\n")[1:]
        rows = np.array([[float(c) for c in line.split(",")] for line in lines])
        problems = []
        if not np.allclose(rows[:, 0], grid):
            return [f"speed grid {rows[:, 0]} != {grid}"], False
        problems += _within("max_sec", np.abs(rows[:, 1] - (1 - rows[:, 0] ** 2)).max(), tol)
        for s, top in zip(rows[:, 0], rows[:, 2]):
            if (s < 1 and top >= 0.5) or (s > 1 and top <= 1.0):
                problems.append(f"top exponent {top:.3f} at s = {s}")
        return problems, False
    return check


def _cartan_check(invariant, tol=1e-6):
    """Constant curvature with the zero form: every exp-image of a 2-plane is
    invariant.  A constant field on Euclidean 3-space breaks invariance."""
    def check(out):
        data = json.loads((out / "cartan.json").read_text())
        defects = np.loadtxt(out / "cartan.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        if invariant:
            return (_within("defect", defects.max(), tol)
                    + _within("sec variance", data["sec_variance"], 1e-8)), False
        return ([] if defects.max() > 1e-3
                else [f"max defect {defects.max():.3e} <= 1e-3"]), False
    return check


# -- workloads ---------------------------------------------------------------

_DISK = {"name": "poincare_disk"}
_DISK_DEEP = {"name": "poincare_disk", "params": {"eps": 1e-10}}
_BALL = {"name": "poincare_ball"}
_EUC3 = {"name": "euclidean", "params": {"dim": 3}}
_TORUS = {"name": "flat_torus"}
_S2 = {"name": "round_sphere"}
_S3 = {"name": "round_sphere", "params": {"dim": 3}}
_ZERO = {"name": "zero"}
_AREA = {"name": "area_form", "params": {"b": 1.0}}


def _const(b):
    return {"name": "constant", "params": {"b": b}}


def _sc(manifold, magnetic, speed, x, v, step, params, seed=0):
    sc = {"manifold": manifold, "magnetic": magnetic, "speed": float(speed),
          "integrator": {"step": step}, "seed": int(seed), "params": params}
    if x is not None:
        sc["initial"] = {"x": [float(c) for c in x], "v": [float(c) for c in v]}
    return sc


def _in_disk(rng, n, r):
    """A point of the Euclidean n-ball of radius r."""
    return _unit(rng, n) * r * rng.uniform() ** (1.0 / n)


def orbits(rng, scale):
    """Long single orbits: RK4 integration on all five models, transport and
    holonomy.  No variational flow and no curvature sampling."""
    h, T = 1e-3, 1.2 * scale
    jobs = []
    x, v, s, b = rng.uniform(-1, 1, 3), _unit(rng, 3), rng.uniform(0.5, 2), rng.uniform(0.8, 1.5)
    jobs.append(Job("integrate-euclidean3-larmor", "integrate",
                    _sc(_EUC3, _const(b), s, x, v, h, {"T": T}),
                    _larmor_check(x, v, s, b, T, h)))
    x, v, s, b = rng.uniform(0, 2 * np.pi, 2), _unit(rng, 2), rng.uniform(0.5, 1.5), rng.uniform(1, 2)
    jobs.append(Job("integrate-torus-larmor", "integrate",
                    _sc(_TORUS, _const(b), s, x, v, h, {"T": T}),
                    _larmor_check(x, v, s, b, T, h)))
    x, v, s = _in_disk(rng, 2, 0.3), _unit(rng, 2), rng.uniform(0.4, 0.8)
    jobs.append(Job("integrate-disk-bounded", "integrate",
                    _sc(_DISK, _AREA, s, x, v, h, {"T": T}),
                    _disk_circle_check(x, v, s, 1.0, T, h)))
    # s > b: the orbit runs out of the chart before T, a partial result
    x, v, s = np.zeros(2), _unit(rng, 2), 4.0
    jobs.append(Job("integrate-disk-escaping", "integrate",
                    _sc(_DISK, _AREA, s, x, v, h, {"T": 2 * T}),
                    _disk_circle_check(x, v, s, 1.0, 2 * T, h)))
    v, s = _unit(rng, 3), rng.uniform(0.8, 1.6)
    jobs.append(Job("integrate-ball-radial", "integrate",
                    _sc(_BALL, _ZERO, s, np.zeros(3), v, h, {"T": T}),
                    _ball_radial_check(v, s, T, h)))
    # starts within 0.3 of the equator and runs at most 0.8 radian, so it
    # stays clear of the polar caps the chart leaves out
    x = np.array([np.pi / 2 + rng.uniform(-0.3, 0.3), rng.uniform(0, 2 * np.pi)])
    v, s = _unit(rng, 2), rng.uniform(0.5, 1.0)
    Ts = T * 2 / 3
    jobs.append(Job("integrate-sphere-great-circle", "integrate",
                    _sc(_S2, _ZERO, s, x, v, h, {"T": Ts}),
                    _sphere_great_circle_check(x, v, s, Ts, h)))
    x, v, w0 = rng.uniform(-1, 1, 3), _unit(rng, 3), rng.standard_normal(3)
    s, b = rng.uniform(0.5, 1.5), rng.uniform(0.8, 1.5)
    jobs.append(Job("transport-euclidean3-larmor", "transport",
                    _sc(_EUC3, _const(b), s, x, v, h, {"T": T, "w0": list(w0)}),
                    _transport_check(w0, b, T)))
    # closed orbits, the period guessed 2% long and refined.  Only the start
    # is drawn: every start then gives the same return-distance curve up to
    # an isometry, so the refinement takes the same number of orbits.
    b, a = 6.0, rng.uniform(0, 2 * np.pi)
    period = 2 * np.pi / b
    jobs.append(Job("holonomy-euclidean3-larmor", "holonomy",
                    _sc(_EUC3, _const(b), 1.0, rng.uniform(-1, 1, 3), [np.cos(a), np.sin(a), 0],
                        1e-2, {"period_guess": 1.02 * period}),
                    _holonomy_check(period, 2)))
    x, v = _in_disk(rng, 2, 0.3), _unit(rng, 2)
    period = 2 * np.pi / np.sqrt(b * b - 1.0)
    jobs.append(Job("holonomy-disk-circle", "holonomy",
                    _sc(_DISK, {"name": "area_form", "params": {"b": b}}, 1.0, x, v, 1e-2,
                        {"period_guess": 1.02 * period}),
                    _holonomy_check(period, 1)))
    return jobs


_CURVATURE_MODELS = (("disk", _DISK, _AREA, 2), ("ball", _BALL, _ZERO, 3),
                     ("sphere2", _S2, _ZERO, 2), ("sphere3", _S3, _ZERO, 3))


def ensembles(rng, scale):
    """Many independent curvature samples: second derivatives of the
    geometry at random points, no ODE."""
    samples = max(2, int(200 * scale))
    jobs = []
    for model, man, mag, n in _CURVATURE_MODELS:
        for command, verdict in (("sec", False), ("anosov-report", True)):
            s = rng.uniform(0.5, 2.5)
            jobs.append(Job(f"{command}-{model}", command,
                            _sc(man, mag, s, None, None, 1e-3,
                                {"samples": samples}, seed=rng.integers(2**31)),
                            _sec_check(model, s, samples, verdict)))
        s = rng.uniform(0.5, 2.5)
        x = (_in_disk(rng, n, 0.5) if model in ("disk", "ball")
             else rng.uniform(0.5, np.pi - 0.5, n))
        jobs.append(Job(f"curvature-{model}", "curvature",
                        _sc(man, mag, s, x, _unit(rng, n), 1e-3, {}),
                        _curvature_check(model, s, n)))
    return jobs


def tangents(rng, scale):
    """Variational diagnostics: the linearised flow, its Jacobian, QR
    segments and exp-image Hessians.  The disk Lyapunov and angle horizons
    do not scale: their oracles need the growth to dominate."""
    T = 5.0 * scale
    jobs = []
    x, v, s = _in_disk(rng, 2, 0.2), _unit(rng, 2), 2.0
    jobs.append(Job("lyapunov-disk", "lyapunov",
                    _sc(_DISK_DEEP, _ZERO, s, x, v, 1e-2, {"T": 8.0}),
                    _lyapunov_disk_check(s)))
    x, v = rng.uniform(0, 2 * np.pi, 2), _unit(rng, 2)
    jobs.append(Job("lyapunov-torus", "lyapunov",
                    _sc(_TORUS, _ZERO, rng.uniform(0.5, 2), x, v, 1e-2, {"T": T}),
                    _lyapunov_torus_check()))
    # along the equator, tilted by at most 0.8 rad, so a path of length 3.5
    # stays clear of the polar caps the chart leaves out
    tilt = rng.uniform(-0.8, 0.8)
    t_max, steps = 3.5, max(2, int(35 * scale))
    jobs.append(Job("conjugate-scan-sphere", "conjugate-scan",
                    _sc(_S2, _ZERO, 1.0, [np.pi / 2, rng.uniform(0, 2 * np.pi)],
                        [np.sin(tilt), np.cos(tilt)], 1e-2, {"t_max": t_max, "steps": steps}),
                    _conjugate_check(t_max, steps)))
    for command, horizon, check in (("angle", 5.0, _angle_check()),
                                    ("volume", T, _volume_check())):
        x, v = _in_disk(rng, 2, 0.2), _unit(rng, 2)
        jobs.append(Job(f"{command}-disk", command,
                        _sc(_DISK_DEEP, _ZERO, 1.0, x, v, 1e-2, {"T": horizon}), check))
    grid = [0.5, 2.0]
    jobs.append(Job("regimes-disk", "regimes",
                    _sc(_DISK, _AREA, 1.0, None, None, 1e-2,
                        {"s_grid": grid, "samples": max(2, int(10 * scale)), "T": 1.0},
                        seed=rng.integers(2**31)),
                    _regimes_check(grid)))
    # a fixed program seed: the probe's cost follows the radii it samples and
    # the planes it redraws, which would otherwise change with every seed
    planes = max(1, int(3 * scale))
    for name, man, mag, invariant in (("ball", _BALL, _ZERO, True),
                                      ("sphere3", _S3, _ZERO, True),
                                      ("euclidean3-constant", _EUC3, _const(1.0), False)):
        jobs.append(Job(f"cartan-probe-{name}", "cartan-probe",
                        _sc(man, mag, 1.0, None, None, 2e-2,
                            {"k": 2, "planes": planes, "defect_samples": 2}, seed=7),
                        _cartan_check(invariant)))
    return jobs


def build(workload: str, seed: int, scenario_dir: Path, scale: float = 1.0) -> list:
    """The workload's job list for `seed`, with every scenario written to
    `scenario_dir` (the program reads nothing else)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = {"orbits": orbits, "ensembles": ensembles, "tangents": tangents}[workload](rng, scale)
    scenario_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        job.scenario["command"] = job.command
        job.scenario_path = scenario_dir / f"{job.name}.json"
        job.scenario_path.write_text(json.dumps(job.scenario, indent=1, sort_keys=True))
    return jobs
