"""Command-line front end.

Each subcommand reads a JSON scenario, dispatches to the library, and emits
CSV/JSON files into the output directory.  Outputs contain no timestamps and
all floats round-trip through shortest-representation decimals, so re-running
a scenario with the same seed reproduces the payloads byte for byte.

Exit codes: 0 success, 2 scenario validation error, 3 numerical failure.
"""
from __future__ import annotations

import json
import logging
import os
import sys as _sys
from functools import wraps

import click
import numpy as np

from . import diagnostics as dg
from . import transport as tr
from .curvature import anosov_report, magnetic_operator, op_A, op_R, sample_sectionals
from .errors import MagflowError
from .flow import IntegratorConfig, PhaseState, dynamical_exp, integrate
from .forms import make_form
from .models import make_manifold
from .scenario import (ScenarioInvalid, build_integrator, build_state,
                       build_system, load_scenario)
from .submanifold import cartan_probe, invariance_defect, make_submanifold
from .system import MagneticSystem

log = logging.getLogger("magflow")


def _setup_logging():
    level = os.environ.get("MAGFLOW_LOG", "WARNING").upper()
    logging.basicConfig(stream=_sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    click.echo(path)
    return path


_common = [
    click.argument("scenario_file", type=click.Path()),
    click.option("--out", default=".", help="output directory"),
    click.option("--seed", type=int, default=None, help="override scenario seed"),
    click.option("--threads", type=int, default=1,
                 help="accepted for interface stability; all computations "
                      "are deterministic and single-threaded"),
    click.option("--tolerance", type=float, default=None,
                 help="override command tolerance defaults"),
]


def scenario_command(name):
    """Register a subcommand with the shared flags and error-to-exit mapping."""
    def deco(fn):
        @wraps(fn)
        def wrapper(scenario_file, out, seed, threads, tolerance):
            _setup_logging()
            try:
                sc = load_scenario(scenario_file, command=name)
                if seed is not None:
                    sc["seed"] = seed
                fn(sc, out, tolerance)
            except ScenarioInvalid as exc:
                click.echo(f"scenario error: {exc}", err=True)
                raise SystemExit(2)
            except MagflowError as exc:
                click.echo(f"numerical failure ({type(exc).__name__}): {exc}",
                           err=True)
                raise SystemExit(3)
            raise SystemExit(0)
        for opt in reversed(_common):
            wrapper = opt(wrapper)
        return main.command(name=name)(wrapper)
    return deco


@click.group()
def main():
    """Magnetic geodesic flows: integration, curvature, and diagnostics."""


def _prepared(sc):
    sysm = build_system(sc)
    state = build_state(sc, sysm)
    cfg = build_integrator(sc)
    return sysm, state, cfg


def _unit_state(sc, sysm):
    """Initial state with g-unit velocity (curvature operators separate the
    speed dependence into the parameter s)."""
    st = build_state(sc, sysm)
    return st.x, st.v / sysm.metric.norm(st.x, st.v)


def _horizon(params) -> float:
    """params/T, a finite nonnegative time (1 by default)."""
    T = float(params.get("T", 1.0))
    if not (np.isfinite(T) and T >= 0):
        raise ScenarioInvalid(
            f"scenario field params/T: must be finite and nonnegative, got {T}")
    return T


@scenario_command("integrate")
def cmd_integrate(sc, out, tolerance):
    """Integrate the magnetic flow; writes trajectory.csv."""
    sysm, state, cfg = _prepared(sc)
    T = _horizon(sc.get("params", {}))
    traj = integrate(sysm, state, T, cfg)
    _write(out, "trajectory.csv", traj.to_csv())


@scenario_command("exp")
def cmd_exp(sc, out, tolerance):
    """Evaluate the dynamical exponential map; writes exp.json."""
    sysm = build_system(sc)
    sc.setdefault("initial", {}).setdefault("v", [1.0] + [0.0] * (sysm.dim - 1))
    state = build_state(sc, sysm)
    cfg = build_integrator(sc)
    u = np.asarray(sc.get("params", {}).get("u", state.v), dtype=float)
    y = dynamical_exp(sysm, state.x, u, cfg)
    _write(out, "exp.json", _dump_json({
        "x": list(state.x), "u": list(u), "point": [float(c) for c in y]}))


@scenario_command("curvature")
def cmd_curvature(sc, out, tolerance):
    """Magnetic curvature operators A, R_s, M_s at the initial state."""
    sysm = build_system(sc)
    x, v = _unit_state(sc, sysm)
    s = float(sc.get("speed", 1.0))
    A, R, M = op_A(sysm, x, v), op_R(sysm, s, x, v), magnetic_operator(sysm, s, x, v)
    _write(out, "curvature.json", _dump_json({
        "speed": s, "x": list(x), "v": list(v),
        "frame": [list(row) for row in A.frame],
        "A": [list(r) for r in A.matrix],
        "R": [list(r) for r in R.matrix],
        "M": [list(r) for r in M.matrix]}))


@scenario_command("sec")
def cmd_sec(sc, out, tolerance):
    """Sample s-magnetic sectional curvatures; writes sec.json."""
    sysm = build_system(sc)
    s = float(sc.get("speed", 1.0))
    count = int(sc.get("params", {}).get("samples", 50))
    rep = anosov_report(sysm, s, count, seed=sc.get("seed", 0))
    _write(out, "sec.json", _dump_json({
        "speed": s, "samples": count, "min": rep.min, "max": rep.max,
        "mean": rep.mean}))


@scenario_command("anosov-report")
def cmd_anosov(sc, out, tolerance):
    """Sampling certificate for the negative-curvature Anosov criterion."""
    sysm = build_system(sc)
    s = float(sc.get("speed", 1.0))
    count = int(sc.get("params", {}).get("samples", 100))
    rep = anosov_report(sysm, s, count, seed=sc.get("seed", 0))
    _write(out, "anosov.json", rep.to_json())


@scenario_command("defect")
def cmd_defect(sc, out, tolerance):
    """Totally-invariant defect of a declared submanifold; writes defect.json."""
    sysm = build_system(sc)
    params = sc.get("params", {})
    if "submanifold" not in params:
        raise ScenarioInvalid("scenario field params/submanifold: required")
    N = make_submanifold(params["submanifold"], sysm)
    count = int(params.get("samples", 32))
    rep = invariance_defect(sysm, N, count, seed=sc.get("seed", 0))
    _write(out, "defect.json", rep.to_json())


@scenario_command("cartan-probe")
def cmd_cartan(sc, out, tolerance):
    """Sample tangent k-planes and test their exp-images for invariance."""
    sysm = build_system(sc)
    params = sc.get("params", {})
    rep = cartan_probe(
        sysm, k=int(params.get("k", 2)),
        plane_samples=int(params.get("planes", 20)),
        seed=sc.get("seed", 0),
        radius=float(params.get("radius", 0.4)),
        defect_samples=int(params.get("defect_samples", 4)),
        tol=tolerance if tolerance is not None else float(params.get("tolerance", 1e-6)),
        cfg=build_integrator(sc, default_step=1e-2))
    _write(out, "cartan.json", rep.to_json())
    _write(out, "cartan.csv", rep.to_csv())


@scenario_command("transport")
def cmd_transport(sc, out, tolerance):
    """Magnetic parallel transport along the orbit; writes transport.json."""
    sysm, state, cfg = _prepared(sc)
    params = sc.get("params", {})
    T = _horizon(params)
    w0 = np.asarray(params.get("w0", state.v), dtype=float)
    W = tr.parallel_transport(sysm, state, w0, T, cfg)
    _write(out, "transport.json", _dump_json({
        "T": T, "w0": list(w0), "w": [float(c) for c in W]}))


@scenario_command("holonomy")
def cmd_holonomy(sc, out, tolerance):
    """Orthogonal frame holonomy around a closed orbit; writes holonomy.csv."""
    sysm, state, cfg = _prepared(sc)
    params = sc.get("params", {})
    guess = float(params.get("period_guess", 2 * np.pi))
    tol = tolerance if tolerance is not None else float(params.get("tolerance", 1e-6))
    hol = tr.closed_orbit_holonomy(sysm, state, guess, cfg, tol=tol)
    _write(out, "holonomy.csv", hol.to_csv())


@scenario_command("lyapunov")
def cmd_lyapunov(sc, out, tolerance):
    """Finite-time Lyapunov spectrum; writes lyapunov.json and lyapunov.csv."""
    sysm, state, cfg = _prepared(sc)
    params = sc.get("params", {})
    rep = dg.lyapunov_spectrum(sysm, state, float(params.get("T", 10.0)),
                               steps=params.get("steps"), cfg=cfg)
    _write(out, "lyapunov.json", rep.to_json())
    _write(out, "lyapunov.csv", rep.to_csv())


@scenario_command("angle")
def cmd_angle(sc, out, tolerance):
    """Vertical-vs-contracting transversality angle; writes angle.json."""
    sysm, state, cfg = _prepared(sc)
    T = float(sc.get("params", {}).get("T", 10.0))
    ang = dg.transversality_angle(sysm, state, T, cfg)
    _write(out, "angle.json", _dump_json({"T": T, "angle": ang}))


@scenario_command("volume")
def cmd_volume(sc, out, tolerance):
    """Liouville volume drift per unit time; writes volume.json."""
    sysm, state, cfg = _prepared(sc)
    T = float(sc.get("params", {}).get("T", 10.0))
    drift = dg.volume_drift(sysm, state, T, cfg)
    _write(out, "volume.json", _dump_json({"T": T, "drift": drift}))


@scenario_command("conjugate-scan")
def cmd_conjugate(sc, out, tolerance):
    """Radial scan for conjugate points; writes conjugate_scan.csv."""
    sysm, state, cfg = _prepared(sc)
    params = sc.get("params", {})
    direction = np.asarray(params.get("direction", state.v), dtype=float)
    scan = dg.conjugate_point_scan(sysm, state.x, direction,
                                   float(params.get("t_max", 2.0)),
                                   int(params.get("steps", 40)), cfg)
    lines = ["t,sigma_min"]
    lines += [f"{float(t)!r},{float(s)!r}" for t, s in scan]
    _write(out, "conjugate_scan.csv", "\n".join(lines) + "\n")


@scenario_command("regimes")
def cmd_regimes(sc, out, tolerance):
    """Sweep the speed s on the hyperbolic surface with its area form and
    report (s, max sectional curvature, top Lyapunov exponent) per row.

    The sign of both columns flips at s = 1: below it orbits are bounded and
    the curvature criterion fails, above it the flow is hyperbolic."""
    params = sc.get("params", {})
    grid = [float(s) for s in params.get(
        "s_grid", [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0])]
    count = int(params.get("samples", 25))
    T = float(params.get("T", 8.0))
    seed = sc.get("seed", 0)
    chart, metric = make_manifold("poincare_disk", eps=1e-10)
    sigma = make_form("area_form", 2, metric, chart, b=1.0)
    sysm = MagneticSystem(chart, metric, sigma)
    cfg = build_integrator(sc, default_step=1e-2)
    rng = np.random.default_rng(seed)
    lines = ["s,max_sec,top_exponent"]
    for s in grid:
        max_sec = float(sample_sectionals(sysm, s, count, rng).max())
        state = PhaseState(x=np.zeros(2), v=np.array([0.5 * s, 0.0]), s=s)
        # bounded (s <= 1) orbits cannot exit the chart, so a longer horizon
        # is free and damps the finite-time bias toward positive exponents
        horizon = (5.0 * T if s <= 1.0 else T) / max(s, 1.0)
        rep = dg.lyapunov_spectrum(sysm, state, horizon, cfg=cfg)
        lines.append(f"{s!r},{max_sec!r},{float(rep.exponents[0])!r}")
    _write(out, "regimes.csv", "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
