"""Command-line front end.

Each subcommand reads a JSON scenario, dispatches to the library, and emits
CSV/JSON files into the output directory.  This module alone writes files and
owns their format: every JSON file goes through `_dump_json` and every CSV
file through `_csv`; the library's result classes hold data only.  Outputs
contain no timestamps and all floats round-trip through shortest-representation
decimals, so re-running a scenario with the same seed reproduces the payloads
byte for byte.

Exit codes: 0 success, 2 scenario validation error, 3 numerical failure.
"""
from __future__ import annotations

import io
import json
import logging
import os
import sys as _sys
from dataclasses import asdict
from functools import wraps

import click
import numpy as np

from . import diagnostics as dg
from . import transport as tr
from .curvature import _operators, anosov_report, sample_sectionals
from .errors import MagflowError, NonFiniteResult
from .flow import (DIAGNOSTIC_STEP, IntegratorConfig, PhaseState,
                   dynamical_exp, integrate)
from .scenario import (ScenarioInvalid, build_integrator, build_state,
                       build_submanifold, build_system, build_vector,
                       load_scenario)
from .submanifold import cartan_probe, invariance_defect

log = logging.getLogger("magflow")


def _setup_logging():
    level = os.environ.get("MAGFLOW_LOG", "WARNING").upper()
    logging.basicConfig(stream=_sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj) -> str:
    """`obj` as JSON; `NonFiniteResult` if it holds a NaN or infinity."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"non-finite value in a JSON payload: {exc}")


def _csv(head, rows, tail=()) -> str:
    """The lines `head`, then one line per row holding the repr of each of
    its Python scalars, then the lines `tail`.  Rows are formatted one at a
    time, so a generator of rows never holds a long orbit's whole table as
    Python floats."""
    buf = io.StringIO()
    buf.writelines(line + "\n" for line in head)
    buf.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    buf.writelines(line + "\n" for line in tail)
    return buf.getvalue()


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
    click.option("--seed", type=click.IntRange(min=0), default=None,
                 help="override scenario seed"),
    click.option("--threads", type=click.IntRange(min=1), default=1,
                 help="accepted for interface stability; all computations "
                      "are deterministic and single-threaded"),
]


def scenario_command(name):
    """Register a subcommand with the shared flags and error-to-exit mapping."""
    def deco(fn):
        @wraps(fn)
        def wrapper(scenario_file, out, seed, threads):
            _setup_logging()
            try:
                sc = load_scenario(scenario_file, command=name)
                if seed is not None:
                    sc["seed"] = seed
                fn(sc, out)
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


def _prepared(sc, default_step):
    """The scenario's system, initial state and integrator settings; without
    `integrator/step` it steps by `default_step`, which each subcommand
    takes from the library entry point that it calls."""
    sysm = build_system(sc)
    state = build_state(sc, sysm)
    cfg = build_integrator(sc, default_step)
    return sysm, state, cfg


def _unit_state(sc, sysm):
    """Initial state with g-unit velocity (curvature operators separate the
    speed dependence into the parameter s)."""
    x = build_state(sc, sysm).x
    v = np.asarray(sc["initial"]["v"], dtype=float)  # checked by build_state
    return x, v / sysm.metric.norm(x, v)


def _diagnostic_horizon(sc, cfg):
    """params/T, which the tangent diagnostics take as their horizon at
    `cfg`: a scenario error where their rule rejects it."""
    T = sc["params"]["T"]
    try:
        dg._require_horizon("T", T, cfg)
    except ValueError as exc:
        raise ScenarioInvalid(f"scenario field params/T: {exc}")
    return T


@scenario_command("integrate")
def cmd_integrate(sc, out):
    """Integrate the magnetic flow; writes trajectory.csv."""
    sysm, state, cfg = _prepared(sc, IntegratorConfig.step)
    traj = integrate(sysm, state, sc["params"]["T"], cfg)
    n = traj.n
    cols = (["t"] + [f"x{i+1}" for i in range(n)]
            + [f"v{i+1}" for i in range(n)] + ["speed_drift"])
    table = np.column_stack([traj.times, traj.states, traj.drift_per_node])
    _write(out, "trajectory.csv", _csv(
        [",".join(cols)], (row.tolist() for row in table),
        ["# exited,True"] if traj.exited else []))


@scenario_command("exp")
def cmd_exp(sc, out):
    """Evaluate the dynamical exponential map; writes exp.json."""
    sysm = build_system(sc)
    if sc["initial"]["v"] is None:
        sc["initial"]["v"] = [1.0] + [0.0] * (sysm.dim - 1)
    state = build_state(sc, sysm)
    cfg = build_integrator(sc, IntegratorConfig.step)
    u = build_vector(sc, "params/u", sysm, default=state.v)
    y = dynamical_exp(sysm, state.x, u, cfg)
    _write(out, "exp.json", _dump_json({
        "x": list(state.x), "u": list(u), "point": [float(c) for c in y]}))


@scenario_command("curvature")
def cmd_curvature(sc, out):
    """Magnetic curvature operators A, R_s, M_s at the initial state."""
    sysm = build_system(sc)
    x, v = _unit_state(sc, sysm)
    s = sc["speed"]
    A, R, M = _operators(sysm, s, x, v)
    _write(out, "curvature.json", _dump_json({
        "speed": s, "x": list(x), "v": list(v),
        "frame": [list(row) for row in A.frame],
        "A": [list(r) for r in A.matrix],
        "R": [list(r) for r in R.matrix],
        "M": [list(r) for r in M.matrix]}))


@scenario_command("sec")
def cmd_sec(sc, out):
    """Sample s-magnetic sectional curvatures; writes sec.json."""
    sysm = build_system(sc)
    s, count = sc["speed"], sc["params"]["samples"]
    rep = anosov_report(sysm, s, count, seed=sc["seed"])
    _write(out, "sec.json", _dump_json({
        "speed": s, "samples": count, "min": rep.min, "max": rep.max,
        "mean": rep.mean}))


@scenario_command("anosov-report")
def cmd_anosov(sc, out):
    """Sampling certificate for the negative-curvature Anosov criterion."""
    sysm = build_system(sc)
    rep = anosov_report(sysm, sc["speed"], sc["params"]["samples"],
                        seed=sc["seed"])
    _write(out, "anosov.json", _dump_json(asdict(rep)))


@scenario_command("defect")
def cmd_defect(sc, out):
    """Totally-invariant defect of a declared submanifold; writes defect.json."""
    sysm = build_system(sc)
    N = build_submanifold(sc, sysm, build_integrator(sc, DIAGNOSTIC_STEP))
    rep = invariance_defect(sysm, N, sc["params"]["samples"], seed=sc["seed"])
    _write(out, "defect.json", _dump_json(asdict(rep)))


@scenario_command("cartan-probe")
def cmd_cartan(sc, out):
    """Sample tangent k-planes and test their exp-images for invariance."""
    sysm = build_system(sc)
    p = sc["params"]
    if p["k"] >= sysm.dim:
        raise ScenarioInvalid(f"scenario field params/k: must be less than "
                              f"the dimension {sysm.dim}, got {p['k']}")
    rep = cartan_probe(
        sysm, k=p["k"], plane_samples=p["planes"], seed=sc["seed"],
        radius=p["radius"], defect_samples=p["defect_samples"],
        tol=p["tolerance"], cfg=build_integrator(sc, DIAGNOSTIC_STEP))
    _write(out, "cartan.json", _dump_json({
        "k": rep.k, "planes": rep.planes,
        "fraction_invariant": rep.fraction_invariant,
        "sec_variance": rep.sec_variance,
        "sigma_norm_max": rep.sigma_norm_max,
        "verdict": rep.verdict, "tol": rep.tol}))
    _write(out, "cartan.csv", _csv(
        ["plane_id,defect,sec_variance"],
        ((i, d, rep.sec_variance) for i, d in enumerate(rep.defects))))


@scenario_command("transport")
def cmd_transport(sc, out):
    """Magnetic parallel transport along the orbit; writes transport.json."""
    sysm, state, cfg = _prepared(sc, IntegratorConfig.step)
    T = sc["params"]["T"]
    w0 = build_vector(sc, "params/w0", sysm, default=state.v)
    W = tr.parallel_transport(sysm, state, w0, T, cfg)
    _write(out, "transport.json", _dump_json({
        "T": T, "w0": list(w0), "w": [float(c) for c in W]}))


@scenario_command("holonomy")
def cmd_holonomy(sc, out):
    """Orthogonal frame holonomy around a closed orbit; writes holonomy.csv."""
    sysm, state, cfg = _prepared(sc, IntegratorConfig.step)
    p = sc["params"]
    if p["period_guess"] < tr._shortest_guess(cfg.step):
        raise ScenarioInvalid(
            f"scenario field params/period_guess: 0.9 times the guess must "
            f"span two steps of {cfg.step}, got {p['period_guess']!r}")
    hol = tr.closed_orbit_holonomy(sysm, state, p["period_guess"], cfg,
                                   tol=p["tolerance"])
    _write(out, "holonomy.csv", _csv(
        [f"# period,{hol.period!r}",
         f"# return_distance,{hol.return_distance!r}"], hol.matrix.tolist()))


@scenario_command("lyapunov")
def cmd_lyapunov(sc, out):
    """Finite-time Lyapunov spectrum; writes lyapunov.json and lyapunov.csv."""
    sysm, state, cfg = _prepared(sc, DIAGNOSTIC_STEP)
    T = _diagnostic_horizon(sc, cfg)
    rep = dg.lyapunov_spectrum(sysm, state, T, steps=sc["params"]["steps"],
                               cfg=cfg)
    exponents = rep.exponents.tolist()
    _write(out, "lyapunov.json", _dump_json({
        "exponents": exponents, "sum": rep.total, "horizon": rep.horizon,
        "interval": rep.interval}))
    _write(out, "lyapunov.csv", _csv(["index,exponent"], enumerate(exponents)))


@scenario_command("angle")
def cmd_angle(sc, out):
    """Vertical-vs-contracting transversality angle; writes angle.json."""
    sysm, state, cfg = _prepared(sc, DIAGNOSTIC_STEP)
    T = _diagnostic_horizon(sc, cfg)
    ang = dg.transversality_angle(sysm, state, T, cfg)
    _write(out, "angle.json", _dump_json({"T": T, "angle": ang}))


@scenario_command("volume")
def cmd_volume(sc, out):
    """Liouville volume drift per unit time; writes volume.json."""
    sysm, state, cfg = _prepared(sc, DIAGNOSTIC_STEP)
    T = _diagnostic_horizon(sc, cfg)
    drift = dg.volume_drift(sysm, state, T, cfg)
    _write(out, "volume.json", _dump_json({"T": T, "drift": drift}))


@scenario_command("conjugate-scan")
def cmd_conjugate(sc, out):
    """Radial scan for conjugate points; writes conjugate_scan.csv."""
    sysm, state, cfg = _prepared(sc, IntegratorConfig.step)
    p = sc["params"]
    direction = build_vector(sc, "params/direction", sysm, default=state.v,
                             nonzero=True)
    if not p["t_max"] / p["steps"] > 0:
        raise ScenarioInvalid(f"scenario field params/t_max: {p['t_max']!r} / "
                              f"{p['steps']!r} steps underflows to a zero "
                              f"first radius")
    scan = dg.conjugate_point_scan(sysm, state.x, direction, p["t_max"],
                                   p["steps"], cfg)
    _write(out, "conjugate_scan.csv", _csv(["t,sigma_min"], scan.tolist()))


@scenario_command("regimes")
def cmd_regimes(sc, out):
    """Sweep the speed s on the hyperbolic surface with its area form and
    report (s, max sectional curvature, top Lyapunov exponent) per row.

    The sign of both columns flips at s = 1: below it orbits are bounded and
    the curvature criterion fails, above it the flow is hyperbolic.  The
    scenario must name that system, `poincare_disk` with `area_form`; its
    `eps` and `b` are taken as given."""
    for field, name in (("manifold", "poincare_disk"), ("magnetic", "area_form")):
        if sc[field]["name"] != name:
            raise ScenarioInvalid(
                f"scenario field {field}/name: regimes sweeps {name}, "
                f"got {sc[field]['name']!r}")
    p = sc["params"]
    sysm = build_system(sc)
    cfg = build_integrator(sc, DIAGNOSTIC_STEP)
    rng = np.random.default_rng(sc["seed"])
    rows = []
    for s in p["s_grid"]:
        # bounded (s <= 1) orbits cannot exit the chart, so a longer horizon
        # is free and damps the finite-time bias toward positive exponents
        horizon = (5.0 * p["T"] if s <= 1.0 else p["T"]) / max(s, 1.0)
        # a spectrum over less than one step measures no growth
        if not horizon >= cfg.step:
            raise ScenarioInvalid(f"scenario field params/T: the horizon "
                                  f"{horizon!r} at s = {s!r} is shorter than "
                                  f"one integrator step {cfg.step!r}")
        max_sec = float(sample_sectionals(sysm, s, p["samples"], rng).max())
        state = PhaseState(x=np.zeros(2), v=np.array([0.5 * s, 0.0]), s=s)
        rep = dg.lyapunov_spectrum(sysm, state, horizon, cfg=cfg)
        rows.append((s, max_sec, float(rep.exponents[0])))
    _write(out, "regimes.csv", _csv(["s,max_sec,top_exponent"], rows))


if __name__ == "__main__":
    main()
