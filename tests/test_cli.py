"""End-to-end tests of the command-line interface."""
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import magflow
from magflow import cli, geometry
from magflow.cli import _csv, _dump_json, main
from magflow.curvature import sample_sectionals
from magflow.errors import NonFiniteResult
from magflow.geometry import PointGeometry
from magflow.scenario import build_state, build_system, load_scenario

from conftest import run_python, system


def _write_scenario(tmp_path, name="scenario.json", **overrides):
    sc = {
        "manifold": {"name": "euclidean", "params": {"dim": 2}},
        "magnetic": {"name": "constant", "params": {"b": 1.0}},
        "speed": 1.0,
        "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
        "integrator": {"step": 1e-3},
        "seed": 7,
    }
    sc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(sc))
    return str(path)


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # magflow imports no scipy (its quadrature nodes are numpy draws), and
    # scenarios are checked without jsonschema
    out = run_python(
        ["-c",
         "import sys, magflow.cli; print(sorted(m for m in "
         "('scipy', 'scipy.integrate', 'scipy.optimize', 'scipy.stats', "
         "'jsonschema') if m in sys.modules))"], check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# integrate


def test_integrate_larmor_closes(tmp_path):
    sc = _write_scenario(tmp_path, params={"T": 2 * np.pi})
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,v1,v2,speed_drift"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[1]) < 1e-6 and abs(last[2]) < 1e-6
    assert "#" not in (tmp_path / "trajectory.csv").read_text()


def test_integrate_escaping_orbit_flagged_partial(tmp_path):
    # a disk geodesic leaves the chart before T: the rows stop there and a
    # comment line, which np.loadtxt skips, flags the partial orbit
    sc = _write_scenario(tmp_path, manifold={"name": "poincare_disk"},
                         magnetic={"name": "zero"}, integrator={"step": 1e-2},
                         params={"T": 30.0})
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    text = (tmp_path / "trajectory.csv").read_text()
    assert text.endswith("\n# exited,True\n")
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows.shape[0] == text.count("\n") - 2
    assert rows[-1, 0] < 30.0 - 1e-2


def test_trajectory_csv_matches_per_element_formatting(tmp_path):
    # the rows are the repr of every float, as formatting each element on
    # its own gives, and an exited orbit ends in `# exited,True`
    path = _write_scenario(
        tmp_path, manifold={"name": "poincare_ball"},
        magnetic={"name": "constant", "params": {"b": 0.5}},
        initial={"x": [0.1, -0.2, 0.05], "v": [0.3, 0.5, -0.2]},
        integrator={"step": 1e-2}, params={"T": 50.0})
    assert _run(["integrate", path, "--out", str(tmp_path)]).exit_code == 0
    sc = load_scenario(path, "integrate")
    m = build_system(sc)
    traj = magflow.integrate(m, build_state(sc, m), 50.0,
                             magflow.IntegratorConfig(step=1e-2))
    assert traj.exited
    rows = ["t,x1,x2,x3,v1,v2,v3,speed_drift"]
    for t, y, d in zip(traj.times, traj.states, traj.drift_per_node):
        rows.append(",".join([repr(float(t))] + [repr(float(u)) for u in y]
                             + [repr(float(d))]))
    assert ((tmp_path / "trajectory.csv").read_text()
            == "\n".join(rows + ["# exited,True", ""]))


def test_trajectory_csv_header(tmp_path):
    path = _write_scenario(tmp_path, params={"T": 0.01})
    assert _run(["integrate", path, "--out", str(tmp_path)]).exit_code == 0
    sys = system("euclidean", "constant", {"dim": 2}, b=1.0)
    traj = magflow.integrate(
        sys, magflow.PhaseState(x=np.zeros(2), v=np.array([1.0, 0.0])),
        0.01, magflow.IntegratorConfig(step=1e-3))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,v1,v2,speed_drift"
    assert len(lines) == len(traj.times) + 1


def test_zero_horizon_keeps_the_initial_state(tmp_path):
    # T = 0 takes no RK4 step: `integrate` writes the initial state as its
    # one row, and `transport` returns w0
    disk = {"manifold": {"name": "poincare_disk"},
            "magnetic": {"name": "area_form", "params": {"b": 1.0}},
            "initial": {"x": [0.1, 0.2], "v": [1.0, 0.0]},
            "integrator": {"step": 1e-2}}
    sc = _write_scenario(tmp_path, params={"T": 0.0}, **disk)
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert rows.shape[0] == 1
    assert rows[0, 0] == 0.0 and list(rows[0, 1:3]) == [0.1, 0.2]
    sc = _write_scenario(tmp_path, params={"T": 0.0, "w0": [0.3, -0.5]},
                         **disk)
    res = _run(["transport", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "transport.json").read_text())
    assert data["w"] == [0.3, -0.5]


def test_integrate_missing_file_exit_2(tmp_path):
    res = _run(["integrate", str(tmp_path / "missing.json")])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# validation failures


def test_negative_speed_rejected_naming_field(tmp_path):
    sc = _write_scenario(tmp_path, speed=-2.0)
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "speed" in res.output


@pytest.mark.parametrize("command", ["integrate", "transport", "lyapunov",
                                     "angle", "volume"])
def test_negative_horizon_rejected_naming_field(tmp_path, command):
    sc = _write_scenario(tmp_path, params={"T": -3.0})
    out = tmp_path / "out"
    res = _run([command, sc, "--out", str(out)])
    assert res.exit_code == 2
    assert "params/T" in res.output
    assert not out.exists()


_HYPERPLANE = {"type": "hyperplane", "normal": [0.0, 0.0, 1.0]}


def _defect_overrides(submanifold):
    """A `defect` scenario in Euclidean 3-space for `submanifold`."""
    return {"manifold": {"name": "euclidean", "params": {"dim": 3}},
            "initial": {"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
            "params": {"submanifold": submanifold}}


@pytest.mark.parametrize("command, overrides, flags, field", [
    pytest.param("sec", {}, ["--seed", "-1"], "--seed", id="negative-seed"),
    pytest.param("sec", {}, ["--threads", "-5"], "--threads",
                 id="negative-threads"),
    pytest.param("integrate", {"params": {"T": "abc"}}, [], "params/T",
                 id="text-horizon"),
    pytest.param("lyapunov", {"params": {"T": 0}}, [], "params/T",
                 id="zero-lyapunov-horizon"),
    pytest.param("integrate", {"manifold": {"name": "round_sphere",
                                            "params": {"dim": 1}}},
                 [], "manifold/params", id="sphere-dim-1"),
    pytest.param("integrate", {"manifold": {"name": "euclidean",
                                            "params": {"dim": 3}},
                               "magnetic": {"name": "area_form"}},
                 [], "magnetic", id="area-form-off-surface"),
    pytest.param("sec", {"params": {"samples": 0}}, [], "params/samples",
                 id="zero-samples"),
    pytest.param("integrate", {"magnetic": {"name": "constant",
                                            "params": {"bb": 3.0}}},
                 [], "magnetic/params/bb", id="form-params-typo"),
    pytest.param("integrate", {"manifold": {"name": "euclidean",
                                            "params": {"dimm": 3}}},
                 [], "manifold/params/dimm", id="manifold-params-typo"),
    pytest.param("integrate", {"manifold": {"name": "poincare_disk",
                                            "params": {"dim": 3}}},
                 [], "manifold/params/dim", id="disk-takes-no-dim"),
    pytest.param("cartan-probe", {"params": {"k": 2}}, [], "params/k",
                 id="cartan-k-not-below-dim"),
    pytest.param("sec", {"params": {"sampels": 10}}, [], "params/sampels",
                 id="params-typo"),
    pytest.param("integrate", {"integrator": {"method": "rk45"}}, [],
                 "integrator/method", id="rk45"),
    pytest.param("defect", _defect_overrides(_HYPERPLANE), [],
                 "params/submanifold", id="hyperplane-without-point"),
    pytest.param("defect", _defect_overrides({"type": "sphere", "radius": 1.0,
                                              "raduis": 2.0}),
                 [], "'raduis'", id="sphere-key-typo"),
    pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 3,
                                                  extnt=3)),
                 [], "'extnt'", id="hyperplane-key-typo"),
    pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 3,
                                                  center=[0.0] * 3)),
                 [], "'center'", id="hyperplane-center"),
    pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 3,
                                                  basis=[[1.0, 0.0], [0.0, 0.0],
                                                         [0.0, 1.0]])),
                 [], "params/submanifold", id="hyperplane-normal-and-basis"),
    pytest.param("transport", {"params": {"w0": [1.0, 0.0, 0.0]}}, [],
                 "params/w0", id="transport-w0-length"),
    pytest.param("exp", {"params": {"u": [1.0]}}, [], "params/u",
                 id="exp-u-length"),
    pytest.param("conjugate-scan", {"params": {"direction": [1.0, 0.0, 0.0]}},
                 [], "params/direction", id="conjugate-direction-length"),
    pytest.param("conjugate-scan", {"params": {"direction": [0.0, 0.0]}},
                 [], "params/direction", id="conjugate-zero-direction"),
    pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 2)),
                 [], "params/submanifold", id="hyperplane-point-length"),
    pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 3,
                                                  normal=[0.0] * 3)),
                 [], "params/submanifold", id="hyperplane-zero-normal"),
    pytest.param("defect", _defect_overrides({"type": "hyperplane",
                                              "point": [0.0] * 3,
                                              "basis": [[1.0, 0.0]] * 4}),
                 [], "params/submanifold", id="hyperplane-basis-rows"),
    pytest.param("defect", _defect_overrides({"type": "exp_plane",
                                              "x": [0.0] * 2,
                                              "basis": [[1.0], [0.0], [0.0]]}),
                 [], "params/submanifold", id="exp-plane-x-length"),
    pytest.param("defect", _defect_overrides({"type": "sphere", "radius": 1.0,
                                              "center": [0.0] * 2}),
                 [], "params/submanifold", id="sphere-center-length"),
    pytest.param("integrate", {"manifold": {"name": "poincare_disk",
                                            "params": {"eps": -0.5}},
                               "initial": {"x": [1.2, 0.0], "v": [1.0, 0.0]}},
                 [], "manifold/params: eps", id="disk-negative-eps"),
    pytest.param("sec", {"manifold": {"name": "round_sphere",
                                      "params": {"eps": 2.0}}},
                 [], "manifold/params: eps", id="sphere-eps-beyond-half-pi"),
    pytest.param("sec", {"manifold": {"name": "flat_torus",
                                      "params": {"period": -1.0}}},
                 [], "manifold/params: period", id="torus-negative-period-sec"),
    pytest.param("transport", {"manifold": {"name": "flat_torus",
                                            "params": {"period": -1.0}}},
                 [], "manifold/params: period",
                 id="torus-negative-period-transport"),
    *[pytest.param(command, {"manifold": {"name": "poincare_disk"},
                             "initial": {"x": [2.0, 0.0], "v": [1.0, 0.0]}},
                   [], "initial/x", id=f"x-outside-disk-{command}")
      for command in ("integrate", "lyapunov", "transport")],
    pytest.param("defect", _defect_overrides({"type": "sphere", "radius": 0.0}),
                 [], "params/submanifold: 'radius'", id="sphere-zero-radius"),
    *[pytest.param("defect", _defect_overrides(dict(_HYPERPLANE, point=[0.0] * 3,
                                                    extent=extent)),
                   [], "params/submanifold: 'extent'", id=f"hyperplane-{sign}-extent")
      for sign, extent in (("zero", 0.0), ("negative", -1.0))],
    pytest.param("regimes", {"params": {"s_grid": []}}, [], "params/s_grid",
                 id="regimes-empty-s-grid"),
    # T / s underflows to a zero horizon
    pytest.param("regimes", {"manifold": {"name": "poincare_disk"},
                             "magnetic": {"name": "area_form"},
                             "params": {"s_grid": [2.0], "T": 5e-324}},
                 [], "params/T: horizon(s = 2.0)", id="regimes-subnormal-horizon"),
    # a horizon 5 T of one subnormal step measures no growth
    pytest.param("regimes", {"manifold": {"name": "poincare_disk"},
                             "magnetic": {"name": "area_form"},
                             "params": {"s_grid": [0.5], "T": 5e-324}},
                 [], "params/T: horizon(s = 0.5)", id="regimes-horizon-below-one-step"),
    # a diagnostic horizon shorter than one integrator step measures no
    # growth: rejected, where it gave zero exponents or a zero drift
    *[pytest.param(command, {"manifold": {"name": "poincare_disk"},
                             "magnetic": {"name": "area_form",
                                          "params": {"b": 1.0}},
                             "speed": 2.0,
                             "initial": {"x": [0.1, 0.0], "v": [1.0, 0.0]},
                             "integrator": {"step": 1e-2},
                             "params": {"T": T}},
                   [], "params/T", id=f"{command}-horizon-{T!r}")
      for command in ("lyapunov", "volume", "angle")
      for T in (5e-324, 1e-300)],
    # t_max / steps, the first radius, underflows to 0
    pytest.param("conjugate-scan", {"manifold": {"name": "round_sphere"},
                                    "magnetic": {"name": "zero"},
                                    "initial": {"x": [1.5, 1.0],
                                                "v": [0.0, 1.0]},
                                    "params": {"t_max": 5e-324, "steps": 4}},
                 [], "params/t_max", id="conjugate-scan-subnormal-t-max"),
    # v |v|_g^-1 s underflows to the zero vector
    *[pytest.param(command, {"manifold": {"name": "poincare_disk"},
                             "magnetic": {"name": "area_form",
                                          "params": {"b": 1.0}},
                             "speed": 5e-324,
                             "initial": {"x": [0.1, 0.0], "v": [1.0, 0.0]},
                             "integrator": {"step": 1e-2},
                             "params": {"T": 2.0}},
                   [], "speed", id=f"{command}-subnormal-speed")
      for command in ("integrate", "angle")],
    # the sweep runs on the hyperbolic disk with its area form only
    pytest.param("regimes", {"manifold": {"name": "round_sphere"},
                             "magnetic": {"name": "zero"}},
                 [], "manifold/name", id="regimes-on-sphere"),
    pytest.param("regimes", {"manifold": {"name": "poincare_disk"},
                             "magnetic": {"name": "zero"}},
                 [], "magnetic/name", id="regimes-without-area-form"),
    # a period window 0.9 x guess shorter than two steps: every orbit
    # returns within O(t) of its start near t = 0
    pytest.param("holonomy", {"manifold": {"name": "poincare_disk"},
                              "magnetic": {"name": "area_form",
                                           "params": {"b": 1.0}},
                              "initial": {"x": [0.1, 0.0], "v": [1.0, 0.0]},
                              "integrator": {"step": 1e-2},
                              "params": {"period_guess": 1e-6}},
                 [], "params/period_guess", id="holonomy-guess-near-zero"),
    pytest.param("holonomy", {"magnetic": {"name": "constant",
                                           "params": {"b": 2.0}},
                              "integrator": {"step": 1e-2},
                              "params": {"period_guess": 1e-3}},
                 [], "params/period_guess", id="holonomy-guess-below-two-steps"),
    # the window end 1.1 x guess overflows to an infinite horizon
    pytest.param("holonomy", {"params": {"period_guess": 1.7e308}},
                 [], "params/period_guess", id="holonomy-window-end-overflows"),
    # the integrator has no setting that corrects the orbit's speed
    pytest.param("integrate", {"integrator": {"renormalize_speed": True}},
                 [], "integrator/renormalize_speed",
                 id="renormalize-speed-unknown"),
])
def test_invalid_input_exits_2_naming_field(tmp_path, command, overrides,
                                            flags, field):
    sc = _write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    res = _run([command, sc, "--out", str(out)] + flags)
    assert res.exit_code == 2
    assert field in res.output
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    sc = _write_scenario(tmp_path, horizon=3.0)
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "horizon" in res.output


def test_command_mismatch_rejected(tmp_path):
    sc = _write_scenario(tmp_path, command="sec")
    res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "command" in res.output


def test_tolerance_is_not_an_option(tmp_path):
    # a tolerance is set only through the scenario's params/tolerance
    sc = _write_scenario(tmp_path, params={"T": 0.1})
    res = _run(["lyapunov", sc, "--out", str(tmp_path), "--tolerance", "1e-3"])
    assert res.exit_code == 2
    assert "No such option" in res.output


# ---------------------------------------------------------------------------
# numerical failures


def test_holonomy_not_periodic_exit_3(tmp_path):
    sc = _write_scenario(
        tmp_path,
        magnetic={"name": "zero"},
        params={"period_guess": 1.0})
    res = _run(["holonomy", sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "NotPeriodic" in res.output


@pytest.mark.parametrize("overrides", [
    pytest.param({"manifold": {"name": "poincare_disk"},
                  "magnetic": {"name": "area_form", "params": {"b": 1.0}},
                  "speed": 4.0, "integrator": {"step": 1e-2},
                  "params": {"period_guess": 3.0}}, id="escaping-orbit"),
    # a straight line: the Hermite refinement's polynomials have subnormal
    # leading coefficients, which np.roots cannot divide by
    pytest.param({"manifold": {"name": "flat_torus",
                               "params": {"period": 6.0}},
                  "magnetic": {"name": "constant", "params": {"b": 1e-160}},
                  "initial": {"x": [0.5, 0.5], "v": [1.0, 0.0]},
                  "integrator": {"step": 1e-2, "max_steps": 100000},
                  "params": {"period_guess": 3.2, "tolerance": 1e-6}},
                 id="torus-field-1e-160"),
])
def test_holonomy_refinement_edges_exit_3(tmp_path, overrides):
    sc = _write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    res = _run(["holonomy", sc, "--out", str(out)])
    assert res.exit_code == 3
    assert "NotPeriodic" in res.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# inputs of extreme magnitude

_DISK_SPEED_2 = {"manifold": {"name": "poincare_disk"},
                 "magnetic": {"name": "area_form"}, "speed": 2.0,
                 "initial": {"x": [0.1, 0.2], "v": [1.0, 0.0]}}


def _numbers(path):
    """Every number of a JSON or CSV payload, as one flat array."""
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).ravel()

    def flat(value):
        if isinstance(value, dict):
            return [x for key in sorted(value) for x in flat(value[key])]
        if isinstance(value, list):
            return [x for item in value for x in flat(item)]
        return [float(value)]
    return np.array(flat(json.loads(path.read_text())))


@pytest.mark.parametrize("command, overrides, scaled, name", [
    pytest.param("integrate", dict(_DISK_SPEED_2, params={"T": 1.0}),
                 {"initial": {"x": [0.1, 0.2], "v": [1e200, 0.0]}},
                 "trajectory.csv", id="integrate-1e200"),
    pytest.param("integrate", dict(_DISK_SPEED_2, params={"T": 1.0}),
                 {"initial": {"x": [0.1, 0.2], "v": [1e-200, 0.0]}},
                 "trajectory.csv", id="integrate-1e-200"),
    pytest.param("angle", dict(_DISK_SPEED_2, params={"T": 3.0}),
                 {"initial": {"x": [0.1, 0.2], "v": [1e200, 0.0]}},
                 "angle.json", id="angle-1e200"),
    pytest.param("curvature", _DISK_SPEED_2,
                 {"initial": {"x": [0.1, 0.2], "v": [1e200, 0.0]}},
                 "curvature.json", id="curvature-1e200"),
    pytest.param("conjugate-scan",
                 {"manifold": {"name": "round_sphere"},
                  "magnetic": {"name": "zero"},
                  "initial": {"x": [0.3, 0.2], "v": [1.0, 0.0]},
                  "params": {"direction": [1.0, 1.0]}},
                 {"params": {"direction": [1e200, 1e200]}},
                 "conjugate_scan.csv", id="conjugate-scan-1e200"),
    pytest.param("conjugate-scan",
                 {"manifold": {"name": "poincare_disk"},
                  "magnetic": {"name": "zero"},
                  "initial": {"x": [0.1, 0.0], "v": [1.0, 0.0]},
                  "params": {"direction": [1.0, 1.0]}},
                 {"params": {"direction": [1e308, 1e308]}},
                 "conjugate_scan.csv", id="conjugate-scan-1e308"),
])
def test_scaled_vector_gives_the_unscaled_payload(tmp_path, command,
                                                  overrides, scaled, name):
    # a velocity or direction scaled by 1e200 or 1e-200 states the same
    # problem: its g-norm neither overflows nor underflows, and the payload
    # is the unscaled run's to within 1e-14 of the payload's largest entry
    payloads = []
    for run, extra in (("unscaled", {}), ("scaled", scaled)):
        path = _write_scenario(tmp_path, name=f"{run}.json",
                               **dict(overrides, **extra))
        res = _run([command, path, "--out", str(tmp_path / run)])
        assert res.exit_code == 0, res.output
        payloads.append(_numbers(tmp_path / run / name))
    unscaled, scaled = payloads
    assert unscaled.shape == scaled.shape
    assert (np.abs(scaled - unscaled).max()
            <= 1e-14 * np.abs(unscaled).max())


@pytest.mark.parametrize("command, overrides", [
    pytest.param("exp", dict(_DISK_SPEED_2, params={"u": [1e200, 0.0]}),
                 id="exp"),
    pytest.param("cartan-probe",
                 {"manifold": {"name": "poincare_ball"},
                  "initial": {"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
                  "params": {"radius": 1e200, "planes": 2}},
                 id="cartan-probe"),
])
def test_huge_tangent_vector_exceeds_the_step_budget(tmp_path, command,
                                                     overrides):
    # a tangent vector of g-norm near 1e200 is a horizon that long: more
    # steps than the budget allows, which is a numerical failure
    out = tmp_path / "out"
    res = _run([command, _write_scenario(tmp_path, **overrides),
                "--out", str(out)])
    assert res.exit_code == 3
    assert "numerical failure (StepLimitExceeded)" in res.output
    assert not out.exists()


def test_holonomy_at_a_huge_speed_exits_cleanly(tmp_path):
    # the Hermite refinement's squared distances stay finite at speed 1e200
    sc = _write_scenario(
        tmp_path, manifold={"name": "flat_torus"},
        magnetic={"name": "constant", "params": {"b": 2.0}}, speed=1e200,
        initial={"x": [0.1, 0.2], "v": [1.0, 0.0]},
        params={"period_guess": 3.14159})
    res = _run(["holonomy", sc, "--out", str(tmp_path)])
    assert res.exit_code in (0, 3)
    assert res.exit_code == 0 or "NotPeriodic" in res.output


@pytest.mark.parametrize("speed", [1e8, 1e10, 1e12])
def test_holonomy_tolerance_scales_with_the_orbit(tmp_path, speed):
    # a Larmor circle's rounding grows with its speed: at 1e12 it returns
    # to about 1e-3, some 1e-15 of its size, within the tolerance 1e-6
    # times the orbit's scale
    sc = _write_scenario(
        tmp_path, manifold={"name": "flat_torus"},
        magnetic={"name": "constant", "params": {"b": 2.0}}, speed=speed,
        initial={"x": [0.1, 0.2], "v": [1.0, 0.0]},
        params={"period_guess": 3.14159})
    res = _run(["holonomy", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("magnetic, guess", [
    pytest.param({"name": "constant", "params": {"b": 2.0}}, 2.5,
                 id="larmor-wrong-guess"),
    pytest.param({"name": "zero"}, 3.0, id="straight-line")])
def test_holonomy_tolerance_ignores_where_the_orbit_sits(tmp_path, magnetic,
                                                         guess):
    # the orbit's scale is its size, not its place: far from the origin an
    # orbit that does not close near the guess still returns too far
    sc = _write_scenario(
        tmp_path, manifold={"name": "flat_torus"}, magnetic=magnetic,
        initial={"x": [1e7, 0.0], "v": [1.0, 0.0]},
        params={"period_guess": guess})
    res = _run(["holonomy", sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "NotPeriodic" in res.output


def test_defect_hyperplane_ignores_the_scale_of_its_normal(tmp_path):
    # a normal of g-norm below the Gram-Schmidt threshold spans the same
    # hyperplane as the unscaled one
    reports = []
    for scale in (1.0, 1e-9):
        sc = _write_scenario(
            tmp_path, name=f"{scale}.json", manifold={"name": "poincare_ball"},
            initial={"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]}, seed=3,
            params={"samples": 8, "submanifold": {
                "type": "hyperplane", "point": [0.3, 0.0, 0.1],
                "extent": 0.3, "normal": [scale, 2.0 * scale, 0.5 * scale]}})
        out = tmp_path / str(scale)
        assert _run(["defect", sc, "--out", str(out)]).exit_code == 0
        reports.append(json.loads((out / "defect.json").read_text()))
    for key in ("sup", "mean"):
        assert (abs(reports[1][key] - reports[0][key])
                <= 1e-12 * reports[0][key])


# ---------------------------------------------------------------------------
# curvature commands


def test_sec_hyperbolic_disk(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        speed=2.0,
        params={"samples": 30})
    res = _run(["sec", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "sec.json").read_text())
    assert abs(data["min"] + 3.0) < 1e-6 and abs(data["max"] + 3.0) < 1e-6


def test_curvature_matrices(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        speed=2.0,
        initial={"x": [0.1, 0.2], "v": [1.0, 0.0]})
    res = _run(["curvature", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "curvature.json").read_text())
    assert np.allclose(data["A"], np.eye(1), atol=1e-8)
    assert np.allclose(data["R"], -4.0 * np.eye(1), atol=1e-6)
    assert np.allclose(data["M"], -3.0 * np.eye(1), atol=1e-6)


def test_curvature_evaluates_its_point_once(tmp_path, monkeypatch):
    # A, R_s and M_s = A + R_s come from one geometry and one completion
    # frame at the job's one point
    calls = {"PointGeometry": 0, "gram_schmidt": 0}
    init, gram_schmidt = PointGeometry.__init__, geometry.gram_schmidt

    def counted_init(geo, *args, **kwargs):
        calls["PointGeometry"] += 1
        init(geo, *args, **kwargs)

    def counted_gram_schmidt(*args):
        calls["gram_schmidt"] += 1
        return gram_schmidt(*args)

    monkeypatch.setattr(PointGeometry, "__init__", counted_init)
    monkeypatch.setattr(geometry, "gram_schmidt", counted_gram_schmidt)
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_ball"},
        magnetic={"name": "constant", "params": {"b": 0.8}},
        speed=1.5,
        initial={"x": [0.1, 0.2, -0.1], "v": [1.0, 0.5, 0.2]})
    res = _run(["curvature", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert calls == {"PointGeometry": 1, "gram_schmidt": 1}


def test_integrate_huge_speed_of_a_subnormal_velocity(tmp_path):
    # s / |v|_g overflows for v = (5e-324, 0) at s = 1e100, so the start is
    # scaled as (v / |v|_g) s: a finite orbit, where v * inf gave a NaN
    sc = _write_scenario(tmp_path, speed=1e100,
                         initial={"x": [0.0, 0.0], "v": [5e-324, 0.0]},
                         integrator={"step": 1e-2}, params={"T": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _run(["integrate", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    rows = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert len(rows) == 101 and np.isfinite(rows).all()
    assert rows[0, 3:5].tolist() == [1e100, 0.0]


def test_curvature_tiny_speed_stays_finite(tmp_path):
    # the g-unit direction is normalised from initial/v itself, so a speed
    # whose scaled velocity underflows in the g-norm gives no Infinity
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        speed=1e-300,
        initial={"x": [0.1, 0.2], "v": [1.0, 0.0]})
    res = _run(["curvature", sc, "--out", str(tmp_path)])
    assert res.exit_code in (0, 3)
    if res.exit_code == 0:
        data = json.loads((tmp_path / "curvature.json").read_text())
        assert np.isfinite(np.array(data["v"])).all()
        for key in ("A", "R", "M"):
            assert np.isfinite(np.array(data[key])).all()


def test_sec_and_anosov_report_sample_alike(tmp_path):
    # one sampling loop: the same scenario and seed give the same statistics
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_ball"},
        magnetic={"name": "constant", "params": {"b": 0.8}},
        speed=1.5,
        initial={"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
        params={"samples": 20})
    for command in ("sec", "anosov-report"):
        assert _run([command, sc, "--out", str(tmp_path)]).exit_code == 0
    sec = json.loads((tmp_path / "sec.json").read_text())
    rep = json.loads((tmp_path / "anosov.json").read_text())
    assert sec["min"] < sec["max"]
    assert all(sec[key] == rep[key] for key in ("min", "max", "mean"))


def test_anosov_report_deterministic_json(tmp_path):
    path = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        speed=2.0, seed=5,
        params={"samples": 10})
    texts = []
    for sub in ("a", "b"):
        assert _run(["anosov-report", path, "--out",
                     str(tmp_path / sub)]).exit_code == 0
        texts.append((tmp_path / sub / "anosov.json").read_text())
    a, b = texts
    assert a == b


def test_anosov_report_verdict(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        speed=2.0,
        params={"samples": 40})
    res = _run(["anosov-report", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "anosov.json").read_text())
    assert data["verdict"] == "criterion satisfied on sample"
    assert data["max"] < 0


# ---------------------------------------------------------------------------
# exponential map and scans


def test_exp_disk_radial(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "zero"},
        initial={"x": [0.0, 0.0], "v": [1.0, 0.0]},
        params={"u": [0.5, 0.0]})
    res = _run(["exp", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "exp.json").read_text())
    # unit chart direction has g-norm 2 at the origin: radius 2 * 0.5 = 1
    assert abs(data["point"][0] - np.tanh(0.5)) < 1e-8
    assert abs(data["point"][1]) < 1e-10


def test_conjugate_scan_sphere(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "round_sphere"},
        magnetic={"name": "zero"},
        initial={"x": [np.pi / 2, 0.0], "v": [0.0, 1.0]},
        params={"t_max": 3.5, "steps": 35})
    res = _run(["conjugate-scan", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    rows = np.array([
        [float(v) for v in line.split(",")]
        for line in (tmp_path / "conjugate_scan.csv")
        .read_text().strip().split("\n")[1:]])
    i = np.argmin(rows[:, 1])
    assert abs(rows[i, 0] - np.pi) < 0.11


# ---------------------------------------------------------------------------
# diagnostics and determinism


def _disk_geodesic_scenario(tmp_path, **params):
    return _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk", "params": {"eps": 1e-10}},
        magnetic={"name": "zero"},
        integrator={"step": 1e-2},
        params=params)


def test_lyapunov_disk_and_determinism(tmp_path):
    sc = _disk_geodesic_scenario(tmp_path, T=15.0)
    outs = []
    for sub, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / sub
        res = _run(["lyapunov", sc, "--out", str(out), "--threads", threads])
        assert res.exit_code == 0
        outs.append(((out / "lyapunov.json").read_bytes(),
                     (out / "lyapunov.csv").read_bytes()))
    assert outs[0] == outs[1] == outs[2]
    data = json.loads(outs[0][0])
    assert abs(max(data["exponents"]) - 1.0) < 0.1


def test_lyapunov_report_files(tmp_path):
    # the spectrum's JSON keys, and one CSV line per exponent of the disk's
    # 4-dimensional phase space after the header
    sc = _disk_geodesic_scenario(tmp_path, T=10.0)
    assert _run(["lyapunov", sc, "--out", str(tmp_path)]).exit_code == 0
    data = json.loads((tmp_path / "lyapunov.json").read_text())
    assert set(data) == {"exponents", "sum", "horizon", "interval"}
    assert data["horizon"] == 10.0
    lines = (tmp_path / "lyapunov.csv").read_text().strip().split("\n")
    assert lines[0] == "index,exponent"
    assert len(lines) == 5


def test_angle_and_volume(tmp_path):
    sc = _disk_geodesic_scenario(tmp_path, T=15.0)
    out = tmp_path / "diag"
    assert _run(["angle", sc, "--out", str(out)]).exit_code == 0
    assert _run(["volume", sc, "--out", str(out)]).exit_code == 0
    ang = json.loads((out / "angle.json").read_text())["angle"]
    assert abs(ang - np.pi / 4) < 0.05
    assert json.loads((out / "volume.json").read_text())["drift"] < 0.05


def test_angle_unreliable_exit_3(tmp_path):
    # neither a torus geodesic nor a disk orbit at a tiny speed grows fast
    # enough for a reliable splitting; at the tiny speed the flow and speed
    # directions are normalised without their norms underflowing to 0, so
    # no NaN reaches the SVD
    for overrides in ({"manifold": {"name": "flat_torus"},
                       "initial": {"x": [0.0, 0.0], "v": [0.6, 0.8]},
                       "params": {"T": 10.0}},
                      {"manifold": {"name": "poincare_disk"},
                       "speed": 1e-300, "params": {"T": 5.0}}):
        sc = _write_scenario(tmp_path, magnetic={"name": "zero"},
                             integrator={"step": 1e-2}, **overrides)
        res = _run(["angle", sc, "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "UnreliableSplitting" in res.output


@pytest.mark.parametrize("command, integrator, params, error", [
    # a unit-speed geodesic leaves the disk chart near t = 7.6
    ("lyapunov", {"step": 1e-2}, {"T": 10.0}, "DomainExit"),
    ("conjugate-scan", {"step": 1e-2},
     {"direction": [1.0, 0.0], "t_max": 10.0, "steps": 10}, "DomainExit"),
    # the budget bounds the whole horizon (100 steps), not one segment (10)
    ("volume", {"step": 1e-2, "max_steps": 50}, {"T": 1.0}, "StepLimitExceeded"),
    ("lyapunov", {"step": 1e-2, "max_steps": 50}, {"T": 1.0},
     "StepLimitExceeded"),
])
def test_segmented_diagnostics_exit_3(tmp_path, command, integrator, params,
                                      error):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "zero"},
        integrator=integrator,
        params=params)
    res = _run([command, sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert error in res.output


@pytest.mark.parametrize("command", ["integrate", "transport"])
@pytest.mark.parametrize("manifold", [{"name": "flat_torus"},
                                      {"name": "euclidean",
                                       "params": {"dim": 2}}],
                         ids=["flat_torus", "euclidean"])
def test_blown_up_orbit_exits_3(tmp_path, command, manifold):
    # h b = 10 is past RK4's stability limit: the state overflows to NaN,
    # and neither flat chart has a guard to stop it
    sc = _write_scenario(tmp_path, manifold=manifold,
                         magnetic={"name": "constant", "params": {"b": 1e4}},
                         initial={"x": [0.5, 0.5], "v": [1.0, 0.0]},
                         params={"T": 1.0})
    out = tmp_path / "out"
    res = _run([command, sc, "--out", str(out)])
    assert res.exit_code == 3
    assert "NonFiniteState" in res.output
    assert not out.exists()


def test_blown_up_exp_image_exits_3(tmp_path):
    # the probe redraws a plane whose exp-image leaves the chart, but not
    # one whose orbit blows up
    sc = _write_scenario(
        tmp_path, **_EUCLIDEAN3,
        magnetic={"name": "constant", "params": {"b": 1e12}},
        integrator={"step": 2e-2},
        params={"k": 2, "planes": 1, "defect_samples": 2})
    res = _run(["cartan-probe", sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "NonFiniteState" in res.output


@pytest.mark.parametrize("command, params", [("sec", {"samples": 4}),
                                             ("curvature", {})],
                         ids=["sec", "curvature"])
def test_non_finite_payload_exits_3(tmp_path, command, params):
    # at b = 1e200 the magnetic curvature overflows to NaN, which is a
    # numerical failure and no payload; run in a new process, where numpy's
    # overflow warning stays a warning
    sc = _write_scenario(
        tmp_path, **dict(_DISK_AREA, magnetic={"name": "area_form",
                                               "params": {"b": 1e200}}),
        params=params)
    out = tmp_path / "out"
    res = run_python(["-m", "magflow.cli", command, sc, "--out", str(out)])
    assert res.returncode == 3
    assert "numerical failure (NonFiniteResult)" in res.stderr
    assert not out.exists()


def test_dump_json_rejects_non_finite_values():
    assert _dump_json({"b": [1.0, -0.0], "a": 2}) == (
        '{\n  "a": 2,\n  "b": [\n    1.0,\n    -0.0\n  ]\n}')
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteResult):
            _dump_json({"x": [0.5, bad]})


def test_csv_rejects_non_finite_values():
    assert _csv(["a,b"], [(0, -0.0), [1e300, 5e-324]], ["# end"]) == (
        "a,b\n0,-0.0\n1e+300,5e-324\n# end\n")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteResult):
            _csv(["a,b"], iter([(0, 1.0), (1, bad)]))


def _csv_per_row(head, rows, tail=()):
    """The CSV writer as it formatted one row at a time: the reference."""
    def text(row):
        line = ",".join(map(repr, row))
        if "n" in line:
            raise NonFiniteResult(f"non-finite value in a CSV row: {line}")
        return line + "\n"
    return "".join([line + "\n" for line in head] + list(map(text, rows))
                   + [line + "\n" for line in tail])


_CSV_CELLS = st.one_of(st.integers(-10**20, 10**20), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e300, -1e300]), st.floats(
        allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 5), count=st.integers(0, 2 * cli._CSV_CHUNK + 3),
       data=st.data())
def test_csv_matches_the_per_row_writer(width, count, data):
    # byte for byte, on rows of ints and floats of every magnitude across
    # the chunk boundaries; a NaN or infinity in a later chunk still fails
    row = st.lists(_CSV_CELLS, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=count, max_size=count))
    head, tail = ["a" * width], data.draw(st.sampled_from([[], ["# end"]]))
    assert _csv(head, iter(rows), tail) == _csv_per_row(head, rows, tail)
    if count > cli._CSV_CHUNK:
        i = data.draw(st.integers(cli._CSV_CHUNK, count - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        rows[i] = rows[i][:-1] + [bad]
        with pytest.raises(NonFiniteResult, match=repr(bad)):
            _csv(head, iter(rows), tail)


_EUCLIDEAN3 = {"manifold": {"name": "euclidean", "params": {"dim": 3}},
               "initial": {"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]}}
_DISK_AREA = {"manifold": {"name": "poincare_disk"},
              "magnetic": {"name": "area_form", "params": {"b": 1.0}},
              "initial": {"x": [0.1, 0.0], "v": [1.0, 0.0]}}


# the scenario of each subcommand that integrates, as overrides of
# `_write_scenario`'s, on which it takes more than one RK4 step
_INTEGRATING = {
    "integrate": {}, "exp": {}, "transport": {}, "holonomy": {},
    "lyapunov": _DISK_AREA, "angle": _DISK_AREA, "volume": _DISK_AREA,
    "conjugate-scan": _DISK_AREA, "regimes": _DISK_AREA,
    "cartan-probe": _EUCLIDEAN3,
    "defect": dict(_EUCLIDEAN3, params={"submanifold": {
        "type": "exp_plane", "x": [0.0, 0.0, 0.0],
        "basis": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}}),
}


@pytest.mark.parametrize("command", list(_INTEGRATING))
def test_every_integrating_command_keeps_the_step_budget(tmp_path, command):
    # one RK4 step is fewer than any of these runs takes, at the command's
    # default step
    sc = _write_scenario(tmp_path, **dict({"integrator": {"max_steps": 1}},
                                          **_INTEGRATING[command]))
    res = _run([command, sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "StepLimitExceeded" in res.output


# each integrating subcommand's scenario, as overrides of `_write_scenario`'s
# with no `integrator/step`, at a speed above 1 for the tangent diagnostics
# of the disk with its area form, where the angle's splitting is reliable
_HYPERBOLIC = dict(_DISK_AREA, speed=2.0, params={"T": 2.0})
_DEFAULT_STEP = {
    "integrate": {"params": {"T": 0.5}}, "exp": {},
    "transport": {"params": {"T": 0.5}}, "holonomy": {},
    "lyapunov": _HYPERBOLIC, "angle": _HYPERBOLIC, "volume": _HYPERBOLIC,
    "conjugate-scan": dict(_DISK_AREA, params={"steps": 4}),
    "defect": dict(_INTEGRATING["defect"], params=dict(
        _INTEGRATING["defect"]["params"], samples=2)),
    "cartan-probe": dict(_EUCLIDEAN3, params={"planes": 2,
                                              "defect_samples": 2}),
    "regimes": dict(_DISK_AREA, params={"s_grid": [2.0], "samples": 4,
                                        "T": 2.0}),
}


def _library_files(command, sc):
    """The files `command` writes for the checked scenario `sc`, as its
    library entry point gives them when called without `cfg`."""
    m = build_system(sc)
    st = build_state(sc, m)
    p, seed = sc["params"], sc["seed"]
    if command == "integrate":
        traj = magflow.integrate(m, st, p["T"])
        table = np.column_stack([traj.times, traj.states, traj.drift_per_node])
        return {"trajectory.csv": _csv(
            ["t,x1,x2,v1,v2,speed_drift"], table.tolist(),
            ["# exited,True"] if traj.exited else [])}
    if command == "exp":
        y = magflow.dynamical_exp(m, st.x, st.v)
        return {"exp.json": _dump_json({"x": list(st.x), "u": list(st.v),
                                        "point": [float(c) for c in y]})}
    if command == "transport":
        w = magflow.parallel_transport(m, st, st.v, p["T"])
        return {"transport.json": _dump_json({
            "T": p["T"], "w0": list(st.v), "w": [float(c) for c in w]})}
    if command == "holonomy":
        hol = magflow.closed_orbit_holonomy(m, st, p["period_guess"])
        return {"holonomy.csv": _csv(
            [f"# period,{hol.period!r}",
             f"# return_distance,{hol.return_distance!r}"],
            hol.matrix.tolist())}
    if command == "lyapunov":
        rep = magflow.lyapunov_spectrum(m, st, p["T"])
        e = rep.exponents.tolist()
        return {"lyapunov.json": _dump_json({
                    "exponents": e, "sum": rep.total, "horizon": rep.horizon,
                    "interval": rep.interval}),
                "lyapunov.csv": _csv(["index,exponent"], enumerate(e))}
    if command == "angle":
        return {"angle.json": _dump_json({
            "T": p["T"], "angle": magflow.transversality_angle(m, st, p["T"])})}
    if command == "volume":
        return {"volume.json": _dump_json({
            "T": p["T"], "drift": magflow.volume_drift(m, st, p["T"])})}
    if command == "conjugate-scan":
        scan = magflow.conjugate_point_scan(m, st.x, st.v, p["t_max"],
                                            p["steps"])
        return {"conjugate_scan.csv": _csv(["t,sigma_min"], scan.tolist())}
    if command == "defect":
        N = magflow.make_submanifold(p["submanifold"], m)
        rep = magflow.invariance_defect(m, N, p["samples"], seed=seed)
        return {"defect.json": _dump_json({
            "sup": rep.sup, "mean": rep.mean, "samples": rep.samples,
            "meta": rep.meta})}
    if command == "cartan-probe":
        rep = magflow.cartan_probe(m, p["k"], p["planes"], seed=seed,
                                   defect_samples=p["defect_samples"])
        return {"cartan.json": _dump_json({
                    "k": rep.k, "planes": rep.planes,
                    "fraction_invariant": rep.fraction_invariant,
                    "sec_variance": rep.sec_variance,
                    "sigma_norm_max": rep.sigma_norm_max,
                    "verdict": rep.verdict, "tol": rep.tol}),
                "cartan.csv": _csv(
                    ["plane_id,defect,sec_variance"],
                    [(i, d, rep.sec_variance)
                     for i, d in enumerate(rep.defects)])}
    # regimes, at its one speed s > 1, whose horizon is T / s
    [s] = p["s_grid"]
    sec = sample_sectionals(m, s, p["samples"], np.random.default_rng(seed))
    start = magflow.PhaseState(x=np.zeros(2), v=np.array([0.5 * s, 0.0]), s=s)
    top = magflow.lyapunov_spectrum(m, start, p["T"] / s).exponents[0]
    return {"regimes.csv": _csv(["s,max_sec,top_exponent"],
                                [(s, float(sec.max()), float(top))])}


@pytest.mark.parametrize("command", list(_DEFAULT_STEP))
def test_default_step_is_the_library_default(tmp_path, command):
    # a scenario without `integrator/step` runs at the default step of the
    # library entry point that the subcommand calls: byte for byte the
    # files of that entry point called without `cfg`
    path = _write_scenario(tmp_path, **dict({"integrator": {}},
                                            **_DEFAULT_STEP[command]))
    out = tmp_path / "out"
    res = _run([command, path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    expected = _library_files(command, load_scenario(path, command))
    assert {name: (out / name).read_text() for name in expected} == expected


# ---------------------------------------------------------------------------
# submanifold commands


def test_defect_invariant_plane(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "euclidean", "params": {"dim": 3}},
        magnetic={"name": "constant", "params": {"b": 1.0}},
        initial={"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
        params={"submanifold": {
            "type": "hyperplane", "point": [0.0, 0.0, 0.0],
            "normal": [0.0, 0.0, 1.0], "extent": 2.0},
            "samples": 8})
    res = _run(["defect", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    data = json.loads((tmp_path / "defect.json").read_text())
    assert data["sup"] < 1e-8


def test_holonomy_larmor(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "euclidean", "params": {"dim": 3}},
        magnetic={"name": "constant", "params": {"b": 1.0}},
        initial={"x": [0.0, 0.0, 0.0], "v": [1.0, 0.0, 0.0]},
        integrator={"step": 5e-3},
        params={"period_guess": 2 * np.pi})
    res = _run(["holonomy", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "holonomy.csv").read_text().strip().split("\n")
    Q = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.allclose(Q, np.eye(2), atol=1e-6)


def test_holonomy_csv(tmp_path):
    path = _write_scenario(
        tmp_path, magnetic={"name": "constant", "params": {"b": 2.0}},
        integrator={"step": 5e-3}, params={"period_guess": np.pi})
    texts = []
    for sub in ("a", "b"):
        assert _run(["holonomy", path, "--out",
                     str(tmp_path / sub)]).exit_code == 0
        texts.append((tmp_path / sub / "holonomy.csv").read_text())
    text = texts[0]
    lines = text.strip().split("\n")
    assert lines[0].startswith("# period,")
    assert lines[1].startswith("# return_distance,")
    assert len(lines) == 3
    assert texts[1] == text  # deterministic


# ---------------------------------------------------------------------------
# regime sweep


def test_regimes_sign_change(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "poincare_disk"},
        magnetic={"name": "area_form", "params": {"b": 1.0}},
        params={"s_grid": [0.5, 2.0], "samples": 6, "T": 4.0})
    res = _run(["regimes", sc, "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "regimes.csv").read_text().strip().split("\n")
    assert lines[0] == "s,max_sec,top_exponent"
    rows = {float(l.split(",")[0]): [float(v) for v in l.split(",")[1:]]
            for l in lines[1:]}
    assert rows[0.5][0] > 0 and rows[2.0][0] < 0        # max_sec flips sign
    assert rows[0.5][1] < 0.5 and rows[2.0][1] > 1.0    # hyperbolic above s=1
