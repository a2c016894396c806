"""End-to-end tests of the command-line interface."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import magflow
from magflow.cli import main


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
    # the quasi-Monte Carlo nodes are imported by the code path that uses
    # them, not when the CLI starts; nothing imports scipy.optimize, and
    # scenarios are checked without jsonschema
    src = os.path.dirname(os.path.dirname(magflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, magflow.cli; print(sorted(m for m in "
         "('scipy.integrate', 'scipy.optimize', 'scipy.stats', 'jsonschema') "
         "if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
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
    pytest.param({"magnetic": {"name": "constant", "params": {"b": 2.0}},
                  "integrator": {"step": 1e-2},
                  "params": {"period_guess": 1e-3}}, id="guess-below-one-step"),
    pytest.param({"manifold": {"name": "poincare_disk"},
                  "magnetic": {"name": "area_form", "params": {"b": 1.0}},
                  "speed": 4.0, "integrator": {"step": 1e-2},
                  "params": {"period_guess": 3.0}}, id="escaping-orbit"),
])
def test_holonomy_refinement_edges_exit_3(tmp_path, overrides):
    sc = _write_scenario(tmp_path, **overrides)
    out = tmp_path / "out"
    res = _run(["holonomy", sc, "--out", str(out)])
    assert res.exit_code == 3
    assert "NotPeriodic" in res.output
    assert not out.exists()


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


def test_angle_and_volume(tmp_path):
    sc = _disk_geodesic_scenario(tmp_path, T=15.0)
    out = tmp_path / "diag"
    assert _run(["angle", sc, "--out", str(out)]).exit_code == 0
    assert _run(["volume", sc, "--out", str(out)]).exit_code == 0
    ang = json.loads((out / "angle.json").read_text())["angle"]
    assert abs(ang - np.pi / 4) < 0.05
    assert json.loads((out / "volume.json").read_text())["drift"] < 0.05


def test_angle_unreliable_exit_3(tmp_path):
    sc = _write_scenario(
        tmp_path,
        manifold={"name": "flat_torus"},
        magnetic={"name": "zero"},
        initial={"x": [0.0, 0.0], "v": [0.6, 0.8]},
        integrator={"step": 1e-2},
        params={"T": 10.0})
    res = _run(["angle", sc, "--out", str(tmp_path)])
    assert res.exit_code == 3
    assert "UnreliableSplitting" in res.output


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
