"""The CLI's exit-code contract under mutated scenarios.

A small valid scenario of each of the 14 subcommands has one or two of its
values replaced: a number or a vector component by an edge value (0, -1,
1e-12, 1e-300, 1e12, 0.5, 3, 7, a non-finite number, a string, a boolean or
null), or a vector lengthened or shortened by one.  Whatever the input, the
CLI must exit 0, 2 or 3 without a traceback; exit 2 must name a field of
the scenario, and exit 0 must write no NaN or infinity into any payload.
"""
import copy
import json
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from magflow.cli import main

_DISK = {"manifold": {"name": "poincare_disk", "params": {"eps": 0.05}},
         "magnetic": {"name": "area_form", "params": {"b": 1.0}},
         "speed": 2.0, "initial": {"x": [0.1, 0.0], "v": [1.0, 0.5]},
         "integrator": {"step": 2e-2}}
_TORUS = {"manifold": {"name": "flat_torus", "params": {"period": 6.0}},
          "magnetic": {"name": "constant", "params": {"b": 2.0}},
          "speed": 1.0, "initial": {"x": [0.5, 0.5], "v": [1.0, 0.0]},
          "integrator": {"step": 1e-2, "max_steps": 100000}}
_SPACE = {"manifold": {"name": "euclidean", "params": {"dim": 3}},
          "magnetic": {"name": "constant", "params": {"b": 1.0}},
          "speed": 1.0, "initial": {"x": [0.0, 0.0, 0.0],
                                    "v": [1.0, 0.0, 0.0]},
          "integrator": {"step": 5e-2}}
_SPHERE = {"manifold": {"name": "round_sphere", "params": {"dim": 2}},
           "magnetic": {"name": "constant", "params": {"b": 0.5}},
           "speed": 1.0, "initial": {"x": [1.2, 0.3], "v": [0.6, 0.8]},
           "integrator": {"step": 2e-2}}

# one valid scenario of each subcommand, each a fraction of a second
SCENARIOS = {
    "integrate": dict(_TORUS, params={"T": 0.5}, seed=1),
    "exp": dict(_DISK, params={"u": [0.3, -0.2]}),
    "transport": dict(_SPHERE, params={"T": 0.5, "w0": [0.0, 1.0]}),
    "holonomy": dict(_TORUS, params={"period_guess": 3.2,
                                     "tolerance": 1e-6}),
    "sec": dict(_DISK, params={"samples": 4}, seed=3),
    "anosov-report": dict(_SPHERE, params={"samples": 4}, seed=5),
    "curvature": dict(_DISK),
    "lyapunov": dict(_DISK, params={"T": 1.0, "steps": 5}),
    "angle": dict(_DISK, manifold={"name": "poincare_disk", "params": {}},
                  initial={"x": [0.1, 0.0], "v": [1.0, 0.0]},
                  integrator={"step": 1e-2}, params={"T": 2.0}),
    "volume": dict(_DISK, params={"T": 1.0}),
    "conjugate-scan": dict(_SPHERE, params={"direction": [1.0, 0.0],
                                            "t_max": 1.0, "steps": 4}),
    "regimes": dict(_DISK, params={"s_grid": [0.5, 2.0], "samples": 3,
                                   "T": 0.5}),
    "cartan-probe": dict(_SPACE, params={"k": 2, "planes": 1, "radius": 0.3,
                                         "defect_samples": 2,
                                         "tolerance": 1e-3}, seed=2),
    "defect": dict(_SPACE, params={"samples": 2, "submanifold": {
        "type": "hyperplane", "point": [0.0, 0.0, 0.0],
        "normal": [0.0, 0.0, 1.0]}}),
}

_EDGES = [0, -1, 1e-12, 1e-300, 1e12, 0.5, 3, 7, float("nan"), float("inf"),
          "x", True, None]
# fields whose value multiplies the work of a run (or bounds it, as the
# step budget does) take no huge value: 1e12 of them is valid and slow
_COUNTS = {"samples", "planes", "defect_samples", "steps", "max_steps"}
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_NAMED_FIELD = re.compile(r"scenario field ([\w-]+)(/[\w/-]*)?: ")


def _leaves(node, path=()):
    """The paths of the scalars of a scenario, list items included, and of
    its lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, path + (i,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutation(draw, scenario):
    """A path of `scenario` and the value that replaces the one there."""
    path = draw(st.sampled_from(list(_leaves(scenario))))
    old = _at(scenario, path)
    if isinstance(old, list) and draw(st.booleans()):
        return path, old[:-1] if draw(st.booleans()) else old + [0.5]
    counted = any(key in _COUNTS for key in path)
    return path, draw(st.sampled_from([e for e in _EDGES
                                       if not (counted and e == 1e12)]))


_CASES = st.sampled_from(sorted(SCENARIOS)).flatmap(
    lambda command: st.tuples(st.just(command), st.lists(
        _mutation(SCENARIOS[command]), min_size=1, max_size=2)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_CASES)
# a blown-up orbit on a chart without a guard, a step count too large for
# a float, and a submanifold spec with an infinite entry
@example(case=("integrate", [(("magnetic", "params", "b"), 1e12)]))
@example(case=("transport", [(("params", "T"), 1e12),
                             (("integrator", "step"), 1e-300)]))
@example(case=("defect", [(("params", "submanifold", "normal", 0),
                           float("inf"))]))
def test_mutated_scenarios_keep_the_exit_contract(case):
    assert len(SCENARIOS) == len(main.commands) == 14
    command, mutations = case
    sc = copy.deepcopy(SCENARIOS[command])
    for path, value in mutations:
        try:
            _at(sc, path[:-1])[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass                # the first mutation replaced the parent
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(sc))
        out = Path(tmp) / "out"
        res = CliRunner().invoke(main, [command, str(scenario), "--out",
                                        str(out)])
        assert res.exit_code in (0, 2, 3), (res.output, res.exc_info)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        if res.exit_code == 2:
            named = _NAMED_FIELD.search(res.output)
            assert named and named.group(1) in set(sc) | {"params"}, res.output
        if res.exit_code == 0:
            for payload in out.iterdir():
                assert not _NOT_FINITE.search(payload.read_text()), (
                    payload.name, sc)
