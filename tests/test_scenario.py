"""The scenario table and its validator."""
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magflow.flow import IntegratorConfig
from magflow.scenario import PARAMS, ScenarioInvalid, load_scenario

# the closed objects of a scenario, as paths from the top level
_LEVELS = [(), ("manifold",), ("magnetic",), ("initial",), ("integrator",),
           ("params",)]


def _valid(command):
    params = ({"submanifold": {"type": "hyperplane", "point": [0.0, 0.0],
                               "normal": [0.0, 1.0]}}
              if command == "defect" else {})
    return {"manifold": {"name": "euclidean", "params": {"dim": 2}},
            "magnetic": {"name": "constant", "params": {"b": 1.0}},
            "speed": 1.0, "initial": {"x": [0.0, 0.0], "v": [1.0, 0.0]},
            "integrator": {"step": 1e-2}, "seed": 3, "command": command,
            "params": params}


def _load(sc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(sc))
        return load_scenario(str(path), command)


@pytest.mark.parametrize("command", sorted(PARAMS))
def test_valid_scenario_loads_with_defaults(command):
    sc = _load(_valid(command), command)
    assert set(sc["params"]) == set(PARAMS[command])
    assert sc["integrator"] == {"step": 1e-2, "max_steps": 10_000_000}


def test_integrator_table_is_the_integrator_config():
    # a setting of the integrator exists in both places or in neither
    known = _load(_valid("integrate"), "integrate")["integrator"]
    assert ({f.name for f in dataclasses.fields(IntegratorConfig)}
            == set(known) == {"step", "max_steps"})


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(PARAMS)),
       level=st.sampled_from(_LEVELS),
       key=st.text(min_size=1, max_size=8),
       value=st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(allow_nan=False), st.text(max_size=4)))
def test_unknown_key_at_any_level_is_named(command, level, key, value):
    sc = _valid(command)
    # the loaded scenario holds every known key, the defaults filled in
    obj, known = sc, _load(_valid(command), command)
    for part in level:
        obj, known = obj[part], known[part]
    assume(key not in known)
    obj[key] = value
    path = "/".join(level + (key,))
    with pytest.raises(ScenarioInvalid,
                       match=f"^scenario field {re.escape(path)}: unknown key$"):
        _load(sc, command)
