"""Scenario files: the table of every field a scenario holds, and the
validator that checks a file against it.

A scenario names a built-in manifold and magnetic 2-form, a speed, initial
conditions, integrator settings, and the parameters of one subcommand
(`PARAMS`).  Every field has a type, a default and, for numbers, a lower
bound.  Unknown keys are rejected so that typos fail loudly before any
computation runs, and every failure names the offending field.
"""
from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import BadDimension, MagflowError
from .flow import IntegratorConfig, PhaseState
from .forms import FORMS
from .geometry import _g_norm
from .models import MANIFOLDS
from .submanifold import ParamSubmanifold, cartan_probe, make_submanifold
from .system import MagneticSystem
from .transport import closed_orbit_holonomy

__all__ = ["ScenarioInvalid", "PARAMS", "load_scenario", "build_system",
           "build_vector", "build_state", "build_integrator",
           "build_submanifold"]


class ScenarioInvalid(MagflowError):
    """Scenario file failed validation (CLI exit code 2)."""


REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One scenario field: the Python type of its JSON value (`float` also
    takes integers, `(int, float)` keeps a number as given), its default
    (None: optional without one), an inclusive (`low`) or exclusive
    (`above`) lower bound (`low` bounds the length of a `list`), and the
    admissible values.  A `dict` with a `fields` table is closed to its
    keys, one without is open; `of` checks the items of a `list` and the
    values of an open `dict`."""

    kind: object
    default: object = REQUIRED
    low: Optional[float] = None
    above: Optional[float] = None
    choices: tuple = ()
    fields: Optional[dict] = None
    of: Optional[Field] = None


# keyword arguments of a manifold or form builder, checked by `build_system`
_BUILDER_PARAMS = Field(dict, {}, of=Field((int, float)))
_VECTOR = Field(list, None, of=Field(float))


def _defaults(fn) -> dict:
    """The default of each parameter of the library function `fn`."""
    return {name: param.default
            for name, param in inspect.signature(fn).parameters.items()}


_CARTAN, _HOLONOMY = _defaults(cartan_probe), _defaults(closed_orbit_holonomy)

# The `params` of each subcommand.  A default of None stands for a value
# the command derives from the scenario, such as the initial velocity; a
# parameter the command passes on to a library keyword takes its default
# from there.
PARAMS = {
    "integrate": {"T": Field(float, 1.0, low=0)},
    "exp": {"u": _VECTOR},
    "curvature": {},
    "sec": {"samples": Field(int, 50, low=1)},
    "anosov-report": {"samples": Field(int, 100, low=1)},
    "defect": {"submanifold": Field(dict),
               "samples": Field(int, 32, low=1)},
    "cartan-probe": {"k": Field(int, 2, low=2),
                     "planes": Field(int, 20, low=1),
                     "radius": Field(float, _CARTAN["radius"], above=0),
                     "defect_samples": Field(int, _CARTAN["defect_samples"],
                                             low=1),
                     "tolerance": Field(float, _CARTAN["tol"], above=0)},
    "transport": {"T": Field(float, 1.0, low=0), "w0": _VECTOR},
    "holonomy": {"period_guess": Field(float, 2 * math.pi, above=0),
                 "tolerance": Field(float, _HOLONOMY["tol"], above=0)},
    "lyapunov": {"T": Field(float, 10.0, above=0),
                 "steps": Field(int, None, low=1)},
    "angle": {"T": Field(float, 10.0, above=0)},
    "volume": {"T": Field(float, 10.0, above=0)},
    "conjugate-scan": {"direction": _VECTOR,
                       "t_max": Field(float, 2.0, above=0),
                       "steps": Field(int, 40, low=1)},
    "regimes": {"s_grid": Field(list, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0],
                                low=1, of=Field(float, above=0)),
                "samples": Field(int, 25, low=1),
                "T": Field(float, 8.0, above=0)},
}

# The fields every scenario shares; `command` and `params` depend on the
# subcommand.  A step of None takes the default step of the library entry
# point that the command calls.
_COMMON = {
    "manifold": Field(dict, fields={
        "name": Field(str, choices=tuple(sorted(MANIFOLDS))),
        "params": _BUILDER_PARAMS}),
    "magnetic": Field(dict, fields={
        "name": Field(str, choices=tuple(sorted(FORMS))),
        "params": _BUILDER_PARAMS}),
    "speed": Field(float, 1.0, above=0),
    "initial": Field(dict, {}, fields={"x": _VECTOR, "v": _VECTOR}),
    "integrator": Field(dict, {}, fields={
        "step": Field(float, None, above=0),
        "max_steps": Field(int, IntegratorConfig.max_steps, low=1)}),
    "seed": Field(int, 0, low=0),
}

_KIND_NAMES = {(int, float): "a number", int: "an integer",
               bool: "a boolean", str: "a string", list: "an array", dict: "an object"}


def _fail(path: str, message: str) -> NoReturn:
    raise ScenarioInvalid(f"scenario field {path or '(top level)'}: {message}")


def _join(path: str, key) -> str:
    return f"{path}/{key}" if path else str(key)


def _check(value, spec: Field, path: str):
    """`value` checked against `spec`.  Objects come back with the defaults
    of their absent fields filled in, numbers of kind `float` as floats."""
    if value is REQUIRED:
        _fail(path, "required")
    if value is None and spec.default is None:
        return None
    if spec.kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    kind = (int, float) if spec.kind is float else spec.kind
    if (not isinstance(value, kind)
            or (isinstance(value, bool) and spec.kind is not bool)):
        _fail(path, f"expected {_KIND_NAMES[kind]}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, f"expected a finite number, got {value!r}")
    if spec.kind is float:
        value = float(value)
    if spec.low is not None and spec.kind is list and len(value) < spec.low:
        _fail(path, f"must have at least {spec.low} items, got {value!r}")
    if spec.low is not None and spec.kind is not list and value < spec.low:
        _fail(path, f"must be at least {spec.low}, got {value!r}")
    if spec.above is not None and value <= spec.above:
        _fail(path, f"must be greater than {spec.above}, got {value!r}")
    if spec.choices and value not in spec.choices:
        _fail(path, f"expected one of {list(spec.choices)}, got {value!r}")
    if spec.kind is list:
        return [_check(item, spec.of, _join(path, i))
                for i, item in enumerate(value)]
    if spec.kind is dict and spec.fields is None and spec.of is not None:
        return {key: _check(item, spec.of, _join(path, key))
                for key, item in value.items()}
    if spec.fields is None:
        return value
    for key in value:
        if key not in spec.fields:
            _fail(_join(path, key), "unknown key")
    return {key: _check(value.get(key, field.default), field, _join(path, key))
            for key, field in spec.fields.items()}


def load_scenario(path: str, command: str) -> dict:
    """Parse a scenario file for `command` and check it against the table.
    Returns the scenario with every default filled in; raises
    ScenarioInvalid with a message naming the offending field."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ScenarioInvalid(f"cannot read scenario {path!r}: {exc}")
    table = dict(_COMMON, command=Field(str, None, choices=(command,)),
                 params=Field(dict, {}, fields=PARAMS[command]))
    return _check(data, Field(dict, fields=table), "")


def _build(registry: dict, spec: dict, path: str, **supplied):
    """The builder `registry[spec["name"]]` called with `supplied` and the
    `params` of `spec`.  A parameter it takes no keyword for, and an error
    it raises, fail naming the field under `path`."""
    builder = registry[spec["name"]]
    for key in spec["params"]:
        if key in supplied or key not in inspect.signature(builder).parameters:
            _fail(f"{path}/params/{key}", "unknown key")
    try:
        return builder(**supplied, **spec["params"])
    except (TypeError, ValueError) as exc:
        _fail(f"{path}/params", str(exc))


def build_system(sc: dict) -> MagneticSystem:
    chart, metric = _build(MANIFOLDS, sc["manifold"], "manifold")
    sigma = _build(FORMS, sc["magnetic"], "magnetic", dim=chart.dim,
                   metric=metric, chart=chart)
    return MagneticSystem(chart, metric, sigma)


def build_vector(sc: dict, path: str, sys: MagneticSystem, default=None,
                 nonzero: bool = False) -> np.ndarray:
    """The vector at `path` in `sc` ("params/w0"), or `default` where it is
    absent (None: required), checked to have `sys.dim` components and, if
    `nonzero`, a positive length."""
    value = sc
    for key in path.split("/"):
        value = value[key]
    if value is None:
        if default is None:
            _fail(path, "required")
        value = default
    u = np.asarray(value, dtype=float)
    if len(u) != sys.dim:
        _fail(path, f"expected {sys.dim} components, got {len(u)}")
    if nonzero and not u.any():
        _fail(path, "must be nonzero")
    return u


def build_state(sc: dict, sys: MagneticSystem) -> PhaseState:
    x = build_vector(sc, "initial/x", sys)
    if not sys.chart.contains(x):
        _fail("initial/x", f"point {x.tolist()} outside the chart domain")
    v = build_vector(sc, "initial/v", sys, nonzero=True)
    s = sc["speed"]
    g = sys.metric.raw(x)          # unguarded: x passed the guard above
    v = v * (s / _g_norm(g, v))
    if not v.any():
        _fail("speed", f"{s!r} scales initial/v to the zero vector")
    return PhaseState(x=x, v=v, s=s)


def build_integrator(sc: dict, default_step: float) -> IntegratorConfig:
    """The scenario's integrator settings; without `integrator/step` it
    steps by `default_step`."""
    cfg = sc["integrator"]
    return IntegratorConfig(
        step=default_step if cfg["step"] is None else cfg["step"],
        max_steps=cfg["max_steps"])


def build_submanifold(sc: dict, sys: MagneticSystem,
                      cfg: Optional[IntegratorConfig] = None) -> ParamSubmanifold:
    """The submanifold declared in params/submanifold, whose orbits (of an
    exp_plane) are integrated with `cfg`."""
    try:
        return make_submanifold(sc["params"]["submanifold"], sys, cfg)
    except KeyError as exc:
        _fail("params/submanifold", f"missing {exc}")
    except (TypeError, ValueError, BadDimension) as exc:
        _fail("params/submanifold", str(exc))
