"""Checks on the package source itself."""
import ast
import importlib
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import magflow

from conftest import run_python

SOURCES = sorted(Path(magflow.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by the module's imports that it never references; a name
    listed in its `__all__` counts as referenced."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    # no linter is part of the toolchain, so this is the check, on the
    # package and on the tests (conftest.py included); the package's
    # __init__ re-exports its names and is not checked
    found = []
    for path in SOURCES + TESTS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unused_imports(tree)]
    assert not found, found


def _is_number(node) -> bool:
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)))


# the argument that holds an integrator step, by position and keyword, in a
# call of each of these
_STEP_SLOTS = {"IntegratorConfig": (0, "step"),
               "build_integrator": (1, "default_step"),
               "_prepared": (1, "default_step")}


def _literal_steps(tree: ast.Module) -> list:
    """Lines that write an integrator step as a number: in a slot of
    `_STEP_SLOTS`, as a `default_step` keyword of any call, or as the
    default of a `default_step` parameter."""
    found = []
    for node in ast.walk(tree):
        values = []
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            pos, key = _STEP_SLOTS.get(name, (None, "default_step"))
            values += [kw.value for kw in node.keywords
                       if kw.arg in (key, "default_step")]
            if pos is not None and len(node.args) > pos:
                values.append(node.args[pos])
        elif isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            defaults = ([None] * (len(positional) - len(a.defaults))
                        + a.defaults + a.kw_defaults)
            values += [d for p, d in zip(positional + a.kwonlyargs, defaults)
                       if p.arg == "default_step"]
        found += [node.lineno for v in values if _is_number(v)]
    return found


def test_only_flow_states_a_default_step():
    # the orbit step (`IntegratorConfig.step`) and the diagnostics' step
    # (`DIAGNOSTIC_STEP`) are numbers in `flow` alone; every other module,
    # the CLI included, names them
    found = []
    for path in SOURCES:
        if path.name != "flow.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _literal_steps(tree)]
    assert not found, found


def test_traced_names_resolve():
    # the benchmark's tracer wraps the functions and methods its SPANS table
    # names; one renamed away would break a traced run, so every entry must
    # resolve as the tracer looks it up: a function among the module's
    # attributes, a method in its own class's namespace (an inherited one
    # is not there).  The table is read from the source, without running it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SPANS"])
    assert spans
    missing = []
    for _, module, attr in spans:
        try:
            owner = importlib.import_module(module)
            *cls, name = attr.split(".")
            for c in cls:
                owner = getattr(owner, c)
            vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{attr}")
    assert not missing, missing


def _imports(path: Path) -> set:
    """(module, name) for each name that the `from ... import` statements of
    a source file import; a star import stands for every name of its
    module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = f"magflow.{node.module}" if node.level else node.module
            for alias in node.names:
                names = ([alias.name] if alias.name != "*"
                         else dir(importlib.import_module(module)))
                found |= {(module, name) for name in names}
    return found


def test_every_export_is_imported():
    # a name in a module's `__all__` is imported by the package's __init__,
    # by another module or by a test; one that nothing imports is a dead
    # export
    imported = set().union(*map(_imports, SOURCES + TESTS))
    dead = []
    for path in SOURCES:
        module = f"magflow.{path.stem}"
        dead += [f"{module}.{name}" for name in
                 getattr(importlib.import_module(module), "__all__", ())
                 if (module, name) not in imported]
    assert not dead, dead


def _public_functions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))


def test_readme_names_every_uncalled_function():
    # a public function or method that no source code refers to by name is
    # either API that the README names, or dead.  An `__all__` entry or an
    # import is not a reference; a function registered by a decorator call,
    # as the CLI's subcommands are, is called through its registration
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES]
    used = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = []
    for path, tree in zip(SOURCES, trees):
        for qual, fn in _public_functions(tree):
            name = qual.split(".")[-1]
            if (name.startswith("_") or name in used
                    or any(isinstance(d, ast.Call) for d in fn.decorator_list)):
                continue
            if not re.search(rf"`(?:[\w.]+\.)?{re.escape(qual)}\b", readme):
                missing.append(f"{path.stem}.{qual}")
    assert not missing, missing


# the functions that format a payload, by the module that holds them
_PAYLOAD_WRITERS = {"json": {"dump", "dumps"}, "io": {"StringIO"}}


def _payload_writers(tree: ast.Module) -> list:
    """Lines that use a function of `_PAYLOAD_WRITERS`: as an attribute of
    its module, or imported by name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.attr in _PAYLOAD_WRITERS.get(node.value.id, ())):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found += [node.lineno for alias in node.names
                      if alias.name in _PAYLOAD_WRITERS.get(node.module, ())]
    return found


def test_only_the_cli_formats_payloads():
    # every JSON and CSV file is formatted by the CLI's `_dump_json` and
    # `_csv`, and the library's result classes hold data only; reading a
    # scenario with `json.load` is input, not a payload
    found = []
    for path in SOURCES:
        if path.name != "cli.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _payload_writers(tree)]
    assert not found, found


# the calls that form a quadratic form, and the power-of-two scaling
_QUADRATIC = {"einsum", "vecdot", "_bilinear"}
_SCALING = {"frexp", "ldexp"}


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def _hand_rolled_norms(tree: ast.Module) -> list:
    """Lines that call sqrt on an expression holding `@`, einsum, vecdot or
    `_bilinear`, or that call frexp or ldexp."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _name(node.func) in _SCALING:
            found.append(node.lineno)
        elif _name(node.func) == "sqrt" and any(
                isinstance(sub, ast.MatMult) or _name(sub) in _QUADRATIC
                for arg in node.args for sub in ast.walk(arg)):
            found.append(node.lineno)
    return found


def test_only_geometry_takes_g_norms():
    # every g-norm, and every power-of-two scaling that keeps one finite, is
    # taken by `geometry._g_norm` and `geometry._scale`
    found = []
    for path in SOURCES:
        if path.name != "geometry.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}"
                      for line in _hand_rolled_norms(tree)]
    assert not found, found


_CODEGEN = {"eval", "exec", "compile"}


def _codegen_calls(tree: ast.Module, allowed: str = None) -> list:
    """Lines that call eval, exec or compile, as builtins, outside the
    function named `allowed`."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip |= {id(sub) for sub in ast.walk(node)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and (isinstance(node.func, ast.Name) and node.func.id in _CODEGEN
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr in _CODEGEN
                 and _name(node.func.value) == "builtins")]


def test_only_the_float_kernel_factory_generates_code():
    # generated code has one home: `geometry._load_kernels`, whose texts
    # read nothing but list lengths and fixed templates
    found = []
    for path in SOURCES:
        allowed = "_load_kernels" if path.name == "geometry.py" else None
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}"
                  for line in _codegen_calls(tree, allowed)]
    assert not found, found
    probe = ast.parse("x = eval('1')\nbuiltins.exec('')\nre.compile('')")
    assert _codegen_calls(probe) == [1, 2]


def test_import_builds_no_float_kernel():
    # the driver's kernels, the generated closures and the stages are built
    # with a system, never at import
    code = ("import magflow.cli; from magflow.geometry import "
            "_FRAGMENTS, _float_ops, _kernel; "
            "print(_float_ops.cache_info().currsize, "
            "_kernel.cache_info().currsize, len(_FRAGMENTS))")
    out = run_python(["-c", code], check=True)
    assert out.stdout.strip() == "0 0 0"


def test_no_module_imports_scipy():
    # the package runs on numpy and click; scipy serves the tests only
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def test_scipy_is_a_test_dependency_only():
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", r).group(0).lower() for r in requirements}
    assert names(project["dependencies"]) == {"numpy", "click"}
    assert "scipy" in names(project["optional-dependencies"]["test"])


def test_cli_and_alpha_defect_run_without_scipy():
    # with scipy's import blocked, the CLI imports and alpha_defect draws
    # its quadrature nodes on S^2 (an exp-image of dimension k = 3)
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import numpy as np, magflow.cli\n"
            "from magflow import (MagneticSystem, alpha_defect, make_form,\n"
            "                     make_manifold)\n"
            "chart, metric = make_manifold('euclidean', dim=4)\n"
            "sys_ = MagneticSystem(chart, metric,\n"
            "                      make_form('constant', 4, metric, chart))\n"
            "print(alpha_defect(sys_, np.zeros(4), np.eye(4)[:, 1:]).sup)\n")
    run = run_python(["-c", code])
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) > 0.5


def test_readme_names_every_subcommand():
    # the README's list of subcommands, the CLI's and the scenario table's
    # `params` name the same subcommands, so a rename shows up here
    from magflow.cli import main
    from magflow.scenario import PARAMS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Subcommands:(.*?)\.\s", readme, re.S).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    assert len(names) == len(set(names)) == 14
    assert set(names) == set(main.commands) == set(PARAMS)


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # under the project's warning filters a failing `@given` test is one
    # failed test (exit code 1), not an internal error that ends the session
    # before the tests after it run (exit code 3)
    root = Path(__file__).resolve().parents[1]
    ini = tomllib.loads((root / "pyproject.toml").read_text())
    filters = ini["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n"
        + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(i):\n"
        "    assert i < 5\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "-p", "no:cacheprovider", "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
