"""Checks on the package source itself."""
import ast
import importlib
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import magflow

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
    # no linter is part of the toolchain, so this is the check; the
    # package's __init__ re-exports its names and is not checked
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}"
                  for line, name in _unused_imports(tree)]
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
