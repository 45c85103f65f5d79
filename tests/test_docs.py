"""Names that the README and the benchmark's tracer refer to must exist.

A deleted library name would otherwise stay in the docs, or turn a
per-layer benchmark metric into a silent ``missing`` entry.  The tracer
also needs every layer loaded by the time the CLI parser is built.
Conversely, every name the package re-exports must have a user: the
library itself, the README quick start, the benchmark or the acceptance
tests, and every optional parameter of a re-exported function a call
among those readers that sets it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import precondlab
from precondlab import cli

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    exec(compile(_quick_start(), "README.md quick start", "exec"), {})


def _example_commands() -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^Example commands:\n\n```sh\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no sh block after 'Example commands:'"
    return match.group(1).splitlines()


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_readme_example_commands_are_valid_shell():
    for line in _example_commands():
        done = subprocess.run(["bash", "-n", "-c", line], capture_output=True, text=True)
        assert done.returncode == 0, f"{line}: {done.stderr}"


def test_readme_example_commands_run_dry(capsys):
    lines = _example_commands()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "precondlab"
        assert cli.main([*argv, "--dry-run"]) == 0, line
        plan = json.loads(capsys.readouterr().out)
        assert plan["command"] == argv[0]


def _reexports() -> list:
    tree = ast.parse((ROOT / "src" / "precondlab" / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def _defines(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _library_references() -> set:
    """Names read in src/precondlab outside __init__.py, each outside its own definition."""
    refs = set()
    for path in (ROOT / "src" / "precondlab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(stmt))
            used = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            refs |= used - _defines(stmt)
    return refs


def test_every_reexport_has_a_user():
    refs = _library_references()
    readers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    text = _quick_start() + "".join(p.read_text(encoding="utf-8") for p in readers)
    unused = [name for name in _reexports()
              if name not in refs and not re.search(rf"\b{name}\b", text)]
    assert unused == [], f"re-exported, yet used by no module, reader or test: {unused}"


def _sets_parameter(call: ast.Call, param: inspect.Parameter, index: int) -> bool:
    """Whether the call passes ``param`` (at ``index`` in the signature), by keyword or position."""
    if any(k.arg in (param.name, None) for k in call.keywords):  # None: a ** mapping
        return True
    if param.kind not in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_of_a_reexport_is_set_by_a_user():
    # a default no caller overrides is a switch nobody sets; classes are pinned elsewhere
    sources = [p.read_text(encoding="utf-8") for p in (ROOT / "src" / "precondlab").glob("*.py")]
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += [_quick_start(), (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    calls = [node for text in sources for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)]
    unset = []
    for name in _reexports():
        func = getattr(precondlab, name)
        if not inspect.isfunction(func):
            continue
        named = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == name]
        for index, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is not param.empty and not any(
                _sets_parameter(c, param, index) for c in named
            ):
                unset.append(f"{name}({param.name}=)")
    assert unset == [], f"optional parameters that no module, reader or test sets: {unset}"


def _tracer_targets() -> tuple:
    """TARGETS of perfbench/tracer.py, read from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    # a layer whose module is gone is the benchmark's to drop; any other target must exist
    targets = _tracer_targets()
    assert targets
    for layer, path, name in targets:
        if importlib.util.find_spec(f"precondlab.{layer}") is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(f"precondlab.{layer}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        assert owner is not None and attr in vars(owner), f"{name}: no precondlab.{layer}.{path}"


def _imported_modules(tree) -> set:
    """Dotted names that the imports of a precondlab module may load, relative ones resolved."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = (".".join(filter(None, ["precondlab", node.module])) if node.level == 1
                    else node.module or "")
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_only_the_runner_imports_cli():
    # the layers sit below the command-line runner, never the other way round
    importers = [path.name for path in sorted((ROOT / "src" / "precondlab").glob("*.py"))
                 if path.name != "cli.py" and "precondlab.cli" in
                 _imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []


# the factors of L = Y C in ``CornerColumns``: their layout is private to algebras.py
CORNER_FACTORS = {"_outer", "_inner", "_inner_real", "_freqs", "_period"}


def test_only_algebras_reads_the_corner_factors():
    # every other layer sees L only through CornerColumns' methods
    readers = [path.name for path in sorted((ROOT / "src" / "precondlab").glob("*.py"))
               if path.name != "algebras.py" and any(
                   isinstance(node, ast.Attribute) and node.attr in CORNER_FACTORS
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]
    assert readers == []


def test_one_counter_per_structure():
    # _tally turns inertias into counts: once for diagonal plus low rank
    # (Haynsworth on the form), once for bands; a new structure extends the form
    callers = set()
    for path in sorted((ROOT / "src" / "precondlab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(getattr(node, "id", getattr(node, "attr", None)) == "_tally"
                   for node in ast.walk(top)):
                callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"clustering._pencil_counts", "clustering._band_inertia_counts"}


def test_one_home_for_the_banded_product():
    # np.convolve and the strided window are the banded Toeplitz product:
    # every other layer multiplies through ToeplitzOperator.matvec
    users = set()
    for path in sorted((ROOT / "src" / "precondlab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(getattr(node, "id", getattr(node, "attr", None)) in {"convolve", "as_strided"}
                   for node in ast.walk(top)):
                users.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert users == {"toeplitz.ToeplitzOperator"}


STARTUP = """
import json, sys
import precondlab, precondlab.cli
precondlab.cli.build_parser()
print(json.dumps(sorted(sys.modules)))
"""


def test_startup_loads_every_traced_layer_and_nothing_else():
    # The benchmark's child installs the tracer after this start-up and wraps
    # only loaded modules; the records and the selftest battery cost every
    # command nothing.
    done = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert {"dataclasses", "precondlab.selftest"} & loaded == set()
    layers = {layer for layer, _, _ in _tracer_targets()
              if importlib.util.find_spec(f"precondlab.{layer}") is not None}
    assert layers
    assert {f"precondlab.{layer}" for layer in layers} - loaded == set()
