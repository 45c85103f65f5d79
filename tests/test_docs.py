"""Names that the README and the benchmark's tracer refer to must exist.

A deleted library name would otherwise stay in the docs, or turn a
per-layer benchmark metric into a silent ``missing`` entry.  The tracer
also needs every layer loaded by the time the CLI parser is built.
"""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no python block under 'Library quick start'"
    return match.group(1)


def test_readme_quick_start_runs():
    exec(compile(_quick_start(), "README.md quick start", "exec"), {})


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
