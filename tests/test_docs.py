"""Names that the README and the benchmark's tracer refer to must exist.

A deleted library name would otherwise stay in the docs, or turn a
per-layer benchmark metric into a silent ``missing`` entry.
"""

import ast
import importlib
import importlib.util
import re
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
