"""Source rules that the suite enforces on the package itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gkmcalc"


def test_no_assert_statements():
    # invariants raise ContractError; an assert vanishes under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/gkmcalc: {found}"


def test_traced_names_resolve():
    # the benchmark's traced run wraps these names; one that no longer
    # exists breaks ``perfbench/run.py --trace 1``
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.TARGETS.items() for name in names
               if not callable(getattr(importlib.import_module(f"gkmcalc.{layer}"), name, None))]
    assert not missing, f"traced names without a function: {missing}"
    symcore = importlib.import_module("gkmcalc.symcore")
    assert callable(getattr(symcore.LocalizedSum, "reduce", None))
