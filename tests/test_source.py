"""Source rules that the suite enforces on the package itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def _traced_names():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{layer}.{name}" for layer, names in spans.TARGETS.items() for name in names}


# public names without a caller in src/gkmcalc, each with the reason it
# stays; the names the traced run wraps are allowed as well
UNCALLED = {
    "symcore.LocalizedSum": "the traced run wraps LocalizedSum.reduce",
}

# public methods that nothing in src/gkmcalc reads as an attribute, each
# with the reason it stays
UNREAD_METHODS = {
    "symcore.LocalizedSum.add_term": "fills the sums whose reduce the traced run wraps; "
                                     "the tests' fixed point oracle calls it",
}


def _public_definitions(tree):
    """Top-level functions, classes and ``partial`` and ``namedtuple``
    bindings not starting with an underscore, as {name: node}."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", None) in ("partial", "namedtuple"):
            out.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _public_methods(tree):
    """Methods not starting with an underscore of every class in a module,
    as (class name, method name) pairs."""
    return [(cls.name, node.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _uses(module, tree):
    """(module, name) pairs that the code of ``module`` reads: its own
    top-level names, names imported from a sibling module and attributes of
    an imported sibling module.  Imports alone and a definition's reference
    to itself do not count."""
    names, modules = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    own = _public_definitions(tree)
    found = set()
    for stmt in tree.body:
        skip = {name for name, node in own.items() if node is stmt}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id not in skip:
                found.add(names.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(_uses(module, tree) for module, tree in trees.items()))
    allowed = set(UNCALLED) | _traced_names()
    uncalled = sorted(f"{module}.{name}" for module, tree in trees.items()
                      for name in _public_definitions(tree)
                      if (module, name) not in used and f"{module}.{name}" not in allowed)
    assert not uncalled, f"public names without a caller in src/gkmcalc: {uncalled}"
    stale = sorted(name for name in UNCALLED
                   if tuple(name.split(".")) in used)
    assert not stale, f"allowlisted names that have a caller now: {stale}"
    # a method is called through an attribute read, on a value or a class;
    # which class the value has is not known here, so any read of the name
    # counts
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    methods = {f"{module}.{cls}.{name}": name for module, tree in trees.items()
               for cls, name in _public_methods(tree)}
    unread = sorted(m for m, name in methods.items()
                    if name not in read and m not in UNREAD_METHODS)
    assert not unread, f"public methods never read in src/gkmcalc: {unread}"
    stale = sorted(m for m in UNREAD_METHODS if m not in methods or methods[m] in read)
    assert not stale, f"allowlisted methods that are read now or are gone: {stale}"


def test_traced_layers_load_with_the_cli():
    # the traced run wraps names in the modules that importing the CLI has
    # loaded; a layer nothing imports is missing from sys.modules
    layers = sorted({name.split(".")[0] for name in _traced_names()})
    code = ("import sys, gkmcalc.cli; "
            f"print([m for m in {layers!r} if 'gkmcalc.' + m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert out.stdout.strip() == "[]"


def test_the_cli_starts_without_dataclasses_or_typing():
    # the records are namedtuples or __slots__ classes: ``dataclasses``
    # would load ``inspect`` and its dependencies at every start.  ``-S``
    # keeps what the site hooks of an installation load out of the check.
    code = ("import sys, gkmcalc.cli; "
            "print([m for m in ('dataclasses', 'typing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    assert out.stdout.strip() == "[]"
