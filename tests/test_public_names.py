"""Every public name of the package has a user outside the tests, and every
import in it a use."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nltomo"


def test_every_public_name_is_used_outside_tests():
    # __init__.py only re-exports, so it is no user
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files = modules + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"]
    lines = [line for path in files for line in path.read_text().splitlines()]
    unused = []
    for path in modules:
        module = importlib.import_module(f"nltomo.{path.stem}")
        for name in getattr(module, "__all__", ()):
            word = re.compile(rf"\b{name}\b")
            # the name's own definition and its __all__ entry are no use of it
            own = re.compile(
                rf'^(def|class)\s+{name}\b|^{name}\s*[:=]|^__all__\s*=|^\s*"{name}",?$'
            )
            if not any(word.search(line) and not own.match(line) for line in lines):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


# imports kept without a use in their module, each with its reason
UNUSED_IMPORTS_KEPT = {
    # perfbench/selftest.py asserts that the layer tracer wraps it at runner too;
    # ROADMAP item 13 replaces that tracer and removes both
    "runner.propagate_unitary",
}


def test_every_import_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = alias.name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # a package re-exports what its __all__ lists
        used |= {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused |= {f"{path.stem}.{name}" for name in imported if name not in used}
    assert unused == UNUSED_IMPORTS_KEPT
