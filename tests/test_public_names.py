"""Every public name of the package has a user outside the tests."""

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
