"""The library ships only what runs: every public name is used inside it.

A name exported through `__all__` must be loaded, imported or read as an
attribute somewhere in `src/teon`; a name that only the tests reach belongs
in `tests/oracles.py` or nowhere.
"""

import ast
from pathlib import Path

import teon

PACKAGE = Path(teon.__file__).resolve().parent


def _exported_and_used():
    exported, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    exported[name] = path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return exported, used


def test_every_exported_name_is_used_inside_the_package():
    exported, used = _exported_and_used()
    assert len(exported) > 50  # the walk found the modules' __all__ lists
    unused = sorted(f"{module}:{name}" for name, module in exported.items() if name not in used)
    assert unused == []
