"""The library holds what runs read.

Every top-level function and class of a ``src/stratgame`` module, and every
method defined in a class body apart from dunders, must be named somewhere
in ``src/``, ``bench/`` or ``scripts/``: by an ``ast`` name, an attribute,
an import alias or a string constant equal to it.  The package ``__init__``
files re-export and are left out on both sides.  A definition that only
tests read belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names kept in the library though no run reads them, with the reason.
ALLOWED = {
    "perm_point": "public constructor of sphere point identities",
    "MatrixSpace": "public constructor of explicit spaces",
    "has_x": "part of the feedback contract that learners read",
    "has_delta": "part of the feedback contract that learners read",
}


def _modules(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name != "__init__.py":
                yield path, ast.parse(path.read_text())


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_definition_is_read_outside_the_tests():
    defined = {}
    for path, tree in _modules("src/stratgame"):
        for name in _defined(tree):
            defined.setdefault(name, path.relative_to(ROOT))
    referenced = set()
    for _, tree in _modules("src", "bench", "scripts"):
        referenced.update(_referenced(tree))
    unread = {name: str(path) for name, path in defined.items()
              if name not in referenced and name not in ALLOWED}
    assert not unread, f"defined in the library but read only by tests: {unread}"
    stale = sorted(name for name in ALLOWED if name in referenced or name not in defined)
    assert not stale, f"allowlisted names that are read or gone: {stale}"
