"""The library holds what runs read.

Every top-level function and class of a ``src/stratgame`` module must be
named somewhere in ``src/``, ``bench/`` or ``scripts/``: by an ``ast`` name,
an attribute, an import alias or a string constant equal to it.  Every
method defined in a class body apart from dunders must be named there by an
attribute or a string constant: a bare name is a local or a global, never
the method.  The package ``__init__`` files re-export and are left out on
both sides.  A definition that only tests read belongs in
``tests/helpers.py``.
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
    """(name, is_method) of each top-level definition and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, True


def _referenced(tree):
    """(name, reads_a_member) of each name a module uses: an attribute or a
    string constant may read a method, a bare name or an import alias not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False
            if node.asname:
                yield node.asname, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, True


def test_every_library_definition_is_read_outside_the_tests():
    defined = {}
    for path, tree in _modules("src/stratgame"):
        for name, is_method in _defined(tree):
            defined.setdefault((name, is_method), path.relative_to(ROOT))
    referenced, members = set(), set()
    for _, tree in _modules("src", "bench", "scripts"):
        for name, reads_a_member in _referenced(tree):
            referenced.add(name)
            if reads_a_member:
                members.add(name)
    unread = {name: str(path) for (name, is_method), path in defined.items()
              if name not in (members if is_method else referenced)}
    flagged = {name: path for name, path in unread.items() if name not in ALLOWED}
    assert not flagged, f"defined in the library but read only by tests: {flagged}"
    stale = sorted(set(ALLOWED) - set(unread))
    assert not stale, f"allowlisted names that are read or gone: {stale}"
