"""Guard on the package surface: no public helper that only tests call.

Every module-level public function or class in src/quatlat/ must be listed
in quatlat.__all__ or referred to by package code outside its own
definition.  A definition that only tests use belongs in tests/, or nowhere.
References are read from the syntax tree (names, attributes and imported
names), so a method of the same name elsewhere also counts as a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import quatlat

SRC = Path(quatlat.__file__).parent


def _names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unused_public_definitions() -> list[str]:
    """module.name of each public top-level def or class nothing else names."""
    nodes = [(path.stem, node) for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    uses = [(node, _names(node)) for _, node in nodes]
    exported = set(quatlat.__all__)
    unused = []
    for module, node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name in exported or any(node.name in names for other, names in uses if other is not node):
            continue
        unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_definition_is_used_by_the_package():
    unused = unused_public_definitions()
    print("public definitions that nothing in src/quatlat uses:", unused)
    assert not unused, unused
