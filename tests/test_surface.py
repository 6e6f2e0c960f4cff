"""Guard on the package surface: no public helper that only tests call.

Every public module-level function or class in src/quatlat/, and every
public method or property of such a class, must be listed in
quatlat.__all__ or referred to by package code outside its own definition.
A definition that only tests use belongs in tests/, or nowhere.  References
are read from the syntax tree (names, attributes and imported names), so a
method of the same name elsewhere also counts as a use.

A second guard keeps the choice of which values memoize in one module: only
`certify` (and `rational`, which defines it) names `_set__memo`.  A third
keeps process-wide caches to one module: only `lattice` names `lru_cache`.
A fourth keeps a malformed input reportable: no module raises
`AssertionError`, so a certificate can catch what it reads as a failure.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import quatlat

SRC = Path(quatlat.__file__).parent


def _names(node: ast.AST) -> Counter:
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _public(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def unused_public_definitions() -> list[str]:
    """module.name of each public top-level def or class, and module.Class.name
    of each public method or property, that nothing else names."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    definitions = []
    for module, tree in trees:
        for node in tree.body:
            if _public(node):
                definitions.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{module}.{node.name}.{m.name}", m) for m in node.body if _public(m)]
    total = sum((_names(tree) for _, tree in trees), Counter())
    exported = set(quatlat.__all__)
    return [
        qualname
        for qualname, node in definitions
        if node.name not in exported and total[node.name] == _names(node)[node.name]
    ]


def test_every_public_definition_is_used_by_the_package():
    unused = unused_public_definitions()
    print("public definitions that nothing in src/quatlat uses:", unused)
    assert not unused, unused


def test_only_the_ball_check_gives_values_a_memo():
    naming = sorted(path.name for path in SRC.glob("*.py") if _names(ast.parse(path.read_text()))["_set__memo"])
    assert naming == ["certify.py", "rational.py"], naming


def test_only_the_lattice_caches_across_calls():
    naming = sorted(path.name for path in SRC.glob("*.py") if _names(ast.parse(path.read_text()))["lru_cache"])
    assert naming == ["lattice.py"], naming


def test_no_module_raises_assertion_error():
    """An `assert` statement counts as raising it too."""
    raising = sorted(
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Raise) and _names(node)["AssertionError"]
    )
    assert raising == [], raising
