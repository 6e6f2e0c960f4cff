"""Guard on the package surface: no public helper that only tests call.

Every public module-level function or class in src/quatlat/, and every
public method or property of such a class, must be referred to outside its
own definition by package code or by the benchmark's two callers of the
package, benchmarks/workloads.py and benchmarks/child.py.  A definition
that only tests use belongs in tests/, or nowhere.  References are read
from the syntax tree (names, attributes and imported names), so a method of
the same name elsewhere also counts as a use.  The package itself re-exports
nothing: each name has one import path, its module's.

A second guard keeps the choice of which values memoize in one module: only
`certify` (and `rational`, which defines it) names `_set__memo`.  A third
keeps process-wide caches to one module: only `lattice` names `lru_cache`.
A fourth keeps a malformed input reportable: no module raises
`AssertionError`, so a certificate can catch what it reads as a failure.
A fifth keeps the arithmetic exact: the few floats, `math` imports and `/`
operators in the package are pinned one by one, and only `suite`, which
times the certificates, reads the clock.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import quatlat

SRC = Path(quatlat.__file__).parent
# the benchmark files that call quatlat; what they name counts as used
BENCHMARK_CALLERS = [Path(__file__).parent.parent / "benchmarks" / name for name in ("workloads.py", "child.py")]


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
    callers = [ast.parse(path.read_text()) for path in BENCHMARK_CALLERS]
    total = sum(map(_names, [tree for _, tree in trees] + callers), Counter())
    return [qualname for qualname, node in definitions if total[node.name] == _names(node)[node.name]]


def test_every_public_definition_is_used_by_the_package():
    unused = unused_public_definitions()
    print("public definitions that neither src/quatlat nor the benchmark uses:", unused)
    assert not unused, unused


def test_the_package_re_exports_nothing():
    not_modules = sorted(
        name for name, value in vars(quatlat).items() if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert not_modules == [], not_modules


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


def _inexact_sites(source: str) -> list[str]:
    """Source text of each float literal, float() or round() call, math
    import and / or /= operator in one module."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            sites.append(node)
        elif isinstance(node, ast.Import) and any(alias.name == "math" for alias in node.names):
            sites.append(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            sites.append(node)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append(node)
    return [ast.get_source_segment(source, node) for node in sites]


def _imports_time(source: str) -> bool:
    return any(
        isinstance(node, ast.Import) and any(alias.name == "time" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "time"
        for node in ast.walk(ast.parse(source))
    )


def test_the_arithmetic_is_exact_and_only_the_suite_reads_the_clock():
    """The pinned sites: the 0.0 default of a result's elapsed_ms, the math
    import behind INFINITE_VALUATION = math.inf, and RationalFunction
    division in the residue, which is exact."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    sites = sorted((name, text) for name, source in sources.items() for text in _inexact_sites(source))
    assert sites == [
        ("certify.py", "0.0"),
        ("places.py", "a * b.derivative() / b"),
        ("places.py", "import math"),
    ], sites
    timing = sorted(name for name, source in sources.items() if _imports_time(source))
    assert timing == ["suite.py"], timing
