"""V4-structures and their four-vertex square complexes.

A V4-structure of a group is an ordered pair (A, B) of finite inverse-closed
subsets such that AB = BA and both pairing maps (a,b) -> ab and (a,b) -> ba
are bijections onto AB.  The machinery below is generic over the element
domain: callers supply multiplication, inversion and a canonicalization map
whose outputs are hashable and equal exactly for equal group elements (for
quaternions: the projective representative).

The associated complex has vertices s00, s01, s10, s11; vertical edges (a,i)
from s_i0 to s_i1; horizontal edges (b,j) from s_0j to s_1j; and one square
[a,b'; b,a'] glued along ((a,0), (b',1), rev (a',1), rev (b,0)) for every
relation ab' = ba'.  The Klein four group acts on it, and inverse-stability
of the structure is equivalent to the label-inverting involution preserving
the square set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

Square = tuple[str, str, str, str]  # (a, b', b, a') as label names

VERTICES = ("s00", "s01", "s10", "s11")


@dataclass(frozen=True)
class GroupOps:
    """Multiplication, inversion and interning for an element domain."""

    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    canon: Callable[[Any], Any]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _inverse_pairing(names: tuple[str, ...], elems: dict, ops: GroupOps) -> dict[str, str] | None:
    """name -> name of the inverse, or None if the set is not inverse-closed."""
    keys = {name: ops.canon(elems[name]) for name in names}
    inv_keys = {name: ops.canon(ops.inv(elems[name])) for name in names}
    lookup: dict[Any, str] = {}
    for name in names:
        if keys[name] in lookup:
            return None  # duplicate element
        lookup[keys[name]] = name
    pairing = {}
    for name in names:
        partner = lookup.get(inv_keys[name])
        if partner is None:
            return None
        pairing[name] = partner
    return pairing


def _check_v4(
    a_names: tuple[str, ...], b_names: tuple[str, ...], elems: dict, ops: GroupOps
) -> tuple[list[str], dict[str, str], tuple[Square, ...]]:
    """One pass over the axioms: (failures, inverse pairing, squares), the
    last two resolved only when there are no failures."""
    if not a_names or not b_names:
        return ["empty side"], {}, ()
    inv_a = _inverse_pairing(a_names, elems, ops)
    inv_b = _inverse_pairing(b_names, elems, ops)
    failures = []
    if inv_a is None:
        failures.append("A not inverse-closed (or has duplicate elements)")
    if inv_b is None:
        failures.append("B not inverse-closed (or has duplicate elements)")
    if failures:
        return failures, {}, ()
    prod_ab: dict[Any, tuple[str, str]] = {}
    for a in a_names:
        for b in b_names:
            key = ops.canon(ops.mul(elems[a], elems[b]))
            if key in prod_ab:
                failures.append(f"products {a}{b} and {''.join(prod_ab[key])} coincide")
            prod_ab[key] = (a, b)
    prod_ba: dict[Any, tuple[str, str]] = {}
    for b in b_names:
        for a in a_names:
            key = ops.canon(ops.mul(elems[b], elems[a]))
            if key in prod_ba:
                failures.append(f"products {b}{a} and {''.join(prod_ba[key])} coincide")
            prod_ba[key] = (b, a)
    if not failures and set(prod_ab) != set(prod_ba):
        failures.append("AB and BA differ as sets")
    if failures:
        return failures, {}, ()
    # the square [a,b'; b,a'] for each ab' = ba', in (a, b') order
    squares = tuple((a, bp) + prod_ba[key] for key, (a, bp) in prod_ab.items())
    return [], inv_a | inv_b, squares


def verify_v4(a_names: tuple[str, ...], b_names: tuple[str, ...], elems: dict, ops: GroupOps) -> Verdict:
    """Check the V4-structure axioms; generation is assumed, not checked."""
    failures, _, _ = _check_v4(a_names, b_names, elems, ops)
    return Verdict(not failures, tuple(failures))


class InvalidStructureError(ValueError):
    pass


@dataclass(frozen=True)
class V4Structure:
    """A verified V4-structure with its squares resolved to label names."""

    a_names: tuple[str, ...]
    b_names: tuple[str, ...]
    elements: dict[str, Any]
    ops: GroupOps
    inv: dict[str, str] = field(default_factory=dict)
    squares: tuple[Square, ...] = ()

    def element(self, name: str) -> Any:
        return self.elements[name]


def build_structure(a_labeled: list[tuple[str, Any]], b_labeled: list[tuple[str, Any]], ops: GroupOps) -> V4Structure:
    """Verify the axioms and resolve the square set [a,b'; b,a'] with ab' = ba'."""
    a_names = tuple(n for n, _ in a_labeled)
    b_names = tuple(n for n, _ in b_labeled)
    elems = dict(a_labeled) | dict(b_labeled)
    if len(elems) != len(a_names) + len(b_names):
        raise InvalidStructureError("labels must be unique across A and B")
    failures, inv, squares = _check_v4(a_names, b_names, elems, ops)
    if failures:
        raise InvalidStructureError("; ".join(failures))
    return V4Structure(a_names, b_names, elems, ops, inv, squares)


def is_inverse_stable(structure: V4Structure) -> bool:
    """Whether every relation ab' = ba' also has a^-1 b'^-1 = b^-1 a'^-1."""
    inv = structure.inv
    present = set(structure.squares)
    return all((inv[a], inv[bp], inv[b], inv[ap]) in present for a, bp, b, ap in structure.squares)


# -- the complex -----------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    id: int
    label: str
    index: int  # i for vertical (a,i), j for horizontal (b,j)
    orientation: str  # "v" | "h"
    source: str
    target: str


@dataclass(frozen=True)
class SquareComplexVH:
    structure: V4Structure
    edges: tuple[Edge, ...]
    squares: tuple[Square, ...]
    square_paths: tuple[tuple[int, int, int, int], ...]  # unoriented edge ids along the gluing

    @property
    def vertices(self) -> tuple[str, ...]:
        return VERTICES

    def counts(self) -> tuple[int, int, int]:
        return (4, len(self.edges), len(self.squares))


def build_complex(structure: V4Structure) -> SquareComplexVH:
    """The four-vertex complex; raises if the structure fails verification."""
    if len(structure.squares) != len(structure.a_names) * len(structure.b_names):
        raise InvalidStructureError("square count does not match |A|*|B|")
    edges = []
    for a in structure.a_names:
        for i in (0, 1):
            edges.append(Edge(len(edges), a, i, "v", f"s{i}0", f"s{i}1"))
    for b in structure.b_names:
        for j in (0, 1):
            edges.append(Edge(len(edges), b, j, "h", f"s0{j}", f"s1{j}"))
    index = {(e.label, e.index): e.id for e in edges}
    paths = tuple(
        (index[(a, 0)], index[(bp, 1)], index[(ap, 1)], index[(b, 0)])
        for a, bp, b, ap in structure.squares
    )
    return SquareComplexVH(structure, tuple(edges), structure.squares, paths)


def link(complex_: SquareComplexVH, vertex: str) -> list[tuple[str, str]]:
    """Corner graph at the vertex: one (a-label, b-label) edge per square corner."""
    if vertex not in VERTICES:
        raise ValueError(f"unknown vertex {vertex}")
    i, j = int(vertex[1]), int(vertex[2])
    corners = []
    for a, bp, b, ap in complex_.squares:
        va = a if i == 0 else ap
        hb = b if j == 0 else bp
        corners.append((va, hb))
    return corners


def is_complete_bipartite(corners: list[tuple[str, str]], a_names: tuple[str, ...], b_names: tuple[str, ...]) -> bool:
    """Every (a, b) pair spans exactly one corner."""
    from collections import Counter

    counts = Counter(corners)
    return set(counts) == {(a, b) for a in a_names for b in b_names} and all(v == 1 for v in counts.values())


def v4_square_image(structure: V4Structure, square: Square, gamma: str) -> Square:
    """Image of a square under gamma_v, gamma_h or gamma_r = gamma_v*gamma_h."""
    a, bp, b, ap = square
    inv = structure.inv
    if gamma == "v":
        return (inv[a], b, bp, inv[ap])
    if gamma == "h":
        return (ap, inv[bp], inv[b], a)
    if gamma == "r":
        return v4_square_image(structure, v4_square_image(structure, square, "v"), "h")
    raise ValueError(f"unknown Klein-four generator {gamma!r}")


def v4_orbits_of_squares(complex_: SquareComplexVH) -> list[list[Square]]:
    """Orbits of the Klein-four action on squares, each listed from its
    deterministic representative (least by label order)."""
    structure = complex_.structure
    order = {name: k for k, name in enumerate(structure.a_names + structure.b_names)}

    def sort_key(s: Square):
        return tuple(order[x] for x in s)

    remaining = set(complex_.squares)
    orbits = []
    while remaining:
        seed = min(remaining, key=sort_key)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            s = frontier.pop()
            for gamma in ("v", "h", "r"):
                img = v4_square_image(structure, s, gamma)
                if img not in orbit:
                    if img not in remaining:
                        raise AssertionError("Klein-four action left the square set")
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbits.append(sorted(orbit, key=sort_key))
    return orbits


def euler_characteristic(complex_: SquareComplexVH) -> int:
    """Vertices - unoriented edges + squares of the quotient complex."""
    v, e, s = complex_.counts()
    return v - e + s


# -- exports ---------------------------------------------------------------


def complex_to_json(complex_: SquareComplexVH) -> dict:
    return {
        "schema_version": 1,
        "vertices": list(VERTICES),
        "edges": [
            {
                "id": e.id,
                "label": e.label,
                "from": e.source,
                "to": e.target,
                "orientation": e.orientation,
            }
            for e in complex_.edges
        ],
        "squares": [list(path) for path in complex_.square_paths],
    }


def links_to_dot(complex_: SquareComplexVH) -> str:
    lines = ["graph links {"]
    for vertex in VERTICES:
        lines.append(f'  subgraph "cluster_{vertex}" {{')
        lines.append(f'    label = "{vertex}";')
        for a, b in link(complex_, vertex):
            lines.append(f'    "{vertex}:{a}" -- "{vertex}:{b}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
