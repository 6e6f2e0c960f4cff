"""V4-structures and the four-vertex square complexes they determine.

A V4-structure of a group is an ordered pair (A, B) of finite inverse-closed
subsets such that AB = BA and both pairing maps (a,b) -> ab and (a,b) -> ba
are bijections onto AB.  The machinery below is generic over the element
domain: callers supply multiplication, inversion and a canonicalization map
whose outputs are hashable and equal exactly for equal group elements (for
quaternions: the projective representative).

The structure is its complex: vertices s00, s01, s10, s11; vertical edges
(a,i) from s_i0 to s_i1; horizontal edges (b,j) from s_0j to s_1j; and one
square [a,b'; b,a'] for every relation ab' = ba', whose corner at s_ij joins
(a,i) or (a',i) to (b,j) or (b',j), unprimed at index 0 and primed at 1
(`corner` is the one statement of this gluing), so its boundary runs
((a,0), (b',1), rev (a',1), rev (b,0)).  The Klein four group acts on the
complex, and inverse-stability of the structure is equivalent to the
label-inverting involution preserving the square set.

V4 = (Z/2)^2 is written as 2-bit ints under XOR, here and in `presentations`:
bit 0 is gamma_v, which flips j (s_ij -> s_i(1-j)) and inverts the A labels;
bit 1 is gamma_h, which flips i and inverts the B labels; 3 is both.
"""

from __future__ import annotations

from collections import Counter, namedtuple

Square = tuple[str, str, str, str]  # (a, b', b, a') as label names

VERTICES = ("s00", "s01", "s10", "s11")


# multiplication, inversion and interning for an element domain
GroupOps = namedtuple("GroupOps", "mul inv canon")


def _inverse_pairing(names: tuple[str, ...], elems: dict, ops: GroupOps) -> dict[str, str] | None:
    """name -> name of the inverse, or None if the set is not inverse-closed
    or names one element twice."""
    lookup = {ops.canon(elems[name]): name for name in names}
    if len(lookup) < len(names):
        return None
    pairing = {name: lookup.get(ops.canon(ops.inv(elems[name]))) for name in names}
    return None if None in pairing.values() else pairing


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
    prod_ab: dict[object, tuple[str, str]] = {}
    prod_ba: dict[object, tuple[str, str]] = {}
    for left, right, prod in ((a_names, b_names, prod_ab), (b_names, a_names, prod_ba)):
        for x in left:
            for y in right:
                key = ops.canon(ops.mul(elems[x], elems[y]))
                if key in prod:
                    failures.append(f"products {x}{y} and {''.join(prod[key])} coincide")
                prod[key] = (x, y)
    if not failures and set(prod_ab) != set(prod_ba):
        failures.append("AB and BA differ as sets")
    if failures:
        return failures, {}, ()
    # the square [a,b'; b,a'] for each ab' = ba', in (a, b') order
    squares = tuple((a, bp) + prod_ba[key] for key, (a, bp) in prod_ab.items())
    return [], inv_a | inv_b, squares


def verify_v4(a_names: tuple[str, ...], b_names: tuple[str, ...], elems: dict, ops: GroupOps) -> tuple[str, ...]:
    """The failed V4-structure axioms, empty when all hold; generation is
    assumed, not checked."""
    failures, _, _ = _check_v4(a_names, b_names, elems, ops)
    return tuple(failures)


class InvalidStructureError(ValueError):
    pass


# a verified V4-structure: the label names of A and B, label -> element,
# its GroupOps, label -> label of the inverse, and its squares as label names
V4Structure = namedtuple("V4Structure", "a_names b_names elements ops inv squares")


def build_structure(a_labeled: list[tuple[str, object]], b_labeled: list[tuple[str, object]], ops: GroupOps) -> V4Structure:
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


def corner(square: Square, i: int, j: int) -> tuple[str, str]:
    """(a, b): the labels of the vertical edge (a,i) and the horizontal edge
    (b,j) that meet at the square's corner s_ij."""
    a, bp, b, ap = square
    return (a if i == 0 else ap, b if j == 0 else bp)


def cell_counts(structure: V4Structure) -> tuple[int, int, int]:
    """(vertices, unoriented edges, squares) of the complex."""
    return (len(VERTICES), 2 * (len(structure.a_names) + len(structure.b_names)), len(structure.squares))


def link(structure: V4Structure, vertex: str) -> list[tuple[str, str]]:
    """Corner graph at the vertex: one (a-label, b-label) edge per square corner."""
    if vertex not in VERTICES:
        raise ValueError(f"unknown vertex {vertex}")
    i, j = int(vertex[1]), int(vertex[2])
    return [corner(square, i, j) for square in structure.squares]


def is_complete_bipartite(corners: list[tuple[str, str]], a_names: tuple[str, ...], b_names: tuple[str, ...]) -> bool:
    """Every (a, b) pair spans exactly one corner."""
    counts = Counter(corners)
    return set(counts) == {(a, b) for a in a_names for b in b_names} and all(v == 1 for v in counts.values())


def v4_square_image(structure: V4Structure, square: Square, gamma: int) -> Square:
    """Image of a square under gamma in 0..3, a 2-bit int as in the module
    docstring."""
    if gamma not in range(4):
        raise ValueError(f"not a Klein-four element {gamma!r}")
    a, bp, b, ap = square
    inv = structure.inv
    if gamma & 1:
        a, bp, b, ap = inv[a], b, bp, inv[ap]
    if gamma & 2:
        a, bp, b, ap = ap, inv[bp], inv[b], a
    return (a, bp, b, ap)


def v4_orbits_of_squares(structure: V4Structure) -> list[list[Square]]:
    """Orbits of the Klein-four action on squares: each is the four images
    of the least remaining square by label order, which it lists first."""
    order = {name: k for k, name in enumerate(structure.a_names + structure.b_names)}

    def sort_key(s: Square):
        return tuple(order[x] for x in s)

    remaining = set(structure.squares)
    orbits = []
    while remaining:
        seed = min(remaining, key=sort_key)
        orbit = {v4_square_image(structure, seed, gamma) for gamma in range(4)}
        if not orbit <= remaining:
            raise InvalidStructureError("Klein-four action left the square set")
        remaining -= orbit
        orbits.append(sorted(orbit, key=sort_key))
    return orbits


def euler_characteristic(structure: V4Structure) -> int:
    """Vertices - unoriented edges + squares of the quotient complex."""
    v, e, s = cell_counts(structure)
    return v - e + s


# -- exports ---------------------------------------------------------------


def complex_to_json(structure: V4Structure) -> dict:
    """Edges numbered as written: each a with i = 0, 1, then each b with
    j = 0, 1; each square is the ids along its boundary."""
    edges, ids = [], {}
    for orientation, names in (("v", structure.a_names), ("h", structure.b_names)):
        for label in names:
            for k in (0, 1):
                ids[label, k] = len(edges)
                ends = (f"s{k}0", f"s{k}1") if orientation == "v" else (f"s0{k}", f"s1{k}")
                edges.append({"id": ids[label, k], "label": label, "from": ends[0], "to": ends[1], "orientation": orientation})
    squares = []
    for square in structure.squares:
        (a, b), (ap, bp) = corner(square, 0, 0), corner(square, 1, 1)
        squares.append([ids[a, 0], ids[bp, 1], ids[ap, 1], ids[b, 0]])
    return {"schema_version": 1, "vertices": list(VERTICES), "edges": edges, "squares": squares}


def links_to_dot(structure: V4Structure) -> str:
    lines = ["graph links {"]
    for vertex in VERTICES:
        lines.append(f'  subgraph "cluster_{vertex}" {{')
        lines.append(f'    label = "{vertex}";')
        for a, b in link(structure, vertex):
            lines.append(f'    "{vertex}:{a}" -- "{vertex}:{b}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
