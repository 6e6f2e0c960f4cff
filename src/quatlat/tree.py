"""Vertices of and actions on the Bruhat-Tits tree of PGL2 over GF(2)((pi)).

Matrix entries are exact rational functions in a single variable (y or t);
the local field is its completion at the variable, so valuations and
truncated expansions come from the degree-1 place at 0.

A vertex is the class of the column lattice of [[pi^n, c], [0, 1]] modulo
right units and scalars, stored canonically as (level n, tail c) where the
tail is the finite set of exponents (< n, coefficients in GF(2)) of the
Laurent polynomial c reduced modulo pi^n.  Canonical coordinates make
vertices hashable, which the ball enumerations rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binpoly import clmul
from .embeddings import RHO_T, RHO_Y, Matrix2
from .places import _series, _val_at_zero
from .quaternion import Quaternion


def _tail_bits(tail: frozenset[int]) -> tuple[int, int]:
    """(num, s) with the Laurent polynomial sum of pi^e over the tail equal to num / pi^s."""
    s = max(-min(tail, default=0), 0)
    num = 0
    for e in tail:
        num |= 1 << (e + s)
    return num, s


@dataclass(frozen=True)
class TreeVertex:
    """Canonical coordinates (level, tail) of a tree vertex; `field` is y or t."""

    field: str
    level: int
    tail: frozenset[int]

    def __post_init__(self) -> None:
        if any(e >= self.level for e in self.tail):
            raise ValueError("tail exponents must lie below the level")

    def neighbors(self) -> tuple[TreeVertex, TreeVertex, TreeVertex]:
        """The three adjacent vertices (valency q+1 = 3 over GF(2))."""
        up_plain = TreeVertex(self.field, self.level + 1, self.tail)
        up_bumped = TreeVertex(self.field, self.level + 1, self.tail ^ {self.level})
        down = TreeVertex(self.field, self.level - 1, frozenset(e for e in self.tail if e < self.level - 1))
        return (up_plain, up_bumped, down)

    def key(self) -> str:
        """Serialization "field:level:tail-hex"; tail bit k is the coefficient
        of pi^(level-1-k), so the encoding terminates and is canonical."""
        value = 0
        for e in self.tail:
            value |= 1 << (self.level - 1 - e)
        return f"{self.field}:{self.level}:{value:x}"

    def __str__(self) -> str:
        return self.key()


def standard_vertex(field: str) -> TreeVertex:
    return TreeVertex(field, 0, frozenset())


def vertex_from_matrix(m: Matrix2) -> TreeVertex:
    """Canonical form of the lattice class spanned by the matrix columns."""
    return _vertex(m.var, *((e.num.bits, e.den.bits) for e in m.entries))


def _vertex(field: str, a: tuple[int, int], b: tuple[int, int], c: tuple[int, int], d: tuple[int, int]) -> TreeVertex:
    """vertex_from_matrix on entries given as (num, den) bit pairs, which need
    not be reduced: valuations and series expansions ignore common factors.

    Column-reduces over the valuation ring: pivot on the bottom-row entry of
    minimal valuation, eliminate the other bottom entry, rescale so the
    lattice is [[pi^n, c], [0, 1]] and truncate c below pi^n.
    """
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = a, b, c, d
    det_num = clmul(clmul(an, dn), clmul(bd, cd)) ^ clmul(clmul(bn, cn), clmul(ad, dd))
    if det_num == 0:
        raise ValueError("matrix is singular")
    det_den = clmul(clmul(ad, dd), clmul(bd, cd))
    if dn == 0 or (cn and _val_at_zero(dn, dd) > _val_at_zero(cn, cd)):
        (bn, bd), (dn, dd) = (an, ad), (cn, cd)
    # col1 <- col1 - (c/d) col2 zeroes the bottom-left entry; then divide
    # the lattice by d:  [[det/d^2 * d, b/d], [0, 1]] up to units, and
    # det/d^2 is valuation-equal to pi^n
    level = _val_at_zero(det_num, det_den) - 2 * _val_at_zero(dn, dd)
    tail = frozenset(_series(clmul(bn, dd), clmul(bd, dn), level))
    return TreeVertex(field, level, tail)


def act(m: Matrix2, v: TreeVertex) -> TreeVertex:
    """The vertex m.v: the canonical form of m times the matrix of v."""
    if m.var != v.field:
        raise ValueError("matrix and vertex live over different fields")
    # the matrix of v is [[pi^n, c], [0, 1]] with c = tail / pi^s
    tail, s = _tail_bits(v.tail)
    up, down = max(v.level, 0), max(-v.level, 0)
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = ((e.num.bits, e.den.bits) for e in m.entries)
    return _vertex(
        v.field,
        (an << up, ad << down),
        (clmul(clmul(an, tail), bd) ^ (clmul(bn, ad) << s), clmul(ad, bd) << s),
        (cn << up, cd << down),
        (clmul(clmul(cn, tail), dd) ^ (clmul(dn, cd) << s), clmul(cd, dd) << s),
    )


def distance(v1: TreeVertex, v2: TreeVertex) -> int:
    """Tree distance via elementary divisors of the transition matrix.

    adj([[pi^n1, c1], [0, 1]]) * [[pi^n2, c2], [0, 1]] = [[pi^n2, c1 + c2], [0, pi^n1]], so the
    distance is n1 + n2 - 2 * min(n1, n2, v(c1 + c2)), and c1 + c2 is the
    symmetric difference of the two tails.
    """
    if v1.field != v2.field:
        raise ValueError("vertices of different trees")
    low = min(v1.level, v2.level, min(v1.tail ^ v2.tail, default=v1.level))
    return v1.level + v2.level - 2 * low


@dataclass(frozen=True)
class ProductVertex:
    """A vertex of the product of the two trees: horizontal over y, vertical over t."""

    horizontal: TreeVertex
    vertical: TreeVertex

    def __post_init__(self) -> None:
        if self.horizontal.field != "y" or self.vertical.field != "t":
            raise ValueError("product vertices are horizontal-over-y, vertical-over-t")

    def key(self) -> str:
        return f"{self.horizontal.key()}|{self.vertical.key()}"

    def __str__(self) -> str:
        return self.key()


def standard_product_vertex() -> ProductVertex:
    return ProductVertex(standard_vertex("y"), standard_vertex("t"))


def bt_act(g: Quaternion, v: ProductVertex) -> ProductVertex:
    """Act through rho_y on the horizontal factor and rho_t on the vertical one."""
    return ProductVertex(act(RHO_Y(g), v.horizontal), act(RHO_T(g), v.vertical))


def ball_vertex_count(radius: int) -> int:
    """Closed-form number of product-tree vertices within L1 distance `radius`."""
    spheres = [1] + [3 * 2 ** (k - 1) for k in range(1, radius + 1)]
    return sum(spheres[i] * spheres[j] for i in range(radius + 1) for j in range(radius + 1) if i + j <= radius)


def ball_in_tree(center: TreeVertex, radius: int) -> list[set[TreeVertex]]:
    """Spheres of radius 0..radius around the center, by breadth-first search."""
    spheres = [{center}]
    seen = {center}
    for _ in range(radius):
        frontier = set()
        for v in spheres[-1]:
            for n in v.neighbors():
                if n not in seen:
                    seen.add(n)
                    frontier.add(n)
        spheres.append(frontier)
    return spheres
