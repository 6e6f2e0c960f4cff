"""Vertices of and actions on the Bruhat-Tits tree of PGL2 over GF(2)((pi)).

Matrix entries are exact rational functions in a single variable (y or t);
the local field is its completion at the variable, so valuations and
truncated expansions come from the degree-1 place at 0.

A vertex is the class of the column lattice of [[pi^n, c], [0, 1]] modulo
right units and scalars, stored canonically as (level n, tail) where the
tail is the Laurent polynomial c reduced modulo pi^n, written as the int
whose bit k is the coefficient of pi^(n-1-k) -- the order in which
`places._series` produces it.  Every nonnegative int is a tail, so
canonical coordinates are two ints.  A `TreeVertex` is the tuple
(field, level, tail), a tuple subclass whose constructor validates, so
equality and hashing are the tuple's, run in C, which the ball enumerations
(dicts keyed by vertices) rely on.  A vertex equals the plain tuple of its
coordinates.  A vertex of the product of the two trees is the plain pair
(horizontal, vertical) of a vertex over y and a vertex over t.

A vertex is a lattice class up to scalars, so a matrix acts through its
polynomial numerators alone: `vertex_from_matrix` and `act` read the
stored form of a Matrix2 (its ints and its variable, the `_tag` slot behind
`var`), drop the shared denominator and, in `act`, scale the vertex matrix by a
power of pi so that every entry of the product is a polynomial.  The
canonical form then needs only carry-less products, the lowest set bits of
the entries (valuations at 0) and one truncated series division.

`act` reads and fills a memo on the matrix but never creates one: a Matrix2
whose `_memo` slot (of the form it shares with quaternions) holds a dict
keeps the vertices it has moved and their images there, so acting again on
a vertex it has seen costs a dict lookup.  Only `certify.ball_check` gives
its generators' matrices a memo; every other matrix has `_memo` None and
computes each image.  There is no module-level vertex cache.
"""

from __future__ import annotations

from operator import itemgetter

from .binpoly import clmul, reverse
from .embeddings import RHO_T, RHO_Y, Matrix2
from .places import _series
from .quaternion import Quaternion


class TreeVertex(tuple):
    """Canonical coordinates (field, level, tail) of a tree vertex; `field` is y or t."""

    __slots__ = ()

    def __new__(cls, field: str, level: int, tail: int) -> TreeVertex:
        if tail < 0:
            raise ValueError("a tail is a nonnegative int")
        return tuple.__new__(cls, (field, level, tail))

    field = property(itemgetter(0))
    level = property(itemgetter(1))
    tail = property(itemgetter(2))

    def __getnewargs__(self) -> tuple[str, int, int]:  # copy and pickle through __new__
        return tuple(self)

    def key(self) -> str:
        """Serialization "field:level:tail-hex"; tail bit k is the coefficient
        of pi^(level-1-k), so the encoding terminates and is canonical."""
        field, level, tail = self
        return f"{field}:{level}:{tail:x}"

    def __str__(self) -> str:
        return self.key()


def standard_vertex(field: str) -> TreeVertex:
    return TreeVertex(field, 0, 0)


def vertex_from_matrix(m: Matrix2) -> TreeVertex:
    """Canonical form of the lattice class spanned by the matrix columns."""
    return _vertex(m._tag, *m._nums)


def _vertex(field: str, a: int, b: int, c: int, d: int) -> TreeVertex:
    """vertex_from_matrix on the polynomial matrix [[a, b], [c, d]].

    Column-reduces over the valuation ring: pivot on the bottom-row entry of
    minimal valuation, eliminate the other bottom entry, rescale so the
    lattice is [[pi^n, c], [0, 1]] and truncate c below pi^n.  The valuation
    at 0 of a nonzero polynomial x is that of its lowest set bit, x & -x.
    """
    det = clmul(a, d) ^ clmul(b, c)
    if det == 0:
        raise ValueError("matrix is singular")
    if d == 0 or (c and (d & -d) > (c & -c)):
        b, d = a, c
    # col1 <- col1 - (c/d) col2 zeroes the bottom-left entry; then divide
    # the lattice by d:  [[det/d^2 * d, b/d], [0, 1]] up to units, and
    # det/d^2 is valuation-equal to pi^n
    level = (det & -det).bit_length() + 1 - 2 * (d & -d).bit_length()
    return TreeVertex(field, level, _series(b, d, level))


def act(m: Matrix2, v: TreeVertex) -> TreeVertex:
    """The vertex m.v: the canonical form of m times the matrix of v, kept
    as v -> m.v in `m._memo` when m carries a memo."""
    memo = m._memo
    if memo is not None:
        image = memo.get(v)
        if image is not None:
            return image
    field, n, tail = v
    if m._tag != field:
        raise ValueError("matrix and vertex live over different fields")
    # m is N/den for a polynomial matrix N, and the matrix of v is
    # [[pi^n, c], [0, 1]] with c = reverse(tail) * pi^(n - w), w the bit
    # length of the tail.  A vertex is a lattice class up to scalars, so
    # m.v = N.V' for V' = pi^max(w - n, 0) times the matrix of v:
    # [[pi^max(n, w), reverse(tail) * pi^max(n - w, 0)], [0, pi^max(w - n, 0)]],
    # all polynomial.
    w = tail.bit_length()
    up, s = max(n, w), max(w - n, 0)
    tail = reverse(tail) << max(n - w, 0)
    a, b, c, d = m._nums
    image = _vertex(field, a << up, clmul(a, tail) ^ (b << s), c << up, clmul(c, tail) ^ (d << s))
    if memo is not None:
        memo[v] = image
    return image


def distance(v1: TreeVertex, v2: TreeVertex) -> int:
    """Tree distance via elementary divisors of the transition matrix.

    adj([[pi^n1, c1], [0, 1]]) * [[pi^n2, c2], [0, 1]] = [[pi^n2, c1 + c2], [0, pi^n1]], so the
    distance is n1 + n2 - 2 * min(n1, n2, v(c1 + c2)), and c1 + c2 is the
    XOR of the two tails shifted to the common level max(n1, n2), where the
    highest set bit is the lowest exponent.
    """
    field1, n1, tail1 = v1
    field2, n2, tail2 = v2
    if field1 != field2:
        raise ValueError("vertices of different trees")
    top = max(n1, n2)
    diff = (tail1 << (top - n1)) ^ (tail2 << (top - n2))
    low = min(n1, n2, top - diff.bit_length())
    return n1 + n2 - 2 * low


def standard_product_vertex() -> tuple[TreeVertex, TreeVertex]:
    return standard_vertex("y"), standard_vertex("t")


def bt_act(g: Quaternion, v: tuple[TreeVertex, TreeVertex]) -> tuple[TreeVertex, TreeVertex]:
    """Act through rho_y on the horizontal factor and rho_t on the vertical
    one; `act` refuses a pair whose factors are not over y and t in turn."""
    horizontal, vertical = v
    return act(RHO_Y(g), horizontal), act(RHO_T(g), vertical)


def ball_vertex_count(radius: int) -> int:
    """Closed-form number of product-tree vertices within L1 distance `radius`."""
    spheres = [1] + [3 * 2 ** (k - 1) for k in range(1, radius + 1)]
    return sum(spheres[i] * spheres[j] for i in range(radius + 1) for j in range(radius + 1) if i + j <= radius)
