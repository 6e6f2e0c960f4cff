"""Fraction-by-fraction reference formulas for the integer kernel.

quatlat computes quaternion products, reduced norms, the splittings and
projective keys on raw GF(2)[z] ints, reducing once per output.  The
functions here compute the same values the slow, obvious way, through
RationalFunction arithmetic (every + and * a reduced fraction), and serve
as the oracles of the differential tests in test_kernel.py.

`reference_zeta_residue` is the residue at the degree-2 place computed over
GF(4) with coefficient lists and lookup tables, the oracle for the
conjugate-and-norm route of quatlat.places.  `reference_trace` is the
trace of a residue down to GF(2) as the sum of its Frobenius iterates, the
oracle for `local_symbol`.

`reference_rank_mod` is Gaussian elimination over Z/l, the oracle for the
Z/l dimensions quatlat reads from Smith invariant factors.
"""

from __future__ import annotations

from quatlat.binpoly import cldivmod, clmul
from quatlat.embeddings import EmbeddingMap, Matrix2
from quatlat.places import PLACE_ZERO, Place, valuation
from quatlat.quaternion import Quaternion
from quatlat.rational import RationalFunction, rf
from quatlat.tree import TreeVertex


def reference_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """The product from the multiplication table, one coordinate at a time."""
    a, b = p.algebra.a, p.algebra.b
    p0, p1, p2, p3 = p.coords
    q0, q1, q2, q3 = q.coords
    z0 = p0 * q0 + a * (p1 * q1) + b * (p2 * q2) + b * (p2 * q3) + a * b * (p3 * q3)
    z1 = p0 * q1 + p1 * q0 + p1 * q1 + b * (p2 * q3) + b * (p3 * q2)
    z2 = p0 * q2 + p2 * q0 + p2 * q1 + a * (p1 * q3) + a * (p3 * q1)
    z3 = p0 * q3 + p3 * q0 + p1 * q2 + p2 * q1 + p1 * q3
    return Quaternion(p.algebra, (z0, z1, z2, z3))


def reference_conj(q: Quaternion) -> Quaternion:
    """The standard involution: I^2 = I + a, so conj(I) = I + 1 while J and
    IJ are fixed, giving (x0 + x1) + x1*I + x2*J + x3*IJ."""
    x0, x1, x2, x3 = q.coords
    return Quaternion(q.algebra, (x0 + x1, x1, x2, x3))


def _proportional(x, y) -> bool:
    """x = lambda*y for a nonzero scalar: all 2x2 cross products vanish and
    the zero patterns agree."""
    for i in range(4):
        for j in range(i + 1, 4):
            if x[i] * y[j] != x[j] * y[i]:
                return False
    return all(x[i].is_zero() == y[i].is_zero() for i in range(4))


def reference_projective_eq(p: Quaternion, q: Quaternion) -> bool:
    """p = lambda*q for a nonzero scalar, coordinate by coordinate."""
    return _proportional(p.coords, q.coords)


def reference_matrix_projective_eq(m: Matrix2, n: Matrix2) -> bool:
    """m = lambda*n for a nonzero scalar of the same function field."""
    return m.var == n.var and _proportional(m.entries, n.entries)


def reference_rho(which: EmbeddingMap, q: Quaternion, embed_scalar=None) -> Matrix2:
    """x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J) with Matrix2 arithmetic;
    the coordinates are embedded by `embed_scalar`, which.embed_scalar by default."""
    embed_scalar = embed_scalar or which.embed_scalar
    x0, x1, x2, x3 = (embed_scalar(c) for c in q.coords)
    return (
        which.identity.scale(x0)
        + which.image_i.scale(x1)
        + which.image_j.scale(x2)
        + which.image_ij.scale(x3)
    )


def reference_det(m: Matrix2):
    e11, e12, e21, e22 = m.entries
    return e11 * e22 + e12 * e21


# -- GF(4) machinery for the degree-2 place ------------------------------
#
# GF(4) elements are ints 0..3 with bit 0 the constant part and bit 1 the
# w part, w^2 = w + 1.  Polynomials over GF(4) are coefficient lists.

_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_F4_INV = {1: 1, 2: 3, 3: 2}
_F4_W = 2


def _f4poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _f4poly_mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            row = _F4_MUL[a]
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= row[b]
    return _f4poly_trim(out)


def _f4poly_from_f2(p: int) -> list[int]:
    return [(p >> k) & 1 for k in range(p.bit_length())]


def _f4poly_add_const(p: list[int], c: int) -> list[int]:
    if not c:
        return p
    if not p:
        return [c]
    return _f4poly_trim([p[0] ^ c] + p[1:])


def _f4poly_shift_by_w(p: list[int]) -> list[int]:
    """Substitute x -> x + w (char 2, so this moves the root w to the origin)."""
    out: list[int] = []
    for coeff in reversed(p):
        out = _f4poly_add_const(_f4poly_mul(out, [_F4_W, 1]), coeff)
    return out


def _f4_series_coeff(num: list[int], den: list[int], index: int) -> int:
    """Coefficient of x^index in num/den as a Laurent series over GF(4) at x = 0."""
    vn = next((i for i, c in enumerate(num) if c), None)
    if vn is None:
        return 0
    vd = next(i for i, c in enumerate(den) if c)
    v = vn - vd
    if index < v:
        return 0
    n0 = num[vn:]
    d0 = den[vd:]
    inv_lead = _F4_INV[d0[0]]
    rem = list(n0)
    coeff = 0
    for k in range(v, index + 1):
        c = _F4_MUL[rem[0] if rem else 0][inv_lead]
        coeff = c
        if c:
            sub = [_F4_MUL[c][b] for b in d0]
            for i, s in enumerate(sub):
                if i < len(rem):
                    rem[i] ^= s
                else:
                    rem.append(s)
        rem = rem[1:]
    return coeff


def reference_zeta_residue(a: RationalFunction, b: RationalFunction) -> int:
    """Representative modulo x^2+x+1 of the residue of a*db/b at the place
    x^2+x+1, from the Laurent expansion of the split place x = w over GF(4)."""
    if a.is_zero():
        return 0
    g = a * b.derivative() / b
    num = _f4poly_shift_by_w(_f4poly_from_f2(g.num))
    den = _f4poly_shift_by_w(_f4poly_from_f2(g.den))
    c = _f4_series_coeff(num, den, -1)
    # carry GF(4) back to GF(2)[x]/(x^2+x+1) via w -> class of x
    return (c & 1) | ((c >> 1) & 1) << 1


def reference_trace(place: Place, representative: int) -> int:
    """Trace down to GF(2) of the residue class of `representative` modulo
    the place's minimal polynomial: the sum of its Frobenius iterates."""
    if place.degree == 1:
        return representative & 1
    total, power = 0, representative
    for _ in range(place.degree):
        total ^= power
        power = cldivmod(clmul(power, power), place.minpoly)[1]
    assert total in (0, 1), "trace escaped GF(2)"
    return total


def vertex_matrix(v: TreeVertex) -> Matrix2:
    """[[pi^n, c], [0, 1]]: the lattice whose class is the vertex (level n, tail c)."""
    pi_n = rf(1 << v.level) if v.level >= 0 else rf(1, 1 << -v.level)
    c = rf(0)
    for k in range(v.tail.bit_length()):
        if v.tail >> k & 1:  # the coefficient of pi^e, e = level - 1 - k
            e = v.level - 1 - k
            c = c + (rf(1 << e) if e >= 0 else rf(1, 1 << -e))
    return Matrix2(v.field, pi_n, c, rf(0), rf(1))


def reference_distance(v1: TreeVertex, v2: TreeVertex) -> int:
    """Tree distance from the elementary divisors of adj(M1) * M2, computed
    with Matrix2 arithmetic and valuations."""
    m1 = vertex_matrix(v1)
    e11, e12, e21, e22 = m1.entries
    adjugate = Matrix2(m1.var, e22, e12, e21, e11)  # char 2: no signs
    g = adjugate * vertex_matrix(v2)
    min_val = min(valuation(e, PLACE_ZERO) for e in g.entries if not e.is_zero())
    return int(valuation(reference_det(g), PLACE_ZERO) - 2 * min_val)


def reference_rank_mod(matrix: list[list[int]], ell: int) -> int:
    m = [[x % ell for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, ell)
        m[rank] = [(x * inv) % ell for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % ell for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank

