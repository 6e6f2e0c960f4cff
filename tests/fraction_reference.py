"""Fraction-by-fraction reference formulas for the integer kernel.

quatlat computes quaternion products, reduced norms, the splittings and
projective keys on raw GF(2)[z] ints, reducing once per output.  The
functions here compute the same values the slow, obvious way, through
RationalFunction arithmetic (every + and * a reduced fraction), and serve
as the oracles of the differential tests in test_kernel.py.
"""

from __future__ import annotations

from quatlat.embeddings import EmbeddingMap, Matrix2
from quatlat.places import PLACE_ZERO, valuation
from quatlat.quaternion import Quaternion
from quatlat.rational import rf
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


def reference_rho(which: EmbeddingMap, q: Quaternion) -> Matrix2:
    """x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J) with Matrix2 arithmetic."""
    x0, x1, x2, x3 = (which.embed_scalar(c) for c in q.coords)
    return (
        which.identity.scale(x0)
        + which.image_i.scale(x1)
        + which.image_j.scale(x2)
        + which.image_ij.scale(x3)
    )


def reference_det(m: Matrix2):
    return m.e11 * m.e22 + m.e12 * m.e21


def vertex_matrix(v: TreeVertex) -> Matrix2:
    """[[pi^n, c], [0, 1]]: the lattice whose class is the vertex (level n, tail c)."""
    pi_n = rf(1 << v.level) if v.level >= 0 else rf(1, 1 << -v.level)
    c = rf(0)
    for e in v.tail:
        c = c + (rf(1 << e) if e >= 0 else rf(1, 1 << -e))
    return Matrix2(v.field, pi_n, c, rf(0), rf(1))


def reference_distance(v1: TreeVertex, v2: TreeVertex) -> int:
    """Tree distance from the elementary divisors of adj(M1) * M2, computed
    with Matrix2 arithmetic and valuations."""
    m1 = vertex_matrix(v1)
    adjugate = Matrix2(m1.var, m1.e22, m1.e12, m1.e21, m1.e11)  # char 2: no signs
    g = adjugate * vertex_matrix(v2)
    min_val = min(valuation(e, PLACE_ZERO) for e in g.entries if not e.is_zero())
    return int(valuation(reference_det(g), PLACE_ZERO) - 2 * min_val)
