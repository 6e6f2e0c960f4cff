"""Splittings of the algebra [z, 1+z^3) into 2x2 matrices.

Two quadratic extensions split the algebra: GF(2)(y) with y^2 + y = z and
GF(2)(t) with t^2 + t = u, u = 1/z.  Scalars are embedded by substituting
z = y^2 + y resp. z = 1/(t^2 + t); the generator images are

    rho_y(I) = [[y, 0], [0, 1+y]]        rho_y(J) = [[0, 1+z^3], [1, 0]]
    rho_t(I) = [[1+u+t, 1+u^3],          rho_t(J) = [[0, 1/u + u^2],
                [1/u,   u+t  ]]                      [1/u^2, 0      ]]

with u = t^2 + t substituted throughout.  Both satisfy the defining
relations, and det(rho(q)) equals the embedded reduced norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .binpoly import ONE, BinaryPoly, clmul
from .quaternion import Quaternion
from .rational import ONE_RF, ZERO_RF, RationalFunction, _common_form, _lowest_terms, rf


@dataclass(frozen=True)
class Matrix2:
    """A 2x2 matrix of rational functions over a declared variable."""

    var: str
    e11: RationalFunction
    e12: RationalFunction
    e21: RationalFunction
    e22: RationalFunction

    @classmethod
    def identity(cls, var: str) -> Matrix2:
        return cls(var, ONE_RF, ZERO_RF, ZERO_RF, ONE_RF)

    @property
    def entries(self) -> tuple[RationalFunction, RationalFunction, RationalFunction, RationalFunction]:
        return (self.e11, self.e12, self.e21, self.e22)

    def __mul__(self, other: Matrix2) -> Matrix2:
        self._same_var(other)
        return Matrix2(
            self.var,
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def __add__(self, other: Matrix2) -> Matrix2:
        self._same_var(other)
        return Matrix2(self.var, *(p + q for p, q in zip(self.entries, other.entries)))

    def scale(self, f: RationalFunction) -> Matrix2:
        return Matrix2(self.var, *(f * e for e in self.entries))

    def det(self) -> RationalFunction:
        a, b, c, d = self.e11, self.e12, self.e21, self.e22
        ad_num, ad_den = clmul(a.num.bits, d.num.bits), clmul(a.den.bits, d.den.bits)
        bc_num, bc_den = clmul(b.num.bits, c.num.bits), clmul(b.den.bits, c.den.bits)
        return _lowest_terms(clmul(ad_num, bc_den) ^ clmul(bc_num, ad_den), clmul(ad_den, bc_den))

    def trace(self) -> RationalFunction:
        return self.e11 + self.e22

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def projective_eq(self, other: Matrix2) -> bool:
        """Equal up to a nonzero scalar of the function field."""
        self._same_var(other)
        if self.is_zero() or other.is_zero():
            raise ValueError("projective equality undefined for the zero matrix")
        p, q = self.entries, other.entries
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] * q[j] != p[j] * q[i]:
                    return False
        return all(p[i].is_zero() == q[i].is_zero() for i in range(4))

    def _same_var(self, other: Matrix2) -> None:
        if self.var != other.var:
            raise ValueError(f"matrices over different fields: {self.var} vs {other.var}")

    def __str__(self) -> str:
        rows = [[e.to_string(self.var) for e in (self.e11, self.e12)],
                [e.to_string(self.var) for e in (self.e21, self.e22)]]
        return "[[" + ", ".join(rows[0]) + "], [" + ", ".join(rows[1]) + "]]"


class EmbeddingMap:
    """One of the two splitting embeddings, with its scalar substitution."""

    def __init__(self, name: str, var: str, image_i: Matrix2, image_j: Matrix2):
        self.name = name
        self.var = var
        self.image_i = image_i
        self.image_j = image_j
        self.image_ij = image_i * image_j
        self.identity = Matrix2.identity(var)
        # the four basis images as int matrices over one common denominator
        images = (self.identity, image_i, image_j, self.image_ij)
        *nums, self._image_den = _common_form([e for m in images for e in m.entries])
        self._image_nums = tuple(tuple(nums[4 * k : 4 * k + 4]) for k in range(4))
        # scalar embeddings recur constantly (ball checks, norm comparisons)
        self.embed_scalar = lru_cache(maxsize=1 << 16)(self._embed_scalar)

    def _embed_scalar(self, f: RationalFunction) -> RationalFunction:
        raise NotImplementedError

    def __call__(self, q: Quaternion) -> Matrix2:
        """Linear extension x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J)."""
        *xs, den = _common_form([self.embed_scalar(c) for c in q.coords])
        den = clmul(den, self._image_den)
        entries = [0, 0, 0, 0]
        for x, image in zip(xs, self._image_nums):
            if x:
                for k, m in enumerate(image):
                    if m:
                        entries[k] ^= clmul(x, m)
        return Matrix2(self.var, *(_lowest_terms(e, den) for e in entries))

    def __repr__(self) -> str:
        return f"EmbeddingMap({self.name})"


class _RhoY(EmbeddingMap):
    def _embed_scalar(self, f: RationalFunction) -> RationalFunction:
        # z -> y^2 + y
        sub = BinaryPoly(0b110)
        return RationalFunction(f.num.compose(sub), f.den.compose(sub))


class _RhoT(EmbeddingMap):
    def _embed_scalar(self, f: RationalFunction) -> RationalFunction:
        # z = 1/u, then u -> t^2 + t
        s = f.den.degree - f.num.degree
        num, den = f.num.reverse(), f.den.reverse()
        sub = BinaryPoly(0b110)
        out = RationalFunction(num.compose(sub), den.compose(sub))
        u_img = RationalFunction(sub, ONE)
        return out * u_img**s


def _build_rho_y() -> EmbeddingMap:
    y = rf(0b10)
    one_y = rf(0b11)
    # 1+z^3 with z = y^2+y
    b_img = RationalFunction(BinaryPoly(0b1001).compose(BinaryPoly(0b110)), ONE)
    image_i = Matrix2("y", y, ZERO_RF, ZERO_RF, one_y)
    image_j = Matrix2("y", ZERO_RF, b_img, ONE_RF, ZERO_RF)
    return _RhoY("rho_y", "y", image_i, image_j)


def _build_rho_t() -> EmbeddingMap:
    t = rf(0b10)
    u = rf(0b110)  # t^2 + t
    one = ONE_RF
    image_i = Matrix2(
        "t",
        one + u + t,
        one + u**3,
        u.inverse(),
        u + t,
    )
    image_j = Matrix2(
        "t",
        ZERO_RF,
        u.inverse() + u**2,
        (u * u).inverse(),
        ZERO_RF,
    )
    return _RhoT("rho_t", "t", image_i, image_j)


RHO_Y = _build_rho_y()
RHO_T = _build_rho_t()


def embed_scalar(f: RationalFunction, which: EmbeddingMap) -> RationalFunction:
    return which.embed_scalar(f)


def rho(q: Quaternion, which: EmbeddingMap) -> Matrix2:
    return which(q)
