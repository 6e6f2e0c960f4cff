"""Splittings of the algebra [z, 1+z^3) into 2x2 matrices.

Two quadratic extensions split the algebra: GF(2)(y) with y^2 + y = z and
GF(2)(t) with t^2 + t = u, u = 1/z.  Scalars are embedded by substituting
z = y^2 + y resp. z = 1/(t^2 + t); the generator images are

    rho_y(I) = [[y, 0], [0, 1+y]]        rho_y(J) = [[0, 1+z^3], [1, 0]]
    rho_t(I) = [[1+u+t, 1+u^3],          rho_t(J) = [[0, 1/u + u^2],
                [1/u,   u+t  ]]                      [1/u^2, 0      ]]

with u = t^2 + t substituted throughout.  Both satisfy the defining
relations, and det(rho(q)) equals the embedded reduced norm.

A Matrix2 is stored like a quaternion, in the form that
`rational.OverOneDenominator` states once; products and det run on the
stored ints.

An embedding works on the five ints a quaternion stores (numerators
n0..n3 over den) and never builds a fraction.  Substituting x^2 + x is
GF(2)-linear, so an int's image XORs precomputed powers (x^2 + x)^k over its
set bits k.  rho_y reads the table from the bottom, rho_t from the top: bit k
takes (t^2 + t)^(D-k), D the largest degree among the five, which substitutes
the reversal u^D n_k(1/u); the u^D cancels over the common denominator.  Both
maps keep the five ints coprime.  Each image then scales its basis image's
row of four ints as `Quaternion.__mul__` scales its rows, the bit x^k adding
the row times 2^k, so a call makes one `clmul`, for the denominator, and
reduces once.  `embed_scalar` is the same map on the two ints of a fraction,
which stay coprime, so its image is built without a gcd.
"""

from __future__ import annotations

from operator import attrgetter

from .binpoly import clmul, compose
from .quaternion import AlgebraMismatchError, Quaternion, standard_algebra
from .rational import ONE_RF, ZERO_RF, OverOneDenominator, RationalFunction, _common_form, rf


class Matrix2(OverOneDenominator):
    """A 2x2 matrix over GF(2)(var) whose `entries` e11, e12, e21, e22 are
    stored in the form of `rational.OverOneDenominator`.  `tree.act` keeps
    its images in that form's `_memo` slot when the matrix carries a memo,
    which only `certify.ball_check` gives."""

    __slots__ = ()

    def __init__(
        self, var: str, e11: RationalFunction, e12: RationalFunction, e21: RationalFunction, e22: RationalFunction
    ) -> None:
        super().__init__(var, (e11, e12, e21, e22))

    @classmethod
    def identity(cls, var: str) -> Matrix2:
        return cls._from_ints(var, (1, 0, 0, 1), 1)

    var = property(attrgetter("_tag"))
    entries = OverOneDenominator._fractions

    def __repr__(self) -> str:
        return f"Matrix2({self.var!r}, {self})"

    def __mul__(self, other: Matrix2) -> Matrix2:
        self._same_tag(other)
        a, b, c, d = self._nums
        e, f, g, h = other._nums
        nums = (
            clmul(a, e) ^ clmul(b, g),
            clmul(a, f) ^ clmul(b, h),
            clmul(c, e) ^ clmul(d, g),
            clmul(c, f) ^ clmul(d, h),
        )
        return Matrix2._from_ints(self._tag, nums, clmul(self._den, other._den))

    def det(self) -> RationalFunction:
        a, b, c, d = self._nums
        return RationalFunction(clmul(a, d) ^ clmul(b, c), clmul(self._den, self._den))

    def __str__(self) -> str:
        e11, e12, e21, e22 = (e.to_string(self.var) for e in self.entries)
        return f"[[{e11}, {e12}], [{e21}, {e22}]]"


# (x^2 + x)^k at index k; grows on demand to the largest degree substituted
_SQUARE_PLUS_POWERS = [1]

_SPLIT = standard_algebra()  # the algebra that both maps split


class EmbeddingMap:
    """One of the two splitting embeddings: z = y^2 + y, or with `inverted`
    z = 1/u and u = t^2 + t."""

    def __init__(self, name: str, var: str, image_i: Matrix2, image_j: Matrix2, inverted: bool):
        self.name = name
        self.var = var
        self.inverted = inverted
        self.image_i = image_i
        self.image_j = image_j
        self.image_ij = image_i * image_j
        self.identity = Matrix2.identity(var)
        # the four basis images as int matrices over one common denominator
        images = (self.identity, image_i, image_j, self.image_ij)
        *nums, self._image_den = _common_form([e for m in images for e in m.entries])
        self._image_nums = tuple(tuple(nums[4 * k : 4 * k + 4]) for k in range(4))

    def _substitute(self, ints: tuple[int, ...]) -> list[int]:
        """The images of numerators over one denominator (the last int), as
        numerators over one denominator in the extension's variable; bit k
        reads (x^2 + x)^k, or (x^2 + x)^(D-k) with D the largest degree."""
        powers = _SQUARE_PLUS_POWERS
        top = max(x.bit_length() for x in ints)
        while len(powers) < top:
            powers.append(clmul(powers[-1], 0b110))
        powers = powers[top - 1 :: -1] if self.inverted else powers
        out = []
        for x in ints:
            image = 0
            while x:
                low = x & -x
                image ^= powers[low.bit_length() - 1]
                x ^= low
            out.append(image)
        return out

    def embed_scalar(self, f: RationalFunction) -> RationalFunction:
        return RationalFunction._coprime(*self._substitute((f.num, f.den)))

    def __call__(self, q: Quaternion) -> Matrix2:
        """Linear extension x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J),
        each row scaled in one loop over its coordinate's set bits: one
        `clmul`, for the denominator, once the table of powers is long enough.
        An element of an algebra other than [z, 1+z^3) is refused."""
        if q._tag is not _SPLIT and q._tag != _SPLIT:
            raise AlgebraMismatchError(f"{self.name} splits [z, 1+z^3) only, not {q._tag!r}")
        *xs, den = self._substitute((*q._nums, q._den))
        e0 = e1 = e2 = e3 = 0
        for x, (m0, m1, m2, m3) in zip(xs, self._image_nums):
            while x:
                low = x & -x
                e0 ^= m0 * low
                e1 ^= m1 * low
                e2 ^= m2 * low
                e3 ^= m3 * low
                x ^= low
        return Matrix2._from_ints(self.var, (e0, e1, e2, e3), clmul(den, self._image_den))

    def __repr__(self) -> str:
        return f"EmbeddingMap({self.name})"


def _build_rho_y() -> EmbeddingMap:
    y = rf(0b10)
    one_y = rf(0b11)
    b_img = rf(compose(0b1001, 0b110))  # 1+z^3 with z = y^2+y
    image_i = Matrix2("y", y, ZERO_RF, ZERO_RF, one_y)
    image_j = Matrix2("y", ZERO_RF, b_img, ONE_RF, ZERO_RF)
    return EmbeddingMap("rho_y", "y", image_i, image_j, inverted=False)


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
    return EmbeddingMap("rho_t", "t", image_i, image_j, inverted=True)


RHO_Y = _build_rho_y()
RHO_T = _build_rho_t()
