"""Splittings of the algebra [z, 1+z^3) into 2x2 matrices.

Two quadratic extensions split the algebra: GF(2)(y) with y^2 + y = z and
GF(2)(t) with t^2 + t = u, u = 1/z.  Scalars are embedded by substituting
z = y^2 + y resp. z = 1/(t^2 + t); the generator images are

    rho_y(I) = [[y, 0], [0, 1+y]]        rho_y(J) = [[0, 1+z^3], [1, 0]]
    rho_t(I) = [[1+u+t, 1+u^3],          rho_t(J) = [[0, 1/u + u^2],
                [1/u,   u+t  ]]                      [1/u^2, 0      ]]

with u = t^2 + t substituted throughout.  Both satisfy the defining
relations, and det(rho(q)) equals the embedded reduced norm.

A Matrix2 is stored like a quaternion: four polynomial numerators over one
denominator, in lowest terms, with the entries as RationalFunction values
built only on demand; products, det and trace run on the stored ints.

An embedding works on the five ints a quaternion stores (numerators
n0..n3 over den) and never builds a fraction.  rho_y substitutes y^2 + y
into each int.  rho_t first reverses all five to one degree D, the largest
among them: n_k(1/u) / den(1/u) = u^D n_k(1/u) / u^D den(1/u), so the u^D
cancels and the reversed ints are the same element's numerators over a
denominator in u; then it substitutes t^2 + t.  Both maps keep the five
ints coprime.  The images are then summed against the four basis images,
precomputed as int matrices over one denominator, and reduced once.
`embed_scalar` is the same map on the two ints of a fraction, which stay
coprime, so its image is built without a gcd.
"""

from __future__ import annotations

from .binpoly import clmul, compose, reverse
from .quaternion import Quaternion
from .rational import ONE_RF, ZERO_RF, RationalFunction, _common_form, _reduce_over, rf


class Matrix2:
    """A 2x2 matrix over GF(2)(var), stored as four GF(2)[var] numerators
    (e11, e12, e21, e22) over one denominator, in lowest terms; the entries
    as reduced fractions are built on first use."""

    __slots__ = ("var", "_nums", "_den", "_entries")

    def __init__(
        self, var: str, e11: RationalFunction, e12: RationalFunction, e21: RationalFunction, e22: RationalFunction
    ) -> None:
        entries = (e11, e12, e21, e22)
        *nums, den = _common_form(entries)  # the lcm of reduced denominators: already in lowest terms
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def _from_ints(cls, var: str, nums: tuple[int, int, int, int], den: int) -> Matrix2:
        """The matrix with numerators `nums` over `den` (nonzero), reduced once."""
        m = object.__new__(cls)
        nums, den = _reduce_over(nums, den)
        object.__setattr__(m, "var", var)
        object.__setattr__(m, "_nums", nums)
        object.__setattr__(m, "_den", den)
        object.__setattr__(m, "_entries", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix2 is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (Matrix2, (self.var, *self.entries))

    @classmethod
    def identity(cls, var: str) -> Matrix2:
        return cls._from_ints(var, (1, 0, 0, 1), 1)

    @property
    def entries(self) -> tuple[RationalFunction, RationalFunction, RationalFunction, RationalFunction]:
        entries = self._entries
        if entries is None:
            entries = tuple(RationalFunction(x, self._den) for x in self._nums)
            object.__setattr__(self, "_entries", entries)
        return entries

    e11 = property(lambda self: self.entries[0])
    e12 = property(lambda self: self.entries[1])
    e21 = property(lambda self: self.entries[2])
    e22 = property(lambda self: self.entries[3])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix2):
            return NotImplemented
        return self.var == other.var and self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self.var, self._nums, self._den))

    def __repr__(self) -> str:
        return f"Matrix2({self.var!r}, {self})"

    def __mul__(self, other: Matrix2) -> Matrix2:
        self._same_var(other)
        a, b, c, d = self._nums
        e, f, g, h = other._nums
        nums = (
            clmul(a, e) ^ clmul(b, g),
            clmul(a, f) ^ clmul(b, h),
            clmul(c, e) ^ clmul(d, g),
            clmul(c, f) ^ clmul(d, h),
        )
        return Matrix2._from_ints(self.var, nums, clmul(self._den, other._den))

    def __add__(self, other: Matrix2) -> Matrix2:
        self._same_var(other)
        dp, dq = self._den, other._den
        nums = tuple(clmul(x, dq) ^ clmul(y, dp) for x, y in zip(self._nums, other._nums))
        return Matrix2._from_ints(self.var, nums, clmul(dp, dq))

    def scale(self, f: RationalFunction) -> Matrix2:
        nums = tuple(clmul(f.num, x) for x in self._nums)
        return Matrix2._from_ints(self.var, nums, clmul(f.den, self._den))

    def det(self) -> RationalFunction:
        a, b, c, d = self._nums
        return RationalFunction(clmul(a, d) ^ clmul(b, c), clmul(self._den, self._den))

    def trace(self) -> RationalFunction:
        a, _, _, d = self._nums
        return RationalFunction(a ^ d, self._den)

    def _same_var(self, other: Matrix2) -> None:
        if self.var != other.var:
            raise ValueError(f"matrices over different fields: {self.var} vs {other.var}")

    def __str__(self) -> str:
        rows = [[e.to_string(self.var) for e in (self.e11, self.e12)],
                [e.to_string(self.var) for e in (self.e21, self.e22)]]
        return "[[" + ", ".join(rows[0]) + "], [" + ", ".join(rows[1]) + "]]"


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
        numerators over one denominator in the extension's variable."""
        if self.inverted:
            degree = max(x.bit_length() for x in ints) - 1
            ints = [reverse(x, degree) for x in ints]
        return [compose(x, 0b110) for x in ints]

    def embed_scalar(self, f: RationalFunction) -> RationalFunction:
        return RationalFunction._coprime(*self._substitute((f.num, f.den)))

    def __call__(self, q: Quaternion) -> Matrix2:
        """Linear extension x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J)."""
        *xs, den = self._substitute((*q._nums, q._den))
        entries = [0, 0, 0, 0]
        for x, image in zip(xs, self._image_nums):
            if x:
                for k, m in enumerate(image):
                    if m:
                        entries[k] ^= clmul(x, m)
        return Matrix2._from_ints(self.var, tuple(entries), clmul(den, self._image_den))

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
