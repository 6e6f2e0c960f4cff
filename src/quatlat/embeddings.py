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
stored ints, det by set-bit loops with no `clmul` call.

An embedding works on the five ints a quaternion stores (numerators n0..n3
over den) and never builds a fraction.  It is GF(2)-linear in each int, so
each map keeps a table, grown with the largest degree embedded (not with the
number of calls) and kept for the process: row k holds (x^2 + x)^k times the
basis images and their denominator.  RHO_Y and RHO_T are grown at import
to the rows that the named elements read, so no certificate's first
embedding grows them.  A call XORs one row per set bit: rho_y
row k for bit k, rho_t row D-k, D the largest degree among the five, which
substitutes the reversal u^D n(1/u); the u^D cancels.  Both read their rows
through one offset (see `EmbeddingMap._table`), with no copy of the table.
So a call makes no `clmul` and reduces once.  `embed_scalar` keeps the two
ints of a fraction coprime, so its image is built without a gcd.
"""

from __future__ import annotations

from operator import attrgetter

from .binpoly import cldet, clmul, compose, square
from .quaternion import AlgebraMismatchError, Quaternion, named_elements, standard_algebra
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
        """(ad + bc) / den^2 by set-bit loops, with no `clmul` call."""
        return RationalFunction(cldet(*self._nums), square(self._den))

    def __str__(self) -> str:
        e11, e12, e21, e22 = (e.to_string(self.var) for e in self.entries)
        return f"[[{e11}, {e12}], [{e21}, {e22}]]"


_SPLIT = standard_algebra()  # the algebra that both maps split


def _xor_scalars(rows: list, off: int, x: int, i: int) -> int:
    """XOR of entry i of the scalars (denominator, power) of the row that each
    set bit x^k of x reads, rows[off - (k + 1)] (see `EmbeddingMap._table`)."""
    out = 0
    while x:
        low = x & -x
        out ^= rows[off - low.bit_length()][4][i]
        x ^= low
    return out


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
        images = (self.identity, image_i, image_j, self.image_ij)
        # row k: (x^2 + x)^k times each basis image's four numerators over their
        # common denominator, then the scalars (x^2 + x)^k times it, and (x^2 + x)^k
        *nums, den = _common_form([e for m in images for e in m.entries])
        self._rows = [(*(tuple(nums[c : c + 4]) for c in (0, 4, 8, 12)), (den, 1))]

    def _table(self, top: int) -> tuple[list, int]:
        """The rows, grown on demand to at least `top`, and the offset `off`
        from which a set bit x^k reads rows[off - (k + 1)], with no copy of
        the list.  rho_t reads (x^2 + x)^(top-1-k), row top-1-k of its rows
        kept in order, so off = top.  rho_y reads (x^2 + x)^k and keeps its
        rows newest first, row k at index -(k + 1), so off = 0."""
        rows, inverted = self._rows, self.inverted
        while len(rows) < top:  # the newest row times x^2 + x: a shift by 1 XOR a shift by 2
            row = tuple(tuple(x << 1 ^ x << 2 for x in part) for part in rows[-1 if inverted else 0])
            rows.insert(len(rows) if inverted else 0, row)
        return rows, top if inverted else 0

    def embed_scalar(self, f: RationalFunction) -> RationalFunction:
        """f at z = y^2 + y resp. z = 1/(t^2 + t), built without a gcd: the images stay coprime."""
        rows, off = self._table((f.num | f.den).bit_length())
        return RationalFunction._coprime(_xor_scalars(rows, off, f.num, 1), _xor_scalars(rows, off, f.den, 1))

    def __call__(self, q: Quaternion) -> Matrix2:
        """Linear extension x0*Id + x1*rho(I) + x2*rho(J) + x3*rho(I)rho(J):
        a set bit of coordinate c XORs basis image c of its row into the four
        entries, so a call makes no `clmul` and reduces once.  An element of
        an algebra other than [z, 1+z^3) is refused."""
        if q._tag is not _SPLIT and q._tag != _SPLIT:
            raise AlgebraMismatchError(f"{self.name} splits [z, 1+z^3) only, not {q._tag!r}")
        n0, n1, n2, n3 = nums = q._nums
        rows, off = self._table((n0 | n1 | n2 | n3 | q._den).bit_length())
        e0 = e1 = e2 = e3 = 0
        for c, x in enumerate(nums):
            while x:
                low = x & -x
                m0, m1, m2, m3 = rows[off - low.bit_length()][c]
                e0 ^= m0
                e1 ^= m1
                e2 ^= m2
                e3 ^= m3
                x ^= low
        return Matrix2._from_ints(self.var, (e0, e1, e2, e3), _xor_scalars(rows, off, q._den, 0))

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
# both grown now to the bit length of the named elements' ints, the rows
# every certificate reads, so no certificate's first embedding grows them
_NAMED_BITS = max(x.bit_length() for q in named_elements() for x in (*q._nums, q._den))
RHO_Y._table(_NAMED_BITS)
RHO_T._table(_NAMED_BITS)
