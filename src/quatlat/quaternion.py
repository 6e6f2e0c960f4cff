"""Quaternion algebras [a,b) in characteristic 2 and their element arithmetic.

The algebra has basis 1, I, J, IJ over the rational function field, with
I^2 = I + a, J^2 = b and JI = IJ + J.  The full basis multiplication table
is derived from those three relations (e.g. IJ*I = aJ, J*IJ = bI + b,
(IJ)^2 = ab) and is locked in by the associativity, Cayley-Hamilton and
matrix-embedding tests rather than trusted on faith.

Conjugation is the K-linear anti-involution with I -> I+1, J -> J, IJ -> IJ;
in coordinates (x0, x1, x2, x3) it is (x0+x1, x1, x2, x3).  The reduced norm
q*conj(q) is the scalar x0^2 + x0x1 + a*x1^2 + b*(x2^2 + x2x3 + a*x3^2), which
is how it is computed, and the reduced trace q + conj(q) is x1.

An element is stored the way the arithmetic uses it: four GF(2)[z]
numerators over one denominator, with gcd(n0, n1, n2, n3, den) = 1.  Since
1 is the only unit of GF(2)[z], that form is canonical, so == and hash read
it directly; the coordinates as RationalFunction values are only a view,
built on demand.  A product combines the numerators with carry-less
products and XOR against the structure constants of the algebra and divides
the five output ints by their gcd once.  The norm, inverse and conjugate
read the stored ints, and the projective key is the numerator 4-tuple
divided by its gcd (the denominator is a scalar).
"""

from __future__ import annotations

from collections import namedtuple

from .binpoly import cldivmod, clmul
from .rational import (
    ONE_RF,
    ZERO_RF,
    RationalFunction,
    _common_form,
    _primitive_part,
    _reduce_over,
    parse_rational,
    rf,
)


class AlgebraMismatchError(ValueError):
    pass


class NotInvertibleError(ZeroDivisionError):
    pass


class QuaternionAlgebra:
    """The algebra [a,b) over GF(2)(var): I^2 = I + a, J^2 = b, JI = IJ + J."""

    __slots__ = ("a", "b", "var", "_ints")

    def __init__(self, a: RationalFunction, b: RationalFunction, var: str = "z") -> None:
        if b.is_zero():
            raise ValueError("the parameter b must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "var", var)
        # the structure constants 1, a, b, ab over the common denominator of a and b
        na, da, nb, db = a.num, a.den, b.num, b.den
        object.__setattr__(self, "_ints", (clmul(da, db), clmul(na, db), clmul(da, nb), clmul(na, nb)))

    def __setattr__(self, name, value):
        raise AttributeError(f"QuaternionAlgebra is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (QuaternionAlgebra, (self.a, self.b, self.var))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuaternionAlgebra):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.var == other.var

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.var))

    def element(self, x0: RationalFunction, x1: RationalFunction, x2: RationalFunction, x3: RationalFunction) -> Quaternion:
        return Quaternion(self, (x0, x1, x2, x3))

    def scalar(self, f: RationalFunction) -> Quaternion:
        return self.element(f, ZERO_RF, ZERO_RF, ZERO_RF)

    def one(self) -> Quaternion:
        return self.scalar(ONE_RF)

    def gen_i(self) -> Quaternion:
        return self.element(ZERO_RF, ONE_RF, ZERO_RF, ZERO_RF)

    def gen_j(self) -> Quaternion:
        return self.element(ZERO_RF, ZERO_RF, ONE_RF, ZERO_RF)

    def gen_ij(self) -> Quaternion:
        return self.element(ZERO_RF, ZERO_RF, ZERO_RF, ONE_RF)


class Quaternion:
    """An element x0 + x1*I + x2*J + x3*IJ.

    Stored as four GF(2)[z] numerators over one denominator, with
    gcd(n0, n1, n2, n3, den) = 1.  The only unit of GF(2)[z] is 1, so this
    form is unique: equality and hashing compare it directly.  The
    coordinates x_k = n_k / den as reduced fractions (`coords`) are built on
    first use, or kept when the element was made from them.
    """

    __slots__ = ("algebra", "_nums", "_den", "_coords")

    def __init__(self, algebra: QuaternionAlgebra, coords) -> None:
        coords = tuple(coords)
        if len(coords) != 4:
            raise ValueError("a quaternion has four coordinates")
        *nums, den = _common_form(coords)  # the lcm of reduced denominators: already in lowest terms
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coords", coords)

    @classmethod
    def _from_ints(cls, algebra: QuaternionAlgebra, nums: tuple[int, int, int, int], den: int) -> Quaternion:
        """The element with numerators `nums` over `den` (nonzero), reduced once."""
        q = object.__new__(cls)
        nums, den = _reduce_over(nums, den)
        object.__setattr__(q, "algebra", algebra)
        object.__setattr__(q, "_nums", nums)
        object.__setattr__(q, "_den", den)
        object.__setattr__(q, "_coords", None)
        return q

    def __setattr__(self, name, value):
        raise AttributeError(f"Quaternion is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (Quaternion, (self.algebra, self.coords))

    @property
    def coords(self) -> tuple[RationalFunction, RationalFunction, RationalFunction, RationalFunction]:
        coords = self._coords
        if coords is None:
            coords = tuple(RationalFunction(x, self._den) for x in self._nums)
            object.__setattr__(self, "_coords", coords)
        return coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (
            self._nums == other._nums
            and self._den == other._den
            and (self.algebra is other.algebra or self.algebra == other.algebra)
        )

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"Quaternion({self.to_string()!r})"

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_scalar(self) -> bool:
        return not any(self._nums[1:])

    def __add__(self, other: Quaternion) -> Quaternion:
        self._same_algebra(other)
        dp, dq = self._den, other._den
        nums = tuple(clmul(x, dq) ^ clmul(y, dp) for x, y in zip(self._nums, other._nums))
        return Quaternion._from_ints(self.algebra, nums, clmul(dp, dq))

    __sub__ = __add__

    def __mul__(self, other: Quaternion) -> Quaternion:
        self._same_algebra(other)
        one, a, b, ab = self.algebra._ints
        p0, p1, p2, p3 = self._nums
        q0, q1, q2, q3 = other._nums
        p1q1, p2q1, p2q3 = clmul(p1, q1), clmul(p2, q1), clmul(p2, q3)
        z0 = clmul(p0, q0)
        z1 = clmul(p0, q1) ^ clmul(p1, q0) ^ p1q1
        z2 = clmul(p0, q2) ^ clmul(p2, q0) ^ p2q1
        z3 = clmul(p0, q3) ^ clmul(p3, q0) ^ clmul(p1, q2 ^ q3) ^ p2q1
        den = clmul(self._den, other._den)
        if one != 1:  # a or b is not a polynomial
            z0, z1, z2, z3, den = (clmul(one, x) for x in (z0, z1, z2, z3, den))
        z0 ^= clmul(a, p1q1) ^ clmul(b, clmul(p2, q2) ^ p2q3) ^ clmul(ab, clmul(p3, q3))
        z1 ^= clmul(b, p2q3 ^ clmul(p3, q2))
        z2 ^= clmul(a, clmul(p1, q3) ^ clmul(p3, q1))
        return Quaternion._from_ints(self.algebra, (z0, z1, z2, z3), den)

    def scale(self, f: RationalFunction) -> Quaternion:
        nums = tuple(clmul(f.num, x) for x in self._nums)
        return Quaternion._from_ints(self.algebra, nums, clmul(f.den, self._den))

    def rnorm(self) -> RationalFunction:
        """Reduced norm x0^2 + x0x1 + a*x1^2 + b*(x2^2 + x2x3 + a*x3^2)."""
        den = self._den
        return RationalFunction(self._norm_num(), clmul(self.algebra._ints[0], clmul(den, den)))

    def _norm_num(self) -> int:
        """The numerator of the reduced norm over one * den^2, where `one` is
        the common denominator of a and b."""
        one, a, b, ab = self.algebra._ints
        x0, x1, x2, x3 = self._nums
        return (
            clmul(one, clmul(x0, x0 ^ x1))
            ^ clmul(a, clmul(x1, x1))
            ^ clmul(b, clmul(x2, x2 ^ x3))
            ^ clmul(ab, clmul(x3, x3))
        )

    def rtrace(self) -> RationalFunction:
        return RationalFunction(self._nums[1], self._den)

    def inverse(self) -> Quaternion:
        """conj(q) / nrd(q) = conj(n) * one * den / norm numerator."""
        norm = self._norm_num()
        if norm == 0:
            raise NotInvertibleError("element has reduced norm zero")
        x0, x1, x2, x3 = self._nums
        f = clmul(self.algebra._ints[0], self._den)
        return Quaternion._from_ints(self.algebra, tuple(clmul(f, x) for x in (x0 ^ x1, x1, x2, x3)), norm)

    def projective_canon(self) -> tuple[int, int, int, int]:
        """Canonical representative: the primitive coordinate 4-tuple over
        GF(2)[z], the stored numerators divided by their gcd."""
        return _primitive_part(self._nums)

    def _same_algebra(self, other: Quaternion) -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatchError("elements of different quaternion algebras")

    def to_string(self) -> str:
        var = self.algebra.var
        parts = []
        for coord, name in zip(self.coords, ("", "I", "J", "IJ")):
            if coord.is_zero():
                continue
            text = coord.to_string(var)
            if not name:
                parts.append(text)
            elif text == "1":
                parts.append(name)
            else:
                if "+" in text or "/" in text:
                    text = f"({text})"
                parts.append(f"{text}*{name}")
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.to_string()


def parse_quaternion(text: str, algebra: QuaternionAlgebra) -> Quaternion:
    """Parse "x0 + x1*I + x2*J + x3*IJ"; components are rational functions."""
    coords = [ZERO_RF, ZERO_RF, ZERO_RF, ZERO_RF]
    slot = {"": 0, "I": 1, "J": 2, "IJ": 3}
    for part in text.split(" + "):
        part = part.strip()
        if not part or part == "0":
            continue
        name = ""
        if part.endswith("*IJ"):
            name, part = "IJ", part[:-3]
        elif part.endswith("*J"):
            name, part = "J", part[:-2]
        elif part.endswith("*I"):
            name, part = "I", part[:-2]
        elif part == "IJ":
            name, part = "IJ", "1"
        elif part == "J":
            name, part = "J", "1"
        elif part == "I":
            name, part = "I", "1"
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        coords[slot[name]] = coords[slot[name]] + parse_rational(part, algebra.var)
    return Quaternion(algebra, tuple(coords))


# -- the standard algebra and its distinguished elements ------------------


def standard_algebra() -> QuaternionAlgebra:
    """The algebra [z, 1+z^3) over GF(2)(z)."""
    return QuaternionAlgebra(rf(0b10), rf(0b1001), "z")


NamedElements = namedtuple("NamedElements", "B1 B2 C1 C2 D")


def named_elements() -> NamedElements:
    """B1 = (1+z)I + J, B2 = z+z^2 + (1+z)I + J + IJ, C1 = 1+z^2 + IJ,
    C2 = z+z^2 + IJ, D = 1+z+z^2 + IJ in the standard algebra."""
    alg = standard_algebra()
    one_z = rf(0b11)  # 1+z
    z_zsq = rf(0b110)  # z+z^2
    return NamedElements(
        B1=alg.element(ZERO_RF, one_z, ONE_RF, ZERO_RF),
        B2=alg.element(z_zsq, one_z, ONE_RF, ONE_RF),
        C1=alg.element(rf(0b101), ZERO_RF, ZERO_RF, ONE_RF),
        C2=alg.element(z_zsq, ZERO_RF, ZERO_RF, ONE_RF),
        D=alg.element(rf(0b111), ZERO_RF, ZERO_RF, ONE_RF),
    )


# Unit groups of the coefficient rings used for integrality tests: the rings
# GF(2)[z, 1/z], GF(2)[z, 1/(z(1+z))] and GF(2)[z, 1/(z(1+z^3))] have unit
# groups generated by the listed irreducibles (GF(2)[z] ints: z, 1+z, 1+z+z^2).
RING_UNITS = {
    "R0": (0b10,),
    "R1": (0b10, 0b11),
    "R": (0b10, 0b11, 0b111),
}


def is_ring_unit(f: RationalFunction, ring: str) -> bool:
    """True iff f is a unit of the named ring (numerator and denominator
    factor entirely into the ring's inverted irreducibles)."""
    if f.is_zero():
        return False
    for p in (f.num, f.den):
        for g in RING_UNITS[ring]:
            while True:
                q, r = cldivmod(p, g)
                if r:
                    break
                p = q
        if p != 1:
            return False
    return True
