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

Products, norms, inverses and projective keys are computed on the raw
coefficient ints: the coordinates are put over one common denominator, the
numerators combined with carry-less products and XOR, and each output
coordinate reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binpoly import BinaryPoly, cldivmod, clgcd, clmul
from .rational import ONE_RF, ZERO_RF, RationalFunction, _common_form, _lowest_terms, parse_rational, rf


class AlgebraMismatchError(ValueError):
    pass


class NotInvertibleError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class QuaternionAlgebra:
    """The algebra [a,b) over GF(2)(var): I^2 = I + a, J^2 = b, JI = IJ + J."""

    a: RationalFunction
    b: RationalFunction
    var: str = "z"

    def __post_init__(self) -> None:
        if self.b.is_zero():
            raise ValueError("the parameter b must be nonzero")
        # the structure constants 1, a, b, ab over the common denominator of a and b
        na, da, nb, db = self.a.num.bits, self.a.den.bits, self.b.num.bits, self.b.den.bits
        object.__setattr__(self, "_ints", (clmul(da, db), clmul(na, db), clmul(da, nb), clmul(na, nb)))

    def element(self, x0: RationalFunction, x1: RationalFunction, x2: RationalFunction, x3: RationalFunction) -> Quaternion:
        return Quaternion(self, (x0, x1, x2, x3))

    def scalar(self, f: RationalFunction) -> Quaternion:
        return self.element(f, ZERO_RF, ZERO_RF, ZERO_RF)

    def one(self) -> Quaternion:
        return self.scalar(ONE_RF)

    def zero(self) -> Quaternion:
        return self.scalar(ZERO_RF)

    def gen_i(self) -> Quaternion:
        return self.element(ZERO_RF, ONE_RF, ZERO_RF, ZERO_RF)

    def gen_j(self) -> Quaternion:
        return self.element(ZERO_RF, ZERO_RF, ONE_RF, ZERO_RF)

    def gen_ij(self) -> Quaternion:
        return self.element(ZERO_RF, ZERO_RF, ZERO_RF, ONE_RF)


@dataclass(frozen=True)
class Quaternion:
    """An element x0 + x1*I + x2*J + x3*IJ with reduced-fraction coordinates."""

    algebra: QuaternionAlgebra
    coords: tuple[RationalFunction, RationalFunction, RationalFunction, RationalFunction]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def is_scalar(self) -> bool:
        return all(c.is_zero() for c in self.coords[1:])

    def __add__(self, other: Quaternion) -> Quaternion:
        self._same_algebra(other)
        return Quaternion(self.algebra, tuple(p + q for p, q in zip(self.coords, other.coords)))

    __sub__ = __add__

    def __mul__(self, other: Quaternion) -> Quaternion:
        self._same_algebra(other)
        one, a, b, ab = self.algebra._ints
        p0, p1, p2, p3, dp = _common_form(self.coords)
        q0, q1, q2, q3, dq = _common_form(other.coords)
        p1q1, p2q1, p2q3 = clmul(p1, q1), clmul(p2, q1), clmul(p2, q3)
        z0 = clmul(p0, q0)
        z1 = clmul(p0, q1) ^ clmul(p1, q0) ^ p1q1
        z2 = clmul(p0, q2) ^ clmul(p2, q0) ^ p2q1
        z3 = clmul(p0, q3) ^ clmul(p3, q0) ^ clmul(p1, q2 ^ q3) ^ p2q1
        den = clmul(dp, dq)
        if one != 1:  # a or b is not a polynomial
            z0, z1, z2, z3, den = (clmul(one, x) for x in (z0, z1, z2, z3, den))
        z0 ^= clmul(a, p1q1) ^ clmul(b, clmul(p2, q2) ^ p2q3) ^ clmul(ab, clmul(p3, q3))
        z1 ^= clmul(b, p2q3 ^ clmul(p3, q2))
        z2 ^= clmul(a, clmul(p1, q3) ^ clmul(p3, q1))
        return Quaternion(self.algebra, tuple(_lowest_terms(z, den) for z in (z0, z1, z2, z3)))

    def scale(self, f: RationalFunction) -> Quaternion:
        return Quaternion(self.algebra, tuple(f * c for c in self.coords))

    def conj(self) -> Quaternion:
        x0, x1, x2, x3 = self.coords
        return Quaternion(self.algebra, (x0 + x1, x1, x2, x3))

    def rnorm(self) -> RationalFunction:
        """Reduced norm x0^2 + x0x1 + a*x1^2 + b*(x2^2 + x2x3 + a*x3^2)."""
        return _lowest_terms(*self._norm_bits())

    def _norm_bits(self) -> tuple[int, int]:
        """The reduced norm as an unreduced (numerator, denominator) pair."""
        one, a, b, ab = self.algebra._ints
        x0, x1, x2, x3, den = _common_form(self.coords)
        num = (
            clmul(one, clmul(x0, x0 ^ x1))
            ^ clmul(a, clmul(x1, x1))
            ^ clmul(b, clmul(x2, x2 ^ x3))
            ^ clmul(ab, clmul(x3, x3))
        )
        return num, clmul(one, clmul(den, den))

    def rtrace(self) -> RationalFunction:
        return self.coords[1]

    def inverse(self) -> Quaternion:
        """conj(q) / nrd(q)."""
        n_num, n_den = self._norm_bits()
        if n_num == 0:
            raise NotInvertibleError("element has reduced norm zero")
        x0, x1, x2, x3, den = _common_form(self.coords)
        den = clmul(den, n_num)
        return Quaternion(self.algebra, tuple(_lowest_terms(clmul(x, n_den), den) for x in (x0 ^ x1, x1, x2, x3)))

    def projective_eq(self, other: Quaternion) -> bool:
        """Equality in the projectivization: p = lambda*q for a nonzero scalar."""
        self._same_algebra(other)
        if self.is_zero() != other.is_zero():
            return False
        return self.projective_canon() == other.projective_canon()

    def projective_canon(self) -> tuple[int, int, int, int]:
        """Canonical representative: the primitive coordinate 4-tuple over
        GF(2)[z].  The coordinates over a common denominator, divided by
        their gcd; the only unit of GF(2)[z] is 1, so the tuple is unique."""
        *xs, _ = _common_form(self.coords)
        content = 0
        for x in xs:
            if x:
                content = clgcd(x, content) if content else x
        if content == 0:
            raise ValueError("zero element has no projective representative")
        if content == 1:
            return tuple(xs)
        return tuple(cldivmod(x, content)[0] for x in xs)

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


@dataclass(frozen=True)
class NamedElements:
    B1: Quaternion
    B2: Quaternion
    C1: Quaternion
    C2: Quaternion
    D: Quaternion


def named_elements(algebra: QuaternionAlgebra | None = None) -> NamedElements:
    """B1 = (1+z)I + J, B2 = z+z^2 + (1+z)I + J + IJ, C1 = 1+z^2 + IJ,
    C2 = z+z^2 + IJ, D = 1+z+z^2 + IJ."""
    alg = algebra or standard_algebra()
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
# groups generated by the listed irreducibles.
RING_UNITS = {
    "R0": (BinaryPoly(0b10),),
    "R1": (BinaryPoly(0b10), BinaryPoly(0b11)),
    "R": (BinaryPoly(0b10), BinaryPoly(0b11), BinaryPoly(0b111)),
}


def is_ring_unit(f: RationalFunction, ring: str) -> bool:
    """True iff f is a unit of the named ring (numerator and denominator
    factor entirely into the ring's inverted irreducibles)."""
    if f.is_zero():
        return False
    gens = RING_UNITS[ring]
    for part in (f.num, f.den):
        p = part
        for g in gens:
            while True:
                q, r = divmod(p, g)
                if r.bits:
                    break
                p = q
        if not p.is_one():
            return False
    return True


def invertible_over(q: Quaternion, ring: str) -> bool:
    """True iff the element lies in the unit group of the order over the ring."""
    return is_ring_unit(q.rnorm(), ring)
