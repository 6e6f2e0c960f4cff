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

An element is stored in the form that `rational.OverOneDenominator` states
once: four GF(2)[z] numerators over one denominator.  The product, the norm
and the inverse scale by set bits where they would multiply, over the left
factor's coordinates and the structure constants a and b (ab q3 is a (b q3)),
so only a product of two denominators other than 1 calls `clmul`; each
method's docstring says how.  The projective key is the numerator 4-tuple
divided by its gcd (the denominator is a scalar).
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter, itemgetter

from .binpoly import cldet, clmul, multiplicity, square
from .rational import (
    ONE_RF,
    ZERO_RF,
    OverOneDenominator,
    RationalFunction,
    _primitive_part,
    rf,
)


class NotInvertibleError(ZeroDivisionError):
    pass


class QuaternionAlgebra(tuple):
    """The algebra [a,b) over GF(2)(var): I^2 = I + a, J^2 = b, JI = IJ + J.

    The tuple (a, b, var, _ints), where `_ints` holds the structure constants
    a and b as GF(2)[var] ints: both must be polynomials."""

    __slots__ = ()

    def __new__(cls, a: RationalFunction, b: RationalFunction, var: str = "z") -> QuaternionAlgebra:
        if b.is_zero():
            raise ValueError("the parameter b must be nonzero")
        if a.den != 1 or b.den != 1:
            raise ValueError("the parameters a and b must be polynomials")
        return tuple.__new__(cls, (a, b, var, (a.num, b.num)))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    var = property(itemgetter(2))
    _ints = property(itemgetter(3))

    def __getnewargs__(self) -> tuple[RationalFunction, RationalFunction, str]:  # copy and pickle through __new__
        return self[:3]

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


class Quaternion(OverOneDenominator):
    """An element x0 + x1*I + x2*J + x3*IJ of `algebra`, built from the four
    `coords` and stored in the form of `rational.OverOneDenominator`."""

    __slots__ = ()

    algebra = property(attrgetter("_tag"))  # the methods read the slot, which saves a call per read
    coords = OverOneDenominator._fractions

    def __repr__(self) -> str:
        return f"Quaternion({self.to_string()!r})"

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_scalar(self) -> bool:
        return not any(self._nums[1:])

    def __mul__(self, other: Quaternion) -> Quaternion:
        """p*q = p0*q + p1*(I q) + p2*(J q) + p3*(IJ q), one left coordinate
        at a time, with

            I q  = (a q1, q0+q1, a q3, q2+q3),
            J q  = (b (q2+q3), b q3, q0+q1, q1),
            IJ q = (ab q3, b q2, a q1, q0).

        Each row of four is scaled by its left coordinate in one loop over
        that coordinate's set bits, the bit x^k adding the row times 2^k to
        the four outputs, so a zero left coordinate costs nothing.  The
        structure constants are applied the same way, each only when a
        nonzero row needs it: one loop over the bits of b makes b q2 and
        b q3, then one over the bits of a makes a q1, a q3 and ab q3 as
        a (b q3).
        The denominator is the other factor's when one of the two is 1.  So
        a right coordinate 0 or 1 costs one multiply like any other, and a
        product makes no `clmul` call when either denominator is 1, and one
        call, for the denominator, when neither is.

        The memo is read and filled, never created: only when this factor
        carries one (`certify.ball_check` gives one to each generator; every
        other value has `_memo` None) and `other` is over denominator 1 is
        the product kept there under `other`'s numerator tuple, which
        allocates no key, and a repeated product returns the stored one."""
        if other._tag is not self._tag:
            self._same_tag(other)
        nums, other_den = other._nums, other._den
        memo = self._memo if other_den == 1 else None
        if memo is not None:
            product = memo.get(nums)
            if product is not None:
                return product
        a, b = self._tag._ints
        p0, p1, p2, p3 = self._nums
        q0, q1, q2, q3 = nums
        den = self._den
        if den == 1:
            den = other_den
        elif other_den != 1:
            den = clmul(den, other_den)
        z0 = z1 = z2 = z3 = 0
        while p0:  # q
            low = p0 & -p0
            z0 ^= q0 * low
            z1 ^= q1 * low
            z2 ^= q2 * low
            z3 ^= q3 * low
            p0 ^= low
        bq2 = bq3 = 0
        if p2 or p3:
            x = b
            while x:
                low = x & -x
                bq2 ^= q2 * low
                bq3 ^= q3 * low
                x ^= low
        if p1 or p3:
            aq1 = aq3 = abq3 = 0
            x = a
            while x:
                low = x & -x
                aq1 ^= q1 * low
                aq3 ^= q3 * low
                abq3 ^= bq3 * low
                x ^= low
        if p1:  # I q
            r1 = q0 ^ q1
            r3 = q2 ^ q3
            while p1:
                low = p1 & -p1
                z0 ^= aq1 * low
                z1 ^= r1 * low
                z2 ^= aq3 * low
                z3 ^= r3 * low
                p1 ^= low
        if p2:  # J q
            r0 = bq2 ^ bq3
            r2 = q0 ^ q1
            while p2:
                low = p2 & -p2
                z0 ^= r0 * low
                z1 ^= bq3 * low
                z2 ^= r2 * low
                z3 ^= q1 * low
                p2 ^= low
        if p3:  # IJ q
            while p3:
                low = p3 & -p3
                z0 ^= abq3 * low
                z1 ^= bq2 * low
                z2 ^= aq1 * low
                z3 ^= q0 * low
                p3 ^= low
        product = Quaternion._from_ints(self._tag, (z0, z1, z2, z3), den)
        if memo is not None:
            memo[nums] = product
        return product

    def rnorm(self) -> RationalFunction:
        """Reduced norm x0^2 + x0x1 + a*x1^2 + b*(x2^2 + x2x3 + a*x3^2)."""
        return RationalFunction(self._norm_num(), square(self._den))

    def _norm_num(self) -> int:
        """The numerator of the reduced norm over den^2, as
        x0 (x0 + x1) + a x1^2 + b (x2 (x2 + x3) + a x3^2): each of the two
        inner sums is the determinant of [[x, x'^2], [a, x + x']], and b
        scales the second by its set bits, as `__mul__` scales its rows, so
        no `clmul` is called."""
        a, b = self._tag._ints
        x0, x1, x2, x3 = self._nums
        norm = cldet(x0, square(x1), a, x0 ^ x1)
        inner = cldet(x2, square(x3), a, x2 ^ x3)
        while b:
            low = b & -b
            norm ^= inner * low
            b ^= low
        return norm

    def rtrace(self) -> RationalFunction:
        return RationalFunction(self._nums[1], self._den)

    def inverse(self) -> Quaternion:
        """conj(q) / nrd(q) = conj(n) * den / norm numerator, conj(n) scaled
        by den in one loop over its set bits."""
        norm = self._norm_num()
        if norm == 0:
            raise NotInvertibleError("element has reduced norm zero")
        x0, x1, x2, x3 = self._nums
        x0 ^= x1
        den = self._den
        z0 = z1 = z2 = z3 = 0
        while den:
            low = den & -den
            z0 ^= x0 * low
            z1 ^= x1 * low
            z2 ^= x2 * low
            z3 ^= x3 * low
            den ^= low
        return Quaternion._from_ints(self._tag, (z0, z1, z2, z3), norm)

    def projective_canon(self) -> tuple[int, int, int, int]:
        """Canonical representative: the primitive coordinate 4-tuple over
        GF(2)[z], the stored numerators divided by their gcd."""
        return _primitive_part(self._nums)

    def to_string(self) -> str:
        var = self._tag.var
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


# -- the standard algebra and its distinguished elements ------------------


_STANDARD = QuaternionAlgebra(rf(0b10), rf(0b1001), "z")


def standard_algebra() -> QuaternionAlgebra:
    """The algebra [z, 1+z^3) over GF(2)(z), one object for every call, so a
    tag check between values built from separate calls is an `is` test."""
    return _STANDARD


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
# A nonzero f is a unit exactly when their powers dividing its numerator, and
# those dividing its denominator, make up the whole degree of each.
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
    units = RING_UNITS[ring]
    return all(
        sum(multiplicity(p, g) * (g.bit_length() - 1) for g in units) == p.bit_length() - 1
        for p in (f.num, f.den)
    )
