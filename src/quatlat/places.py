"""Places of the projective line over GF(2): valuations, expansions, residues.

Supported places: the finite places cut out by the irreducible polynomials
x, x+1 and x^2+x+1, and the place at infinity.  Uniformizers are x, x+1,
x^2+x+1 and 1/x respectively.  Everything here is exact.  A `Place` is
stored as its kind and its minimal polynomial as a GF(2)[x] int (None at
infinity), in an immutable slotted object compared and hashed by both; a
`ResidueFieldElement` as its place and a representative int.

Every expansion runs through `_series`, the one series division: it
returns a truncated Laurent series over GF(2) as a binpoly int, with the
lowest exponent in the highest bit (the order of tree vertex tails).

The residue of a differential a*db/b at a degree-1 place is the coefficient
of pi^-1 in the Laurent expansion over GF(2).  At the degree-2 place the
expansion coefficients live in GF(4); extracting them with polynomial
representatives modulo x^2+x+1 only matches the Laurent expansion for simple
poles, so instead the place is split over GF(4) = GF(2)[w]: the completion
at x^2+x+1 equals the completion of GF(4)(x) at x = w, a cube root of unity.
Substituting x = w + s writes each polynomial as p0(s) + w*p1(s) with p0, p1
in GF(2)[s]; multiplying numerator and denominator by the conjugate of the
denominator leaves the norm, in GF(2)[s], below, so the GF(4) residue is two
GF(2) series coefficients.  The result is carried back through w -> x mod
x^2+x+1.
"""

from __future__ import annotations

import math

from .binpoly import cldivmod, clmul, compose, is_irreducible, multiplicity, reverse, to_string
from .rational import RationalFunction

INFINITE_VALUATION = math.inf


class UnsupportedPlaceError(ValueError):
    pass


class Place:
    """A closed point of P^1 over GF(2): finite with a minimal polynomial, or infinity.

    `kind` is "finite" or "infinity"; `minpoly` is the minimal polynomial as
    a GF(2)[x] int (see binpoly), None at infinity."""

    __slots__ = ("kind", "minpoly")

    def __init__(self, kind: str, minpoly: int | None = None) -> None:
        if kind == "finite":
            if minpoly is None or not is_irreducible(minpoly):
                raise ValueError("finite place needs an irreducible minimal polynomial")
        elif kind == "infinity":
            if minpoly is not None:
                raise ValueError("the infinite place carries no minimal polynomial")
        else:
            raise ValueError(f"unknown place kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "minpoly", minpoly)

    def __setattr__(self, name, value):
        raise AttributeError(f"Place is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (Place, (self.kind, self.minpoly))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Place):
            return NotImplemented
        return self.kind == other.kind and self.minpoly == other.minpoly

    def __hash__(self) -> int:
        return hash((self.kind, self.minpoly))

    @property
    def degree(self) -> int:
        return 1 if self.kind == "infinity" else self.minpoly.bit_length() - 1

    @property
    def name(self) -> str:
        if self.kind == "infinity":
            return "inf"
        if self.minpoly == 0b10:
            return "0"
        if self.minpoly == 0b11:
            return "1"
        if self.minpoly == 0b111:
            return "zeta"
        return to_string(self.minpoly, "x")

    def __str__(self) -> str:
        return self.name


PLACE_ZERO = Place("finite", 0b10)
PLACE_ONE = Place("finite", 0b11)
PLACE_ZETA = Place("finite", 0b111)
PLACE_INF = Place("infinity")

NAMED_PLACES = (PLACE_ZERO, PLACE_ONE, PLACE_ZETA, PLACE_INF)


def valuation(f: RationalFunction, place: Place):
    """Normalized valuation of f at the place; +inf for f = 0."""
    if f.is_zero():
        return INFINITE_VALUATION
    if place.kind == "infinity":
        return f.den.bit_length() - f.num.bit_length()
    m = place.minpoly
    if m == 0b10:
        return _val_at_zero(f.num, f.den)
    return multiplicity(f.num, m) - multiplicity(f.den, m)


def _val_at_zero(num: int, den: int) -> int:
    """Valuation at x = 0 of num/den (both nonzero, not necessarily reduced)."""
    return (num & -num).bit_length() - (den & -den).bit_length()


def _series(num: int, den: int, upper: int) -> int:
    """The Laurent series of num/den at x = 0 below x^upper, as an int whose
    bit k is the coefficient of x^(upper-1-k); num/den need not be reduced."""
    if num == 0:
        return 0
    low_n, low_d = num & -num, den & -den
    rem, d0 = num // low_n, den // low_d
    out, k = 0, low_n.bit_length() - low_d.bit_length()
    while k < upper and rem:
        out <<= 1
        if rem & 1:
            out |= 1
            rem ^= d0
        rem >>= 1
        k += 1
    return out << (upper - k) if k < upper else out


def _localize(f: RationalFunction, place: Place) -> tuple[int, int]:
    """Rewrite f as a fraction in the local coordinate, so the place sits at x = 0."""
    if place is PLACE_ZERO or place == PLACE_ZERO:
        return f.num, f.den
    if place == PLACE_ONE:
        # x+1: involution swapping the places 0 and 1
        return compose(f.num, 0b11), compose(f.den, 0b11)
    if place.kind == "infinity":
        # z = 1/u: n(z)/d(z) = rev(n)(u) / rev(d)(u), both reversed to the larger degree
        degree = max(f.num.bit_length(), f.den.bit_length()) - 1
        return reverse(f.num, degree), reverse(f.den, degree)
    raise UnsupportedPlaceError(f"no degree-1 local coordinate at place {place.name}")


def laurent_expand(f: RationalFunction, place: Place, upper: int) -> dict[int, int]:
    """Coefficients (exponent -> 1) of the pi-adic expansion of f below `upper`.

    Only degree-1 places; the uniformizer is x, x+1 or 1/x per the place.
    """
    if place.degree != 1:
        raise UnsupportedPlaceError(f"place {place.name} has degree {place.degree} > 1")
    bits = _series(*_localize(f, place), upper)
    return {upper - 1 - k: 1 for k in range(bits.bit_length()) if bits >> k & 1}


def _at_zeta(p: int) -> tuple[int, int]:
    """p(w+s) = p0(s) + w*p1(s) for a cube root of unity w (w^2 = w+1): the
    place x^2+x+1 moved to s = 0, by Horner's rule."""
    p0 = p1 = 0
    for k in range(p.bit_length() - 1, -1, -1):
        # (p0 + w*p1)(s + w) = (s*p0 + p1) + w*(p0 + (s+1)*p1)
        p0, p1 = (p0 << 1) ^ p1 ^ (p >> k & 1), p0 ^ (p1 << 1) ^ p1
    return p0, p1


class ResidueFieldElement:
    """An element of the residue field at a place, as a representative modulo
    its minimal polynomial (a GF(2)[x] int of degree below the place's)."""

    __slots__ = ("place", "representative")

    def __init__(self, place: Place, representative: int) -> None:
        if representative.bit_length() > place.degree:
            raise ValueError("representative not reduced modulo the place")
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "representative", representative)

    def __setattr__(self, name, value):
        raise AttributeError(f"ResidueFieldElement is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (ResidueFieldElement, (self.place, self.representative))

    def is_zero(self) -> bool:
        return self.representative == 0

    def trace(self) -> int:
        """Trace down to GF(2): sum of Frobenius iterates modulo the minimal polynomial."""
        if self.place.degree == 1:
            return self.representative & 1
        m = self.place.minpoly
        total = 0
        power = self.representative
        for _ in range(self.place.degree):
            total ^= power
            power = cldivmod(clmul(power, power), m)[1]
        if total > 1:
            raise AssertionError("trace escaped GF(2)")
        return total

    def __str__(self) -> str:
        return to_string(self.representative, "x")


def residue(a: RationalFunction, b: RationalFunction, place: Place) -> ResidueFieldElement:
    """Residue of the differential a*db/b at the place, valued in the residue field."""
    if b.is_zero():
        raise ZeroDivisionError("b must be nonzero")
    if a.is_zero():
        return ResidueFieldElement(place, 0)
    g = a * b.derivative() / b
    if place.degree == 1:
        if place.kind == "infinity":
            # d(x)/d(1/x) = x^2 in characteristic 2
            g = g * RationalFunction(0b100)
        return ResidueFieldElement(place, _series(*_localize(g, place), 0) & 1)
    if place != PLACE_ZETA:
        raise UnsupportedPlaceError(f"residues not implemented at place {place.name}")
    # g = (n0 + w*n1)/(d0 + w*d1) at s = 0; times the conjugate d0+d1 + w*d1
    # over and under, the denominator is the norm d0^2 + d0*d1 + d1^2 in GF(2)[s]
    n0, n1 = _at_zeta(g.num)
    d0, d1 = _at_zeta(g.den)
    norm = clmul(d0, d0) ^ clmul(d0, d1) ^ clmul(d1, d1)
    c0 = _series(clmul(n0, d0 ^ d1) ^ clmul(n1, d1), norm, 0) & 1
    c1 = _series(clmul(n0, d1) ^ clmul(n1, d0), norm, 0) & 1
    # carry GF(4) back to GF(2)[x]/(x^2+x+1) via w -> class of x
    return ResidueFieldElement(place, c0 | c1 << 1)


def local_symbol(a: RationalFunction, b: RationalFunction, place: Place) -> int:
    """0 if the quaternion algebra [a,b) splits at the place, 1 if it ramifies."""
    return residue(a, b, place).trace()
