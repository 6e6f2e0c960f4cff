"""Places of the projective line over GF(2): valuations, expansions, residues.

Supported places: the finite places cut out by the irreducible polynomials
x, x+1 and x^2+x+1, and the place at infinity.  Uniformizers are x, x+1,
x^2+x+1 and 1/x respectively.  Everything here is exact.  A `Place` is the
tuple (kind, minimal polynomial as a GF(2)[x] int, None at infinity), a
tuple subclass whose constructor validates, compared and hashed as the
tuple.  A residue is an int: 0 or 1 at a degree-1 place, and at x^2+x+1
the representative c0 + c1*x of its class, as c0 | c1 << 1.

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
x^2+x+1.  The local symbol is the trace of the residue down to GF(2): the
residue itself at a degree-1 place, and c1 at x^2+x+1, since Tr(1) = 0 and
Tr(x) = x + x^2 = 1 in GF(4) = GF(2)[x]/(x^2+x+1).
"""

from __future__ import annotations

import math
from operator import itemgetter

from .binpoly import clmul, compose, is_irreducible, multiplicity, reverse, square, to_string
from .rational import RationalFunction

INFINITE_VALUATION = math.inf


class UnsupportedPlaceError(ValueError):
    pass


class Place(tuple):
    """A closed point of P^1 over GF(2): finite with a minimal polynomial, or infinity.

    The tuple (kind, minpoly): `kind` is "finite" or "infinity"; `minpoly`
    is the minimal polynomial as a GF(2)[x] int (see binpoly), None at
    infinity."""

    __slots__ = ()

    def __new__(cls, kind: str, minpoly: int | None = None) -> Place:
        if kind == "finite":
            if minpoly is None or not is_irreducible(minpoly):
                raise ValueError("finite place needs an irreducible minimal polynomial")
        elif kind == "infinity":
            if minpoly is not None:
                raise ValueError("the infinite place carries no minimal polynomial")
        else:
            raise ValueError(f"unknown place kind {kind!r}")
        return tuple.__new__(cls, (kind, minpoly))

    kind = property(itemgetter(0))
    minpoly = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str, int | None]:  # copy and pickle through __new__
        return tuple(self)

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
    if m == 0b10:  # the lowest set bits
        num, den = f.num, f.den
        return (num & -num).bit_length() - (den & -den).bit_length()
    return multiplicity(f.num, m) - multiplicity(f.den, m)


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


def _at_zeta(p: int) -> tuple[int, int]:
    """p(w+s) = p0(s) + w*p1(s) for a cube root of unity w (w^2 = w+1): the
    place x^2+x+1 moved to s = 0, by Horner's rule."""
    p0 = p1 = 0
    for k in range(p.bit_length() - 1, -1, -1):
        # (p0 + w*p1)(s + w) = (s*p0 + p1) + w*(p0 + (s+1)*p1)
        p0, p1 = (p0 << 1) ^ p1 ^ (p >> k & 1), p0 ^ (p1 << 1) ^ p1
    return p0, p1


def residue(a: RationalFunction, b: RationalFunction, place: Place) -> int:
    """Residue of the differential a*db/b at the place: 0 or 1 at a degree-1
    place, and c0 | c1 << 1 for the class c0 + c1*x at x^2+x+1."""
    if b.is_zero():
        raise ZeroDivisionError("b must be nonzero")
    if a.is_zero():
        return 0
    g = a * b.derivative() / b
    if place.degree == 1:
        if place.kind == "infinity":
            # d(x)/d(1/x) = x^2 in characteristic 2
            g = g * RationalFunction(0b100)
        return _series(*_localize(g, place), 0) & 1
    if place != PLACE_ZETA:
        raise UnsupportedPlaceError(f"residues not implemented at place {place.name}")
    # g = (n0 + w*n1)/(d0 + w*d1) at s = 0; times the conjugate d0+d1 + w*d1
    # over and under, the denominator is the norm d0^2 + d0*d1 + d1^2 in GF(2)[s]
    n0, n1 = _at_zeta(g.num)
    d0, d1 = _at_zeta(g.den)
    norm = square(d0) ^ clmul(d0, d1) ^ square(d1)
    c0 = _series(clmul(n0, d0 ^ d1) ^ clmul(n1, d1), norm, 0) & 1
    c1 = _series(clmul(n0, d1) ^ clmul(n1, d0), norm, 0) & 1
    # carry GF(4) back to GF(2)[x]/(x^2+x+1) via w -> class of x
    return c0 | c1 << 1


def local_symbol(a: RationalFunction, b: RationalFunction, place: Place) -> int:
    """0 if the quaternion algebra [a,b) splits at the place, 1 if it ramifies:
    the trace of the residue, which is c1 at x^2+x+1 (Tr(1) = 0, Tr(x) = 1)."""
    r = residue(a, b, place)
    return r if place.degree == 1 else r >> 1
