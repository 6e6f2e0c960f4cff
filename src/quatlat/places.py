"""Places of the projective line over GF(2): valuations, expansions, residues.

Supported places: the finite places cut out by the irreducible polynomials
x, x+1 and x^2+x+1, and the place at infinity.  Uniformizers are x, x+1,
x^2+x+1 and 1/x respectively.  Everything here is exact.

The residue of a differential a*db/b at a degree-1 place is the coefficient
of pi^-1 in the Laurent expansion over GF(2).  At the degree-2 place the
expansion coefficients live in GF(4); extracting them with polynomial
representatives modulo x^2+x+1 only matches the Laurent expansion for simple
poles, so instead the place is split over GF(4): the completion at x^2+x+1
equals the completion of GF(4)(x) at x - w for a cube root of unity w, where
the coefficient field GF(4) consists of actual constants and the series
expansion is the plain one.  The result is carried back through w -> x mod
x^2+x+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .binpoly import ONE, BinaryPoly
from .rational import RationalFunction

INFINITE_VALUATION = math.inf


class UnsupportedPlaceError(ValueError):
    pass


@dataclass(frozen=True)
class Place:
    """A closed point of P^1 over GF(2): finite with a minimal polynomial, or infinity."""

    kind: str  # "finite" | "infinity"
    minpoly: BinaryPoly | None = None

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if self.minpoly is None or not self.minpoly.is_irreducible():
                raise ValueError("finite place needs an irreducible minimal polynomial")
        elif self.kind == "infinity":
            if self.minpoly is not None:
                raise ValueError("the infinite place carries no minimal polynomial")
        else:
            raise ValueError(f"unknown place kind {self.kind!r}")

    @property
    def degree(self) -> int:
        return 1 if self.kind == "infinity" else self.minpoly.degree

    @property
    def name(self) -> str:
        if self.kind == "infinity":
            return "inf"
        if self.minpoly.bits == 0b10:
            return "0"
        if self.minpoly.bits == 0b11:
            return "1"
        if self.minpoly.bits == 0b111:
            return "zeta"
        return self.minpoly.to_string("x")

    def __str__(self) -> str:
        return self.name


PLACE_ZERO = Place("finite", BinaryPoly(0b10))
PLACE_ONE = Place("finite", BinaryPoly(0b11))
PLACE_ZETA = Place("finite", BinaryPoly(0b111))
PLACE_INF = Place("infinity")

NAMED_PLACES = (PLACE_ZERO, PLACE_ONE, PLACE_ZETA, PLACE_INF)


def valuation(f: RationalFunction, place: Place):
    """Normalized valuation of f at the place; +inf for f = 0."""
    if f.is_zero():
        return INFINITE_VALUATION
    if place.kind == "infinity":
        return f.den.degree - f.num.degree
    m = place.minpoly
    if m.bits == 0b10:
        return _val_at_zero(f.num.bits, f.den.bits)
    return f.num.multiplicity(m) - f.den.multiplicity(m)


def _val_at_zero(num: int, den: int) -> int:
    """Valuation at x = 0 of num/den (both nonzero, not necessarily reduced)."""
    return (num & -num).bit_length() - (den & -den).bit_length()


def _series(num: int, den: int, upper: int) -> dict[int, int]:
    """Exponents (-> 1) below `upper` of the nonzero coefficients of the
    Laurent series of num/den at x = 0; num/den need not be reduced."""
    out: dict[int, int] = {}
    if num == 0:
        return out
    low_n, low_d = num & -num, den & -den
    rem, d0 = num // low_n, den // low_d
    for k in range(low_n.bit_length() - low_d.bit_length(), upper):
        if rem == 0:
            break
        if rem & 1:
            out[k] = 1
            rem ^= d0
        rem >>= 1
    return out


def _localize(f: RationalFunction, place: Place) -> tuple[BinaryPoly, BinaryPoly]:
    """Rewrite f as a fraction in the local coordinate, so the place sits at x = 0."""
    if place is PLACE_ZERO or place == PLACE_ZERO:
        return f.num, f.den
    if place == PLACE_ONE:
        shift = BinaryPoly(0b11)  # x+1: involution swapping the places 0 and 1
        return f.num.compose(shift), f.den.compose(shift)
    if place.kind == "infinity":
        # z = 1/u: n(z)/d(z) = u^(deg d - deg n) * rev(n)(u) / rev(d)(u)
        s = f.den.degree - f.num.degree
        num, den = f.num.reverse(), f.den.reverse()
        if s >= 0:
            return num.shift(s), den
        return num, den.shift(-s)
    raise UnsupportedPlaceError(f"no degree-1 local coordinate at place {place.name}")


def laurent_expand(f: RationalFunction, place: Place, upper: int) -> dict[int, int]:
    """Coefficients (exponent -> 1) of the pi-adic expansion of f below `upper`.

    Only degree-1 places; the uniformizer is x, x+1 or 1/x per the place.
    """
    if place.degree != 1:
        raise UnsupportedPlaceError(f"place {place.name} has degree {place.degree} > 1")
    num, den = _localize(f, place)
    return _series(num.bits, den.bits, upper)


# -- GF(4) machinery for the degree-2 place ------------------------------
#
# GF(4) elements are ints 0..3 with bit 0 the constant part and bit 1 the
# w part, w^2 = w + 1.  Polynomials over GF(4) are coefficient lists.

_F4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
_F4_INV = {1: 1, 2: 3, 3: 2}
_F4_W = 2


def _f4poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _f4poly_mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            row = _F4_MUL[a]
            for j, b in enumerate(q):
                if b:
                    out[i + j] ^= row[b]
    return _f4poly_trim(out)


def _f4poly_from_f2(p: BinaryPoly) -> list[int]:
    return [(p.bits >> k) & 1 for k in range(p.degree + 1)]


def _f4poly_add_const(p: list[int], c: int) -> list[int]:
    if not c:
        return p
    if not p:
        return [c]
    return _f4poly_trim([p[0] ^ c] + p[1:])


def _f4poly_shift_by_w(p: list[int]) -> list[int]:
    """Substitute x -> x + w (char 2, so this moves the root w to the origin)."""
    out: list[int] = []
    for coeff in reversed(p):
        out = _f4poly_add_const(_f4poly_mul(out, [_F4_W, 1]), coeff)
    return out


def _f4_series_coeff(num: list[int], den: list[int], index: int) -> int:
    """Coefficient of x^index in num/den as a Laurent series over GF(4) at x = 0."""
    vn = next((i for i, c in enumerate(num) if c), None)
    if vn is None:
        return 0
    vd = next(i for i, c in enumerate(den) if c)
    v = vn - vd
    if index < v:
        return 0
    n0 = num[vn:]
    d0 = den[vd:]
    inv_lead = _F4_INV[d0[0]]
    rem = list(n0)
    coeff = 0
    for k in range(v, index + 1):
        c = _F4_MUL[rem[0] if rem else 0][inv_lead]
        coeff = c
        if c:
            sub = [_F4_MUL[c][b] for b in d0]
            for i, s in enumerate(sub):
                if i < len(rem):
                    rem[i] ^= s
                else:
                    rem.append(s)
        rem = rem[1:]
    return coeff


@dataclass(frozen=True)
class ResidueFieldElement:
    """An element of the residue field at a place, as a representative modulo its minimal polynomial."""

    place: Place
    representative: BinaryPoly

    def __post_init__(self) -> None:
        bound = self.place.degree
        if self.representative.degree >= bound:
            raise ValueError("representative not reduced modulo the place")

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def trace(self) -> int:
        """Trace down to GF(2): sum of Frobenius iterates modulo the minimal polynomial."""
        if self.place.degree == 1:
            return self.representative.bits & 1
        m = self.place.minpoly
        total = BinaryPoly(0)
        power = self.representative
        for _ in range(self.place.degree):
            total = total + power
            power = (power * power) % m
        if total.degree > 0:
            raise AssertionError("trace escaped GF(2)")
        return total.bits & 1

    def __str__(self) -> str:
        return self.representative.to_string("x")


def residue(a: RationalFunction, b: RationalFunction, place: Place) -> ResidueFieldElement:
    """Residue of the differential a*db/b at the place, valued in the residue field."""
    if b.is_zero():
        raise ZeroDivisionError("b must be nonzero")
    if a.is_zero():
        return ResidueFieldElement(place, BinaryPoly(0))
    g = a * b.derivative() / b
    if place.degree == 1:
        if place.kind == "infinity":
            # d(x)/d(1/x) = x^2 in characteristic 2
            g = g * RationalFunction(BinaryPoly(0b100), ONE)
        coeff = laurent_expand(g, place, 0).get(-1, 0)
        return ResidueFieldElement(place, BinaryPoly(coeff))
    if place != PLACE_ZETA:
        raise UnsupportedPlaceError(f"residues not implemented at place {place.name}")
    num = _f4poly_shift_by_w(_f4poly_from_f2(g.num))
    den = _f4poly_shift_by_w(_f4poly_from_f2(g.den))
    c = _f4_series_coeff(num, den, -1)
    # carry GF(4) back to GF(2)[x]/(x^2+x+1) via w -> class of x
    rep = (c & 1) | ((c >> 1) & 1) << 1
    return ResidueFieldElement(place, BinaryPoly(rep))


def local_symbol(a: RationalFunction, b: RationalFunction, place: Place) -> int:
    """0 if the quaternion algebra [a,b) splits at the place, 1 if it ramifies."""
    return residue(a, b, place).trace()
