"""The rational function field over GF(2) in one variable.

A value is a reduced fraction of BinaryPoly: the denominator is nonzero and
gcd(num, den) = 1.  Over GF(2) every nonzero polynomial is monic, so the
reduced form is unique and equality/hashing are structural.  All operations
are exact.  The public constructor reduces with one gcd; the hot paths of the
layers above (quaternion products and norms, the splittings, the trees)
compute on the raw coefficient ints instead and reduce once per output, or
not at all where no canonical form is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binpoly import ONE, ZERO, BinaryPoly, cldivmod, clgcd, clmul, parse_poly


@dataclass(frozen=True)
class RationalFunction:
    num: BinaryPoly
    den: BinaryPoly

    def __post_init__(self) -> None:
        if self.den.bits == 0:
            raise ZeroDivisionError("zero denominator")
        if self.num.bits == 0:
            object.__setattr__(self, "den", ONE)
            return
        g = clgcd(self.num.bits, self.den.bits)
        if g != 1:
            object.__setattr__(self, "num", BinaryPoly(cldivmod(self.num.bits, g)[0]))
            object.__setattr__(self, "den", BinaryPoly(cldivmod(self.den.bits, g)[0]))

    # -- constructors ----------------------------------------------------

    @classmethod
    def _reduced(cls, num: int, den: int) -> RationalFunction:
        """Wrap bits already in lowest terms (den 1 when num is 0): no gcd."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", BinaryPoly(num))
        object.__setattr__(f, "den", BinaryPoly(den))
        return f

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- field operations -------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self) -> RationalFunction:
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def derivative(self) -> RationalFunction:
        """d/dx via the quotient rule; exact, with + standing in for -."""
        return RationalFunction(
            self.num.derivative() * self.den + self.num * self.den.derivative(),
            self.den * self.den,
        )

    # -- text form -------------------------------------------------------

    def to_string(self, var: str = "z") -> str:
        num = self.num.to_string(var)
        if self.den.is_one():
            return num
        den = self.den.to_string(var)
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __str__(self) -> str:
        return self.to_string()


ZERO_RF = RationalFunction(ZERO, ONE)
ONE_RF = RationalFunction(ONE, ONE)


def _lowest_terms(num: int, den: int) -> RationalFunction:
    """The fraction num/den (den nonzero) reduced with one gcd."""
    if den != 1:
        if num == 0:
            return ZERO_RF
        g = clgcd(den, num)
        if g != 1:
            num, den = cldivmod(num, g)[0], cldivmod(den, g)[0]
    return RationalFunction._reduced(num, den)


def _common_form(fracs) -> tuple[int, ...]:
    """(n_1, ..., n_k, d): the numerators of the fractions over d, the lcm of
    their denominators."""
    den = 1
    for f in fracs:
        d = f.den.bits
        if d != 1 and d != den:
            den = clmul(den, cldivmod(d, clgcd(den, d))[0])
    out = []
    for f in fracs:
        d = f.den.bits
        out.append(clmul(f.num.bits, den if d == 1 else cldivmod(den, d)[0]))
    out.append(den)
    return tuple(out)


def _reduce_over(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    """Numerators over one nonzero denominator, divided by the gcd of all of
    them: one gcd chain, stopped as soon as it reaches 1.  All-zero
    numerators come back over 1."""
    g = den
    for x in nums:
        if g == 1:
            return nums, den
        if x:
            g = clgcd(x, g)
    if g == 1:
        return nums, den
    return tuple(cldivmod(x, g)[0] for x in nums), cldivmod(den, g)[0]


def _primitive_part(nums: tuple[int, ...]) -> tuple[int, ...]:
    """The polynomials divided by their gcd: the canonical representative of
    their projective class, since 1 is the only unit of GF(2)[z].  They must
    not all be zero."""
    content = 0
    for x in nums:
        if x:
            content = clgcd(x, content) if content else x
            if content == 1:
                return nums
    if content == 0:
        raise ValueError("the zero vector has no projective representative")
    return tuple(cldivmod(x, content)[0] for x in nums)


def rf(num_bits: int, den_bits: int = 1) -> RationalFunction:
    """Shorthand used all over the tests: bits in, reduced fraction out."""
    return RationalFunction(BinaryPoly(num_bits), BinaryPoly(den_bits))


def parse_rational(text: str, var: str = "z") -> RationalFunction:
    """Parse "z/(1+z)" style text: one optional '/', parentheses optional."""
    s = text.replace(" ", "")
    if "/" in s:
        top, _, bottom = s.partition("/")
        return RationalFunction(_parse_part(top, var), _parse_part(bottom, var))
    return RationalFunction(_parse_part(s, var), ONE)


def _parse_part(s: str, var: str) -> BinaryPoly:
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return parse_poly(s, var)
