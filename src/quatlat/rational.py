"""The rational function field over GF(2) in one variable.

A value is a fraction num/den of two GF(2)[x] ints (see binpoly) in lowest
terms: den is nonzero, gcd(num, den) = 1, and zero is 0/1.  Over GF(2)
every nonzero polynomial is monic, so this form is unique and equality and
hashing compare (num, den) directly.  All operations are exact; the
constructor reduces with one gcd, skipped when den is 1.  The hot paths of
the layers above (quaternion products and norms, the splittings, the trees)
compute on numerators over a shared denominator with the helpers at the end
of this module and build a fraction only where one is asked for.
"""

from __future__ import annotations

from .binpoly import cldivmod, clgcd, clmul, clpow, derivative, parse_poly, to_string


class RationalFunction:
    """num/den over GF(2), both ints, in lowest terms; immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            den = 1
        elif den != 1:
            g = clgcd(den, num)
            if g != 1:
                num, den = cldivmod(num, g)[0], cldivmod(den, g)[0]
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _coprime(cls, num: int, den: int) -> RationalFunction:
        """num/den for a pair already in lowest terms (den nonzero, and 1 when
        num is 0), built without the gcd."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalFunction is immutable; cannot set {name}")

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num:#b}, {self.den:#b})"

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == 0

    def __bool__(self) -> bool:
        return self.num != 0

    # -- field operations -------------------------------------------------

    def __add__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(clmul(self.num, other.den) ^ clmul(other.num, self.den), clmul(self.den, other.den))

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        return RationalFunction(clmul(self.num, other.num), clmul(self.den, other.den))

    def __truediv__(self, other: RationalFunction) -> RationalFunction:
        if other.num == 0:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(clmul(self.num, other.den), clmul(self.den, other.num))

    def inverse(self) -> RationalFunction:
        if self.num == 0:
            raise ZeroDivisionError("zero has no inverse")
        return RationalFunction(self.den, self.num)

    def __pow__(self, n: int) -> RationalFunction:
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(clpow(self.num, n), clpow(self.den, n))

    def derivative(self) -> RationalFunction:
        """d/dx via the quotient rule; exact, with + standing in for -."""
        num, den = self.num, self.den
        return RationalFunction(clmul(derivative(num), den) ^ clmul(num, derivative(den)), clmul(den, den))

    # -- text form -------------------------------------------------------

    def to_string(self, var: str = "z") -> str:
        num = to_string(self.num, var)
        if self.den == 1:
            return num
        den = to_string(self.den, var)
        if "+" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __str__(self) -> str:
        return self.to_string()


rf = RationalFunction  # shorthand used all over the tests: rf(num_bits, den_bits=1)

ZERO_RF = RationalFunction(0)
ONE_RF = RationalFunction(1)


def parse_rational(text: str, var: str = "z") -> RationalFunction:
    """Parse "z/(1+z)" style text: one optional '/', parentheses optional."""
    s = text.replace(" ", "")
    if "/" in s:
        top, _, bottom = s.partition("/")
        return RationalFunction(_parse_part(top, var), _parse_part(bottom, var))
    return RationalFunction(_parse_part(s, var))


def _parse_part(s: str, var: str) -> int:
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return parse_poly(s, var)


# -- numerators over one denominator ------------------------------------------


def _common_form(fracs) -> tuple[int, ...]:
    """(n_1, ..., n_k, d): the numerators of the fractions over d, the lcm of
    their denominators."""
    den = 1
    for f in fracs:
        d = f.den
        if d != 1 and d != den:
            den = clmul(den, cldivmod(d, clgcd(den, d))[0])
    out = []
    for f in fracs:
        d = f.den
        out.append(clmul(f.num, den if d == 1 else cldivmod(den, d)[0]))
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
