"""The rational function field over GF(2) in one variable.

A value is a fraction num/den of two GF(2)[x] ints (see binpoly) in lowest
terms: den is nonzero, gcd(num, den) = 1, and zero is 0/1.  Over GF(2)
every nonzero polynomial is monic, so this form is unique and equality and
hashing compare (num, den) directly.  All operations are exact; the
constructor reduces with one gcd, skipped when den is 1.  The hot paths of
the layers above (quaternion products and norms, the splittings, the trees)
compute on numerators over a shared denominator with the helpers at the end
of this module (`OverOneDenominator` for quaternions and 2x2 matrices) and
build a fraction only where one is asked for.
"""

from __future__ import annotations

from .binpoly import cldivmod, clgcd, clmul, clpow, derivative, parse_poly, square, to_string


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
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _coprime(cls, num: int, den: int) -> RationalFunction:
        """num/den for a pair already in lowest terms (den nonzero, and 1 when
        num is 0), built without the gcd."""
        f = object.__new__(cls)
        _set_num(f, num)
        _set_den(f, den)
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"RationalFunction is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"RationalFunction is immutable; cannot delete {name}")

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
        return RationalFunction(clmul(derivative(num), den) ^ clmul(num, derivative(den)), square(den))

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


# _set_<slot>: the slots' own setters, through which the constructors write
_set_num, _set_den = (getattr(RationalFunction, slot).__set__ for slot in RationalFunction.__slots__)

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
    not all be zero; a tuple holding a 1 is primitive and returned at once."""
    if 1 in nums:
        return nums
    content = 0
    for x in nums:
        if x:
            content = clgcd(x, content) if content else x
            if content == 1:
                return nums
    if content == 0:
        raise ValueError("the zero vector has no projective representative")
    return tuple(cldivmod(x, content)[0] for x in nums)


class AlgebraMismatchError(ValueError):
    """Arithmetic between values over different algebras or fields."""


class OverOneDenominator:
    """Four coordinates in GF(2)(x) stored as GF(2)[x] numerators n0..n3 over
    one denominator den, with gcd(n0, n1, n2, n3, den) = 1: the form that
    `quaternion.Quaternion` and `embeddings.Matrix2` share.

    1 is the only unit of GF(2)[x], so the form is unique: == compares the
    five ints and the tag (what the coordinates are over: a quaternion
    algebra or a matrix's variable name), and hash reads the ints.  The
    coordinates as reduced fractions are a view built when read.  Results of
    arithmetic, copies and unpickled values are built by `_from_ints`, which
    divides the five ints by their gcd once (not at all over denominator 1).
    Construction writes through the slots' own setters, bound once below the
    class; `__setattr__` and `__delattr__` refuse every other write, so values
    are immutable.

    `_memo` is a cache for the value acting as an operator: `tree.act` keeps
    vertex -> image in a matrix's memo, `Quaternion.__mul__` keeps right
    factor -> product in the left factor's.  Every constructor, copy and
    unpickling leaves it None, and neither user creates one: only
    `certify.ball_check` writes an empty dict, through `_set__memo`, into the
    generators and matrices it builds for one call.  Equality, hash, copy and
    pickle ignore it, so it lives and dies with its value.
    """

    __slots__ = ("_tag", "_nums", "_den", "_memo")

    def __init__(self, tag, fracs) -> None:
        fracs = tuple(fracs)
        if len(fracs) != 4:
            raise ValueError(f"a {type(self).__name__} has four coordinates")
        *nums, den = _common_form(fracs)  # the lcm of reduced denominators: already in lowest terms
        _set__tag(self, tag)
        _set__nums(self, tuple(nums))
        _set__den(self, den)
        _set__memo(self, None)

    @classmethod
    def _from_ints(cls, tag, nums: tuple[int, int, int, int], den: int):
        """The value with numerators `nums` (a tuple) over `den` (nonzero), reduced once unless den is 1."""
        x = object.__new__(cls)
        if den != 1:
            nums, den = _reduce_over(nums, den)
        _set__tag(x, tag)
        _set__nums(x, nums)
        _set__den(x, den)
        _set__memo(x, None)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name}")

    def __reduce__(self):
        return (self._from_ints, (self._tag, self._nums, self._den))

    @property
    def _fractions(self) -> tuple[RationalFunction, RationalFunction, RationalFunction, RationalFunction]:
        return tuple(RationalFunction(x, self._den) for x in self._nums)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        tags = self._tag is other._tag or self._tag == other._tag
        return tags and self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __add__(self, other):
        self._same_tag(other)
        dp, dq = self._den, other._den
        nums = tuple(clmul(x, dq) ^ clmul(y, dp) for x, y in zip(self._nums, other._nums))
        return self._from_ints(self._tag, nums, clmul(dp, dq))

    __sub__ = __add__  # characteristic 2

    def scale(self, f: RationalFunction):
        nums = tuple(clmul(f.num, x) for x in self._nums)
        return self._from_ints(self._tag, nums, clmul(f.den, self._den))

    def _same_tag(self, other) -> None:
        if self._tag is not other._tag and self._tag != other._tag:
            raise AlgebraMismatchError(f"values over different fields: {self._tag!r} vs {other._tag!r}")


# as for RationalFunction above
_set__tag, _set__nums, _set__den, _set__memo = (
    getattr(OverOneDenominator, slot).__set__ for slot in OverOneDenominator.__slots__
)
