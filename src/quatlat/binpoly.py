"""Polynomials over GF(2) in one variable, packed into Python ints.

The polynomial a_0 + a_1 x + ... + a_n x^n is stored as the integer
a_0 + a_1*2 + ... + a_n*2^n, so bit k is the coefficient of x^k.  The zero
polynomial is the integer 0 and the representation is canonical (no trailing
zero coefficients to strip).  Addition is XOR and multiplication is a
carry-less product; both make p + p = 0, as required in characteristic 2.

The variable is not part of the value: the same bit pattern is read as a
polynomial in z, y, t or u depending on context.  Parsing and printing take
the variable name as an argument ("1+z^3" <-> 0b1001).
"""

from __future__ import annotations

from dataclasses import dataclass
import re


def clmul(a: int, b: int) -> int:
    """Carry-less product of two coefficient-bit ints."""
    if a > b:
        a, b = b, a
    acc = 0
    while a:
        low = a & -a  # the lowest set bit x^k; b * x^k is a shift
        acc ^= b * low
        a ^= low
    return acc


def cldivmod(num: int, den: int) -> tuple[int, int]:
    """Quotient and remainder of carry-less division."""
    if den == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    dden = den.bit_length()
    quo = 0
    shift = num.bit_length() - dden
    while shift >= 0:
        quo ^= 1 << shift
        num ^= den << shift
        shift = num.bit_length() - dden
    return quo, num


def clgcd(a: int, b: int) -> int:
    while b:
        dden = b.bit_length()
        shift = a.bit_length() - dden
        while shift >= 0:
            a ^= b << shift
            shift = a.bit_length() - dden
        a, b = b, a
    return a


@dataclass(frozen=True)
class BinaryPoly:
    """A polynomial over GF(2), with coefficient bits packed in an int."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("coefficient bits must be a non-negative integer")

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_one(self) -> bool:
        return self.bits == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def coefficient(self, k: int) -> int:
        return (self.bits >> k) & 1 if k >= 0 else 0

    # -- ring operations -------------------------------------------------

    def __add__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(clmul(self.bits, other.bits))

    def __divmod__(self, other: BinaryPoly) -> tuple[BinaryPoly, BinaryPoly]:
        quo, rem = cldivmod(self.bits, other.bits)
        return BinaryPoly(quo), BinaryPoly(rem)

    def __floordiv__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(cldivmod(self.bits, other.bits)[0])

    def __mod__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(cldivmod(self.bits, other.bits)[1])

    def __pow__(self, n: int) -> BinaryPoly:
        if n < 0:
            raise ValueError("negative exponent")
        result = 1
        base = self.bits
        while n:
            if n & 1:
                result = clmul(result, base)
            base = clmul(base, base)
            n >>= 1
        return BinaryPoly(result)

    def gcd(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(clgcd(self.bits, other.bits))

    def shift(self, k: int) -> BinaryPoly:
        """Multiply by x^k (k may be negative if x^-k divides)."""
        if k >= 0:
            return BinaryPoly(self.bits << k)
        if self.bits & ((1 << -k) - 1):
            raise ValueError("shift would drop nonzero coefficients")
        return BinaryPoly(self.bits >> -k)

    def derivative(self) -> BinaryPoly:
        """Formal derivative; over GF(2) only odd-degree terms survive."""
        shifted = self.bits >> 1
        mask = 0
        bit = 1
        while bit <= shifted:
            mask |= bit
            bit <<= 2
        return BinaryPoly(shifted & mask)

    def reverse(self) -> BinaryPoly:
        """Coefficient reversal: x^deg * p(1/x).  Zero maps to zero."""
        if self.bits == 0:
            return ZERO
        out = 0
        d = self.degree
        for k in range(d + 1):
            if (self.bits >> k) & 1:
                out |= 1 << (d - k)
        return BinaryPoly(out)

    def compose(self, other: BinaryPoly) -> BinaryPoly:
        """Substitute: self(other)."""
        result = 0
        for k in range(self.degree, -1, -1):
            result = clmul(result, other.bits) ^ ((self.bits >> k) & 1)
        return BinaryPoly(result)

    def multiplicity(self, factor: BinaryPoly) -> int:
        """Largest e with factor^e dividing self; 0 for self == 0."""
        if factor.degree < 1:
            raise ValueError("factor must be non-constant")
        if self.bits == 0:
            return 0
        count = 0
        p = self
        while True:
            q, r = divmod(p, factor)
            if r.bits:
                return count
            count += 1
            p = q

    def is_irreducible(self) -> bool:
        """Trial division by everything of degree <= deg/2; fine for small inputs."""
        d = self.degree
        if d < 1:
            return False
        for fbits in range(2, 1 << (d // 2 + 1)):
            f = BinaryPoly(fbits)
            if f.degree >= 1 and (self % f).bits == 0:
                return False
        return True

    # -- text form -------------------------------------------------------

    def to_string(self, var: str = "z") -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for k in range(self.degree + 1):
            if (self.bits >> k) & 1:
                if k == 0:
                    terms.append("1")
                elif k == 1:
                    terms.append(var)
                else:
                    terms.append(f"{var}^{k}")
        return "+".join(terms)

    def __str__(self) -> str:
        return self.to_string()


ZERO = BinaryPoly(0)
ONE = BinaryPoly(1)
X = BinaryPoly(2)

_TERM_RE = re.compile(r"^(?:1|(?P<var>[A-Za-z])(?:\^(?P<exp>\d+))?)$")


def parse_poly(text: str, var: str = "z") -> BinaryPoly:
    """Parse "1+z^3" style text; whitespace is ignored, terms may repeat."""
    s = text.replace(" ", "")
    if s == "0":
        return ZERO
    bits = 0
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        if term == "1":
            bits ^= 1
        else:
            if m.group("var") != var:
                raise ValueError(f"unexpected variable {m.group('var')!r}, wanted {var!r}")
            exp = int(m.group("exp") or 1)
            bits ^= 1 << exp
    return BinaryPoly(bits)
