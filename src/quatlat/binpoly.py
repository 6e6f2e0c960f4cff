"""Polynomials over GF(2) in one variable, as plain Python ints.

The polynomial a_0 + a_1 x + ... + a_n x^n is the integer
a_0 + a_1*2 + ... + a_n*2^n, so bit k is the coefficient of x^k, the degree
is bit_length() - 1 and the zero polynomial is 0.  The form is canonical, so
== and hash are the int's own.  Addition is XOR and multiplication the
carry-less product `clmul`; both make p + p = 0, as required in
characteristic 2.  Two products have their own loops: `square`, the one
home of squaring, spreads the bits, and `cldet` sums the two products of a
2x2 determinant without a `clmul` call.  Every function here takes and
returns such ints; there is no wrapper type.

The variable is not part of the value: the same int is read as a polynomial
in z, y, t or u depending on context.  Printing takes the variable name as
an argument (0b1001 -> "1+z^3").
"""

from __future__ import annotations


def clmul(a: int, b: int) -> int:
    """Carry-less product of two coefficient-bit ints.  When the smaller
    factor is 0 or 1 the product is returned at once, with no loop."""
    if a > b:
        a, b = b, a
    if a < 2:
        return a and b
    acc = 0
    while a:
        low = a & -a  # the lowest set bit x^k; b * x^k is a shift
        acc ^= b * low
        a ^= low
    return acc


def square(p: int) -> int:
    """p^2, which over GF(2) moves bit k to bit 2k: the set bit x^k adds (x^k)^2."""
    out = 0
    while p:
        low = p & -p
        out |= low * low
        p ^= low
    return out


def cldet(a: int, b: int, c: int, d: int) -> int:
    """The determinant ad + bc of [[a, b], [c, d]], in one loop over the set
    bits of each first-column entry and with no `clmul` call: the bit x^k
    of a adds d * 2^k, that of c adds b * 2^k."""
    det = 0
    while a:
        low = a & -a
        det ^= d * low
        a ^= low
    while c:
        low = c & -c
        det ^= b * low
        c ^= low
    return det


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
    """The gcd by Euclid's algorithm, stopped at once at a unit remainder; clgcd(0, 0) is 0."""
    while b > 1:
        dden = b.bit_length()
        shift = a.bit_length() - dden
        while shift >= 0:
            a ^= b << shift
            shift = a.bit_length() - dden
        a, b = b, a
    return b or a


def clpow(p: int, n: int) -> int:
    """p^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative exponent")
    result = 1
    while n:
        if n & 1:
            result = clmul(result, p)
        p = square(p)
        n >>= 1
    return result


def compose(p: int, s: int) -> int:
    """The substitution p(s), by Horner's rule."""
    result = 0
    for k in range(p.bit_length() - 1, -1, -1):
        result = clmul(result, s) ^ ((p >> k) & 1)
    return result


def _reversed_bytes() -> bytes:
    """Byte b read backwards at entry b, built one bit at a time: entry b of
    the table for k + 1 bits is entry b mod 2^k shifted up by one, plus bit k of b."""
    table = [0]
    for _ in range(8):
        table = [x << 1 for x in table] + [x << 1 | 1 for x in table]
    return bytes(table)


_REVERSED_BYTES = _reversed_bytes()


def reverse(p: int, degree: int | None = None) -> int:
    """x^degree * p(1/x), with degree >= deg p (default deg p); zero maps to zero.

    The bits of p are read backwards: a p of at most 8 bits by one lookup in
    a byte table, a longer one by reversing every byte of its little-endian
    bytes through the same table and reading them big-endian; either way the
    n-bit reversal is what is left after dropping the padding below."""
    if p == 0:
        return 0
    n = p.bit_length()
    if n <= 8:
        out = _REVERSED_BYTES[p] >> (8 - n)
    else:
        size = (n + 7) >> 3
        out = int.from_bytes(p.to_bytes(size, "little").translate(_REVERSED_BYTES), "big") >> (8 * size - n)
    return out if degree is None else out << (degree - n + 1)


def derivative(p: int) -> int:
    """Formal derivative; over GF(2) only the odd-degree terms survive."""
    n = p.bit_length()
    return (p >> 1) & (((1 << (n + n % 2)) - 1) // 3)  # 0b0101...01 keeps the even bits


def multiplicity(p: int, factor: int) -> int:
    """Largest e with factor^e dividing p; 0 for p == 0."""
    if factor < 2:
        raise ValueError("factor must be non-constant")
    count = 0
    while p:
        quo, rem = cldivmod(p, factor)
        if rem:
            break
        count += 1
        p = quo
    return count


def is_irreducible(p: int) -> bool:
    """Trial division by everything of degree <= deg/2; fine for small inputs."""
    d = p.bit_length() - 1
    if d < 1:
        return False
    return all(cldivmod(p, f)[1] for f in range(2, 1 << (d // 2 + 1)))


def to_string(p: int, var: str = "z") -> str:
    if p == 0:
        return "0"
    terms = []
    for k in range(p.bit_length()):
        if (p >> k) & 1:
            if k == 0:
                terms.append("1")
            elif k == 1:
                terms.append(var)
            else:
                terms.append(f"{var}^{k}")
    return "+".join(terms)
