import pytest

from quatlat.binpoly import (
    cldet,
    cldivmod,
    clgcd,
    clmul,
    clpow,
    compose,
    derivative,
    is_irreducible,
    multiplicity,
    parse_poly,
    reverse,
    square,
    to_string,
)
from quatlat.rational import RationalFunction, parse_rational, rf

from conftest import make_rng, random_nonzero_poly, random_poly, sympy_bridge


def test_parse_and_print_round_trip():
    for text in ("1+z^3", "z", "1", "z+z^2", "1+z+z^2", "0"):
        p = parse_poly(text)
        assert to_string(p, "z") == text
    assert parse_poly("1 + z ^ 3".replace(" ", "")) == 0b1001
    assert parse_poly("z^3+1") == parse_poly("1+z^3")
    assert parse_poly("z+z") == 0  # repeated terms cancel


def test_char_two_addition():
    rng = make_rng(1)
    for _ in range(200):
        f = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        assert (f + f).is_zero()
        assert f - f == f + f


def test_mul_divmod_gcd():
    rng = make_rng(2)
    for _ in range(300):
        a = random_poly(rng, 7)
        b = random_nonzero_poly(rng, 6)
        q, r = cldivmod(a, b)
        assert clmul(q, b) ^ r == a
        assert r.bit_length() < b.bit_length()
        g = clgcd(a, b)
        if a:
            assert cldivmod(a, g)[1] == 0 and cldivmod(b, g)[1] == 0


def _shift_and_add(a: int, b: int) -> int:
    """Carry-less product the schoolbook way: b shifted by every set bit of a."""
    acc = 0
    for k in range(a.bit_length()):
        if (a >> k) & 1:
            acc ^= b << k
    return acc


def _euclid(a: int, b: int) -> int:
    """gcd by Euclid's algorithm with no early exit."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def test_clmul_against_shift_and_add():
    """The 0 and 1 short-cuts in either argument order, then random pairs."""
    rng = make_rng(6)
    for p in (0, 1, 0b10, 0b11, 0b1001, random_nonzero_poly(rng, 40)):
        assert clmul(0, p) == clmul(p, 0) == _shift_and_add(0, p) == 0
        assert clmul(1, p) == clmul(p, 1) == _shift_and_add(1, p) == p
    for _ in range(500):
        a, b = random_poly(rng, rng.randint(0, 30)), random_poly(rng, rng.randint(0, 30))
        assert clmul(a, b) == clmul(b, a) == _shift_and_add(a, b)


def test_clgcd_against_euclid():
    """Coprime, equal, unit and zero operands, then random pairs with and
    without a common factor."""
    rng = make_rng(7)
    z, one_z, zeta = 0b10, 0b11, 0b111
    assert clgcd(z, one_z) == clgcd(clmul(z, z), zeta) == clgcd(0b1001, 0b1011) == 1  # coprime
    assert clgcd(0, 0) == _euclid(0, 0) == 0
    for p in (1, z, one_z, 0b1001, random_nonzero_poly(rng, 30)):
        assert clgcd(p, p) == clgcd(p, 0) == clgcd(0, p) == p  # equal and zero
        assert clgcd(1, p) == clgcd(p, 1) == 1  # unit
        assert clgcd(clmul(p, z), clmul(p, one_z)) == p
    for _ in range(500):
        g = random_nonzero_poly(rng, 4) if rng.random() < 0.5 else 1
        a = clmul(g, random_poly(rng, rng.randint(0, 20)))
        b = clmul(g, random_poly(rng, rng.randint(0, 20)))
        assert clgcd(a, b) == clgcd(b, a) == _euclid(a, b)


def test_int_primitives_against_sympy():
    """clmul, cldivmod and clgcd against sympy's GF(2)[x] on random ints up to degree 40."""
    _, _, poly, bits = sympy_bridge()
    rng = make_rng(4)
    for _ in range(300):
        a = rng.getrandbits(rng.randint(1, 41))
        b = rng.getrandbits(rng.randint(1, 41)) or 1
        pa, pb = poly(a), poly(b)
        assert clmul(a, b) == bits(pa.mul(pb))
        quo, rem = pa.div(pb)
        assert cldivmod(a, b) == (bits(quo), bits(rem))
        assert clgcd(a, b) == bits(pa.gcd(pb))


def test_is_irreducible_against_sympy():
    """Every polynomial of degree <= 10."""
    _, _, poly, _ = sympy_bridge()
    for p in range(1 << 11):
        expected = p >= 2 and poly(p).is_irreducible
        assert is_irreducible(p) == expected, bin(p)


def test_compose_reverse_derivative_multiplicity_against_sympy():
    sympy, x, poly, bits = sympy_bridge()
    rng = make_rng(5)
    for _ in range(200):
        p = rng.getrandbits(rng.randint(1, 16))
        s = rng.getrandbits(rng.randint(1, 6))
        assert compose(p, s) == bits(poly(p).compose(poly(s)))
        assert derivative(p) == bits(poly(p).diff(x))
        # x^D p(1/x) for D >= deg p
        degree = max(p.bit_length() - 1, 0) + rng.randint(0, 3)
        if p:
            expected = sympy.Poly(sympy.expand(x**degree * poly(p).as_expr().subs(x, 1 / x)), x, modulus=2)
            assert reverse(p, degree) == bits(expected)
        factor = rng.choice((0b10, 0b11, 0b111, 0b1011))
        e = rng.randint(0, 4)
        q = clmul(p or 1, clpow(factor, e))
        count, rest = 0, poly(q)
        while rest.rem(poly(factor)).is_zero:
            rest, count = rest.quo(poly(factor)), count + 1
        assert multiplicity(q, factor) == count >= e


def test_degree_and_multiplicity():
    p = parse_poly("1+z^3")
    assert p.bit_length() - 1 == 3
    z = parse_poly("z")
    assert multiplicity(clmul(clpow(z, 4), p), z) == 4
    assert multiplicity(p, parse_poly("1+z")) == 1
    assert multiplicity(p, parse_poly("1+z+z^2")) == 1
    assert multiplicity(0, z) == 0
    with pytest.raises(ValueError):
        multiplicity(p, 1)


def test_derivative():
    # over GF(2) only odd-degree terms survive
    assert derivative(parse_poly("1+z^3")) == parse_poly("z^2")
    assert derivative(parse_poly("z^2")) == 0
    assert derivative(parse_poly("z+z^2+z^3+z^4")) == parse_poly("1+z^2")
    assert derivative(0) == derivative(1) == 0


def test_compose_and_reverse():
    p = parse_poly("1+z^3")
    assert compose(p, parse_poly("z+z^2")) == parse_poly("1+z^3+z^4+z^5+z^6")
    assert reverse(parse_poly("1+z^2")) == parse_poly("1+z^2")
    assert reverse(parse_poly("z+z^3")) == parse_poly("1+z^2")
    assert reverse(parse_poly("z+z^3"), 4) == parse_poly("z+z^3")
    assert reverse(0) == 0


def _reverse_by_bits(p: int, degree: int) -> int:
    """x^degree * p(1/x), one bit at a time: bit k of p moves to bit degree - k."""
    return sum(1 << (degree - k) for k in range(p.bit_length()) if p >> k & 1)


def test_reverse_matches_a_bit_loop_oracle():
    """Every p below 2^10, across the 8 bits of one table lookup, and random
    p of every bit length up to 40, read as bytes: `reverse(p)` reverses to
    deg p and `reverse(p, degree)` to any degree >= deg p."""
    rng = make_rng(81)
    samples = list(range(1 << 10))
    samples += [1 << (n - 1) | rng.getrandbits(n - 1) for n in range(1, 41) for _ in range(25)]
    assert max(samples).bit_length() == 40
    for p in samples:
        degree = max(p.bit_length() - 1, 0)
        assert reverse(p) == _reverse_by_bits(p, degree), p
        for extra in (0, 1, 7, 8, 9):
            assert reverse(p, degree + extra) == _reverse_by_bits(p, degree + extra), (p, extra)


def test_square_and_cldet_match_clmul():
    rng = make_rng(82)
    for p in [*range(1 << 9), *(rng.getrandbits(rng.randint(10, 70)) for _ in range(300))]:
        assert square(p) == clmul(p, p), p
    for _ in range(1000):
        a, b, c, d = (rng.choice((0, 1, rng.getrandbits(rng.randint(1, 40)))) for _ in range(4))
        assert cldet(a, b, c, d) == clmul(a, d) ^ clmul(b, c), (a, b, c, d)


def test_irreducibility_of_place_polynomials():
    assert is_irreducible(parse_poly("z"))
    assert is_irreducible(parse_poly("1+z"))
    assert is_irreducible(parse_poly("1+z+z^2"))
    assert not is_irreducible(parse_poly("1+z^2"))  # (1+z)^2
    assert not is_irreducible(parse_poly("1+z^3"))
    assert not is_irreducible(1)


def test_rational_reduction_is_canonical():
    f = RationalFunction(parse_poly("z+z^2"), parse_poly("z"))
    assert f == parse_rational("1+z")
    assert (f.num, f.den) == (0b11, 1)
    g = parse_rational("z/(1+z)") + parse_rational("z/(1+z)")
    assert g.is_zero() and g.den == 1
    assert hash(RationalFunction(0b110, 0b100)) == hash(RationalFunction(0b11, 0b10))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, 0)
    with pytest.raises(AttributeError):
        f.num = 0


def test_rational_field_axioms_random():
    rng = make_rng(3)
    for _ in range(300):
        f = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        g = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        h = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        assert (f + g) * h == f * h + g * h
        if not g.is_zero():
            assert (f / g) * g == f
            assert g * g.inverse() == rf(1)


def test_rational_parse_print_round_trip():
    for text in ("z/(1+z)", "1+z^3", "1/(1+z+z^2)", "0"):
        f = parse_rational(text)
        assert parse_rational(f.to_string("z")) == f
