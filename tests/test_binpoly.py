import pytest

from quatlat.binpoly import ONE, ZERO, BinaryPoly, cldivmod, clgcd, clmul, parse_poly
from quatlat.rational import RationalFunction, parse_rational, rf

from conftest import make_rng, random_nonzero_poly, random_poly


def test_parse_and_print_round_trip():
    for text in ("1+z^3", "z", "1", "z+z^2", "1+z+z^2", "0"):
        p = parse_poly(text)
        assert p.to_string("z") == text
    assert parse_poly("1 + z ^ 3".replace(" ", "")) == BinaryPoly(0b1001)
    assert parse_poly("z^3+1") == parse_poly("1+z^3")


def test_char_two_addition():
    rng = make_rng(1)
    for _ in range(200):
        p = random_poly(rng)
        assert (p + p).is_zero()


def test_mul_divmod_gcd():
    rng = make_rng(2)
    for _ in range(300):
        a = random_poly(rng, 7)
        b = random_nonzero_poly(rng, 6)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        g = a.gcd(b)
        if not a.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


def test_int_primitives_against_sympy():
    """clmul, cldivmod and clgcd against sympy's GF(2)[x] on random ints up to degree 40."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(bits: int):
        return sympy.Poly([(bits >> k) & 1 for k in range(max(bits.bit_length(), 1) - 1, -1, -1)], x, modulus=2)

    def bits(p) -> int:
        return sum((int(c) % 2) << k for (k,), c in p.terms())

    rng = make_rng(4)
    for _ in range(300):
        a = rng.getrandbits(rng.randint(1, 41))
        b = rng.getrandbits(rng.randint(1, 41)) or 1
        pa, pb = poly(a), poly(b)
        assert clmul(a, b) == bits(pa.mul(pb))
        quo, rem = pa.div(pb)
        assert cldivmod(a, b) == (bits(quo), bits(rem))
        assert clgcd(a, b) == bits(pa.gcd(pb))


def test_degree_and_multiplicity():
    p = parse_poly("1+z^3")
    assert p.degree == 3
    assert (parse_poly("z") ** 4 * p).multiplicity(parse_poly("z")) == 4
    assert p.multiplicity(parse_poly("1+z")) == 1
    assert p.multiplicity(parse_poly("1+z+z^2")) == 1
    assert ZERO.multiplicity(parse_poly("z")) == 0


def test_derivative():
    # over GF(2) only odd-degree terms survive
    assert parse_poly("1+z^3").derivative() == parse_poly("z^2")
    assert parse_poly("z^2").derivative().is_zero()
    assert parse_poly("z+z^2+z^3+z^4").derivative() == parse_poly("1+z^2")


def test_compose_and_reverse():
    p = parse_poly("1+z^3")
    assert p.compose(parse_poly("z+z^2")) == parse_poly("1+z^3+z^4+z^5+z^6")
    assert parse_poly("1+z^2").reverse() == parse_poly("1+z^2")
    assert parse_poly("z+z^3").reverse() == parse_poly("1+z^2")
    assert ZERO.reverse() == ZERO


def test_irreducibility_of_place_polynomials():
    assert parse_poly("z").is_irreducible()
    assert parse_poly("1+z").is_irreducible()
    assert parse_poly("1+z+z^2").is_irreducible()
    assert not parse_poly("1+z^2").is_irreducible()  # (1+z)^2
    assert not parse_poly("1+z^3").is_irreducible()
    assert not ONE.is_irreducible()


def test_rational_reduction_is_canonical():
    f = RationalFunction(parse_poly("z+z^2"), parse_poly("z"))
    assert f == parse_rational("1+z")
    assert f.den.is_one()
    g = parse_rational("z/(1+z)") + parse_rational("z/(1+z)")
    assert g.is_zero() and g.den.is_one()


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
