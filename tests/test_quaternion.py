import pytest

from quatlat.binpoly import cldivmod, clgcd
from quatlat.embeddings import RHO_Y
from quatlat.quaternion import (
    RING_UNITS,
    NotInvertibleError,
    QuaternionAlgebra,
    is_ring_unit,
    named_elements,
    standard_algebra,
)
from quatlat.rational import ONE_RF, ZERO_RF, AlgebraMismatchError, RationalFunction, rf

from conftest import make_rng, random_nonzero_poly, random_nonzero_quaternion, random_quaternion
from fraction_reference import reference_conj, reference_projective_eq
from parsing import parse_quaternion, parse_rational


def test_defining_relations():
    alg = standard_algebra()
    i, j = alg.gen_i(), alg.gen_j()
    assert i * i == i + alg.scalar(alg.a)
    assert j * j == alg.scalar(alg.b)
    assert j * i == i * j + j


def test_named_element_norms():
    ne = named_elements()
    assert ne.B1.rnorm() == parse_rational("1+z")
    assert ne.B2.rnorm() == parse_rational("z+z^2")
    assert ne.C1.rnorm() == parse_rational("1+z")
    assert ne.C2.rnorm() == parse_rational("z+z^2")
    assert ne.D.rnorm() == parse_rational("1+z+z^2")
    assert standard_algebra().one().rnorm() == ONE_RF


def test_golden_products():
    ne = named_elements()
    alg = ne.B1.algebra
    assert ne.D * ne.B1 == alg.gen_j()
    one_z = alg.scalar(parse_rational("1+z"))
    assert ne.C2 * ne.C1 == one_z * parse_quaternion("z^2 + IJ", alg)
    q = random_quaternion(make_rng(20), alg)
    assert q * alg.one() == q and alg.one() * q == q
    assert alg.gen_j() * alg.gen_i() == alg.gen_ij() + alg.gen_j()


def test_nine_products_of_the_generating_sets():
    """The nine A-side times B-side products, as exact quaternion values."""
    ne = named_elements()
    alg = ne.B1.algebra
    b1, b2, c1, c2 = ne.B1, ne.B2, ne.C1, ne.C2
    b1i, b2i = b1.inverse(), b2.inverse()
    scalar = lambda text: alg.scalar(parse_rational(text))
    cases = [
        (b1 * b2, scalar("1+z") * parse_quaternion("z+z^2 + z*I + J + IJ", alg)),
        (b1 * b2i, scalar("1/z") * parse_quaternion("z+z^2 + I + IJ", alg)),
        (b1 * c2, scalar("1+z") * parse_quaternion("1+z+z^2 + I + IJ", alg)),
        (b1i * b2, alg.gen_i()),
        (b1i * b2i, scalar("1/(z+z^2)") * parse_quaternion("1+z + z*I + J", alg)),
        (b1i * c2, parse_quaternion("1 + I", alg)),
        (c1 * b2, scalar("1+z") * parse_quaternion("z^2 + z*I + J + IJ", alg)),
        (c1 * b2i, scalar("1/z") * parse_quaternion("1 + z*I + J", alg)),
        (c1 * c2, scalar("1+z") * parse_quaternion("z^2 + IJ", alg)),
    ]
    for got, want in cases:
        assert got == want


def test_conjugation():
    alg = standard_algebra()
    ne = named_elements()
    one, i = alg.one(), alg.gen_i()
    assert reference_conj(one) == one
    # oracle for conj(I) = I + 1: product and sum land in the ground field
    candidate = i + one
    assert i * candidate == alg.scalar(alg.a)
    assert i + candidate == one
    assert reference_conj(i) == candidate
    # coordinate formula against norm/trace membership
    cb1 = reference_conj(ne.B1)
    assert cb1 == parse_quaternion("1+z + (1+z)*I + J", alg)
    assert (ne.B1 * cb1).is_scalar()
    assert (ne.B1 + cb1).is_scalar()


def test_anti_involution_random(algebra):
    rng = make_rng(21)
    for _ in range(300):
        p = random_quaternion(rng, algebra)
        q = random_quaternion(rng, algebra)
        assert reference_conj(p * q) == reference_conj(q) * reference_conj(p)
        assert reference_conj(reference_conj(p)) == p


def test_associativity_random(algebra):
    rng = make_rng(22)
    for _ in range(1000):
        p = random_quaternion(rng, algebra, 1)
        q = random_quaternion(rng, algebra, 1)
        r = random_quaternion(rng, algebra, 1)
        assert (p * q) * r == p * (q * r)


def test_norm_multiplicative_and_cayley_hamilton(algebra):
    rng = make_rng(23)
    for _ in range(1000):
        p = random_quaternion(rng, algebra, 1)
        q = random_quaternion(rng, algebra, 1)
        assert (p * q).rnorm() == p.rnorm() * q.rnorm()
        ch = p * p + p.scale(p.rtrace()) + algebra.scalar(p.rnorm())
        assert ch.is_zero()


def test_embedding_is_multiplicative_oracle(algebra):
    # independent check of the multiplication table through the matrix model
    rng = make_rng(24)
    for _ in range(300):
        p = random_quaternion(rng, algebra, 1)
        q = random_quaternion(rng, algebra, 1)
        assert RHO_Y(p * q).entries == (RHO_Y(p) * RHO_Y(q)).entries


def test_inverse():
    ne = named_elements()
    alg = ne.B1.algebra
    prod = ne.B1 * ne.B2
    assert prod.inverse() * prod == alg.one()
    assert (ne.B1.inverse() * ne.B2).projective_canon() == alg.gen_i().projective_canon()
    # C1^2 = 1+z, so the inverse is C1 scaled by 1/(1+z)
    assert ne.C1.inverse() == ne.C1.scale(parse_rational("1/(1+z)"))
    with pytest.raises(NotInvertibleError):
        alg.scalar(ZERO_RF).inverse()


def test_projective_eq():
    ne = named_elements()
    alg = ne.B1.algebra
    assert (ne.C2 * ne.C1).projective_canon() == (ne.C1 * ne.C2).projective_canon()
    q = random_nonzero_quaternion(make_rng(25), alg)
    assert q.projective_canon() == q.scale(parse_rational("1+z")).projective_canon()
    # B1 has no IJ part, B2 does
    assert ne.B1.coords[3].is_zero() and ne.B2.coords[3] == ONE_RF
    assert ne.B1.projective_canon() != ne.B2.projective_canon()
    with pytest.raises(ValueError):
        alg.scalar(ZERO_RF).projective_canon()  # zero has no projective class


def test_projective_canon_agrees_with_projective_eq(algebra):
    """Each p is paired with lambda*p and with an unrelated q; the
    cross-product reference of projective equality decides both pairs, so a
    fault in the key turns this red."""
    rng = make_rng(26)
    for _ in range(300):
        p = random_nonzero_quaternion(rng, algebra)
        scale = RationalFunction(random_nonzero_poly(rng, 3), random_nonzero_poly(rng, 3))
        q = random_nonzero_quaternion(rng, algebra)
        for other in (p.scale(scale), q):
            expected = reference_projective_eq(p, other)
            assert (p.projective_canon() == other.projective_canon()) == expected, (p, other)
        assert reference_projective_eq(p, p.scale(scale))


def test_algebra_mismatch_is_rejected():
    alg = standard_algebra()
    other = QuaternionAlgebra(rf(0), rf(1), "z")
    with pytest.raises(AlgebraMismatchError):
        alg.one() * other.one()


def test_ring_units():
    assert is_ring_unit(parse_rational("z^2"), "R0")
    assert not is_ring_unit(parse_rational("1+z"), "R0")
    assert is_ring_unit(parse_rational("z+z^2"), "R1")
    assert not is_ring_unit(parse_rational("1+z+z^2"), "R1")
    assert is_ring_unit(parse_rational("(1+z^3)/z"), "R")
    ne = named_elements()
    for q in (ne.B1, ne.B2, ne.C1, ne.C2):
        assert is_ring_unit(q.rnorm(), "R1")  # q is a unit of the order over R1
    assert not is_ring_unit(ne.D.rnorm(), "R1")
    assert is_ring_unit(ne.D.rnorm(), "R")

    def trial_division_unit(num: int, den: int, units: tuple[int, ...]) -> bool:
        for p in (num, den):
            for g in units:
                while not cldivmod(p, g)[1]:
                    p = cldivmod(p, g)[0]
            if p != 1:
                return False
        return True

    cases = 0
    for ring, units in RING_UNITS.items():
        assert not is_ring_unit(ZERO_RF, ring)
        for num in range(1, 1 << 7):
            for den in range(1, 1 << 7):
                if clgcd(num, den) == 1:
                    cases += 1
                    assert is_ring_unit(RationalFunction(num, den), ring) == trial_division_unit(num, den, units)
    assert cases == 24_573


def test_parse_quaternion_round_trip(algebra):
    rng = make_rng(27)
    for _ in range(100):
        q = random_quaternion(rng, algebra)
        assert parse_quaternion(q.to_string(), algebra) == q
