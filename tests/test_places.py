import math

import pytest

from quatlat.binpoly import clmul, clpow, compose
from quatlat.places import (
    NAMED_PLACES,
    PLACE_INF,
    PLACE_ONE,
    PLACE_ZERO,
    PLACE_ZETA,
    Place,
    UnsupportedPlaceError,
    laurent_expand,
    local_symbol,
    residue,
    valuation,
)
from quatlat.rational import RationalFunction, rf

from conftest import make_rng, random_nonzero_poly, random_poly
from fraction_reference import reference_trace, reference_zeta_residue
from parsing import parse_poly, parse_rational

Z = parse_rational("z")
B = parse_rational("1+z^3")


def test_valuation_examples():
    assert valuation(parse_rational("z+z^2"), PLACE_ZERO) == 1
    for place in NAMED_PLACES:
        assert valuation(rf(1), place) == 0
    assert valuation(Z, PLACE_INF) == -1
    assert valuation(rf(0), PLACE_ONE) == math.inf
    assert valuation(B, PLACE_ZETA) == 1  # 1+z^3 = (1+z)(1+z+z^2)
    assert valuation(Z / B, PLACE_ZETA) == -1


def test_valuation_axioms_random():
    rng = make_rng(10)
    for _ in range(1000):
        f = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        g = RationalFunction(random_poly(rng), random_nonzero_poly(rng))
        for place in NAMED_PLACES:
            vf, vg = valuation(f, place), valuation(g, place)
            assert valuation(f * g, place) == vf + vg
            vs = valuation(f + g, place)
            assert vs >= min(vf, vg)
            if vf != vg:
                assert vs == min(vf, vg)


def test_product_formula_spot_check():
    # random f supported on the named places: sum of deg(p) * v_p(f) vanishes
    rng = make_rng(11)
    gens = [parse_poly("z"), parse_poly("1+z"), parse_poly("1+z+z^2")]
    for _ in range(200):
        num = den = 1
        for g in gens:
            e = rng.randint(-3, 3)
            if e > 0:
                num = clmul(num, clpow(g, e))
            elif e < 0:
                den = clmul(den, clpow(g, -e))
        f = RationalFunction(num, den)
        if f == rf(1):
            continue
        total = sum(place.degree * valuation(f, place) for place in NAMED_PLACES)
        assert total == 0


def test_laurent_examples():
    assert laurent_expand(parse_rational("1/(1+z)"), PLACE_ZERO, 4) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert laurent_expand(Z, PLACE_ZERO, 5) == {1: 1}
    assert laurent_expand(rf(0), PLACE_ZERO, 9) == {}


def test_laurent_at_infinity_with_multiply_back_oracle():
    f = Z / B  # z/(1+z^3)
    coeffs = laurent_expand(f, PLACE_INF, 3)
    assert coeffs == {2: 1}
    # oracle: the truncated series times (1+z^3)/z must be 1 modulo u^3,
    # all expressed in the local coordinate u = 1/z
    series_in_u = RationalFunction(sum(1 << e for e in coeffs))
    inv_f_in_u = parse_rational("u+u^4", "u") / parse_rational("u^3", "u")  # (1+z^3)/z at z=1/u
    product = series_in_u * inv_f_in_u
    assert valuation(product + rf(1), PLACE_ZERO) >= 3


def test_laurent_multiply_back_random():
    rng = make_rng(12)
    shift = 0b11  # x+1, the local coordinate change at place 1
    for _ in range(200):
        f = RationalFunction(random_nonzero_poly(rng, 4), random_nonzero_poly(rng, 4))
        upper = rng.randint(1, 6)
        for place in (PLACE_ZERO, PLACE_ONE):
            coeffs = laurent_expand(f, place, upper)
            low = min(min(coeffs), 0) if coeffs else 0
            num = sum(1 << (e - low) for e in coeffs)
            den = 1 << -low
            if place == PLACE_ONE:
                num, den = compose(num, shift), compose(den, shift)
            series = RationalFunction(num, den)
            assert valuation(series + f, place) >= upper


def test_laurent_rejects_degree_two_place():
    with pytest.raises(UnsupportedPlaceError):
        laurent_expand(Z, PLACE_ZETA, 3)


def test_residue_examples():
    assert residue(Z, B, PLACE_INF) == 0
    assert residue(rf(0), B, PLACE_ONE) == 0
    # at place 1 the pole is simple, so the residue is the leading coefficient;
    # oracle: v_1(z * d(1+z^3) / (1+z^3)) = -1 and the series starts with 1
    integrand = Z * B.derivative() / B
    assert valuation(integrand, PLACE_ONE) == -1
    assert laurent_expand(integrand, PLACE_ONE, 0) == {-1: 1}
    assert residue(Z, B, PLACE_ONE) == 1


def test_residue_at_the_degree_two_place():
    # the value is the residue class of x (a primitive cube root of unity)
    assert residue(Z, B, PLACE_ZETA) == 0b10
    assert local_symbol(Z, B, PLACE_ZETA) == 1


def _form(g):
    # the differential g dx as a*db/b: with b = z, a*db/b = a/z, so a = g*z
    return g * Z, Z


def test_residue_theorem_with_higher_order_poles():
    """Sum of traces of residues over all places vanishes; exercises the
    degree-2 place at pole orders 2 and 3."""
    m = parse_rational("1+z+z^2")
    for g in (
        rf(1) / (m**2 * Z),
        rf(1) / (m**3 * Z),
        parse_rational("1+z^4") / (m**2 * parse_rational("1+z") * Z),
    ):
        traces = [local_symbol(*_form(g), place) for place in NAMED_PLACES]
        assert sum(traces) % 2 == 0
    # order-2 value, checked by hand via partial fractions over GF(4):
    # res of dx/((x^2+x+1)^2 x) at the degree-2 place is the class of x
    assert residue(*_form(rf(1) / (m**2 * Z)), PLACE_ZETA) == 0b10
    assert residue(*_form(rf(1) / (m**2 * Z)), PLACE_ZERO) == 1


def test_zeta_residue_matches_the_gf4_oracle():
    """The conjugate-and-norm residue at x^2+x+1 against the GF(4) series
    of tests/fraction_reference.py, with poles of order up to 4 there."""
    rng = make_rng(13)
    m = parse_poly("1+z+z^2")
    values = set()
    for _ in range(1200):
        k = rng.randint(0, 4)
        a = RationalFunction(random_poly(rng, 6), clmul(clpow(m, k), random_nonzero_poly(rng, 3)))
        b = RationalFunction(random_nonzero_poly(rng, 4), random_nonzero_poly(rng, 4))
        rep = residue(a, b, PLACE_ZETA)
        assert rep == reference_zeta_residue(a, b), (a, b)
        assert local_symbol(a, b, PLACE_ZETA) == reference_trace(PLACE_ZETA, rep), (a, b)
        values.add(rep)
    assert values == {0, 1, 2, 3}


def test_local_symbol_is_the_trace_of_the_residue():
    """local_symbol against the Frobenius-sum trace of the residue at every
    named place, on random pairs with poles of order up to 3 at x^2+x+1."""
    rng = make_rng(14)
    m = parse_poly("1+z+z^2")
    symbols = {place: set() for place in NAMED_PLACES}
    for _ in range(300):
        a = RationalFunction(random_poly(rng, 6), clmul(clpow(m, rng.randint(0, 3)), random_nonzero_poly(rng, 3)))
        b = RationalFunction(random_nonzero_poly(rng, 4), random_nonzero_poly(rng, 4))
        for place in NAMED_PLACES:
            symbol = local_symbol(a, b, place)
            assert symbol == reference_trace(place, residue(a, b, place)), (a, b, place)
            symbols[place].add(symbol)
    assert all(seen == {0, 1} for seen in symbols.values())


def test_local_symbol_examples():
    assert local_symbol(Z, B, PLACE_INF) == 0
    assert local_symbol(Z, B, PLACE_ONE) == 1
    assert local_symbol(Z, B, PLACE_ZETA) == 1
    assert local_symbol(Z, B, PLACE_ZERO) == 0


def test_ramified_count_is_even():
    symbols = [local_symbol(Z, B, place) for place in NAMED_PLACES]
    assert sum(symbols) % 2 == 0
    assert sum(symbols) == 2


def test_place_construction_guards():
    with pytest.raises(ValueError):
        Place("finite", parse_poly("1+z^2"))  # reducible
    with pytest.raises(ValueError):
        Place("weird")
    assert PLACE_ZETA.degree == 2 and PLACE_INF.degree == 1
