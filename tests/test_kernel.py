"""Differential tests of the integer kernel against fraction arithmetic.

Products, reduced norms, inverses, projective keys, the splittings and the
tree action run on raw GF(2)[z] ints; each is compared here with the
fraction-by-fraction formula in fraction_reference.py on random inputs, in
the standard algebra [z, 1+z^3) and in [1/z, z/(1+z)), whose parameters are
not polynomials.
"""

import pytest

from quatlat.binpoly import clgcd
from quatlat.embeddings import RHO_T, RHO_Y
from quatlat.places import PLACE_ZERO, valuation
from quatlat.quaternion import NotInvertibleError, QuaternionAlgebra, standard_algebra
from quatlat.rational import parse_rational
from quatlat.tree import TreeVertex, act, distance, vertex_from_matrix

from conftest import make_rng, random_invertible_matrix, random_quaternion, random_rational
from fraction_reference import (
    reference_det,
    reference_distance,
    reference_mul,
    reference_projective_eq,
    reference_rho,
    vertex_matrix,
)

ALGEBRAS = {
    "standard": standard_algebra(),
    "non-polynomial": QuaternionAlgebra(parse_rational("1/z"), parse_rational("z/(1+z)"), "z"),
}
SAMPLES = 500
DEGREE = 3


@pytest.fixture(params=sorted(ALGEBRAS))
def alg(request):
    return ALGEBRAS[request.param]


def test_norm_is_the_scalar_of_q_times_conj(alg):
    rng = make_rng(60)
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        prod = q * q.conj()
        assert prod.is_scalar(), q
        assert prod.coords[0] == q.rnorm(), q


def test_product_matches_the_fraction_formula(alg):
    rng = make_rng(61)
    for _ in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        q = random_quaternion(rng, alg, DEGREE)
        assert p * q == reference_mul(p, q), (p, q)


def test_inverse_is_conj_over_norm(alg):
    rng = make_rng(62)
    one = alg.one()
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        norm = q.rnorm()
        if norm.is_zero():
            with pytest.raises(NotInvertibleError):
                q.inverse()
            continue
        inv = q.inverse()
        assert inv == q.conj().scale(norm.inverse())
        assert q * inv == one == inv * q


def test_projective_canon_matches_cross_products(alg):
    rng = make_rng(63)
    for _ in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        if p.is_zero():
            continue
        q = p.scale(random_rational(rng, 2)) if rng.random() < 0.5 else random_quaternion(rng, alg, DEGREE)
        if q.is_zero():
            continue
        key = p.projective_canon()
        assert (key == q.projective_canon()) == reference_projective_eq(p, q) == p.projective_eq(q)
        content = 0
        for x in key:
            content = clgcd(content, x)
        assert content == 1, key


@pytest.mark.parametrize("which", (RHO_Y, RHO_T), ids=("rho_y", "rho_t"))
def test_splitting_and_det_match_matrix_arithmetic(which):
    rng = make_rng(64)
    alg = standard_algebra()
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        m = which(q)
        assert m.entries == reference_rho(which, q).entries, q
        assert m.det() == reference_det(m)


def test_tree_action_and_distance_match_matrix_arithmetic():
    rng = make_rng(65)
    for _ in range(SAMPLES):
        m = random_invertible_matrix(rng, "y", DEGREE)
        level = rng.randint(-3, 3)
        v = TreeVertex("y", level, frozenset(e for e in range(level - 4, level) if rng.random() < 0.5))
        moved = act(m, v)
        assert moved == vertex_from_matrix(m * vertex_matrix(v))
        assert distance(v, moved) == reference_distance(v, moved)


def test_valuation_at_zero_counts_factors_of_z():
    rng = make_rng(66)
    z = parse_rational("z").num
    for _ in range(SAMPLES):
        f = random_rational(rng, 8)
        if f.is_zero():
            continue
        assert valuation(f, PLACE_ZERO) == f.num.multiplicity(z) - f.den.multiplicity(z)
