import random
from itertools import combinations
from math import gcd

import pytest

from quatlat.invariants import boundary_matrix
from quatlat.lattice import generator_images, standard_structure
from quatlat.presentations import (
    V4_QUOTIENT_OF_LAMBDA,
    InvalidQuotientError,
    Presentation,
    abelianization,
    canonical_relator,
    evaluate_word,
    exponent_vector,
    fixed_presentations,
    free_reduce,
    gamma_presentation,
    gr_presentation,
    is_projectively_trivial,
    lambda_presentation,
    orbifold_presentation,
    reidemeister_schreier,
    same_presentation,
)
from quatlat.quaternion import named_elements
from quatlat.smith import invariant_factors
from quatlat.squares import GroupOps, build_structure
from quatlat.suite import relators_certificate

from conftest import c1_swapped_for_d

# the Reidemeister-Schreier kernel of Lambda -> V4: Schreier generators
# x{coset}_{gen} with cosets 1 = v, 2 = h, 3 = vh, and the 4 x 5 rewritten relators
RS_KERNEL_GENERATORS = (
    "x0_c1", "x0_c2", "x1_b1", "x1_c1", "x1_c2", "x2_b1", "x2_b2",
    "x2_c1", "x2_c2", "x3_b1", "x3_b2", "x3_c1", "x3_c2",
)
RS_KERNEL_RELATORS = (
    (1, 4), (2, 9), (1, 5, -8, -2), (12, 7), (5, 10),
    (4, 1), (5, 13), (4, 2, -12, -5), (3, 8, 11), (3, 2, 6),
    (8, 12), (9, 2), (8, 13, -1, -9), (6, 11, 4), (6, 13, 3, -7),
    (12, 8), (13, 5), (12, 9, -4, -13), (10, 7, 1), (10, 9, -11),
)


def word_inverse(word):
    return tuple(-letter for letter in reversed(word))


def test_free_reduction_and_inverse():
    assert free_reduce((1, -1, 2, 3, -3, -2, 4)) == (4,)
    assert free_reduce(()) == ()
    w = (1, 2, -3)
    assert free_reduce(w + word_inverse(w)) == ()


def test_word_text_round_readable():
    p = lambda_presentation()
    assert p.word_str(p.word("b1 b2 c1 b2")) == "b1b2c1b2"
    assert p.word_str(p.word("c1 c1")) == "c1^2"
    assert p.word_str(()) == "1"
    assert p.text().startswith("< b1, b2, c1, c2 |")


def test_orbifold_presentation_matches_the_fixed_one():
    generated = orbifold_presentation(standard_structure())
    fixed = lambda_presentation()
    assert set(generated.generators) == {"b1", "b2", "c1", "c2"}
    assert len(generated.relators) == 5
    assert same_presentation(generated, fixed)


def test_orbifold_presentation_of_the_identity_structure():
    ident = (0,)
    ops = GroupOps(mul=lambda p, q: p, inv=lambda p: p, canon=lambda p: p)
    s = build_structure([("x", ident)], [("y", ident)], ops)
    p = orbifold_presentation(s)
    assert p.generators == ("x", "y")
    klein = Presentation(("x", "y"), ((1, 1), (2, 2), (1, 2, -1, -2)))
    assert same_presentation(p, klein)


def _edited_lambda(relators=None, generators=None):
    lam = lambda_presentation()
    return Presentation(generators or lam.generators, lam.relators if relators is None else relators)


@pytest.mark.parametrize(
    "other",
    (
        # b1 b2 c1 b2 -> b1 b2 c2 b2
        pytest.param(
            _edited_lambda(tuple((1, 2, 4, 2) if r == (1, 2, 3, 2) else r for r in lambda_presentation().relators)),
            id="changed-letter",
        ),
        pytest.param(_edited_lambda(lambda_presentation().relators + ((1, 1, 1),)), id="extra-relator"),
        pytest.param(_edited_lambda(generators=("b1", "b2", "c1", "e2")), id="renamed-generator"),
        pytest.param(_edited_lambda(tuple(r for r in lambda_presentation().relators if r != (3, 3))), id="no-c1-square"),
    ),
)
def test_same_presentation_rejects_a_different_presentation(other):
    """Each edit changes the group presented; a comparison that always
    answered True would make the relators certificate's orbifold check vacuous."""
    assert not same_presentation(lambda_presentation(), other)
    assert not same_presentation(other, lambda_presentation())


def test_canonical_relator_identifies_rotations_and_inverses():
    p = lambda_presentation()
    involutions = p.involutions()
    assert involutions == {p.gen_index("c1"), p.gen_index("c2")}
    w1 = p.word("b1 b2 c1 b2")
    w2 = p.word("b2 b1 b2 c1^-1")  # rotation with an inverted involution
    assert canonical_relator(w1, involutions) == canonical_relator(w2, involutions)
    assert canonical_relator(word_inverse(w1), involutions) == canonical_relator(w1, involutions)


def test_fixed_presentation_shapes():
    lam, gr, gamma = lambda_presentation(), gr_presentation(), gamma_presentation()
    assert (len(lam.generators), len(lam.relators)) == (4, 5)
    assert (len(gr.generators), len(gr.relators)) == (5, 10)
    assert (len(gamma.generators), len(gamma.relators)) == (2, 2)
    texts = [gr.word_str(r) for r in gr.relators]
    assert "db1db1" in texts and "db2db2" in texts


def test_relators_evaluate_projectively_trivially():
    images = generator_images(standard_structure())
    for pres in fixed_presentations().values():
        for rel in pres.relators:
            assert is_projectively_trivial(evaluate_word(rel, images, pres))


def test_evaluate_word_basics():
    images = generator_images(standard_structure())
    lam = lambda_presentation()
    one = evaluate_word((), images, lam)
    assert one == images["b1"].algebra.one()
    value = evaluate_word(lam.word("b1 b2 c1 b2"), images, lam)
    assert value.is_scalar()
    # (d b1)^2 is the scalar 1+z^3 because d*b1 lifts to the generator J
    gr = gr_presentation()
    db1db1 = evaluate_word(gr.word("d b1 d b1"), images, gr)
    from parsing import parse_rational

    assert db1db1 == images["d"].algebra.scalar(parse_rational("1+z^3"))


def test_gamma_generators_are_the_stated_quaternions():
    images = generator_images(standard_structure())
    ne_c1b1 = images["c1"] * images["b1"].inverse()
    assert images["a1"] == ne_c1b1
    assert images["a2"] == images["c2"] * images["b2"].inverse()


def test_generator_images_are_a_fresh_dict_per_call():
    """A caller that changes its dict (a perturbation test swapping c1 for
    d, say) leaves the images every later caller reads intact."""
    structure = standard_structure()
    expected = dict(generator_images(structure))
    images = generator_images(structure)
    images["c1"] = images["d"]
    del images["b1"]
    assert generator_images(structure) == expected


def test_generator_images_of_the_standard_structure_are_the_named_elements():
    ne = named_elements()
    assert generator_images(standard_structure()) == {
        "b1": ne.B1,
        "b2": ne.B2,
        "c1": ne.C1,
        "c2": ne.C2,
        "d": ne.D,
        "a1": ne.C1 * ne.B1.inverse(),
        "a2": ne.C2 * ne.B2.inverse(),
    }


def test_relators_certificate_reads_its_structure():
    """With c1 swapped for d, b1 b2 c1 b2 and both Gamma relators (a1 is
    c1 b1^-1) no longer evaluate to scalars."""
    assert relators_certificate(standard_structure()).passed
    result = relators_certificate(c1_swapped_for_d())
    assert not result.passed
    assert result.details["failures"] == [
        "lambda: b1b2c1b2",
        "gr: b1b2c1b2",
        "gamma: a2a1^-1a2^2a1a2a1a2^2a1^-1a2a1",
        "gamma: a1a2^2a1^-1a2^2a1^-1a2^2a1a2a1^-1a2",
    ]


# -- invariant factors -------------------------------------------------------


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


def _minor_gcd_invariant_factors(matrix, cols):
    """Independent oracle: d_k = gcd of all k x k minors, factors d_k/d_{k-1}."""
    rows = len(matrix)
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def test_invariant_factors_random_against_minor_oracle():
    rng = random.Random(50)
    matrices = [([], 3), ([], 0), ([[], []], 0)]  # no rows; no columns
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrices.append(([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)], cols))
    for m, cols in matrices:
        factors, free_rank = invariant_factors(m, cols)
        oracle = _minor_gcd_invariant_factors(m, cols)
        assert factors == [x for x in oracle if x != 1], m
        assert free_rank == cols - len(oracle), m
        assert all(b % a == 0 for a, b in zip(factors, factors[1:])), m


def _sympy_invariant_factors(matrix, cols):
    """invariant_factors' answer read off sympy's Smith normal form over ZZ."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    d = sympy_snf(sympy.Matrix(matrix), domain=sympy.ZZ)
    nonzero = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
    return [x for x in nonzero if x != 1], cols - len(nonzero)


def test_invariant_factors_against_sympy():
    """The Reidemeister-Schreier relator matrix (20 x 13, cokernel Z/15), the
    cochain matrix of the standard structure (36 x 16, factors [3, 3, 3, 3])
    and random small integer matrices, against sympy's Smith normal form."""
    kernel = reidemeister_schreier(lambda_presentation(), V4_QUOTIENT_OF_LAMBDA)
    n = len(kernel.generators)
    matrix = [exponent_vector(r, n) for r in kernel.relators]
    assert invariant_factors(matrix) == _sympy_invariant_factors(matrix, n) == ([15], 0)
    cochains = boundary_matrix(standard_structure())
    assert (len(cochains), len(cochains[0])) == (36, 16)
    assert invariant_factors(cochains) == _sympy_invariant_factors(cochains, 16) == ([3, 3, 3, 3], 0)
    rng = random.Random(51)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice((1, 1, 2, 6))  # a common factor makes every invariant factor nontrivial
        m = [[scale * rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)] for _ in range(rows)]
        assert invariant_factors(m) == _sympy_invariant_factors(m, cols), m


def test_abelianization_of_gamma_is_z15():
    factors, rank = abelianization(gamma_presentation())
    assert factors == [15] and rank == 0
    # the exponent matrix is [[1, 7], [-1, 8]] up to row order/sign
    matrix = [exponent_vector(r, 2) for r in gamma_presentation().relators]
    assert sorted(map(tuple, matrix)) == [(-1, 8), (1, 7)]
    assert abs(_det(matrix)) == 15


def test_abelianization_of_lambda():
    lam = lambda_presentation()
    matrix = [exponent_vector(r, 4) for r in lam.relators]
    # oracle: minor gcds give the invariant factors of the 5x4 matrix
    oracle = _minor_gcd_invariant_factors(matrix, 4)
    assert oracle == [1, 1, 2, 10]
    factors, rank = abelianization(lam)
    assert factors == [2, 10] and rank == 0
    # the four independent rows have determinant of absolute value 20
    independent = [row for row in matrix if any(row)]
    assert abs(_det(independent)) == 20
    assert 2 * 10 == 20


def test_abelianization_free_rank():
    free = Presentation(("a",), ())
    assert abelianization(free) == ([], 1)
    assert abelianization(gamma_presentation()) == ([15], 0)


# -- Reidemeister-Schreier ---------------------------------------------------


def test_v4_quotient_map_is_valid():
    """Every relator of Lambda maps to 0, and the images span all of V4."""
    images = V4_QUOTIENT_OF_LAMBDA
    lam = lambda_presentation()
    for rel in lam.relators:
        value = 0
        for letter in rel:
            value ^= images[abs(letter) - 1]
        assert value == 0, lam.word_str(rel)
    span = {0}
    for x in images:
        span |= {y ^ x for y in span}
    assert span == {0, 1, 2, 3}


def test_invalid_quotient_is_rejected():
    with pytest.raises(InvalidQuotientError):
        reidemeister_schreier(lambda_presentation(), (1, 0, 2, 0))
    with pytest.raises(ValueError):
        reidemeister_schreier(lambda_presentation(), (1, 2, 1))


def test_kernel_of_the_v4_quotient():
    lam = lambda_presentation()
    kernel = reidemeister_schreier(lam, V4_QUOTIENT_OF_LAMBDA)
    # generator count before pruning: index*(gens-1) + 1
    assert len(kernel.generators) == 4 * (4 - 1) + 1 == 13
    assert len(kernel.relators) == 4 * 5
    assert kernel.generators == RS_KERNEL_GENERATORS
    assert kernel.relators == RS_KERNEL_RELATORS
    factors, rank = abelianization(kernel)
    assert factors == [15] and rank == 0


def test_kernel_of_the_trivial_quotient_is_the_group_itself():
    lam = lambda_presentation()
    kernel = reidemeister_schreier(lam, (0,) * len(lam.generators))
    renamed = Presentation(tuple(n[3:] for n in kernel.generators), kernel.relators)
    assert same_presentation(renamed, lam)


def test_rs_and_gamma_abelianizations_agree():
    kernel = reidemeister_schreier(lambda_presentation(), V4_QUOTIENT_OF_LAMBDA)
    assert abelianization(kernel) == abelianization(gamma_presentation())
