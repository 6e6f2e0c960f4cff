import random

import pytest

from quatlat import invariants
from quatlat.invariants import (
    MR_BOUND,
    albanese_certificate,
    albanese_kernel_dim,
    boundary_matrix,
    chern_numbers,
    complex_counts,
    is_prime,
)
from quatlat.lattice import standard_structure
from quatlat.presentations import Presentation
from quatlat.smith import hom_dim, invariant_factors
from quatlat.squares import cell_counts, euler_characteristic
from quatlat.suite import invariants_certificate

from fraction_reference import reference_rank_mod
from test_squares import identity_structure, nonstable_structure


def test_complex_counts():
    counts = complex_counts(4, 2)
    assert (counts.edges, counts.squares, counts.chi) == (12, 9, 1)
    counts = complex_counts(1, 3)
    assert (counts.edges, counts.squares, counts.chi) == (4, 4, 1)
    with pytest.raises(ValueError):
        complex_counts(0, 2)
    with pytest.raises(ValueError):
        complex_counts(3, 2)  # 3*9 not divisible by 4


def test_chern_numbers():
    assert chern_numbers(4, 2) == (8, 4)
    assert chern_numbers(1, 3) == (8, 4)
    c1_sq, c2 = chern_numbers(8, 4)
    assert (c1_sq + c2) % 12 == 0
    assert (c1_sq + c2) // 12 == complex_counts(8, 4).chi


def test_counts_match_the_built_complex():
    counts = complex_counts(4, 2)
    s = standard_structure()
    assert cell_counts(s) == (4, counts.edges, counts.squares)
    assert euler_characteristic(s) == counts.chi == 1


def test_invariants_certificate_reads_its_structure():
    """The standard structure passes; a structure whose cell counts are not
    those of the fake quadric, or that lies outside the formulas' range,
    fails with its reason instead of raising."""
    result = invariants_certificate(standard_structure())
    assert result.passed
    assert result.details == {"edges": 12, "squares": 9, "chi": 1, "c1_squared": 8, "c2": 4}
    result = invariants_certificate(nonstable_structure())  # SL(2,3): q = 3, 16 edges and 16 squares
    assert result.passed is False
    assert (result.details["edges"], result.details["squares"], result.details["c1_squared"]) == (16, 16, 32)
    result = invariants_certificate(identity_structure())  # one square, q = 0
    assert result.passed is False
    assert "residue field size >= 2" in result.details["failure"]


def test_boundary_matrix_shape():
    s = standard_structure()
    matrix = boundary_matrix(s)
    assert len(matrix[0]) == 4 * (2 + 2)  # 16 columns: zero-sum bases at 4 vertices
    assert len(matrix) == 12 * 3  # one row per (unoriented edge, attached square)


def test_albanese_kernel_dims():
    s = standard_structure()
    assert albanese_kernel_dim(s, (5, 7)) == {5: 0, 7: 0}
    assert albanese_kernel_dim(s, [7, 5, 7]) == {7: 0, 5: 0}
    with pytest.raises(ValueError):
        albanese_kernel_dim(s, (5, 6))
    with pytest.raises(ValueError):
        albanese_kernel_dim(s, (MR_BOUND,))


def test_albanese_kernel_mod_two_report_only():
    """No vanishing assertion is available mod 2 (or mod 3, where the kernel
    is 4-dimensional); every value is pinned against Gaussian elimination
    over Z/l on the 16-column matrix."""
    s = standard_structure()
    matrix = boundary_matrix(s)
    ells = (2, 3, 5, 7, 11, 13)
    oracle = {ell: 16 - reference_rank_mod(matrix, ell) for ell in ells}
    assert albanese_kernel_dim(s, ells) == oracle == {2: 0, 3: 4, 5: 0, 7: 0, 11: 0, 13: 0}


def test_hom_dim_is_the_kernel_dimension_mod_ell():
    """dim Hom(coker M, Z/l) = cols - rank(M mod l), on seeded random
    matrices with entries in -3..3, some with no rows or no columns."""
    rng = random.Random(1100)
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(200)]
    for rows, cols in shapes:
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        factors, free_rank = invariant_factors(m, cols)
        for ell in (2, 3, 5, 7):
            assert hom_dim(factors, free_rank, ell) == cols - reference_rank_mod(m, ell), (m, ell)


def test_hom_dimensions():
    assert hom_dim([15], 0, 7) == 0
    assert hom_dim([15], 0, 5) == 1
    assert hom_dim([15], 0, 3) == 1
    assert hom_dim([15], 0, 11) == 0
    assert hom_dim([3, 15], 2, 3) == 4


def _trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


def test_is_prime_is_deterministic_miller_rabin():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 10_000))
    # Carmichael numbers, a strong pseudoprime to bases 2, 3, 5, 7, and one to every base up to 37
    for n in (561, 41041, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(1_000_000_000_000_000_003)
    assert is_prime(2**61 - 1) and not is_prime(MR_BOUND - 2)  # the largest odd input still answered
    with pytest.raises(ValueError):
        is_prime(MR_BOUND)


def test_albanese_certificate():
    result = albanese_certificate(standard_structure())
    assert result.name == "albanese" and result.passed
    assert result.details["kernel_dims"] == {"5": 0, "7": 0}
    assert result.details["gamma_ab_factors"] == (15,)
    assert result.details["gamma_ab_free_rank"] == 0
    assert result.details["hom_checks"] == {"7": 0, "11": 0, "13": 0}
    assert result.details["passed"] is True


def test_albanese_hom_checks_read_the_computed_abelianization(monkeypatch):
    """With Gamma presented as Z/21, Hom(Gamma^ab, Z/7) is Z/7 and the
    certificate turns red; a free part counts once for every l."""
    monkeypatch.setattr(invariants, "gamma_presentation", lambda: Presentation(("a",), ((1,) * 21,)))
    result = albanese_certificate(standard_structure())
    assert result.details["gamma_ab_factors"] == (21,)
    assert result.details["hom_checks"] == {"7": 1, "11": 0, "13": 0}
    assert not result.passed
    monkeypatch.setattr(invariants, "gamma_presentation", lambda: Presentation(("a", "b"), ((1,) * 15,)))
    result = albanese_certificate(standard_structure())
    assert (result.details["gamma_ab_factors"], result.details["gamma_ab_free_rank"]) == ((15,), 1)
    assert result.details["hom_checks"] == {"7": 1, "11": 1, "13": 1}
    assert not result.passed


def test_albanese_certificate_is_red_on_the_identity_structure():
    """With |A| = |B| = 1 the cochain map has no columns, so both kernel
    dimensions read 0 without saying anything; the certificate must not pass."""
    result = albanese_certificate(identity_structure())
    assert result.details["kernel_dims"] == {"5": 0, "7": 0}
    assert not result.passed and result.details["passed"] is False
    assert "vacuous" in result.details["failure"]
    assert "failure" not in albanese_certificate(standard_structure()).details


def test_albanese_certificate_is_red_through_its_kernel_dims(monkeypatch):
    """With the cochain matrix scaled by 5, every cochain is a cocycle mod 5:
    the kernel is all 16 columns at l = 5, still 0 at l = 7, and the
    certificate turns red through its kernel dimensions alone."""
    matrix = boundary_matrix(standard_structure())
    monkeypatch.setattr(invariants, "boundary_matrix", lambda structure: [[5 * x for x in row] for row in matrix])
    result = albanese_certificate(standard_structure())
    assert result.details["kernel_dims"] == {"5": 16, "7": 0}
    assert result.details["hom_checks"] == {"7": 0, "11": 0, "13": 0}
    assert not result.passed and result.details["passed"] is False
