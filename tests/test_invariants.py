import pytest

from quatlat.invariants import (
    albanese_certificate,
    albanese_kernel_dim,
    boundary_matrix,
    chern_numbers,
    complex_counts,
    hom_cyclic_dim,
)
from quatlat.lattice import standard_structure
from quatlat.smith import smith_normal_form
from quatlat.squares import cell_counts, euler_characteristic
from quatlat.suite import invariants_certificate

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
    assert albanese_kernel_dim(s, 5) == 0
    assert albanese_kernel_dim(s, 7) == 0
    with pytest.raises(ValueError):
        albanese_kernel_dim(s, 6)


def test_albanese_kernel_mod_two_report_only():
    """No vanishing assertion is available mod 2; the value is pinned against
    an independent route through the integer Smith normal form."""
    s = standard_structure()
    matrix = boundary_matrix(s)
    _, d, _ = smith_normal_form(matrix)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    rank_mod_2 = sum(1 for x in diag if x % 2 != 0)
    oracle_dim = len(matrix[0]) - rank_mod_2
    assert albanese_kernel_dim(s, 2) == oracle_dim == 0


def test_hom_dimensions():
    assert hom_cyclic_dim(15, 7) == 0
    assert hom_cyclic_dim(15, 5) == 1
    assert hom_cyclic_dim(15, 3) == 1
    assert hom_cyclic_dim(15, 11) == 0


def test_albanese_certificate():
    result = albanese_certificate(standard_structure())
    assert result.name == "albanese" and result.passed
    assert result.details["kernel_dims"] == {"5": 0, "7": 0}
    assert result.details["gamma_ab_factors"] == (15,)
    assert result.details["gamma_ab_free_rank"] == 0
    assert result.details["hom_checks"] == {"7": 0, "11": 0, "13": 0}
    assert result.details["passed"] is True


def test_albanese_hom_checks_read_the_computed_abelianization(monkeypatch):
    """With Gamma^ab reported as Z/21, Hom(Gamma^ab, Z/7) is Z/7 and the
    certificate turns red; a free part counts once for every l."""
    rs_route = ((15,), 0)
    monkeypatch.setattr("quatlat.invariants.abelianizations", lambda: (((21,), 0), rs_route))
    result = albanese_certificate(standard_structure())
    assert result.details["hom_checks"] == {"7": 1, "11": 0, "13": 0}
    assert not result.passed
    monkeypatch.setattr("quatlat.invariants.abelianizations", lambda: (((15,), 1), rs_route))
    result = albanese_certificate(standard_structure())
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
