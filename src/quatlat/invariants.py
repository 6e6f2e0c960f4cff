"""Numerical invariants of the quotient complex and the uniformized surface.

Counting formulas for an N-vertex quotient of the product of two (q+1)-regular
trees, the Chern numbers of the algebraized surface, and the mod-l kernel of
the cochain map assembled from the edge bijections, whose vanishing (together
with Gamma^ab = Z/15, read from Gamma's own presentation) certifies a trivial
Albanese variety.  The cochain map reads the complex's incidence from
`squares` alone: where each edge ends (`edge_vertices`) and what each square
on it meets there (`edge_ends`).

Every Z/l dimension here, the kernel dimensions and the Hom checks alike, is
read from Smith invariant factors by one rule, smith.hom_dim.
`albanese_certificate` returns `(passed, details)` like every certificate;
`suite.run_all` names and times it.
"""

from __future__ import annotations

from collections import namedtuple

from .presentations import abelianization, gamma_presentation
from .smith import hom_dim, invariant_factors
from .squares import VERTICES, InvalidStructureError, V4Structure, edge_ends, edge_vertices

ComplexCounts = namedtuple("ComplexCounts", "vertices q edges squares chi")


def complex_counts(n_vertices: int, q: int) -> ComplexCounts:
    """Edges N(q+1), squares N(q+1)^2/4, Euler characteristic N(q-1)^2/4."""
    if n_vertices < 1 or q < 2:
        raise ValueError("need at least one vertex and residue field size >= 2")
    if (n_vertices * (q + 1) ** 2) % 4:
        raise ValueError("N(q+1)^2 must be divisible by 4")
    return ComplexCounts(
        n_vertices,
        q,
        n_vertices * (q + 1),
        n_vertices * (q + 1) ** 2 // 4,
        n_vertices * (q - 1) ** 2 // 4,
    )


def chern_numbers(n_vertices: int, q: int) -> tuple[int, int]:
    """(c1^2, c2) = (2N(q-1)^2, N(q-1)^2) for the (N, q) that complex_counts
    accepts.  Noether's formula chi = (c1^2 + c2)/12 holds for each of them
    by algebra, not as a check: c1^2 + c2 = 3N(q-1)^2, and 4 | N(q+1)^2
    gives 4 | N(q-1)^2, the two differing by 4Nq."""
    complex_counts(n_vertices, q)  # the range and divisibility check
    c2 = n_vertices * (q - 1) ** 2
    return 2 * c2, c2


# -- the Albanese kernel -----------------------------------------------------


# 2..37 alone would stop at 318665857834031151167461, a strong pseudoprime to each of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on _MR_BASES, exact below MR_BOUND; ValueError from there on."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is at or above {MR_BOUND}, where primality is not decided exactly")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s)) for a in _MR_BASES)


def boundary_matrix(structure: V4Structure) -> list[list[int]]:
    """Integer matrix of the cochain map on zero-sum functions.

    Domain: for each vertex s_ij a zero-sum function on A (the h part) and
    one on B (the v part), in the basis e_x - e_x0 over the non-initial
    labels; 4 * (|A|-1 + |B|-1) columns, vertex by vertex in the order
    s_00, s_01, s_10, s_11.  Rows: one per (unoriented edge, attached
    square) pair, the horizontal edges first.  An edge from s to s' whose
    square meets the labels t^0 at s and t^1 at s' (`squares.edge_ends`)
    contributes f(s) o t^0 - f(s') o t^1, f being the h part for a
    horizontal edge and the v part for a vertical one.
    """
    a_names, b_names = structure.a_names, structure.b_names
    width = len(a_names) + len(b_names) - 2  # columns of vertex s_ij: h part, then v part
    rows: list[list[int]] = []
    # (edge labels, labels of the functions the edge moves, offset of that
    # part in a vertex's columns)
    for edges, labels, offset in ((b_names, a_names, 0), (a_names, b_names, len(a_names) - 1)):
        for label in edges:
            for index in (0, 1):
                starts = [VERTICES.index(vertex) * width + offset for vertex in edge_vertices(structure, label, index)]
                block = []
                for pair in edge_ends(structure, label, index):
                    row = [0] * (4 * width)
                    for start, at, sign in zip(starts, pair, (1, -1)):
                        # the value at `at` of each basis vector e_x - e_x0
                        if at == labels[0]:
                            for k in range(start, start + len(labels) - 1):
                                row[k] -= sign
                        else:
                            row[start + labels.index(at) - 1] += sign
                    block.append(row)
                # zero-sum input functions must land in zero-sum functions on the squares
                if any(sum(col) != 0 for col in zip(*block)):
                    raise InvalidStructureError(f"edge ({label},{index}) does not preserve zero-sum functions")
                rows.extend(block)
    return rows


def albanese_kernel_dim(structure: V4Structure, ells: tuple[int, ...] | list[int]) -> dict[int, int]:
    """Dimension over Z/l of the kernel of the cochain map on zero-sum
    functions, for each prime l in ells, from one call to invariant_factors
    on the cochain matrix."""
    for ell in ells:
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
    factors, free_rank = invariant_factors(boundary_matrix(structure))
    return {ell: hom_dim(factors, free_rank, ell) for ell in ells}


def albanese_certificate(structure: V4Structure) -> tuple[bool, dict]:
    """Kernel dims vanish for l in {5, 7} on a nonempty domain; Gamma^ab is
    Z/15; Hom(Gamma^ab, Z/l), read from the computed factors and free rank,
    vanishes for l in {7, 11, 13}.  The second route to Gamma^ab is checked
    once, by suite.abelianization_certificate."""
    try:
        kernel_dims = albanese_kernel_dim(structure, (5, 7))
    except InvalidStructureError as exc:
        return False, {"failure": str(exc)}
    factors, rank = abelianization(gamma_presentation())
    hom_checks = {ell: hom_dim(factors, rank, ell) for ell in (7, 11, 13)}
    # the columns of boundary_matrix: with |A| = |B| = 1 there are none, and
    # a kernel dimension of 0 says nothing
    domain = len(structure.a_names) + len(structure.b_names) - 2
    passed = (
        domain > 0
        and all(v == 0 for v in kernel_dims.values())
        and factors == [15]
        and rank == 0
        and all(v == 0 for v in hom_checks.values())
    )
    details = {
        "kernel_dims": {str(k): v for k, v in kernel_dims.items()},
        "gamma_ab_factors": tuple(factors),
        "gamma_ab_free_rank": rank,
        "hom_checks": {str(k): v for k, v in hom_checks.items()},
        "passed": passed,
    }
    if domain == 0:
        details["failure"] = "the cochain map has no columns (|A| = |B| = 1), so its kernel dimensions are vacuous"
    return passed, details
