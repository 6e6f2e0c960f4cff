"""Numerical invariants of the quotient complex and the uniformized surface.

Counting formulas for an N-vertex quotient of the product of two (q+1)-regular
trees, the Chern numbers of the algebraized surface, and the mod-l kernel of
the cochain map assembled from the edge bijections, whose vanishing (together
with the abelianization being Z/15) certifies a trivial Albanese variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .certify import CertificateResult
from .localperm import t_map
from .presentations import abelianizations
from .squares import V4Structure


@dataclass(frozen=True)
class ComplexCounts:
    vertices: int
    q: int
    edges: int
    squares: int
    chi: int


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
    """(c1^2, c2) = (2N(q-1)^2, N(q-1)^2); Noether's identity is asserted."""
    counts = complex_counts(n_vertices, q)
    c1_sq = 2 * n_vertices * (q - 1) ** 2
    c2 = n_vertices * (q - 1) ** 2
    if (c1_sq + c2) % 12 or (c1_sq + c2) // 12 != counts.chi:
        raise AssertionError("Noether identity chi = (c1^2 + c2)/12 failed")
    return c1_sq, c2


# -- the Albanese kernel -----------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _rank_mod(matrix: list[list[int]], ell: int) -> int:
    m = [[x % ell for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, ell)
        m[rank] = [(x * inv) % ell for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % ell for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def boundary_matrix(structure: V4Structure) -> list[list[int]]:
    """Integer matrix of the cochain map on zero-sum functions.

    Domain: for each vertex s_ij a zero-sum function on A (the h part) and
    one on B (the v part), in the basis e_x - e_x0 over the non-initial
    labels; 4 * (|A|-1 + |B|-1) columns, vertex by vertex in the order
    s_00, s_01, s_10, s_11.  Rows: one per (unoriented edge, attached
    square) pair, the horizontal edges first.  A horizontal edge (b,j)
    contributes f_h(0,j) o t^0 - f_h(1,j) o t^1, a vertical edge (a,i)
    contributes f_v(i,0) o t^0 - f_v(i,1) o t^1.
    """
    a_names, b_names = structure.a_names, structure.b_names
    width = len(a_names) + len(b_names) - 2  # columns of vertex s_ij: h part, then v part
    rows: list[list[int]] = []
    # (edge labels, labels of the functions the edge moves, offset of that
    # part in a vertex's columns, vertex steps of the edge's end and index):
    # edge (b,j) joins s_0j to s_1j, edge (a,i) joins s_i0 to s_i1
    for edges, labels, offset, end_step, index_step in (
        (b_names, a_names, 0, 2, 1),
        (a_names, b_names, len(a_names) - 1, 1, 2),
    ):
        for label in edges:
            for index in (0, 1):
                ends = (t_map(structure, label, index, 0), t_map(structure, label, index, 1))
                block = []
                for square in ends[0]:
                    row = [0] * (4 * width)
                    for end, sign in ((0, 1), (1, -1)):
                        start = (end * end_step + index * index_step) * width + offset
                        at = ends[end][square][0]
                        # the value at `at` of each basis vector e_x - e_x0
                        if at == labels[0]:
                            for k in range(start, start + len(labels) - 1):
                                row[k] -= sign
                        else:
                            row[start + labels.index(at) - 1] += sign
                    block.append(row)
                # zero-sum input functions must land in zero-sum functions on the squares
                if any(sum(col) != 0 for col in zip(*block)):
                    raise AssertionError(f"edge ({label},{index}) does not preserve zero-sum functions")
                rows.extend(block)
    return rows


def albanese_kernel_dim(structure: V4Structure, ell: int) -> int:
    """Dimension over Z/l of the kernel of the cochain map on zero-sum functions."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    matrix = boundary_matrix(structure)
    n_cols = len(matrix[0])
    return n_cols - _rank_mod(matrix, ell)


def hom_cyclic_dim(order: int, ell: int) -> int:
    """Dimension of Hom(Z/order, Z/l) as a Z/l vector space."""
    return 1 if gcd(order, ell) == ell else 0


def albanese_certificate(structure: V4Structure) -> CertificateResult:
    """Kernel dims vanish for l in {5, 7}; both routes to the abelianization
    give Z/15; Hom(Gamma^ab, Z/l), read from the computed factors and free
    rank, vanishes for l in {7, 11, 13}."""
    kernel_dims = {ell: albanese_kernel_dim(structure, ell) for ell in (5, 7)}
    (factors, rank), (rs_factors, rs_rank) = abelianizations()
    hom_checks = {ell: rank + sum(hom_cyclic_dim(f, ell) for f in factors) for ell in (7, 11, 13)}
    passed = (
        all(v == 0 for v in kernel_dims.values())
        and factors == (15,)
        and rank == 0
        and rs_factors == (15,)
        and rs_rank == 0
        and all(v == 0 for v in hom_checks.values())
    )
    return CertificateResult(
        "albanese",
        passed,
        {
            "kernel_dims": {str(k): v for k, v in kernel_dims.items()},
            "gamma_ab_factors": factors,
            "gamma_ab_free_rank": rank,
            "hom_checks": {str(k): v for k, v in hom_checks.items()},
            "passed": passed,
        },
    )
