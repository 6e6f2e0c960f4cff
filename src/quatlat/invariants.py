"""Numerical invariants of the quotient complex and the uniformized surface.

Counting formulas for an N-vertex quotient of the product of two (q+1)-regular
trees, the Chern numbers of the algebraized surface, and the mod-l kernel of
the cochain map assembled from the edge bijections, whose vanishing (together
with the abelianization being Z/15) certifies a trivial Albanese variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .localperm import t_map
from .presentations import (
    abelianization,
    gamma_presentation,
    lambda_presentation,
    reidemeister_schreier,
    v4_quotient_of_lambda,
)
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


def boundary_matrix(structure: V4Structure, flip_signs: bool = False) -> list[list[int]]:
    """Integer matrix of the cochain map on zero-sum functions.

    Domain: for each vertex s_ij a zero-sum function on A (the h part) and
    one on B (the v part), in the basis e_x - e_x0 over the non-initial
    labels; 4 * (|A|-1 + |B|-1) columns.  Rows: one per (unoriented edge,
    attached square) pair.  A horizontal edge (b,j) contributes
    f_h(0,j) o t^0 - f_h(1,j) o t^1, a vertical edge (a,i) contributes
    f_v(i,0) o t^0 - f_v(i,1) o t^1.
    """
    a_names, b_names = structure.a_names, structure.b_names
    columns: list[tuple[int, int, str, str]] = []  # (i, j, side, label)
    for i in (0, 1):
        for j in (0, 1):
            for x in a_names[1:]:
                columns.append((i, j, "h", x))
            for x in b_names[1:]:
                columns.append((i, j, "v", x))
    col_index = {c: k for k, c in enumerate(columns)}
    sign = -1 if flip_signs else 1

    def basis_value(side_names: tuple[str, ...], label: str, at: str) -> int:
        # value at `at` of the basis vector e_label - e_first
        if at == label:
            return 1
        if at == side_names[0]:
            return -1
        return 0

    rows: list[list[int]] = []

    def emit_block(label: str, block: list[list[int]]) -> None:
        # zero-sum input functions must land in zero-sum functions on the squares
        if any(sum(col) != 0 for col in zip(*block)):
            raise AssertionError(f"edge {label} does not preserve zero-sum functions")
        rows.extend(block)

    for b in b_names:
        for j in (0, 1):
            t0 = t_map(structure, b, j, 0)
            t1 = t_map(structure, b, j, 1)
            block = []
            for square in t0:
                row = [0] * len(columns)
                a0 = t0[square][0]
                a1 = t1[square][0]
                for x in a_names[1:]:
                    row[col_index[(0, j, "h", x)]] += sign * basis_value(a_names, x, a0)
                    row[col_index[(1, j, "h", x)]] -= sign * basis_value(a_names, x, a1)
                block.append(row)
            emit_block(f"({b},{j})", block)
    for a in a_names:
        for i in (0, 1):
            t0 = t_map(structure, a, i, 0)
            t1 = t_map(structure, a, i, 1)
            block = []
            for square in t0:
                row = [0] * len(columns)
                b0 = t0[square][0]
                b1 = t1[square][0]
                for x in b_names[1:]:
                    row[col_index[(i, 0, "v", x)]] += sign * basis_value(b_names, x, b0)
                    row[col_index[(i, 1, "v", x)]] -= sign * basis_value(b_names, x, b1)
                block.append(row)
            emit_block(f"({a},{i})", block)
    return rows


def albanese_kernel_dim(structure: V4Structure, ell: int, flip_signs: bool = False) -> int:
    """Dimension over Z/l of the kernel of the cochain map on zero-sum functions."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    matrix = boundary_matrix(structure, flip_signs)
    n_cols = len(matrix[0])
    return n_cols - _rank_mod(matrix, ell)


def hom_cyclic_dim(order: int, ell: int) -> int:
    """Dimension of Hom(Z/order, Z/l) as a Z/l vector space."""
    return 1 if gcd(order, ell) == ell else 0


@dataclass(frozen=True)
class AlbaneseReport:
    kernel_dims: dict[int, int]
    gamma_ab_factors: tuple[int, ...]
    gamma_ab_free_rank: int
    hom_checks: dict[int, int]
    passed: bool

    def as_json(self) -> dict:
        return {
            "kernel_dims": {str(k): v for k, v in self.kernel_dims.items()},
            "gamma_ab_factors": list(self.gamma_ab_factors),
            "gamma_ab_free_rank": self.gamma_ab_free_rank,
            "hom_checks": {str(k): v for k, v in self.hom_checks.items()},
            "passed": self.passed,
        }


def albanese_certificate(structure: V4Structure) -> AlbaneseReport:
    """Kernel dims vanish for l in {5, 7}; both routes to the abelianization
    give Z/15; Hom(Z/15, Z/l) vanishes for l in {7, 11, 13}."""
    kernel_dims = {ell: albanese_kernel_dim(structure, ell) for ell in (5, 7)}
    factors, rank = abelianization(gamma_presentation())
    rs_kernel = reidemeister_schreier(lambda_presentation(), v4_quotient_of_lambda())
    rs_factors, rs_rank = abelianization(rs_kernel)
    hom_checks = {ell: hom_cyclic_dim(15, ell) for ell in (7, 11, 13)}
    passed = (
        all(v == 0 for v in kernel_dims.values())
        and factors == [15]
        and rank == 0
        and rs_factors == [15]
        and rs_rank == 0
        and all(v == 0 for v in hom_checks.values())
    )
    return AlbaneseReport(kernel_dims, tuple(factors), rank, hom_checks, passed)
