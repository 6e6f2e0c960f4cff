"""The full certificate suite behind `quatlat verify`.

Every certificate is a plain function that returns `(passed, details)` and
never reads the clock.  `run_all`'s table is the one place that names the
twelve, orders them and times them, and it builds each one's
`CertificateResult` once its clock has stopped.  It builds the standard
V4-structure once, before any clock starts, and passes it to each
certificate that takes it as an argument, the ball check among them.
Each fact has one home: only `abelianization` builds the Reidemeister-Schreier
kernel, afresh on every run; `albanese` reads Gamma^ab from Gamma alone.
So a green run certifies the whole chain: exact arithmetic, the splittings,
the structure and its complex, the local permutation groups, the
presentations and the invariants.
"""

from __future__ import annotations

import time
from collections import namedtuple

from .certify import (
    ball_certificate,
    discriminant_certificate,
    neighbors_certificate,
    ramification_certificate,
    stabilizer_certificate,
)
from .invariants import albanese_certificate, chern_numbers, complex_counts
from .lattice import generator_images, standard_structure
from .localperm import local_group, reference_group
from .presentations import (
    V4_QUOTIENT_OF_LAMBDA,
    abelianization,
    evaluate_word,
    fixed_presentations,
    gamma_presentation,
    is_projectively_trivial,
    lambda_presentation,
    orbifold_presentation,
    reidemeister_schreier,
    same_presentation,
)
from .squares import (
    VERTICES,
    InvalidStructureError,
    V4Structure,
    cell_counts,
    euler_characteristic,
    is_complete_bipartite,
    is_inverse_stable,
    link,
    verify_v4,
)

CertificateResult = namedtuple("CertificateResult", "name passed details elapsed_ms")


def structure_certificate(structure: V4Structure) -> tuple[bool, dict]:
    verified = not verify_v4(structure.a_names, structure.b_names, structure.elements, structure.ops)
    stable = is_inverse_stable(structure)
    counts_ok = len(structure.squares) == 9
    return verified and stable and counts_ok, {
        "verified": verified,
        "assumed": ["generation"],
        "squares": len(structure.squares),
        "inverse_stable": stable,
    }


def links_certificate(structure: V4Structure) -> tuple[bool, dict]:
    counts = cell_counts(structure)
    all_links = {
        v: is_complete_bipartite(link(structure, v), structure.a_names, structure.b_names) for v in VERTICES
    }
    chi = euler_characteristic(structure)
    ok = counts == (4, 12, 9) and all(all_links.values()) and chi == 1
    return ok, {"counts": list(counts), "links_complete": all_links, "chi": chi}


def local_groups_certificate(structure: V4Structure) -> tuple[bool, dict]:
    try:
        pa0 = local_group(structure, "A", 0)
        pa1 = local_group(structure, "A", 1)
        pb0 = local_group(structure, "B", 0)
        pb1 = local_group(structure, "B", 1)
    except InvalidStructureError as exc:
        return False, {"failure": str(exc)}
    ref_a = reference_group(structure.a_names, structure.inv)
    ref_b = reference_group(structure.b_names, structure.inv)
    ok = (
        pa0 == pa1 == ref_a
        and pb0 == pb1 == ref_b
        and len(pa0) == 12
        and len(pb0) == 12
    )
    return ok, {
        "order_a": len(pa0),
        "order_b": len(pb0),
        "a_equal_reference": pa0 == ref_a,
        "b_equal_reference": pb0 == ref_b,
    }


def relators_certificate(structure: V4Structure) -> tuple[bool, dict]:
    images = generator_images(structure)
    failures = []
    for label, pres in fixed_presentations().items():
        for rel in pres.relators:
            value = evaluate_word(rel, images, pres)
            if not is_projectively_trivial(value):
                failures.append(f"{label}: {pres.word_str(rel)}")
    try:
        matches = same_presentation(orbifold_presentation(structure), lambda_presentation())
    except InvalidStructureError as exc:
        failures.append(str(exc))
        matches = False
    else:
        if not matches:
            failures.append("orbifold presentation differs from the fixed one")
    return not failures, {"failures": failures, "orbifold_matches": matches}


def abelianization_certificate() -> tuple[bool, dict]:
    """Gamma^ab = Z/15 by both routes: Gamma's presentation, and the RS kernel of Lambda -> V4."""
    gamma_factors, gamma_rank = abelianization(gamma_presentation())
    kernel = reidemeister_schreier(lambda_presentation(), V4_QUOTIENT_OF_LAMBDA)
    kernel_factors, kernel_rank = abelianization(kernel)
    ok = gamma_factors == kernel_factors == [15] and gamma_rank == kernel_rank == 0
    return ok, {
        "gamma": {"factors": tuple(gamma_factors), "free_rank": gamma_rank},
        "rs_kernel": {"factors": tuple(kernel_factors), "free_rank": kernel_rank},
    }


def invariants_certificate(structure: V4Structure) -> tuple[bool, dict]:
    """The counting formulas at N = 4 vertices and q = |A| - 1 agree with the
    structure's own cell counts and give c1^2 = 8, c2 = 4."""
    cells = cell_counts(structure)
    n, q = cells[0], len(structure.a_names) - 1
    if len(structure.b_names) != q + 1:
        return False, {"failure": f"N = {n}, q = {q}: |A| != |B|, so the two trees have different degrees"}
    try:
        counts, (c1_sq, c2) = complex_counts(n, q), chern_numbers(n, q)
    except ValueError as exc:
        return False, {"failure": f"N = {n}, q = {q}: {exc}"}
    ok = (
        (counts.vertices, counts.edges, counts.squares) == cells
        and (counts.edges, counts.squares, counts.chi) == (12, 9, 1)
        and (c1_sq, c2) == (8, 4)
    )
    return ok, {
        "edges": counts.edges,
        "squares": counts.squares,
        "chi": counts.chi,
        "c1_squared": c1_sq,
        "c2": c2,
    }


def run_all(radius: int) -> list[CertificateResult]:
    """Run every certificate in order and time each one."""
    # built per call: a module-level tuple would pin the functions, and code
    # that rebinds this module's names (a tracer) would not reach it
    structure = standard_structure()
    checks = (
        ("ramification", ramification_certificate),
        ("discriminant", discriminant_certificate),
        ("v4-structure", lambda: structure_certificate(structure)),
        ("links", lambda: links_certificate(structure)),
        ("local-permutation-groups", lambda: local_groups_certificate(structure)),
        ("stabilizer", stabilizer_certificate),
        ("neighbors", lambda: neighbors_certificate(structure)),
        ("relators", lambda: relators_certificate(structure)),
        ("abelianization", abelianization_certificate),
        ("ball-check", lambda: ball_certificate(radius, structure)),
        ("invariants", lambda: invariants_certificate(structure)),
        ("albanese", lambda: albanese_certificate(structure)),
    )
    results = []
    for name, check in checks:
        start = time.perf_counter()
        passed, details = check()
        elapsed_ms = (time.perf_counter() - start) * 1000
        results.append(CertificateResult(name, passed, details, elapsed_ms))
    return results
