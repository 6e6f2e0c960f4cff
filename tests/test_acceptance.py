"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is equality; runtime
budgets are printed with each line and asserted only where the budget is
generous enough (>= 1 s) to be meaningful across machines.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from quatlat.certify import (
    ball_check,
    neighbors_certificate,
    order_discriminant,
    ramified_places,
    stabilizer_certificate,
)
from quatlat.embeddings import RHO_T, RHO_Y
from quatlat.invariants import albanese_certificate, albanese_kernel_dim, chern_numbers, complex_counts
from quatlat.lattice import generator_images, standard_structure
from quatlat.localperm import local_group, reference_group, sigma
from quatlat.places import NAMED_PLACES, PLACE_ONE, PLACE_ZETA, valuation
from quatlat.presentations import (
    V4_QUOTIENT_OF_LAMBDA,
    abelianization,
    evaluate_word,
    fixed_presentations,
    is_projectively_trivial,
    lambda_presentation,
    orbifold_presentation,
    reidemeister_schreier,
    same_presentation,
)
from quatlat.quaternion import named_elements, standard_algebra
from quatlat.rational import RationalFunction
from quatlat.squares import (
    VERTICES,
    cell_counts,
    is_complete_bipartite,
    is_inverse_stable,
    link,
    v4_orbits_of_squares,
    verify_v4,
)
from quatlat.tree import distance

from conftest import (
    make_rng,
    make_tail,
    random_integral_unit_matrix,
    random_invertible_matrix,
    random_nonzero_poly,
    random_poly,
    random_quaternion,
    random_unit,
    wreath_from_cycles,
)
from fraction_reference import reference_matrix_projective_eq
from parsing import parse_quaternion, parse_rational
from test_embeddings import expected_generator_table


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:02d} ({name})")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  criterion {number:02d} ({name}) [{elapsed * 1000:.1f} ms]")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_01_ramification():
    with criterion(1, "ramification"):
        assert ramified_places() == [PLACE_ONE, PLACE_ZETA]


def test_criterion_02_discriminant():
    with criterion(2, "discriminant"):
        assert order_discriminant() == parse_rational("1+z^3") ** 2


def test_criterion_03_splitting_oracles():
    with criterion(3, "splitting oracles", budget_s=1.0):
        alg = standard_algebra()
        for which in (RHO_Y, RHO_T):
            ri, rj = which.image_i, which.image_j
            assert (ri * ri + ri).entries == which.identity.scale(which.embed_scalar(alg.a)).entries
            assert (rj * rj).entries == which.identity.scale(which.embed_scalar(alg.b)).entries
            assert (rj * ri).entries == (ri * rj + rj).entries
        rng = make_rng(300)
        for _ in range(1000):
            q = random_quaternion(rng, alg, 1)
            assert RHO_Y(q).det() == RHO_Y.embed_scalar(q.rnorm())
            assert RHO_T(q).det() == RHO_T.embed_scalar(q.rnorm())
        expected_y, expected_t = expected_generator_table()
        ne = named_elements()
        for name, q in (("b1", ne.B1), ("b2", ne.B2), ("c1", ne.C1), ("c2", ne.C2)):
            assert reference_matrix_projective_eq(RHO_Y(q), expected_y[name])
            assert reference_matrix_projective_eq(RHO_T(q), expected_t[name])


def test_criterion_04_v4_structure():
    with criterion(4, "V4 structure"):
        s = standard_structure()
        assert verify_v4(s.a_names, s.b_names, s.elements, s.ops) == ()
        assert is_inverse_stable(s)
        ne = named_elements()
        alg = ne.B1.algebra
        scalar = lambda text: alg.scalar(parse_rational(text))
        products = {
            ("b1", "b2"): scalar("1+z") * parse_quaternion("z+z^2 + z*I + J + IJ", alg),
            ("b1", "b2^-1"): scalar("1/z") * parse_quaternion("z+z^2 + I + IJ", alg),
            ("b1", "c2"): scalar("1+z") * parse_quaternion("1+z+z^2 + I + IJ", alg),
            ("b1^-1", "b2"): alg.gen_i(),
            ("b1^-1", "b2^-1"): scalar("1/(z+z^2)") * parse_quaternion("1+z + z*I + J", alg),
            ("b1^-1", "c2"): parse_quaternion("1 + I", alg),
            ("c1", "b2"): scalar("1+z") * parse_quaternion("z^2 + z*I + J + IJ", alg),
            ("c1", "b2^-1"): scalar("1/z") * parse_quaternion("1 + z*I + J", alg),
            ("c1", "c2"): scalar("1+z") * parse_quaternion("z^2 + IJ", alg),
        }
        for (left, right), expected in products.items():
            assert s.elements[left] * s.elements[right] == expected, (left, right)


def test_criterion_05_complex():
    with criterion(5, "square complex"):
        s = standard_structure()
        assert cell_counts(s) == (4, 12, 9)
        for v in VERTICES:
            corners = link(s, v)
            assert len(corners) == 9
            assert is_complete_bipartite(corners, s.a_names, s.b_names)
        orbits = v4_orbits_of_squares(s)
        assert len(orbits) == 3
        stated = [
            ("b1", "b2", "b2^-1", "c1"),
            ("b1", "c2", "b2", "b1^-1"),
            ("c1", "c2", "c2", "c1"),
        ]
        for rep in stated:
            assert sum(rep in orbit for orbit in orbits) == 1
        for orbit in orbits:
            assert sum(rep in orbit for rep in stated) == 1


def test_criterion_06_local_permutation_groups():
    with criterion(6, "local permutation groups"):
        s = standard_structure()
        pa0, pa1 = local_group(s, "A", 0), local_group(s, "A", 1)
        pb0, pb1 = local_group(s, "B", 0), local_group(s, "B", 1)
        ref_a = reference_group(s.a_names, s.inv)
        ref_b = reference_group(s.b_names, s.inv)
        assert len(pa0) == len(pa1) == len(ref_a) == 12
        assert len(pb0) == len(pb1) == len(ref_b) == 12
        assert pa0 == pa1 == ref_a
        assert pb0 == pb1 == ref_b
        assert sigma(s, "b2", 0) == wreath_from_cycles("(((b1 c1 b1^-1), (b1 b1^-1 c1)), flip)", s.a_names)
        assert sigma(s, "c2", 0) == wreath_from_cycles("(((b1 b1^-1), (b1 b1^-1)), flip)", s.a_names)


def test_criterion_07_stabilizer():
    with criterion(7, "stabilizer"):
        passed, details = stabilizer_certificate()
        assert passed, details
        assert details["mod_y"] == [[1, 0], [1, 1]]
        assert details["mod_t"] == [[1, 1], [0, 1]]


def test_criterion_08_neighbors():
    with criterion(8, "neighbors"):
        passed, details = neighbors_certificate(standard_structure())
        assert passed, details


def test_criterion_09_simple_transitivity_ball():
    with criterion(9, "simple transitivity ball", budget_s=20.0):
        expected = {0: 1, 1: 7, 2: 28, 3: 88, 4: 244}
        for radius in range(5):
            report = ball_check(radius)
            assert report.injective
            assert report.distinct_elements == report.distinct_vertices == expected[radius]
            assert report.expected_vertices == expected[radius]


def test_criterion_10_presentations():
    with criterion(10, "presentations", budget_s=1.0):
        assert same_presentation(orbifold_presentation(standard_structure()), lambda_presentation())
        images = generator_images(standard_structure())
        for name, pres in fixed_presentations().items():
            for rel in pres.relators:
                assert is_projectively_trivial(evaluate_word(rel, images, pres)), (
                    name,
                    pres.word_str(rel),
                )
        gr = fixed_presentations()["gr"]
        texts = [gr.word_str(r) for r in gr.relators]
        assert "db1db1" in texts and "db2db2" in texts


def test_criterion_11_abelianization():
    with criterion(11, "abelianization", budget_s=1.0):
        assert abelianization(fixed_presentations()["gamma"]) == ([15], 0)
        kernel = reidemeister_schreier(lambda_presentation(), V4_QUOTIENT_OF_LAMBDA)
        assert abelianization(kernel) == ([15], 0)


def test_criterion_12_invariants():
    with criterion(12, "invariants"):
        counts = complex_counts(4, 2)
        assert (counts.edges, counts.squares, counts.chi) == (12, 9, 1)
        c1_sq, c2 = chern_numbers(4, 2)
        assert (c1_sq, c2) == (8, 4)
        assert (c1_sq + c2) // 12 == counts.chi == 1


def test_criterion_13_albanese():
    with criterion(13, "albanese"):
        s = standard_structure()
        assert albanese_kernel_dim(s, (5, 7)) == {5: 0, 7: 0}
        passed, details = albanese_certificate(s)
        assert passed, details


def test_criterion_14_property_suites():
    with criterion(14, "property suites", budget_s=10.0):
        alg = standard_algebra()
        rng = make_rng(1400)
        for _ in range(1000):
            p = random_quaternion(rng, alg, 1)
            q = random_quaternion(rng, alg, 1)
            r = random_quaternion(rng, alg, 1)
            assert (p * q) * r == p * (q * r)
            assert (p * q).rnorm() == p.rnorm() * q.rnorm()
            ch = p * p + p.scale(p.rtrace()) + alg.scalar(p.rnorm())
            assert ch.is_zero()

        rng = make_rng(1401)
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

        rng = make_rng(1402)
        verts = []
        for _ in range(50):
            level = rng.randint(-3, 4)
            tail = make_tail(level, [e for e in range(level - 4, level) if rng.random() < 0.4])
            verts.append(("y", level, tail))
        for _ in range(1000):
            u, v, w = rng.choice(verts), rng.choice(verts), rng.choice(verts)
            duv = distance(u, v)
            assert duv >= 0 and (duv == 0) == (u == v)
            assert duv == distance(v, u)
            assert distance(u, w) <= duv + distance(v, w)

        rng = make_rng(1403)
        from quatlat.tree import vertex_from_matrix
        from quatlat.rational import rf

        for _ in range(1000):
            m = random_invertible_matrix(rng, "y", 2)
            k = random_integral_unit_matrix(rng, "y")
            power = rng.randint(-2, 2)
            pi_power = rf(1 << power) if power >= 0 else rf(1, 1 << -power)
            assert vertex_from_matrix(m * k) == vertex_from_matrix(m)
            assert vertex_from_matrix(m.scale(pi_power * random_unit(rng))) == vertex_from_matrix(m)
