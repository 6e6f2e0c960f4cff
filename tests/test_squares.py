import pytest

from quatlat import suite
from quatlat.lattice import standard_structure
from quatlat.quaternion import named_elements
from quatlat.squares import (
    VERTICES,
    GroupOps,
    InvalidStructureError,
    build_structure,
    cell_counts,
    complex_to_json,
    edge_ends,
    euler_characteristic,
    is_complete_bipartite,
    is_inverse_stable,
    link,
    links_to_dot,
    v4_orbits_of_squares,
    v4_square_image,
    verify_v4,
)
from quatlat.suite import structure_certificate

from conftest import c1_swapped_for_d


def perm_ops() -> GroupOps:
    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    def inverse(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    return GroupOps(mul=compose, inv=inverse, canon=lambda p: p)


def identity_structure():
    ident = (0,)
    return build_structure([("x", ident)], [("y", ident)], perm_ops())


def test_verify_v4_on_the_standard_sets():
    s = standard_structure()
    assert verify_v4(s.a_names, s.b_names, s.elements, s.ops) == ()


def test_verify_v4_rejects_non_inverse_closed():
    ne = named_elements()
    failures = verify_v4(("b1",), ("b2",), {"b1": ne.B1, "b2": ne.B2}, standard_structure().ops)
    assert failures
    assert any("inverse" in f for f in failures)


T = (1, 0, 2)  # a transposition, its own inverse
X, X_INV = (1, 2, 0), (2, 0, 1)  # a 3-cycle and its inverse


def perm_sides(a_side, b_side):
    return tuple(n for n, _ in a_side), tuple(n for n, _ in b_side), dict(a_side) | dict(b_side), perm_ops()


def b1_b2_sides():
    ne = named_elements()
    return ("b1",), ("b2",), {"b1": ne.B1, "b2": ne.B2}, standard_structure().ops


def c1_swapped_sides():
    s = c1_swapped_for_d()
    return s.a_names, s.b_names, s.elements, s.ops


NOT_CLOSED_A = "A not inverse-closed (or has duplicate elements)"
NOT_CLOSED_B = "B not inverse-closed (or has duplicate elements)"


@pytest.mark.parametrize(
    "sides, expected",
    [
        pytest.param(lambda: perm_sides([], [("y", T)]), ("empty side",), id="empty-side"),
        pytest.param(lambda: perm_sides([("s", T), ("t", T)], [("y", T)]), (NOT_CLOSED_A,), id="duplicate-element"),
        pytest.param(b1_b2_sides, (NOT_CLOSED_A, NOT_CLOSED_B), id="not-inverse-closed"),
        pytest.param(
            lambda: perm_sides([("x", X), ("x^-1", X_INV)], [("y", X), ("y^-1", X_INV)]),
            ("products x^-1y and xy^-1 coincide", "products y^-1x and yx^-1 coincide"),
            id="coinciding-products",
        ),
        pytest.param(c1_swapped_sides, ("AB and BA differ as sets",), id="ab-not-ba"),
    ],
)
def test_verify_v4_failures_are_exact(sides, expected):
    assert verify_v4(*sides()) == expected


def test_structure_certificate_fails_when_c1_is_swapped_for_d():
    """d is projectively its own inverse, so the inverse pairing still
    holds, but the products AB and BA no longer agree as sets."""
    passed, _ = structure_certificate(standard_structure())
    assert passed
    passed, details = structure_certificate(c1_swapped_for_d())
    assert not passed
    assert details["verified"] is False


def test_degenerate_identity_structure():
    s = identity_structure()
    assert len(s.squares) == 1
    assert is_inverse_stable(s)
    assert cell_counts(s) == (4, 4, 1)
    assert euler_characteristic(s) == 1
    for v in VERTICES:
        corners = link(s, v)
        assert is_complete_bipartite(corners, s.a_names, s.b_names)
        assert corners == [("x", "y")]
    assert len(v4_orbits_of_squares(s)) == 1


def test_standard_cell_counts_and_links():
    s = standard_structure()
    assert cell_counts(s) == (4, 12, 9)
    assert euler_characteristic(s) == 1
    for v in VERTICES:
        assert is_complete_bipartite(link(s, v), s.a_names, s.b_names)


def test_edges_lie_on_the_right_number_of_squares():
    """Each edge lies on one square per opposite label, and `edge_ends` pairs
    them in square order.  Oracle: the square [a,b'; b,a'] lies on (a,0) and
    (a',1), meeting b then b', and on (b,0) and (b',1), meeting a then a'."""
    s = standard_structure()
    for label in s.a_names + s.b_names:
        vertical = label in s.a_names
        opposite = s.b_names if vertical else s.a_names
        for index in (0, 1):
            pairs = edge_ends(s, label, index)
            assert len(pairs) == len(opposite)
            expected = [
                (b, bp) if vertical else (a, ap)
                for a, bp, b, ap in s.squares
                if (a, ap, b, bp)[(0 if vertical else 2) + index] == label
            ]
            assert pairs == expected


def test_edge_ends_on_the_commuting_square():
    s = standard_structure()
    on_edge = [sq for sq in s.squares if sq[0] == "c1"]
    assert dict(zip(on_edge, edge_ends(s, "c1", 0)))[("c1", "c2", "c2", "c1")] == ("c2", "c2")


def test_edge_ends_on_the_identity_structure():
    assert edge_ends(identity_structure(), "x", 0) == [("y", "y")]


def test_edge_ends_reject_an_unknown_label_and_a_repeated_square():
    s = standard_structure()
    with pytest.raises(ValueError, match="unknown edge label 'd'"):
        edge_ends(s, "d", 0)
    doubled = s._replace(squares=s.squares + s.squares[:1])
    with pytest.raises(InvalidStructureError, match="meets an opposite label twice"):
        edge_ends(doubled, s.squares[0][0], 0)


def test_expected_square_is_present():
    s = standard_structure()
    assert ("b1", "b2", "b2^-1", "c1") in s.squares


def test_inverse_stability_of_the_standard_structure():
    s = standard_structure()
    assert is_inverse_stable(s)
    # equivalent formulation: the label-inverting involution preserves squares
    inv = s.inv
    image = {(inv[a], inv[bp], inv[b], inv[ap]) for a, bp, b, ap in s.squares}
    assert image == set(s.squares)


# A valid V4-structure inside SL(2,3), acting on the 8 nonzero vectors of
# GF(3)^2, that is NOT inverse-stable; found by exhaustive search over
# inverse-closed subsets, re-verified from scratch below.
NONSTABLE_A = (
    (0, 1, 3, 4, 2, 7, 5, 6),
    (0, 1, 4, 2, 3, 6, 7, 5),
    (2, 5, 4, 7, 1, 6, 0, 3),
    (6, 4, 0, 7, 2, 1, 5, 3),
)
NONSTABLE_B = (
    (2, 5, 1, 4, 7, 0, 3, 6),
    (5, 2, 0, 6, 3, 1, 7, 4),
    (4, 6, 3, 5, 1, 7, 0, 2),
    (6, 4, 7, 2, 0, 3, 1, 5),
)


def test_witnesses_live_in_sl2_f3():
    # each witness permutation comes from a determinant-1 matrix over GF(3)
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    from itertools import product

    images = {}
    for mat in product(range(3), repeat=4):
        a, b, c, d = mat
        if (a * d - b * c) % 3 == 1:
            perm = tuple(
                vecs.index(((a * v[0] + b * v[1]) % 3, (c * v[0] + d * v[1]) % 3)) for v in vecs
            )
            images[perm] = mat
    for p in NONSTABLE_A + NONSTABLE_B:
        assert p in images


def nonstable_structure():
    a_side = [(f"a{k}", p) for k, p in enumerate(NONSTABLE_A)]
    b_side = [(f"b{k}", p) for k, p in enumerate(NONSTABLE_B)]
    return build_structure(a_side, b_side, perm_ops())


def test_synthetic_non_inverse_stable_structure():
    s = nonstable_structure()
    assert len(s.squares) == 16
    assert not is_inverse_stable(s)
    # oracle: check the definition directly on the raw permutations
    ops = perm_ops()
    elems = {f"a{k}": p for k, p in enumerate(NONSTABLE_A)} | {f"b{k}": p for k, p in enumerate(NONSTABLE_B)}
    square_rels = set()
    for a, bp, b, ap in s.squares:
        assert ops.mul(elems[a], elems[bp]) == ops.mul(elems[b], elems[ap])
        square_rels.add((elems[a], elems[bp], elems[b], elems[ap]))
    stable = all(
        (ops.inv(a), ops.inv(bp), ops.inv(b), ops.inv(ap)) in square_rels
        for a, bp, b, ap in square_rels
    )
    assert not stable


def test_v4_action_and_orbits():
    s = standard_structure()
    orbits = v4_orbits_of_squares(s)
    assert sorted(len(o) for o in orbits) == [1, 4, 4]
    assert sum(len(o) for o in orbits) == 9
    # the stated representatives each lie in a distinct orbit
    reps = [
        ("b1", "b2", "b2^-1", "c1"),
        ("b1", "c2", "b2", "b1^-1"),
        ("c1", "c2", "c2", "c1"),
    ]
    for rep in reps:
        assert sum(rep in orbit for orbit in orbits) == 1
    for orbit in orbits:
        assert sum(rep in orbit for rep in reps) == 1
    # independent orbit computation straight from the two label maps
    inv = s.inv

    def gv(sq):
        a, bp, b, ap = sq
        return (inv[a], b, bp, inv[ap])

    def gh(sq):
        a, bp, b, ap = sq
        return (ap, inv[bp], inv[b], a)

    seen = set()
    independent_orbits = []
    for sq in s.squares:
        if sq in seen:
            continue
        orbit = {sq, gv(sq), gh(sq), gv(gh(sq))}
        assert orbit <= set(s.squares)
        seen |= orbit
        independent_orbits.append(orbit)
    assert sorted(len(o) for o in independent_orbits) == [1, 4, 4]
    assert sorted(map(sorted, independent_orbits)) == sorted(sorted(o) for o in orbits)


def test_v4_action_respects_orientation():
    s = standard_structure()
    for sq in s.squares:
        for gamma in range(4):
            a, bp, b, ap = v4_square_image(s, sq, gamma)
            assert a in s.a_names and ap in s.a_names
            assert b in s.b_names and bp in s.b_names


def test_v4_action_is_the_klein_four_group_on_2_bit_ints():
    s = standard_structure()
    for sq in s.squares:
        assert v4_square_image(s, sq, 0) == sq
        for gamma in range(4):
            assert v4_square_image(s, v4_square_image(s, sq, gamma), gamma) == sq
        v_then_h = v4_square_image(s, v4_square_image(s, sq, 1), 2)
        h_then_v = v4_square_image(s, v4_square_image(s, sq, 2), 1)
        assert v4_square_image(s, sq, 3) == v_then_h == h_then_v
    # a square of a 4-element orbit has four distinct images
    assert len({v4_square_image(s, ("b1", "b2", "b2^-1", "c1"), gamma) for gamma in range(4)}) == 4
    for gamma in (4, -1, "v"):
        with pytest.raises(ValueError):
            v4_square_image(s, s.squares[0], gamma)


def test_v4_orbits_reject_a_square_set_that_is_not_closed():
    s = standard_structure()
    dropped = s._replace(squares=tuple(sq for sq in s.squares if sq != ("b1", "b2", "b2^-1", "c1")))
    with pytest.raises(InvalidStructureError, match="Klein-four action left the square set"):
        v4_orbits_of_squares(dropped)


def _swap_b2_and_c2(s):
    swap = {"b2": "c2", "c2": "b2"}
    return s._replace(squares=tuple(tuple(swap.get(x, x) for x in sq) for sq in s.squares))


def _b1_inverse_times_d(s):
    return s._replace(elements={**s.elements, "b1^-1": named_elements().D * s.elements["b1^-1"]})


@pytest.mark.parametrize(
    "perturb, red",
    [
        (
            lambda s: s._replace(squares=s.squares[1:]),
            {"v4-structure", "links", "local-permutation-groups", "relators", "invariants", "albanese"},
        ),
        (_swap_b2_and_c2, {"v4-structure", "local-permutation-groups", "relators"}),
        (
            lambda s: s._replace(inv={**s.inv, "b1": "c1"}),
            {"v4-structure", "local-permutation-groups", "relators", "ball-check"},
        ),
        (lambda s: c1_swapped_for_d(), {"v4-structure", "neighbors", "relators", "ball-check"}),
        (
            lambda s: s._replace(squares=s.squares + s.squares[:1]),
            {"v4-structure", "links", "local-permutation-groups", "invariants", "albanese"},
        ),
        (_b1_inverse_times_d, {"v4-structure", "neighbors", "ball-check"}),
    ],
    ids=[
        "square-dropped",
        "b2-c2-relabelled",
        "inverse-pairing-broken",
        "c1-swapped-for-d",
        "square-duplicated",
        "b1-inverse-times-d",
    ],
)
def test_every_certificate_reports_a_malformed_complex(monkeypatch, perturb, red):
    """A square set, inverse pairing or generator that no V4-structure has
    turns the certificates that read it red, with a result rather than a
    traceback.  All twelve run, as `verify` runs them; those that do not
    read the structure (ramification, discriminant, stabilizer and
    abelianization) stay green."""
    perturbed = perturb(standard_structure())
    monkeypatch.setattr(suite, "standard_structure", lambda: perturbed)
    results = suite.run_all(2)
    assert len(results) == 12
    assert {r.name for r in results if not r.passed} == red


def test_build_structure_rejects_an_invalid_structure():
    ops = perm_ops()
    with pytest.raises(InvalidStructureError):
        build_structure([("a", (1, 0, 2))], [("b", (0, 2, 1))], ops)


def test_json_and_dot_exports():
    s = standard_structure()
    data = complex_to_json(s)
    assert data["schema_version"] == 1
    assert data["vertices"] == ["s00", "s01", "s10", "s11"]
    assert len(data["edges"]) == 12
    assert len(data["squares"]) == 9
    assert all(len(path) == 4 for path in data["squares"])
    edge_ids = {e["id"] for e in data["edges"]}
    assert all(set(path) <= edge_ids for path in data["squares"])
    dot = links_to_dot(s)
    assert dot.startswith("graph links {") and dot.count("--") == 36
