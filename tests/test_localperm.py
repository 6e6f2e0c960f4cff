from quatlat.lattice import standard_structure
from quatlat.localperm import (
    generate,
    local_group,
    reference_group,
    sigma,
    squares_on_edge,
    t_map,
)
from quatlat.squares import build_structure, GroupOps

from conftest import wreath_from_cycles

# golden index tuples over the opposite side's labels x {0,1}, for the
# standard structure (A = b1, b1^-1, c1; B = b2, b2^-1, c2)
SIGMA_GOLDEN = {
    ("b1", 0): (5, 3, 4, 1, 2, 0),
    ("b1", 1): (4, 5, 3, 2, 0, 1),
    ("b1^-1", 0): (4, 5, 3, 2, 0, 1),
    ("b1^-1", 1): (5, 3, 4, 1, 2, 0),
    ("c1", 0): (4, 3, 5, 1, 0, 2),
    ("c1", 1): (4, 3, 5, 1, 0, 2),
    ("b2", 0): (4, 5, 3, 2, 0, 1),
    ("b2", 1): (5, 3, 4, 1, 2, 0),
    ("b2^-1", 0): (5, 3, 4, 1, 2, 0),
    ("b2^-1", 1): (4, 5, 3, 2, 0, 1),
    ("c2", 0): (4, 3, 5, 1, 0, 2),
    ("c2", 1): (4, 3, 5, 1, 0, 2),
}

# the elements of each of P^A_0, P^A_1, P^B_0, P^B_1 (all four coincide as
# index tuples, the two sides having the same label pattern)
LOCAL_GROUP_GOLDEN = frozenset(
    {
        (0, 1, 2, 3, 4, 5),
        (0, 2, 1, 5, 4, 3),
        (1, 0, 2, 4, 3, 5),
        (1, 2, 0, 5, 3, 4),
        (2, 0, 1, 4, 5, 3),
        (2, 1, 0, 3, 5, 4),
        (3, 4, 5, 0, 1, 2),
        (3, 5, 4, 2, 1, 0),
        (4, 3, 5, 1, 0, 2),
        (4, 5, 3, 2, 0, 1),
        (5, 3, 4, 1, 2, 0),
        (5, 4, 3, 0, 2, 1),
    }
)


def test_t_map_sizes_and_bijectivity():
    s = standard_structure()
    for label in s.a_names + s.b_names:
        for index in (0, 1):
            squares = squares_on_edge(s, label, index)
            assert len(squares) == 3
            for target in (0, 1):
                t = t_map(s, label, index, target)
                assert len(t) == 3
                assert len(set(t.values())) == 3
                assert all(idx == target for _, idx in t.values())


def test_t_map_on_the_commuting_square():
    s = standard_structure()
    t = t_map(s, "c1", 0, 0)
    assert t[("c1", "c2", "c2", "c1")] == ("c2", 0)


def test_t_map_on_the_identity_structure():
    ident = (0,)
    ops = GroupOps(mul=lambda p, q: p, inv=lambda p: p, canon=lambda p: p)
    s = build_structure([("x", ident)], [("y", ident)], ops)
    t = t_map(s, "x", 0, 1)
    assert t == {("x", "y", "y", "x"): ("y", 1)}


def test_sigma_golden_values():
    s = standard_structure()
    assert {(label, i): sigma(s, label, i) for label in s.a_names + s.b_names for i in (0, 1)} == SIGMA_GOLDEN
    assert sigma(s, "b2", 0) == wreath_from_cycles("(((b1 c1 b1^-1), (b1 b1^-1 c1)), flip)", s.a_names)
    assert sigma(s, "c2", 0) == wreath_from_cycles("(((b1 b1^-1), (b1 b1^-1)), flip)", s.a_names)


def test_sigma_components_are_mutually_inverse():
    """sigma swaps the two fibers, and g0 g1 = id makes it an involution."""
    s = standard_structure()
    for label in s.a_names + s.b_names:
        for index in (0, 1):
            p = sigma(s, label, index)
            n = len(p) // 2
            assert all((p[k] >= n) == (k < n) for k in range(2 * n))
            assert tuple(p[p[k]] for k in range(2 * n)) == tuple(range(2 * n))


def test_generate_identity():
    assert len(generate([tuple(range(6))])) == 1


def test_local_groups_have_order_twelve():
    s = standard_structure()
    pa0 = local_group(s, "A", 0)
    pa1 = local_group(s, "A", 1)
    pb0 = local_group(s, "B", 0)
    pb1 = local_group(s, "B", 1)
    # oracle: |Sym(3)| * |{+-1}| = 12
    assert len(pa0) == len(pa1) == 12
    assert len(pb0) == len(pb1) == 12
    assert pa0 == pa1
    assert pb0 == pb1


def test_local_group_elements_golden():
    s = standard_structure()
    for side in ("A", "B"):
        for index in (0, 1):
            assert local_group(s, side, index) == LOCAL_GROUP_GOLDEN


def test_local_groups_equal_the_reference_group():
    s = standard_structure()
    ref_a = reference_group(s.a_names, s.inv)
    ref_b = reference_group(s.b_names, s.inv)
    assert len(ref_a) == 12 and len(ref_b) == 12
    assert local_group(s, "A", 0) == ref_a
    assert local_group(s, "B", 1) == ref_b


def test_local_group_differs_from_a_wrong_reference():
    """Non-vacuity: with tau the identity instead of label inversion the
    reference group is another order-12 group, and the comparison sees it."""
    s = standard_structure()
    wrong = reference_group(s.a_names, {x: x for x in s.a_names})
    assert len(wrong) == 12
    assert local_group(s, "A", 0) != wrong


def test_reference_group_of_a_singleton():
    g = reference_group(("x",), {"x": "x"})
    assert len(g) == 2


def test_containment_for_inverse_stable_structures():
    s = standard_structure()
    ref = reference_group(s.a_names, s.inv)
    assert local_group(s, "A", 0) <= ref


def test_transitivity_on_labels_times_fibers():
    s = standard_structure()
    for side in ("A", "B"):
        group = local_group(s, side, 0)
        assert {m[0] for m in group} == set(range(6))  # the orbit of point 0
