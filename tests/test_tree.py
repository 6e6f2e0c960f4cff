import pytest

from quatlat.embeddings import RHO_T, RHO_Y, Matrix2
from quatlat.quaternion import named_elements
from quatlat.rational import rf
from quatlat.tree import (
    TreeVertex,
    act,
    ball_vertex_count,
    bt_act,
    distance,
    standard_product_vertex,
    standard_vertex,
    vertex_from_matrix,
)

from conftest import make_rng, make_tail, random_integral_unit_matrix, random_invertible_matrix, random_unit
from parsing import parse_rational

W = standard_vertex("y")


def neighbors(v: TreeVertex) -> tuple[TreeVertex, TreeVertex, TreeVertex]:
    """The three adjacent vertices (valency q+1 = 3 over GF(2)), read off the
    coordinates: two children one level up, the parent one level down.  Bit
    k of a tail is the coefficient of pi^(level-1-k): one level up, the same
    exponents sit one bit higher and bit 0 is the new pi^level term; one level
    down, the pi^(level-1) term in bit 0 is cut off."""
    up_plain = TreeVertex(v.field, v.level + 1, v.tail << 1)
    up_bumped = TreeVertex(v.field, v.level + 1, v.tail << 1 | 1)
    down = TreeVertex(v.field, v.level - 1, v.tail >> 1)
    return (up_plain, up_bumped, down)


def ball_in_tree(center: TreeVertex, radius: int) -> list[set[TreeVertex]]:
    """Spheres of radius 0..radius around the center, by breadth-first search."""
    spheres = [{center}]
    seen = {center}
    for _ in range(radius):
        frontier = set()
        for v in spheres[-1]:
            for n in neighbors(v):
                if n not in seen:
                    seen.add(n)
                    frontier.add(n)
        spheres.append(frontier)
    return spheres


def test_vertex_from_matrix_examples():
    assert vertex_from_matrix(Matrix2.identity("y")) == W
    m = Matrix2("y", rf(0b100), rf(0), rf(0), rf(1))  # [[pi^2, 0], [0, 1]]
    assert vertex_from_matrix(m) == TreeVertex("y", 2, 0)
    v = vertex_from_matrix(RHO_Y(named_elements().B2))
    assert distance(W, v) == 1
    with pytest.raises(ValueError):
        vertex_from_matrix(Matrix2("y", rf(1), rf(1), rf(1), rf(1)))


def test_canonical_form_invariance_random():
    rng = make_rng(40)
    for _ in range(1000):
        m = random_invertible_matrix(rng, "y", 2)
        k = random_integral_unit_matrix(rng, "y")
        power = rng.randint(-2, 2)
        pi_power = rf(1 << power) if power >= 0 else rf(1, 1 << -power)
        scalar = pi_power * random_unit(rng)
        assert vertex_from_matrix(m * k) == vertex_from_matrix(m)
        assert vertex_from_matrix(m.scale(scalar)) == vertex_from_matrix(m)


def test_action_examples():
    ne = named_elements()
    assert act(RHO_Y(ne.B1), W) == W
    v = TreeVertex("y", -2, make_tail(-2, {-4}))
    assert act(Matrix2.identity("y"), v) == v
    wt = standard_vertex("t")
    u_inv = RHO_T.embed_scalar(parse_rational("z"))
    moved = act(RHO_T(ne.C1).scale(u_inv.inverse()), wt)
    assert distance(moved, wt) == 1
    # scalar matrices act trivially
    scaled = RHO_Y(ne.B1).scale(parse_rational("y+y^3", "y"))
    assert act(scaled, v) == act(RHO_Y(ne.B1), v)


def test_action_is_a_group_action():
    rng = make_rng(41)
    vert = standard_vertex("y")
    for _ in range(300):
        m1 = random_invertible_matrix(rng, "y", 2)
        m2 = random_invertible_matrix(rng, "y", 2)
        assert act(m1, act(m2, vert)) == act(m1 * m2, vert)


def test_distance_examples():
    assert distance(W, W) == 0
    v = TreeVertex("y", 3, make_tail(3, {1, 2}))
    assert distance(W, v) == 3  # elementary divisors of [[y^3, y+y^2], [0, 1]]
    w2 = act(RHO_Y(named_elements().B2), W)
    assert distance(W, w2) == 1


def test_distance_metric_axioms_random():
    rng = make_rng(42)
    verts = []
    for _ in range(60):
        level = rng.randint(-3, 4)
        tail = make_tail(level, [e for e in range(level - 4, level) if rng.random() < 0.4])
        verts.append(TreeVertex("y", level, tail))
    for _ in range(1000):
        u, v, w = rng.choice(verts), rng.choice(verts), rng.choice(verts)
        duv = distance(u, v)
        assert duv >= 0 and (duv == 0) == (u == v)
        assert duv == distance(v, u)
        assert distance(u, w) <= duv + distance(v, w)


def test_distance_agrees_with_breadth_first_search():
    spheres = ball_in_tree(W, 4)
    for radius, sphere in enumerate(spheres):
        for v in sphere:
            assert distance(W, v) == radius


def test_isometry_and_parity():
    rng = make_rng(43)
    base = standard_vertex("y")
    for _ in range(200):
        m = random_invertible_matrix(rng, "y", 2)
        v1 = TreeVertex("y", rng.randint(-2, 3), 0)
        v2 = act(random_integral_unit_matrix(rng, "y"), base)
        assert distance(act(m, v1), act(m, v2)) == distance(v1, v2)
        from quatlat.places import PLACE_ZERO, valuation

        assert distance(base, act(m, base)) % 2 == valuation(m.det(), PLACE_ZERO) % 2


def test_neighbors():
    assert set(neighbors(W)) == {
        TreeVertex("y", 1, 0),
        TreeVertex("y", 1, make_tail(1, {0})),
        TreeVertex("y", -1, 0),
    }
    rng = make_rng(44)
    for _ in range(200):
        level = rng.randint(-3, 3)
        tail = make_tail(level, [e for e in range(level - 3, level) if rng.random() < 0.5])
        v = TreeVertex("y", level, tail)
        ns = neighbors(v)
        assert len(set(ns)) == 3
        for n in ns:
            assert distance(v, n) == 1
            assert v in neighbors(n)


def test_ball_sizes_in_the_tree():
    spheres = ball_in_tree(W, 4)
    assert [len(s) for s in spheres] == [1, 3, 6, 12, 24]
    total = sum(len(s) for s in spheres)
    assert total == 1 + 3 * (2**4 - 1)


def test_product_action():
    ne = named_elements()
    w = standard_product_vertex()
    assert bt_act(ne.B1.algebra.one(), w) == w
    assert bt_act(ne.D, w) == w
    moved = bt_act(ne.C2, w)
    assert moved[1] == w[1]
    assert distance(moved[0], w[0]) == 1


def test_vertex_serialization():
    assert W.key() == "y:0:0"
    assert TreeVertex("t", 3, make_tail(3, {1, 2})).key() == "t:3:3"
    assert TreeVertex("y", -2, make_tail(-2, {-3, -6})).key() == "y:-2:9"
    horizontal, vertical = standard_product_vertex()
    assert (horizontal.key(), vertical.key()) == ("y:0:0", "t:0:0")
    with pytest.raises(ValueError):
        TreeVertex("y", 0, -1)
    with pytest.raises(ValueError, match="different fields"):
        bt_act(named_elements().C2, (standard_vertex("t"), standard_vertex("y")))


def test_ball_vertex_count_formula():
    spheres = ball_in_tree(W, 4)
    sizes = [len(s) for s in spheres]
    for radius in range(5):
        expected = sum(
            sizes[i] * sizes[j]
            for i in range(radius + 1)
            for j in range(radius + 1)
            if i + j <= radius
        )
        assert ball_vertex_count(radius) == expected
    assert [ball_vertex_count(r) for r in range(5)] == [1, 7, 28, 88, 244]
