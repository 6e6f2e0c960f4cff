import tracemalloc

import pytest

from quatlat import certify, suite
from quatlat.certify import (
    _mod_pi_matrix,
    ball_certificate,
    ball_check,
    discriminant_certificate,
    neighbors_certificate,
    order_discriminant,
    ramification_certificate,
    ramified_places,
    stabilizer_certificate,
)
from quatlat.binpoly import cldivmod, clmul
from quatlat.lattice import standard_structure
from quatlat.places import PLACE_ONE, PLACE_ZETA, PLACE_ZERO, local_symbol, valuation
from quatlat.embeddings import RHO_T, RHO_Y, Matrix2
from quatlat.quaternion import Quaternion, QuaternionAlgebra, is_ring_unit, named_elements, standard_algebra
from quatlat.rational import _primitive_part, rf
from quatlat.tree import ball_vertex_count, bt_act, standard_product_vertex

from conftest import c1_swapped_for_d, make_rng, random_unit
from fraction_reference import pi_power, reference_expansion
from parsing import parse_rational


def test_ramified_places():
    assert ramified_places() == [PLACE_ONE, PLACE_ZETA]
    assert len(ramified_places()) % 2 == 0
    passed, details = ramification_certificate()
    assert passed, details
    # place 0 is excluded: z vanishes there to order 1 and the symbol is 0
    alg = standard_algebra()
    assert valuation(alg.a, PLACE_ZERO) == 1
    assert local_symbol(alg.a, alg.b, PLACE_ZERO) == 0


def test_order_discriminant():
    assert order_discriminant() == parse_rational("1+z^3") ** 2
    passed, details = discriminant_certificate()
    assert passed, details


def test_gram_matrix_spot_entries():
    alg = standard_algebra()
    one, i, j = alg.one(), alg.gen_i(), alg.gen_j()
    assert (one * one).rtrace().is_zero()  # char 2: tr(1) = 0
    assert (i * j).rtrace().is_zero()
    assert (i * i).rtrace() == rf(1)
    assert (j * (i * j)).rtrace() == alg.b


def test_split_algebra_has_unit_discriminant():
    # the matrix-algebra parameters (0, 1) give discriminant 1
    split = QuaternionAlgebra(rf(0), rf(1), "z")
    basis = (split.one(), split.gen_i(), split.gen_j(), split.gen_ij())
    gram = [[(u * v).rtrace() for v in basis] for u in basis]
    from quatlat.certify import _det4

    assert _det4(gram) == rf(1)


def test_stabilizer_certificate():
    passed, details = stabilizer_certificate()
    assert passed, details
    assert details["mod_y"] == [[1, 0], [1, 1]]
    assert details["mod_t"] == [[1, 1], [0, 1]]
    assert details["d_squared"] == "1+z+z^2"


def test_mod_pi_matrix_matches_the_reference_constant_term():
    """Entries of valuation -2..3 or zero, each pi^v times a random unit; a
    matrix with an entry of negative valuation is not integral."""
    rng = make_rng(91)
    not_integral = 0
    for _ in range(400):
        entries = []
        for _ in range(4):
            v = rng.choice((None, -2, -1, 0, 0, 1, 2, 3))
            entries.append(rf(0) if v is None else pi_power(v) * random_unit(rng))
        reduced = _mod_pi_matrix(Matrix2("y", *entries))
        if any(valuation(e, PLACE_ZERO) < 0 for e in entries):
            expected = None
        else:
            e11, e12, e21, e22 = (int(0 in reference_expansion(e, 1)) for e in entries)
            expected = [[e11, e12], [e21, e22]]
        assert reduced == expected, entries
        not_integral += expected is None
    assert 100 <= not_integral <= 300


def test_neighbors_certificate():
    passed, details = neighbors_certificate(standard_structure())
    assert passed, details
    assert len(set(details["a_vertical_images"])) == 3
    assert len(set(details["b_horizontal_images"])) == 3


def test_ball_check_small_radii():
    for radius, expected in ((0, 1), (1, 7), (2, 28)):
        report = ball_check(radius)
        assert report.injective
        assert report.distinct_elements == report.distinct_vertices == expected
        assert report.expected_vertices == expected


def test_ball_check_radius_three():
    report = ball_check(3)
    assert report.injective
    assert report.distinct_elements == ball_vertex_count(3) == 88
    # word counts: freely reduced words over 6 letters with two involutions
    assert report.word_count == 1 + 6 + 30 + 150


def test_ball_check_counts_words_and_elements():
    for radius in range(7):
        report = ball_check(radius)
        assert report.injective
        assert report.word_count == 1 + 6 * (5**radius - 1) // 4
        assert report.distinct_elements == report.distinct_vertices == ball_vertex_count(radius)


def test_ball_check_fails_when_c1_is_swapped_for_d(monkeypatch):
    """d fixes the base vertex and is projectively its own inverse, so the
    structure's inverse pairing still holds, but the word c1 now lands on
    the base vertex, which the identity already holds."""
    swapped = c1_swapped_for_d()
    monkeypatch.setattr(certify, "standard_structure", lambda: swapped)
    for radius in (1, 3):
        assert not ball_check(radius).injective


def test_ball_check_reads_the_structure_it_is_given(monkeypatch):
    """The same fault handed in as an argument, with nothing patched: the
    ball check and its certificate turn red on it, and `run_all` hands the
    ball check the structure it built, not the cached one."""
    swapped = c1_swapped_for_d()
    assert not ball_check(1, swapped).injective
    assert ball_check(1, standard_structure()).injective
    passed, _ = ball_certificate(1, swapped)
    assert not passed
    monkeypatch.setattr(suite, "standard_structure", lambda: swapped)
    assert not {r.name: r for r in suite.run_all(1)}["ball-check"].passed


def test_ball_check_pays_one_product_and_two_actions_per_word(monkeypatch):
    """Every word past the empty one costs one product and one act per tree,
    so the counts are fixed by the word count (4,686 products and 9,372 act
    calls at radius 5).  Radius 0 walks nothing and radius 1 only leaves."""
    standard_structure()  # built, with its own products, before counting
    calls = {"mul": 0, "act": 0}
    mul, act = Quaternion.__mul__, certify.act

    def counted_mul(p, q):
        calls["mul"] += 1
        return mul(p, q)

    def counted_act(m, v):
        calls["act"] += 1
        return act(m, v)

    monkeypatch.setattr(Quaternion, "__mul__", counted_mul)
    monkeypatch.setattr(certify, "act", counted_act)
    for radius in (0, 1, 3, 4):
        calls.update(mul=0, act=0)
        report = ball_check(radius)
        assert report.injective
        assert calls == {"mul": report.word_count - 1, "act": 2 * (report.word_count - 1)}


def test_ball_check_computes_each_generator_times_element_product_once(monkeypatch):
    """The walk reaches an element by several words, so most of its products
    repeat; each generator keeps its products in its memo, and only the
    first product of a generator and an element computes: 150 of the 186
    products at radius 3 and 492 of the 936 at radius 4."""
    standard_structure()
    generators, pairs = [], set()
    mul = Quaternion.__mul__

    def captured_rho_y(q):
        generators.append(q)
        return RHO_Y(q)

    def recorded_mul(p, q):
        pairs.add((id(p), q._nums, q._den))
        return mul(p, q)

    monkeypatch.setattr(certify, "RHO_Y", captured_rho_y)
    monkeypatch.setattr(Quaternion, "__mul__", recorded_mul)
    for radius, computed in ((3, 150), (4, 492)):
        generators.clear()
        pairs.clear()
        assert ball_check(radius).injective
        assert len(generators) == 6
        assert sum(len(g._memo) for g in generators) == len(pairs) == computed


def test_ball_check_keys_each_distinct_product_once(monkeypatch):
    """Words keep returning the same products, and equal numerators over
    denominator 1 are one element, so the key is computed once per distinct
    product: 27/90/263/698 keys for the 36/186/936/4,686 words at radius
    2/3/4/5."""
    word_key = certify._word_key
    calls = []

    def counted(nums):
        calls.append(nums)
        return word_key(nums)

    monkeypatch.setattr(certify, "_word_key", counted)
    for radius, keys in ((2, 27), (3, 90), (4, 263), (5, 698)):
        calls.clear()
        report = ball_check(radius)
        assert report.injective
        assert len(calls) == len(set(calls)) == keys, radius


def test_ball_check_fails_when_a_revisited_word_lands_elsewhere(monkeypatch):
    """The last word walked reaches an element met before; if its last action
    leaves the vertex unmoved, the word lands off that element's vertex.  A
    word whose product was keyed before must still compare its vertices."""
    act = certify.act
    for radius in (2, 3, 4):
        last = 2 * (6 * (5**radius - 1) // 4)  # two act calls per word past the empty one
        calls = [0]

        def faulty_act(m, v):
            calls[0] += 1
            return v if calls[0] == last else act(m, v)

        monkeypatch.setattr(certify, "act", faulty_act)
        report = ball_check(radius)
        assert calls[0] == last
        assert not report.injective, radius


def test_ball_check_fails_when_a_new_class_lands_on_a_taken_vertex(monkeypatch):
    """The first action that would move the base vertex leaves it unmoved,
    so the first word's new class lands on the identity's vertex.  At
    radius 1 every word is a new class and nothing is revisited, so only the
    counts see the collision: fewer distinct vertices than elements."""
    act = certify.act
    for radius in (1, 3):
        moved = [False]

        def faulty_act(m, v):
            out = act(m, v)
            if out == v or moved[0]:
                return out
            moved[0] = True
            return v

        monkeypatch.setattr(certify, "act", faulty_act)
        report = ball_check(radius)
        assert moved[0]
        assert not report.injective, radius
        assert report.distinct_vertices < report.distinct_elements, report
        if radius == 1:
            assert report.word_count == report.distinct_elements == report.expected_vertices


def test_ball_check_memory_stays_below_one_kib_per_ball_vertex():
    """The walk keeps the interned ball and one stack of words, not a whole
    layer of 5^L words: at radius 6 the traced peak stays under 1 KiB per
    vertex of the 1,540-vertex ball (a layer-by-layer walk peaks at about
    2,200 KiB)."""
    standard_structure()  # built before tracing
    tracemalloc.start()
    try:
        report = ball_check(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.injective
    assert peak < 1024 * ball_vertex_count(6), peak


def test_ball_check_fails_when_rho_t_is_twisted_by_d(monkeypatch):
    """q -> rho_t(d q) is no longer a homomorphism, so the vertical factors
    of distinct elements collide; the elements themselves stay distinct, so
    only the vertex side of the check can turn it red."""
    d = named_elements().D
    monkeypatch.setattr(certify, "RHO_T", lambda q: RHO_T(d * q))
    for radius in (2, 3, 4):
        report = ball_check(radius)
        assert not report.injective
        assert report.distinct_elements == ball_vertex_count(radius)
        assert report.distinct_vertices < report.distinct_elements


def test_word_key_is_the_primitive_part_of_every_ball_product(monkeypatch):
    """The gcd-free key divides out z and 1+z only; on every product of the
    check at radius 6 that is the whole content, and the contents met
    include both factors and their product."""
    word_key = certify._word_key
    contents = set()
    mismatches = []

    def checked(nums):
        key = word_key(nums)
        if key != _primitive_part(nums):
            mismatches.append(nums)
        contents.add(next(cldivmod(x, y)[0] for x, y in zip(nums, key) if y))
        return key

    monkeypatch.setattr(certify, "_word_key", checked)
    report = ball_check(6)
    assert report.injective and not mismatches
    assert {1, 0b10, 0b11, 0b110} <= contents


def test_word_key_divides_out_z_and_one_plus_z_on_hand_made_tuples():
    """A primitive tuple comes back as itself, with no copy; times z^3,
    times (1+z)^2 and times both, it comes back divided by exactly that."""
    base = (0b1011, 0b110, 0, 0b11)  # primitive, with weights 3, 2, 0, 2
    assert certify._word_key(base) is base and _primitive_part(base) == base
    for content in (0b1000, 0b101, 0b101000):  # z^3, (1+z)^2 = 1+z^2, z^3 (1+z)^2
        nums = tuple(clmul(content, x) for x in base)
        key = certify._word_key(nums)
        assert key == base == _primitive_part(nums), content
        assert key is not nums


def test_generator_keys_have_norms_that_are_units_of_r1():
    """The precondition of the word key's exactness: each primitive
    generator key has reduced norm 1+z or z+z^2."""
    structure = standard_structure()
    alg = standard_algebra()
    for name in (*structure.a_names, *structure.b_names):
        key = Quaternion._from_ints(alg, structure.elements[name].projective_canon(), 1)
        norm = key.rnorm()
        assert is_ring_unit(norm, "R1"), name
        assert norm in (rf(0b11), rf(0b110)), name


def test_ball_check_fails_when_the_word_key_divides_out_z_only(monkeypatch):
    """A key that leaves a factor 1+z in some products splits their
    projective classes: the second half of a class finds its vertex taken."""

    def z_only(nums):
        low = nums[0] | nums[1] | nums[2] | nums[3]
        shift = (low & -low).bit_length() - 1
        return tuple(x >> shift for x in nums)

    monkeypatch.setattr(certify, "_word_key", z_only)
    report = ball_check(3)
    assert not report.injective
    assert (report.distinct_elements, report.distinct_vertices) == (94, 88)


def test_ball_check_guards():
    with pytest.raises(ValueError):
        ball_check(-1)
    for radius in (2.5, 2.0):  # a float radius would never count down to 0
        with pytest.raises(TypeError):
            ball_check(radius)


def fixes_base_vertex(word_letters: list[str]) -> bool:
    """Whether the product of the named generators fixes the base vertex."""
    structure = standard_structure()
    elem = standard_algebra().one()
    for name in word_letters:
        elem = elem * structure.elements[name]
    return bt_act(elem, standard_product_vertex()) == standard_product_vertex()


def test_no_short_word_fixes_the_base_vertex():
    # a handful of explicit short words; the injective ball check covers the rest
    s = standard_structure()
    assert fixes_base_vertex([])
    for name in s.a_names + s.b_names:
        assert not fixes_base_vertex([name])
    assert not fixes_base_vertex(["b1", "b2"])
    assert not fixes_base_vertex(["c1", "b2", "c1", "b2"])
    # words that are trivial in the group do fix it
    assert fixes_base_vertex(["c1", "c1"])
    assert fixes_base_vertex(["b1", "b2", "c1", "b2"])
