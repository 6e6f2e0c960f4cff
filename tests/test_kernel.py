"""Differential tests of the integer kernel against fraction arithmetic.

Products, reduced norms, inverses, projective keys, the splittings and the
tree action run on raw GF(2)[z] ints; each is compared here with the
fraction-by-fraction formula in fraction_reference.py on random inputs, in
the standard algebra [z, 1+z^3) and in the division algebra
[z+z^3, 1+z+z^2), ramified at zeta and infinity.  Quaternion and Matrix2
store four numerators over one denominator; the tests below also check that
this stored form is in lowest terms and that ==, hash and the coordinate
views agree with it.
"""

import copy
import operator
import pickle
import sys

import pytest

from quatlat.binpoly import cldivmod, clgcd, clmul, multiplicity, reverse
from quatlat import embeddings
from quatlat.embeddings import RHO_T, RHO_Y
from quatlat.places import PLACE_ZERO, valuation
from quatlat.embeddings import Matrix2
from quatlat import quaternion
from quatlat.lattice import standard_structure
from quatlat.suite import run_all
from quatlat.quaternion import NotInvertibleError, Quaternion, QuaternionAlgebra, standard_algebra
from quatlat.rational import (
    ONE_RF,
    ZERO_RF,
    AlgebraMismatchError,
    RationalFunction,
    _primitive_part,
    _reduce_over,
    _set__memo,
    rf,
)
from quatlat.tree import act, distance, vertex_from_matrix

from conftest import (
    make_rng,
    make_tail,
    random_invertible_matrix,
    random_invertible_quaternion,
    random_nonzero_poly,
    random_poly,
    random_quaternion,
    random_rational,
)
from fraction_reference import (
    reference_conj,
    reference_det,
    reference_distance,
    reference_mul,
    reference_projective_eq,
    reference_rho,
    reference_vertex,
    vertex_matrix,
)
from parsing import parse_rational

# "non-polynomial" is an id kept so that the printed test names stay stable;
# the algebra's parameters are polynomials, as QuaternionAlgebra requires.
ALGEBRAS = {
    "standard": standard_algebra(),
    "non-polynomial": QuaternionAlgebra(rf(0b1010), rf(0b111)),
}
SAMPLES = 500
DEGREE = 3


@pytest.fixture(params=sorted(ALGEBRAS))
def alg(request):
    return ALGEBRAS[request.param]


def test_norm_is_the_scalar_of_q_times_conj(alg):
    rng = make_rng(60)
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        prod = q * reference_conj(q)
        assert prod.is_scalar(), q
        assert prod.coords[0] == q.rnorm(), q


def test_product_matches_the_fraction_formula(alg):
    rng = make_rng(61)
    for _ in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        q = random_quaternion(rng, alg, DEGREE)
        want = reference_mul(p, q).coords
        got = p * q
        assert got == Quaternion(alg, want), (p, q)
        assert got.coords == want, (p, q)  # the view built from the stored ints


def _sparse_left_factor(rng, alg) -> Quaternion:
    """Coordinates each 0, 1 or a random polynomial, or, one time in four,
    all of them over a shared random denominator."""
    coords = [rng.choice((ZERO_RF, ONE_RF, RationalFunction(random_nonzero_poly(rng, DEGREE)))) for _ in range(4)]
    if rng.random() < 0.25:
        den = RationalFunction(1, random_nonzero_poly(rng, DEGREE))
        coords = [c * den for c in coords]
    return Quaternion(alg, coords)


def test_product_by_sparse_left_factors_matches_the_fraction_formula(alg):
    """The product skips a left numerator 0 and adds the row of a left
    numerator 1 by XOR; each of the four positions takes the zero, the unit
    and the general branch, in both algebras alike."""
    rng = make_rng(74)
    branches = set()
    for _ in range(SAMPLES):
        p = _sparse_left_factor(rng, alg)
        q = random_quaternion(rng, alg, DEGREE)
        branches.update((k, min(x, 2)) for k, x in enumerate(p._nums))
        want = reference_mul(p, q).coords
        got = p * q
        assert got == Quaternion(alg, want), (p, q)
        assert got.coords == want, (p, q)
    assert branches == {(k, kind) for k in range(4) for kind in range(3)}


def _over(rng, alg, nums, den_one: bool) -> Quaternion:
    """The numerators over 1, or over a random denominator of degree 1 to 3."""
    den = 1 if den_one else random_nonzero_poly(rng, DEGREE - 1) << 1 | 1
    return Quaternion(alg, [RationalFunction(x, den) for x in nums])


def test_product_of_dense_left_and_sparse_right_factors_matches_the_fraction_formula(alg):
    """The product loops over the set bits of each left coordinate; here the
    left coordinates have many more bits than the right ones, which are
    often 0 or 1, and the denominator 1 is on the left only, on the right
    only, on both sides or on neither."""
    rng = make_rng(76)
    cases = set()
    for k in range(SAMPLES):
        left = [random_nonzero_poly(rng, 16) | 1 << 16 for _ in range(4)]
        right = [rng.choice((0, 1, random_nonzero_poly(rng, 2))) for _ in range(4)]
        p = _over(rng, alg, left, k & 1)
        q = _over(rng, alg, right, k & 2)
        cases.add((p._den == 1, q._den == 1))
        want = reference_mul(p, q).coords
        got = p * q
        assert got == Quaternion(alg, want), (p, q)
        assert got.coords == want, (p, q)
    assert cases == {(True, True), (True, False), (False, True), (False, False)}


def test_generator_keys_pay_the_documented_clmul_calls(monkeypatch):
    """The ball check multiplies by the six primitive generator keys, whose
    coordinates are 0, 1, 1+z, 1+z^2 or z+z^2.  As `Quaternion.__mul__`
    states, a product in the standard algebra makes no `clmul` call when
    either denominator is 1, whatever the right factor, and one call, for
    the denominator, when neither is."""
    structure = standard_structure()
    alg = standard_algebra()
    keys = {name: Quaternion._from_ints(alg, structure.elements[name].projective_canon(), 1) for name in structure.elements}
    assert {x for key in keys.values() for x in key._nums} == {0, 1, 0b11, 0b101, 0b110}
    rng = make_rng(75)
    rights = [_over(rng, alg, [random_poly(rng, 6) for _ in range(4)], k < 10) for k in range(20)]
    assert sum(e._den == 1 for e in rights) == 10
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return clmul(x, y)

    monkeypatch.setattr(quaternion, "clmul", counted)
    for name, g in keys.items():
        g_over_z = Quaternion._from_ints(alg, g._nums, 0b10)
        for e in rights:
            for left, right, expected in ((g, e, 0), (e, g, 0), (g_over_z, e, e._den != 1)):
                calls = 0
                left * right
                assert calls == expected, (name, left, right)


def test_inverse_is_conj_over_norm(alg):
    rng = make_rng(62)
    one = alg.one()
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        norm = q.rnorm()
        if norm.is_zero():
            with pytest.raises(NotInvertibleError):
                q.inverse()
            continue
        inv = q.inverse()
        assert inv == reference_conj(q).scale(norm.inverse())
        assert q * inv == one == inv * q


def test_projective_canon_matches_cross_products(alg):
    rng = make_rng(63)
    for _ in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        if p.is_zero():
            continue
        q = p.scale(random_rational(rng, 2)) if rng.random() < 0.5 else random_quaternion(rng, alg, DEGREE)
        if q.is_zero():
            continue
        key = p.projective_canon()
        assert (key == q.projective_canon()) == reference_projective_eq(p, q)
        content = 0
        for x in key:
            content = clgcd(content, x)
        assert content == 1, key


@pytest.mark.parametrize("which", (RHO_Y, RHO_T), ids=("rho_y", "rho_t"))
def test_splitting_and_det_match_matrix_arithmetic(which):
    rng = make_rng(64)
    alg = standard_algebra()
    for _ in range(SAMPLES):
        q = random_quaternion(rng, alg, DEGREE)
        m = which(q)
        assert m.entries == reference_rho(which, q).entries, q
        assert m.det() == reference_det(m)


@pytest.mark.parametrize("which", (RHO_Y, RHO_T), ids=("rho_y", "rho_t"))
def test_splitting_of_sparse_coordinates_matches_matrix_arithmetic(which):
    """The splitting scales each basis image's row of four by its substituted
    coordinate; here the coordinates are each 0, 1 or a random polynomial of
    degree <= 4, over denominator 1 or over a shared one that is not a unit."""
    rng = make_rng(77)
    alg = standard_algebra()
    dens = set()
    for k in range(SAMPLES):
        q = _over(rng, alg, [rng.choice((0, 1, random_poly(rng, 4))) for _ in range(4)], k & 1)
        dens.add(q._den == 1)
        assert which(q).entries == reference_rho(which, q).entries, q
    assert dens == {True, False}


def test_splittings_pay_the_documented_clmul_calls(monkeypatch):
    """As `EmbeddingMap.__call__` states, once the table is long enough, a
    splitting makes no `clmul` call, and neither does `embed_scalar`."""
    rng = make_rng(78)
    alg = standard_algebra()
    quaternions = [Quaternion(alg, [ZERO_RF] * 4), alg.one(), *(random_quaternion(rng, alg, DEGREE) for _ in range(SAMPLES))]
    for q in quaternions:  # grows the table
        RHO_Y(q), RHO_T(q)
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return clmul(x, y)

    monkeypatch.setattr(embeddings, "clmul", counted)
    for q in quaternions:
        for which in (RHO_Y, RHO_T):
            which(q)
            for c in q.coords:
                which.embed_scalar(c)
            assert calls == 0, (which, q)


def test_tree_action_and_distance_match_matrix_arithmetic():
    rng = make_rng(65)
    for _ in range(SAMPLES):
        m = random_invertible_matrix(rng, "y", DEGREE)
        level = rng.randint(-3, 3)
        v = ("y", level, make_tail(level, [e for e in range(level - 4, level) if rng.random() < 0.5]))
        moved = act(m, v)
        assert moved == vertex_from_matrix(m * vertex_matrix(v))
        assert distance(v, moved) == reference_distance(v, moved)


def _count_calls(monkeypatch, *functions) -> dict:
    """Count calls of the named binpoly functions through every quatlat
    module that binds them, binpoly itself included."""
    calls = dict.fromkeys((f.__name__ for f in functions), 0)
    for function in functions:
        name = function.__name__

        def counted(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("quatlat") and getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_norm_inverse_and_det_make_no_clmul_call(monkeypatch):
    """As `Quaternion._norm_num` and `Matrix2.det` state, the reduced norm,
    the inverse and the determinant scale by the set bits of one factor of
    each product and call no `clmul`, in both algebras and over any
    denominator."""
    rng = make_rng(83)
    quaternions = [random_invertible_quaternion(rng, alg, DEGREE) for alg in ALGEBRAS.values() for _ in range(100)]
    split = [q for q in quaternions if q._tag is standard_algebra()]
    matrices = [which(q) for q in split for which in (RHO_Y, RHO_T)]
    matrices += [random_invertible_matrix(rng, var, DEGREE) for var in "yt" for _ in range(100)]
    assert sum(q._den != 1 for q in quaternions) > 100 and sum(m._den != 1 for m in matrices) > 100
    calls = _count_calls(monkeypatch, clmul)
    for q in quaternions:
        q.rnorm()
        q.inverse()
        assert calls == {"clmul": 0}, q
    for m in matrices:
        m.det()
        assert calls == {"clmul": 0}, m


def test_act_pays_one_reversal_and_two_products_per_miss(monkeypatch):
    """As the `tree` docstring states, an image that is not in a memo costs
    one `reverse` and two `clmul` calls (the canonical form's determinant
    scales by set bits), whatever the level and the tail, zero included."""
    rng = make_rng(84)
    cases = []
    for _ in range(200):
        var = rng.choice("yt")
        m = random_invertible_matrix(rng, var, DEGREE)
        cases.append((m, (var, rng.randint(-6, 6), rng.choice((0, rng.getrandbits(12))))))
    calls = _count_calls(monkeypatch, clmul, reverse)
    for m, v in cases:
        act(m, v)
        assert calls == {"clmul": 2, "reverse": 1}, (m, v)
        calls.update(clmul=0, reverse=0)


def test_act_and_canonical_form_match_the_fraction_oracle_on_every_branch():
    """`act` branches on whether the level reaches the tail's bit length.
    On each branch, at levels -12..12, zero tails, short tails and tails of
    9 to 20 bits (which `reverse` reads as several bytes), act(m, v) is the
    canonical form of the product m * V, which `vertex_from_matrix` and the
    fraction oracle compute apart; the oracle also checks the canonical
    form of m itself."""
    rng = make_rng(85)
    branches = {}
    for _ in range(SAMPLES):
        var = rng.choice("yt")
        m = random_invertible_matrix(rng, var, DEGREE)
        level = rng.randint(-12, 12)
        tail = rng.choice((0, rng.getrandbits(rng.randint(1, 8)), 1 << rng.randint(8, 19) | rng.getrandbits(8)))
        v = (var, level, tail)
        product = m * vertex_matrix(v)
        assert act(m, v) == vertex_from_matrix(product) == reference_vertex(product), (m, v)
        assert vertex_from_matrix(m) == reference_vertex(m), m
        branches.setdefault(level >= tail.bit_length(), set()).add(0 if tail == 0 else 1 + (tail.bit_length() >= 9))
    assert branches[True] == branches[False] == {0, 1, 2}


def test_valuation_at_zero_counts_factors_of_z():
    rng = make_rng(66)
    z = parse_rational("z").num
    for _ in range(SAMPLES):
        f = random_rational(rng, 8)
        if f.is_zero():
            continue
        assert valuation(f, PLACE_ZERO) == multiplicity(f.num, z) - multiplicity(f.den, z)


def _gcd_all(xs) -> int:
    g = 0
    for x in xs:
        g = clgcd(x, g) if g else x
    return g


def _random_nonzero_scalar(rng) -> RationalFunction:
    return RationalFunction(random_nonzero_poly(rng, DEGREE), random_nonzero_poly(rng, DEGREE))


def _quaternions_made_every_way(rng, alg):
    """Elements from the constructor and from each operation that builds
    the stored form itself."""
    p = random_quaternion(rng, alg, DEGREE)
    q = random_quaternion(rng, alg, DEGREE)
    made = [p, p * q, p + q, p.scale(random_rational(rng, 2))]
    if not p.rnorm().is_zero():
        made.append(p.inverse())
    return made


def _reference_primitive_part(nums) -> tuple[int, ...]:
    content = _gcd_all(nums)
    return tuple(cldivmod(x, content)[0] for x in nums)


def test_primitive_part_against_the_gcd_of_all_coordinates():
    """A 1 in any position is already primitive; contents z, 1+z and z(1+z)
    are divided out; random tuples match dividing by the gcd of all four."""
    rng = make_rng(72)
    for k in range(4):
        nums = [random_poly(rng, DEGREE) for _ in range(4)]
        nums[k] = 1
        assert _primitive_part(tuple(nums)) == tuple(nums)
    primitive = (0b10, 0b11, 0b100, 0)  # gcd 1, no coordinate equal to 1
    for content in (0b10, 0b11, 0b110):
        scaled = tuple(clmul(content, x) for x in primitive)
        assert _primitive_part(scaled) == primitive
        assert _primitive_part(tuple(reversed(scaled))) == tuple(reversed(primitive))
    for _ in range(SAMPLES):
        nums = tuple(random_poly(rng, DEGREE) for _ in range(4))
        if any(nums):
            assert _primitive_part(nums) == _reference_primitive_part(nums)
            assert _reduce_over(nums, 0) == (_reference_primitive_part(nums), 0)
    with pytest.raises(ValueError):
        _primitive_part((0, 0, 0, 0))


def test_from_ints_over_one_equals_the_reduced_general_path(alg):
    """Over denominator 1 `_from_ints` stores the numerators as given; that is
    what the general path makes of the same value over any denominator."""
    rng = make_rng(73)
    for _ in range(SAMPLES):
        nums = tuple(random_poly(rng, DEGREE) for _ in range(4))
        c = random_nonzero_poly(rng, DEGREE)
        over_one = Quaternion._from_ints(alg, nums, 1)
        general = Quaternion._from_ints(alg, tuple(clmul(c, x) for x in nums), c)
        assert (over_one._nums, over_one._den) == (general._nums, general._den) == _reduce_over(nums, 1)
        assert over_one == general == Quaternion(alg, [RationalFunction(x) for x in nums])
        assert Matrix2._from_ints("y", nums, 1) == Matrix2._from_ints("y", general._nums, general._den)


def test_stored_forms_are_in_lowest_terms(alg):
    rng = make_rng(67)
    for _ in range(SAMPLES):
        for x in _quaternions_made_every_way(rng, alg):
            assert x._den != 0 and _gcd_all((*x._nums, x._den)) == 1, x
        m = random_invertible_matrix(rng, "y", DEGREE)
        n = Matrix2("y", *(random_rational(rng, DEGREE) for _ in range(4)))
        q = random_quaternion(rng, standard_algebra(), DEGREE)
        for x in (m, n, m * n, m + n, m.scale(random_rational(rng, 2)), RHO_Y(q), RHO_T(q)):
            assert x._den != 0 and _gcd_all((*x._nums, x._den)) == 1, x


def test_equality_and_hash_agree_with_the_coordinates(alg):
    """Pairs that are equal by construction along different routes, and
    unrelated pairs: == follows the coordinates, and equal means equal hash."""
    rng = make_rng(68)
    equal_pairs = 0
    for _ in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        f = _random_nonzero_scalar(rng)
        over_f = p.scale(RationalFunction(1, f.den))  # mostly the same numerators over another denominator
        others = (Quaternion(alg, p.coords), p.scale(f).scale(f.inverse()), p * alg.one(), over_f)
        for q in (*others, random_quaternion(rng, alg, DEGREE)):
            same = p.coords == q.coords
            assert (p == q) == same and (q == p) == same, (p, q)
            if same:
                equal_pairs += 1
                assert hash(p) == hash(q), (p, q)
        m = random_invertible_matrix(rng, "t", DEGREE)
        for n in (Matrix2("t", *m.entries), m.scale(f).scale(f.inverse()), random_invertible_matrix(rng, "t", DEGREE)):
            same = m.entries == n.entries
            assert (m == n) == same, (m, n)
            if same:
                assert hash(m) == hash(n), (m, n)
    assert equal_pairs >= 3 * SAMPLES


def test_stored_forms_survive_copy_and_pickle(alg):
    rng = make_rng(71)
    q = random_quaternion(rng, alg, DEGREE) * random_quaternion(rng, alg, DEGREE)
    m = random_invertible_matrix(rng, "t", DEGREE)
    for x in (q, m):
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and hash(twin) == hash(x) and twin._nums == x._nums and twin._den == x._den
    with pytest.raises(AttributeError):
        q.algebra = None
    with pytest.raises(AttributeError):
        m.var = "y"


def test_quaternions_and_matrices_share_a_form_but_do_not_mix():
    """With the same five ints, a Quaternion and a Matrix2 are still unequal
    both ways, and + and * between them raise instead of returning a value.
    Matrices over different variables raise a ValueError."""
    nums, den = (0b1, 0b10, 0, 0b11), 0b111
    q = Quaternion._from_ints(standard_algebra(), nums, den)
    m = Matrix2._from_ints("z", nums, den)
    assert (q._nums, q._den) == (m._nums, m._den) == (nums, den)
    assert q != m and m != q and not q == m and not m == q
    for x, y in ((q, m), (m, q)):
        for op in (operator.add, operator.mul):
            with pytest.raises(AlgebraMismatchError):
                op(x, y)
    y, t = Matrix2.identity("y"), Matrix2.identity("t")
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError):
            op(y, t)


def test_act_ignores_a_scalar_factor_of_the_matrix():
    """act reads only the polynomial numerators of a matrix; scaling it,
    denominators included, must not move the image vertex.  rho_t images
    mostly have non-polynomial entries, so the dropped denominator is real."""
    rng = make_rng(70)
    alg = standard_algebra()
    non_polynomial = 0
    for _ in range(SAMPLES):
        m = RHO_T(random_invertible_quaternion(rng, alg, DEGREE))
        non_polynomial += m._den != 1
        level = rng.randint(-3, 3)
        v = ("t", level, make_tail(level, [e for e in range(level - 4, level) if rng.random() < 0.5]))
        moved = act(m, v)
        assert act(m.scale(_random_nonzero_scalar(rng)), v) == moved, (m, v)
        assert moved == vertex_from_matrix(m * vertex_matrix(v)), (m, v)
    assert non_polynomial >= SAMPLES // 2


def test_act_memo_agrees_with_a_fresh_matrix_and_the_fraction_oracle():
    """act stores m.v in a matrix given a memo: a second call (a memo hit)
    and a fresh equal matrix (no memo) must give the vertex that the
    fraction arithmetic gives."""
    rng = make_rng(72)
    alg = standard_algebra()
    pairs = 0
    for _ in range(SAMPLES):
        q = random_invertible_quaternion(rng, alg, DEGREE)
        for which in (RHO_Y, RHO_T):
            m = which(q)
            _set__memo(m, {})
            for _ in range(2):
                level = rng.randint(-3, 3)
                v = (m.var, level, make_tail(level, [e for e in range(level - 4, level) if rng.random() < 0.5]))
                first = act(m, v)
                assert m._memo[v] == first
                assert act(m, v) == first
                fresh = Matrix2(m.var, *m.entries)
                assert fresh == m and fresh._memo is None
                assert act(fresh, v) == first == vertex_from_matrix(m * vertex_matrix(v)), (q, v)
                assert fresh._memo is None
                pairs += 1
    assert pairs >= 2000


def test_act_memo_is_invisible_to_equality_hash_copy_and_pickle():
    rng = make_rng(73)
    m = RHO_T(random_invertible_quaternion(rng, standard_algebra(), DEGREE))
    twin = Matrix2(m.var, *m.entries)
    hash_before = hash(m)
    v = ("t", 2, 0b1)
    assert m._memo is None and twin._memo is None  # no memo until one is given
    _set__memo(m, {})
    _set__memo(twin, {})
    act(m, v)
    assert m._memo and not twin._memo  # equal matrices do not share a memo
    act(twin, v)
    assert twin._memo == m._memo and twin._memo is not m._memo
    assert m == twin and hash(m) == hash(twin) == hash_before
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and hash(copied) == hash(m)
        assert copied._memo is None
        assert act(copied, v) == m._memo[v]  # copying reads the entries, which keeps the memo
        assert copied._memo is None
    for name in ("var", "_nums", "_den", "_memo", "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(m, name, None)


def test_product_memo_agrees_with_a_memo_less_copy_and_the_fraction_oracle(alg):
    """A p given a memo stores p*q there under q's value when q is over
    denominator 1: a second product by q, or by an equal right factor held
    by another object, returns the stored product; over other denominators
    each product is computed anew.  Either way it must equal the product of
    a memo-less copy of p and the fraction formula."""
    rng = make_rng(77)
    kinds = set()
    for k in range(SAMPLES):
        p = random_quaternion(rng, alg, DEGREE)
        _set__memo(p, {})
        q = _over(rng, alg, [random_poly(rng, DEGREE) for _ in range(4)], k & 1)
        twin = Quaternion(alg, q.coords)
        assert twin == q and twin is not q and twin._nums is not q._nums
        kinds.add(q._den == 1)
        first = p * q
        hit = q._den == 1
        assert (p * q is first) == hit and (p * twin is first) == hit  # memo hits over 1 only
        assert len(p._memo) == hit
        fresh = copy.copy(p)
        assert fresh._memo is None
        assert fresh * twin == first == Quaternion(alg, reference_mul(p, q).coords), (p, q)
    assert kinds == {True, False}


def test_product_memo_tells_right_factors_apart_by_their_denominator(alg):
    """Two right factors with the same numerator tuple over 1 and over another
    denominator are different values with different products, in either
    order; a memo keyed on the numerators alone, for every denominator,
    returns the first product for both."""
    rng = make_rng(78)
    for _ in range(SAMPLES // 5):
        p = random_invertible_quaternion(rng, alg, DEGREE)
        nums = tuple(rng.sample([1, *(random_poly(rng, DEGREE) for _ in range(3))], 4))  # content 1
        den = random_nonzero_poly(rng, DEGREE - 1) << 1 | 1
        over_one = Quaternion._from_ints(alg, nums, 1)
        over_den = Quaternion._from_ints(alg, nums, den)
        assert over_den._nums == over_one._nums and over_den._den == den != 1
        for left, right in ((p, (over_one, over_den)), (copy.copy(p), (over_den, over_one))):
            _set__memo(left, {})
            for q in right:
                assert left * q == Quaternion(alg, reference_mul(p, q).coords), (p, q)
            assert left * right[0] != left * right[1]


def test_no_value_outside_the_ball_check_gets_a_memo():
    """Products, inverses, splittings and actions create no memo on their
    operands or results, over denominator 1 and over others."""
    rng = make_rng(79)
    alg = standard_algebra()
    for k in range(SAMPLES // 5):
        p = random_invertible_quaternion(rng, alg, DEGREE)
        q = _over(rng, alg, [random_poly(rng, DEGREE) for _ in range(4)], k & 1)
        values = [p, q, p * q, q * p, p * p, p.inverse()]
        for which in (RHO_Y, RHO_T):
            m = which(p)
            v = (m.var, 1, 0b1)
            assert act(m, v) == act(m, v)
            values += [m, Matrix2(m.var, *m.entries)]
        assert all(x._memo is None for x in values), p


def test_run_all_leaves_no_memo_on_the_structure_elements():
    assert all(result.passed for result in run_all(3))
    elements = standard_structure().elements
    assert len(elements) == 6
    assert all(x._memo is None for x in elements.values())


def test_a_held_element_keeps_no_products():
    """A long-lived element, one of the structure's, multiplied by 20,000
    distinct right factors over denominator 1, keeps none of the products."""
    rng = make_rng(80)
    b1 = standard_structure().elements["b1"]
    alg = b1.algebra
    for _ in range(20_000):
        q = Quaternion._from_ints(alg, tuple(rng.getrandbits(8) for _ in range(4)), 1)
        b1 * q
    assert b1._memo is None
