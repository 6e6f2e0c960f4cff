import pytest

from quatlat.binpoly import clgcd, compose, reverse
from quatlat.embeddings import _SPLIT, RHO_T, RHO_Y, Matrix2, _build_rho_t, _build_rho_y
from quatlat.quaternion import Quaternion, QuaternionAlgebra, named_elements, standard_algebra
from quatlat.rational import ONE_RF, ZERO_RF, AlgebraMismatchError, RationalFunction, rf
from quatlat.suite import run_all
from quatlat.tree import bt_act, standard_product_vertex

from conftest import make_rng, random_quaternion, random_rational, sympy_bridge
from fraction_reference import reference_matrix_projective_eq, reference_rho
from parsing import parse_rational

Y = rf(0b10)
T = rf(0b10)
Z_IN_Y = rf(0b110)  # y^2 + y
U_IN_T = rf(0b110)  # t^2 + t


def test_embed_scalar_examples():
    assert RHO_Y.embed_scalar(parse_rational("z")) == Z_IN_Y
    assert RHO_Y.embed_scalar(rf(1)) == ONE_RF
    assert RHO_T.embed_scalar(rf(1)) == ONE_RF
    assert RHO_T.embed_scalar(parse_rational("z")) == U_IN_T.inverse()


def test_embed_scalar_is_a_field_homomorphism():
    rng = make_rng(30)
    for which in (RHO_Y, RHO_T):
        for _ in range(200):
            f = random_rational(rng, 4)
            g = random_rational(rng, 4)
            assert which.embed_scalar(f + g) == which.embed_scalar(f) + which.embed_scalar(g)
            assert which.embed_scalar(f * g) == which.embed_scalar(f) * which.embed_scalar(g)
            if f != g:
                assert which.embed_scalar(f) != which.embed_scalar(g)


def _evaluate(poly: int, x: RationalFunction) -> RationalFunction:
    """poly(x) by summing powers of x in fraction arithmetic."""
    total = ZERO_RF
    for k in range(poly.bit_length()):
        if poly >> k & 1:
            total = total + x**k
    return total


def _horner(which, ints) -> list[int]:
    """The images of numerators over one denominator (the last int) by
    Horner's rule, not the table: rho_y composes each int with x^2 + x, rho_t
    each int's reversal to D, the largest degree in the tuple."""
    degree = max(x.bit_length() for x in ints) - 1
    if which.inverted:
        ints = [reverse(x, degree) for x in ints]
    return [compose(x, 0b110) for x in ints]


def _horner_scalar(which):
    """which.embed_scalar recomputed by `_horner`."""
    return lambda f: RationalFunction(*_horner(which, (f.num, f.den)))


def _horner_rho(which, q: Quaternion) -> Matrix2:
    """which(q) from the five ints of q substituted together by `_horner`
    and combined with the basis images in Matrix2 arithmetic."""
    *xs, den = _horner(which, (*q._nums, q._den))
    images = (which.identity, which.image_i, which.image_j, which.image_ij)
    total = which.identity.scale(ZERO_RF)
    for x, image in zip(xs, images):
        total = total + image.scale(rf(x))
    return total.scale(rf(1, den))


def test_embed_scalar_images_are_in_lowest_terms():
    """embed_scalar builds its image without a gcd: the pair must already be
    coprime, equal the reduced pair substituted by Horner's rule, and equal f
    evaluated at z = y^2 + y resp. z = 1/(t^2 + t) in fraction arithmetic."""
    rng = make_rng(32)
    for which, z_image in ((RHO_Y, Z_IN_Y), (RHO_T, U_IN_T.inverse())):
        for _ in range(2000):
            f = random_rational(rng, 8)
            image = which.embed_scalar(f)
            assert clgcd(image.num, image.den) == 1, (which, f)
            assert image == RationalFunction(*_horner(which, (f.num, f.den)))
            assert image == _evaluate(f.num, z_image) / _evaluate(f.den, z_image)


def test_substitution_kernel_matches_compose():
    """Both maps' tables against Horner's rule, on the two ints of a fraction
    (`embed_scalar`, int for int) and on the five of a quaternion (the call,
    against `_horner_rho`): rho_y composes each int with x^2 + x, rho_t each
    int's reversal to D, the largest degree in the tuple.  The tuples hold
    zeros, often have their largest degree after the first int, and include
    ints longer than either table was when the test started, so both tables
    grow on the way."""
    rng = make_rng(34)
    top = max(len(RHO_Y._rows), len(RHO_T._rows), 41)  # longer than the tables and the random ints
    longer = [1 << (top + k - 1) | rng.getrandbits(top + k - 1) for k in (1, 2, 8, 31)]

    def sample(bits: int) -> int:
        return rng.choice((0, rng.getrandbits(rng.randint(1, bits))))

    samples = [(0, 1), (1, 0b11), *((sample(41), x, 0, sample(41), 1) for x in longer)]
    for _ in range(2000):
        *nums, den = (sample(41) for _ in range(rng.choice((2, 5))))
        samples.append((*nums, den or 1))
    tested = []
    for *nums, den in samples:
        if len(nums) == 1:
            f = RationalFunction(nums[0], den)
            ints = (f.num, f.den)
            for which in (RHO_Y, RHO_T):
                image = which.embed_scalar(f)
                assert [image.num, image.den] == _horner(which, ints), (which, ints)
        else:
            q = Quaternion._from_ints(_SPLIT, tuple(nums), den)
            ints = (*q._nums, q._den)
            for which in (RHO_Y, RHO_T):
                assert which(q) == _horner_rho(which, q), (which, ints)
        tested.append(ints)
    assert sum(0 in ints for ints in tested) > 1000
    assert sum(ints[0].bit_length() < max(ints).bit_length() for ints in tested) > 1000
    assert len(RHO_Y._rows) == len(RHO_T._rows) == top + 31


def test_tables_grow_with_degree_not_with_traffic():
    """A map's table holds as many rows as the largest bit length it has
    embedded, however many values that took.  The tables live as long as
    the process, so a second pass over the same values adds no row."""
    rng = make_rng(36)
    alg = standard_algebra()
    quaternions = [random_quaternion(rng, alg, rng.randint(0, 6)) for _ in range(200)]
    scalars = [random_rational(rng, rng.randint(0, 9)) for _ in range(200)]
    for build, which in ((_build_rho_y, RHO_Y), (_build_rho_t, RHO_T)):
        fresh = build()
        assert len(fresh._rows) == 1
        largest = 1
        for q, f in zip(quaternions, scalars):
            assert fresh(q) == which(q)
            assert fresh.embed_scalar(f) == which.embed_scalar(f)
            n0, n1, n2, n3 = q._nums
            largest = max(largest, (n0 | n1 | n2 | n3 | q._den).bit_length(), (f.num | f.den).bit_length())
            assert len(fresh._rows) == largest, (fresh, q, f)
        rows = len(which._rows)
        for q, f in zip(quaternions, scalars):
            fresh(q), fresh.embed_scalar(f), which(q), which.embed_scalar(f)
        assert len(fresh._rows) == largest
        assert len(which._rows) == rows


def test_rho_t_reads_its_rows_from_the_top_degree():
    """rho_t's bit k reads row top-1-k, top the largest bit length among the
    five ints, checked with `reference_rho` over a scalar embedding by
    Horner's rule: the denominator alone holds the top degree, x3 alone
    holds it, the zero quaternion, scalars, and a top bit length one past
    the table, held by the denominator and then by x3."""
    alg = _SPLIT
    embed = _horner_scalar(RHO_T)

    def check(q: Quaternion) -> None:
        assert RHO_T(q) == reference_rho(RHO_T, q, embed), q
        for c in q.coords:
            assert RHO_T.embed_scalar(c) == embed(c), c

    den_on_top = Quaternion._from_ints(alg, (0b11, 0b10, 0, 1), 0b100101)
    x3_on_top = Quaternion._from_ints(alg, (1, 0b10, 0b11, 0b1000011), 0b11)
    assert den_on_top._den.bit_length() > max(den_on_top._nums).bit_length()
    assert x3_on_top._nums[3].bit_length() > max(*x3_on_top._nums[:3], x3_on_top._den).bit_length()
    scalars = [alg.element(f, ZERO_RF, ZERO_RF, ZERO_RF) for f in (ONE_RF, rf(0b10), rf(1, 0b10), rf(0b11, 0b1000))]
    for q in (den_on_top, x3_on_top, alg.element(*[ZERO_RF] * 4), *scalars):
        check(q)
    for held_by in ("den", "x3"):
        top = len(RHO_T._rows) + 1
        high = 1 << (top - 1) | 1
        if held_by == "den":
            q = Quaternion._from_ints(alg, (0b10, 1, 0, 0b11), high)
        else:
            q = Quaternion._from_ints(alg, (0b10, 1, 0, high), 0b11)
        check(q)
        assert len(RHO_T._rows) == top, held_by


def test_a_flipped_bit_in_rho_t_table_turns_the_suite_red(monkeypatch):
    """Non-vacuity: one flipped bit in a low row that the suite reads (row 1,
    the e12 entry of the image of I) must turn at least one certificate red;
    neighbors and ball-check do."""
    assert all(result.passed for result in run_all(1))
    rows = list(RHO_T._rows)
    identity, (e11, e12, e21, e22), *rest = rows[1]
    rows[1] = (identity, (e11, e12 ^ 1, e21, e22), *rest)
    monkeypatch.setattr(RHO_T, "_rows", rows)
    failed = [result.name for result in run_all(1) if not result.passed]
    assert failed


def _sympy_embedding(which):
    """which.embed_scalar recomputed with sympy's GF(2)[x]: substitute
    x^2 + x into both ints of the fraction, after x^D p(1/x) (D the larger
    degree) for the inverted map z = 1/u."""
    sympy, x, poly, bits = sympy_bridge()
    square_plus = poly(0b110)

    def embed(f: RationalFunction) -> RationalFunction:
        polys = [poly(f.num), poly(f.den)]
        if which.inverted:
            degree = max(f.num.bit_length(), f.den.bit_length()) - 1
            polys = [sympy.Poly(sympy.expand(x**degree * p.as_expr().subs(x, 1 / x)), x, modulus=2) for p in polys]
        return RationalFunction(*(bits(p.compose(square_plus)) for p in polys))

    return embed


def test_embeddings_match_the_sympy_substitution():
    rng = make_rng(35)
    alg = standard_algebra()
    for which in (RHO_Y, RHO_T):
        embed = _sympy_embedding(which)
        for _ in range(150):
            f = random_rational(rng, 8)
            assert which.embed_scalar(f) == embed(f), (which, f)
        for _ in range(40):
            q = random_quaternion(rng, alg, 3)
            assert which(q) == reference_rho(which, q, embed), (which, q)


def test_generator_images():
    alg = standard_algebra()
    assert str(RHO_Y(alg.gen_i())) == "[[y, 0], [0, 1+y]]"
    assert RHO_T(alg.one()).entries == Matrix2.identity("t").entries


def test_the_standard_algebra_is_one_object():
    """Values built from separate calls share their algebra, so the tag
    checks between them (products, splittings) are `is` tests."""
    assert standard_algebra() is standard_algebra()
    assert named_elements().B1.algebra is _SPLIT


def test_splittings_refuse_elements_of_other_algebras():
    """Both maps split [z, 1+z^3) only: an element of the split algebra [0, 1),
    or of [z, 1+z^3) over another variable, is refused, not read as if its
    coordinates were in the standard algebra."""
    foreign = (QuaternionAlgebra(rf(0), rf(1)), QuaternionAlgebra(rf(0b10), rf(0b1001), "w"))
    for alg in foreign:
        for q in (alg.gen_i(), alg.gen_j(), alg.one()):
            for which in (RHO_Y, RHO_T):
                with pytest.raises(AlgebraMismatchError):
                    which(q)
            with pytest.raises(AlgebraMismatchError):
                bt_act(q, standard_product_vertex())
    equal = QuaternionAlgebra(rf(0b10), rf(0b1001))  # an equal algebra, another object, is accepted
    assert equal is not _SPLIT
    assert str(RHO_Y(equal.gen_i())) == "[[y, 0], [0, 1+y]]"


def test_defining_relations_under_both_embeddings():
    alg = standard_algebra()
    for which in (RHO_Y, RHO_T):
        ri, rj = which.image_i, which.image_j
        a_img = which.identity.scale(which.embed_scalar(alg.a))
        b_img = which.identity.scale(which.embed_scalar(alg.b))
        assert (ri * ri + ri).entries == a_img.entries
        assert (rj * rj).entries == b_img.entries
        assert (rj * ri).entries == (ri * rj + rj).entries


def test_det_and_trace_match_norm_and_trace(algebra):
    rng = make_rng(31)
    for _ in range(300):
        q = random_quaternion(rng, algebra, 2)
        for which in (RHO_Y, RHO_T):
            m = which(q)
            assert m.det() == which.embed_scalar(q.rnorm())
            e11, _, _, e22 = m.entries
            assert e11 + e22 == which.embed_scalar(q.rtrace())


def _mat_y(e11, e12, e21, e22):
    return Matrix2("y", e11, e12, e21, e22)


def _mat_t(e11, e12, e21, e22):
    return Matrix2("t", e11, e12, e21, e22)


def expected_generator_table() -> tuple[dict, dict]:
    """The published 2x2 images of b1, b2, c1, c2 (the t column scaled by u)."""
    one = ONE_RF
    z = Z_IN_Y
    y = Y
    expected_y = {
        "b1": _mat_y((one + z) * y, one + z**3, one, (one + z) * (one + y)),
        "b2": _mat_y(z + z**2 + (one + z) * y, (one + z**3) * (one + y), y, one + z**2 + (one + z) * y),
        "c1": _mat_y(one + z**2, (one + z**3) * y, one + y, one + z**2),
        "c2": _mat_y(z + z**2, (one + z**3) * y, one + y, z + z**2),
    }
    u = U_IN_T
    t = T
    expected_t = {
        "b1": _mat_t((one + u) * (one + u + t), u + u**4, one, (one + u) * (u + t)),
        "b2": _mat_t((one + u) * t, (one + t) * (one + u**3), t / u, (one + u) * (one + t)),
        "c1": _mat_t(u + u**2, (one + u**3) * (one + u + t), (u + t) / u, u + u**2),
        "c2": _mat_t(one + u**2, (one + u**3) * (one + u + t), (u + t) / u, one + u**2),
    }
    return expected_y, expected_t


def test_generator_image_table():
    """The eight matrices for b1, b2, c1, c2 under both embeddings, up to scalar."""
    ne = named_elements()
    expected_y, expected_t = expected_generator_table()
    elements = {"b1": ne.B1, "b2": ne.B2, "c1": ne.C1, "c2": ne.C2}
    for name, q in elements.items():
        assert reference_matrix_projective_eq(RHO_Y(q), expected_y[name]), name
        assert reference_matrix_projective_eq(RHO_T(q), expected_t[name]), name
    # the t-column entries are exactly u * rho_t(.)
    u_img = RHO_T.embed_scalar(parse_rational("z")).inverse()
    for name, q in elements.items():
        assert RHO_T(q).scale(u_img).entries == expected_t[name].entries, name


def test_matrix_operations():
    alg = standard_algebra()
    ne = named_elements()
    ident = Matrix2.identity("y")
    assert ident.det() == ONE_RF
    assert RHO_Y(ne.B2).det() == RHO_Y.embed_scalar(parse_rational("z+z^2"))
    lhs = RHO_Y(ne.D) * RHO_Y(ne.B1)
    assert lhs.entries == RHO_Y(alg.gen_j()).entries
    rng = make_rng(32)
    for _ in range(200):
        m = Matrix2("y", *(random_rational(rng) for _ in range(4)))
        n = Matrix2("y", *(random_rational(rng) for _ in range(4)))
        assert (m * n).det() == m.det() * n.det()


def test_projective_matrix_equality():
    m = RHO_T(named_elements().C1)
    scaled = m.scale(parse_rational("z+z^2"))
    assert reference_matrix_projective_eq(m, scaled)
    assert not reference_matrix_projective_eq(m, Matrix2.identity("t"))
