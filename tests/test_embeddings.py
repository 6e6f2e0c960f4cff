from quatlat.embeddings import RHO_T, RHO_Y, Matrix2
from quatlat.quaternion import named_elements, standard_algebra
from quatlat.rational import ONE_RF, parse_rational, rf

from conftest import make_rng, random_quaternion, random_rational
from fraction_reference import reference_matrix_projective_eq

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


def test_generator_images():
    alg = standard_algebra()
    assert str(RHO_Y(alg.gen_i())) == "[[y, 0], [0, 1+y]]"
    assert RHO_T(alg.one()).entries == Matrix2.identity("t").entries


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
            assert which(q).det() == which.embed_scalar(q.rnorm())
            assert which(q).trace() == which.embed_scalar(q.rtrace())


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
