"""End-to-end arithmetic certificates.

Each certificate is a plain function that re-derives one of the structural
facts and returns a `CertificateResult`: PASS/FAIL with enough detail to see
what broke.  Certificates never read the clock; `suite.run_all` times them.
Here: the ramification set of the algebra, the discriminant of the standard
order, the standard vertex stabilizer, the neighbor geometry of the
generating sets, and the simple-transitivity ball check on the product of
the two trees.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations

from .embeddings import RHO_T, RHO_Y, Matrix2
from .lattice import standard_structure
from .places import (
    NAMED_PLACES,
    PLACE_ONE,
    PLACE_ZERO,
    PLACE_ZETA,
    Place,
    laurent_expand,
    local_symbol,
    valuation,
)
from .quaternion import is_ring_unit, named_elements, standard_algebra
from .rational import RationalFunction, rf
from .squares import V4Structure
from .tree import ProductVertex, act, ball_vertex_count, bt_act, distance, standard_product_vertex


class CertificateResult:
    """One certificate's verdict.  `suite.run_all` sets elapsed_ms; as_json
    leaves it out, so `verify --json` is byte-stable."""

    __slots__ = ("name", "passed", "details", "elapsed_ms")

    def __init__(self, name: str, passed: bool, details: dict | None = None, elapsed_ms: float = 0.0) -> None:
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.elapsed_ms = elapsed_ms

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


def ramified_places() -> list[Place]:
    """Places among {0, 1, zeta, inf} where [z, 1+z^3) is a division algebra."""
    alg = standard_algebra()
    return [p for p in NAMED_PLACES if local_symbol(alg.a, alg.b, p) == 1]


def ramification_certificate() -> CertificateResult:
    ram = ramified_places()
    expected = [PLACE_ONE, PLACE_ZETA]
    passed = ram == expected and len(ram) % 2 == 0
    return CertificateResult(
        "ramification",
        passed,
        {"ramified": [p.name for p in ram], "expected": [p.name for p in expected]},
    )


def order_discriminant() -> RationalFunction:
    """Determinant of the reduced-trace Gram matrix on the basis 1, I, J, IJ."""
    alg = standard_algebra()
    basis = (alg.one(), alg.gen_i(), alg.gen_j(), alg.gen_ij())
    gram = [[(u * v).rtrace() for v in basis] for u in basis]
    return _det4(gram)


def _det4(m: list[list[RationalFunction]]) -> RationalFunction:
    total = None
    for perm in permutations(range(4)):
        term = m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]] * m[3][perm[3]]
        total = term if total is None else total + term  # char 2: signs vanish
    return total


def discriminant_certificate() -> CertificateResult:
    disc = order_discriminant()
    expected = rf(0b1001) ** 2  # (1+z^3)^2
    return CertificateResult(
        "discriminant",
        disc == expected,
        {"discriminant": str(disc), "expected": str(expected)},
    )


def _mod_pi_matrix(m: Matrix2) -> list[list[int]] | None:
    """Reduce an integral matrix modulo the uniformizer; None if not integral."""
    out = []
    for row in ((m.e11, m.e12), (m.e21, m.e22)):
        line = []
        for e in row:
            v = valuation(e, PLACE_ZERO)
            if v < 0:
                return None
            line.append(laurent_expand(e, PLACE_ZERO, 1).get(0, 0))
        out.append(line)
    return out


def stabilizer_certificate() -> CertificateResult:
    """d fixes the standard vertex, fails R1-integrality, and squares to a scalar."""
    ne = named_elements()
    details: dict = {}
    failures = []

    my = RHO_Y(ne.D)
    red_y = _mod_pi_matrix(my)
    det_y_unit = valuation(my.det(), PLACE_ZERO) == 0
    if red_y != [[1, 0], [1, 1]] or not det_y_unit:
        failures.append("rho_y(D) is not an integral unit with the expected reduction")
    details["mod_y"] = red_y

    u_inverse_scale = RHO_T.embed_scalar(rf(0b10))  # image of z = 1/u
    mt = RHO_T(ne.D).scale(u_inverse_scale.inverse())
    red_t = _mod_pi_matrix(mt)
    det_t_unit = valuation(mt.det(), PLACE_ZERO) == 0
    if red_t != [[1, 1], [0, 1]] or not det_t_unit:
        failures.append("u*rho_t(D) is not an integral unit with the expected reduction")
    details["mod_t"] = red_t

    if bt_act(ne.D, standard_product_vertex()) != standard_product_vertex():
        failures.append("d does not fix the standard vertex")

    norm = ne.D.rnorm()
    details["rnorm_d"] = str(norm)
    if is_ring_unit(norm, "R1"):
        failures.append("rnorm(D) unexpectedly a unit of the smaller ring")
    if not is_ring_unit(norm, "R"):
        failures.append("rnorm(D) not a unit of the big ring")

    d_squared = ne.D * ne.D
    details["d_squared"] = str(d_squared)
    if not (d_squared.is_scalar() and d_squared.coords[0] == rf(0b111)):
        failures.append("d^2 is not the scalar 1+z+z^2")

    details["failures"] = failures
    return CertificateResult("stabilizer", not failures, details)


def neighbors_certificate(structure: V4Structure) -> CertificateResult:
    """The A side moves only the vertical tree factor, the B side only the
    horizontal one, each onto three distinct neighbors of the base vertex."""
    w = standard_product_vertex()
    failures = []
    details: dict = {}

    for side, names, moved, fixed in (
        ("A", structure.a_names, "vertical", "horizontal"),
        ("B", structure.b_names, "horizontal", "vertical"),
    ):
        images = []
        for name in names:
            img = bt_act(structure.elements[name], w)
            if getattr(img, fixed) != getattr(w, fixed):
                failures.append(f"{name} moved the {fixed} factor")
            if distance(getattr(img, moved), getattr(w, moved)) != 1:
                failures.append(f"{name} did not send the {moved} base to a neighbor")
            images.append(getattr(img, moved))
        if len(set(images)) != 3:
            failures.append(f"{side} images not pairwise distinct")
        details[f"{side.lower()}_{moved}_images"] = [v.key() for v in images]
    details["failures"] = failures
    return CertificateResult("neighbors", not failures, details)


# -- the ball check ----------------------------------------------------------


class BallCheckReport(
    namedtuple("BallCheckReport", "radius word_count distinct_elements distinct_vertices expected_vertices injective")
):
    __slots__ = ()

    def as_json(self) -> dict:
        return dict(zip(self._fields, self))


def ball_check(radius: int) -> BallCheckReport:
    """Enumerate freely reduced words in the generators up to the radius,
    intern their values projectively, act on the base vertex, and compare
    the element count against the vertex count of the product-tree ball.

    c1 and c2 are treated as their own inverses (no c^-1 letters); only free
    reductions are pruned, so relator collisions are found by interning.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    structure = standard_structure()
    canon = structure.ops.canon
    letters = list(structure.a_names) + list(structure.b_names)
    inverse_of = {name: structure.inv[name] for name in letters}
    gen_elems = {name: structure.elements[name] for name in letters}
    gen_mats = {name: (RHO_Y(gen_elems[name]), RHO_T(gen_elems[name])) for name in letters}

    w = standard_product_vertex()
    one = standard_algebra().one()
    element_to_vertex: dict = {canon(one): w}
    vertex_to_element: dict = {w: canon(one)}
    word_count = 1
    consistent = True
    # layer entries: (element, product vertex, leftmost letter)
    layer = [(one, w, None)]
    for _ in range(radius):
        nxt = []
        for elem, (horizontal, vertical), first in layer:
            for name in letters:
                if first is not None and inverse_of[name] == first:
                    continue
                my, mt = gen_mats[name]
                new_vert = ProductVertex(act(my, horizontal), act(mt, vertical))
                new_elem = gen_elems[name] * elem
                word_count += 1
                key = canon(new_elem)
                if key in element_to_vertex:
                    if element_to_vertex[key] != new_vert:
                        consistent = False
                else:
                    element_to_vertex[key] = new_vert
                    if new_vert in vertex_to_element:
                        consistent = False
                    else:
                        vertex_to_element[new_vert] = key
                nxt.append((new_elem, new_vert, name))
        layer = nxt

    distinct_elements = len(element_to_vertex)
    distinct_vertices = len(set(element_to_vertex.values()))
    expected = ball_vertex_count(radius)
    injective = (
        consistent
        and distinct_elements == distinct_vertices == expected
    )
    return BallCheckReport(radius, word_count, distinct_elements, distinct_vertices, expected, injective)


def ball_certificate(radius: int = 3) -> CertificateResult:
    report = ball_check(radius)
    return CertificateResult("ball-check", report.injective, report.as_json())
