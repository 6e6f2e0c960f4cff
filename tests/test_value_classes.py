"""The contract of the hand-written value classes: equality and hashing where
they are values, immutability, copy and pickle round trips through the
public constructors, and every validation their constructors perform."""

import copy
import operator
import pickle

import pytest

from quatlat.certify import BallCheckReport, CertificateResult, ball_check
from quatlat.embeddings import RHO_T, RHO_Y
from quatlat.invariants import ComplexCounts, complex_counts
from quatlat.places import PLACE_INF, PLACE_ONE, PLACE_ZERO, PLACE_ZETA, Place, ResidueFieldElement
from quatlat.presentations import Presentation, lambda_presentation
from quatlat.quaternion import Quaternion, QuaternionAlgebra, named_elements, standard_algebra
from quatlat.rational import rf
from quatlat.squares import GroupOps, V4Structure, build_structure
from quatlat.tree import ProductVertex, TreeVertex, act, standard_product_vertex, standard_vertex

from conftest import make_rng, random_invertible_quaternion


def _picklable_ops() -> GroupOps:
    return GroupOps(mul=operator.mul, inv=Quaternion.inverse, canon=Quaternion.projective_canon)


def _picklable_structure() -> V4Structure:
    ne = named_elements()
    a_side = [("b1", ne.B1), ("b1^-1", ne.B1.inverse()), ("c1", ne.C1)]
    b_side = [("b2", ne.B2), ("b2^-1", ne.B2.inverse()), ("c2", ne.C2)]
    return build_structure(a_side, b_side, _picklable_ops())


def _instances():
    """(object, its field names) for one instance of every rewritten class."""
    alg = standard_algebra()
    return [
        (TreeVertex("y", 3, 0b101), ("field", "level", "tail")),
        (standard_product_vertex(), ("horizontal", "vertical")),
        (PLACE_ZETA, ("kind", "minpoly")),
        (PLACE_INF, ("kind", "minpoly")),
        (ResidueFieldElement(PLACE_ZETA, 0b10), ("place", "representative")),
        (lambda_presentation(), ("generators", "relators")),
        (alg, ("a", "b", "var")),
        (named_elements(), ("B1", "B2", "C1", "C2", "D")),
        (_picklable_ops(), ("mul", "inv", "canon")),
        (_picklable_structure(), ("a_names", "b_names", "elements", "ops", "inv", "squares")),
        (complex_counts(4, 2), ("vertices", "q", "edges", "squares", "chi")),
        (ball_check(1), ("radius", "word_count", "distinct_elements", "distinct_vertices", "expected_vertices", "injective")),
        (CertificateResult("example", True, {"k": [1, 2]}, 1.5), ("name", "passed", "details", "elapsed_ms")),
    ]


INSTANCES = _instances()
IDS = [type(obj).__name__ for obj, _ in INSTANCES]
FROZEN = [(obj, names) for obj, names in INSTANCES if not isinstance(obj, CertificateResult)]
FROZEN_IDS = [type(obj).__name__ for obj, _ in FROZEN]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("obj, names", FROZEN, ids=FROZEN_IDS)
def test_assignment_raises(obj, names):
    for name in (*names, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_certificate_results_stay_mutable_and_own_their_details():
    first, second = CertificateResult("a", True), CertificateResult("b", False)
    first.details["key"] = 1
    first.elapsed_ms = 2.5
    assert second.details == {} and first.details == {"key": 1}
    assert first.details is not second.details
    assert first.elapsed_ms == 2.5 and second.elapsed_ms == 0.0
    assert first.as_json() == {"name": "a", "passed": True, "details": {"key": 1}}


@pytest.mark.parametrize("obj, names", INSTANCES, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_and_pickle_keep_the_type_and_the_fields(obj, names, round_trip):
    twin = round_trip(obj)
    assert type(twin) is type(obj)
    assert _fields(twin, names) == _fields(obj, names)
    if type(obj).__eq__ is not object.__eq__:
        assert twin == obj
    if type(obj).__hash__ not in (None, object.__hash__) and not isinstance(obj, V4Structure):
        assert hash(twin) == hash(obj)


def test_value_equality_and_hash():
    pairs = [
        (TreeVertex("t", -2, 9), TreeVertex("t", -2, 9)),
        (ProductVertex(TreeVertex("y", 1, 1), standard_vertex("t")), ProductVertex(TreeVertex("y", 1, 1), TreeVertex("t", 0, 0))),
        (Place("finite", 0b111), PLACE_ZETA),
        (Place("infinity"), PLACE_INF),
        (QuaternionAlgebra(rf(0b10), rf(0b1001)), standard_algebra()),
        (complex_counts(4, 2), ComplexCounts(4, 2, 12, 9, 1)),
        (ball_check(1), BallCheckReport(1, 7, 7, 7, 7, True)),
        (named_elements(), named_elements()),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    different = [
        (TreeVertex("y", 0, 0), TreeVertex("t", 0, 0)),
        (TreeVertex("y", 1, 0), TreeVertex("y", 1, 1)),
        (TreeVertex("y", 1, 0), TreeVertex("y", 2, 0)),
        (standard_product_vertex(), standard_vertex("y")),
        (PLACE_ZERO, PLACE_ONE),
        (PLACE_ZERO, PLACE_INF),
        (standard_algebra(), QuaternionAlgebra(rf(0b10), rf(0b1001), "w")),
        (standard_algebra(), QuaternionAlgebra(rf(0b11), rf(0b1001))),
    ]
    for x, y in different:
        assert x != y


def test_vertices_as_dict_keys():
    """Vertices made by the tree action find the entries keyed by vertices
    built from their coordinates, and only those."""
    rng = make_rng(90)
    alg = standard_algebra()
    w = standard_product_vertex()
    table = {}
    for _ in range(200):
        g = random_invertible_quaternion(rng, alg)
        v = ProductVertex(act(RHO_Y(g), w.horizontal), act(RHO_T(g), w.vertical))
        table.setdefault(v, len(table))
    for v, index in table.items():
        rebuilt = ProductVertex(TreeVertex(*v.horizontal), TreeVertex(*v.vertical))
        assert rebuilt is not v and table[rebuilt] == index
        by_factor = {v.horizontal: "h", v.vertical: "v"}
        assert by_factor[TreeVertex(*v.horizontal)] == "h" and by_factor[TreeVertex(*v.vertical)] == "v"
    assert len(set(table)) == len(table) == len({v.key() for v in table})


def test_vertex_fields_and_text():
    v = TreeVertex("t", 3, 0b11)
    assert (v.field, v.level, v.tail) == ("t", 3, 3)
    p = ProductVertex(standard_vertex("y"), v)
    assert (p.horizontal, p.vertical) == (standard_vertex("y"), v)
    assert str(p) == p.key() == "y:0:0|t:3:3"


def test_ball_check_report_json_keeps_its_keys_in_order():
    report = ball_check(2)
    assert list(report.as_json().items()) == [
        ("radius", 2),
        ("word_count", 37),
        ("distinct_elements", 28),
        ("distinct_vertices", 28),
        ("expected_vertices", 28),
        ("injective", True),
    ]


def test_constructors_reject_invalid_values():
    with pytest.raises(ValueError, match="nonnegative"):
        TreeVertex("y", 0, -1)
    for horizontal, vertical in (
        (standard_vertex("t"), standard_vertex("y")),
        (standard_vertex("y"), standard_vertex("y")),
        (standard_vertex("t"), standard_vertex("t")),
    ):
        with pytest.raises(ValueError, match="horizontal-over-y"):
            ProductVertex(horizontal, vertical)
    with pytest.raises(ValueError, match="unknown place kind"):
        Place("weird")
    with pytest.raises(ValueError, match="irreducible"):
        Place("finite", 0b101)  # 1+z^2 = (1+z)^2
    with pytest.raises(ValueError, match="irreducible"):
        Place("finite")
    with pytest.raises(ValueError, match="no minimal polynomial"):
        Place("infinity", 0b10)
    for place, representative in ((PLACE_ZERO, 0b10), (PLACE_INF, 0b10), (PLACE_ZETA, 0b100)):
        with pytest.raises(ValueError, match="not reduced"):
            ResidueFieldElement(place, representative)
    for relator in ((0,), (2,), (1, -2)):
        with pytest.raises(ValueError, match="out of range"):
            Presentation(("a",), (relator,))
    with pytest.raises(ValueError, match="nonzero"):
        QuaternionAlgebra(rf(0b10), rf(0))

