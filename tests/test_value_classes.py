"""The contract of the hand-written value classes: equality and hashing where
they are values, immutability, copy and pickle round trips through the
public constructors, and every validation their constructors perform."""

import copy
import operator
import pickle

import pytest

from quatlat.certify import BallCheckReport, ball_check
from quatlat.embeddings import RHO_T, RHO_Y, Matrix2
from quatlat.invariants import ComplexCounts, complex_counts
from quatlat.places import PLACE_INF, PLACE_ONE, PLACE_ZERO, PLACE_ZETA, Place
from quatlat.presentations import Presentation, gr_presentation, lambda_presentation
from quatlat.quaternion import Quaternion, QuaternionAlgebra, named_elements, standard_algebra
from quatlat.rational import RationalFunction, _set__memo, rf
from quatlat.squares import GroupOps, V4Structure, build_structure
from quatlat.suite import CertificateResult, run_all
from quatlat.tree import act, bt_act, standard_product_vertex, standard_vertex, vertex_key

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
        (PLACE_ZETA, ("kind", "minpoly")),
        (PLACE_INF, ("kind", "minpoly")),
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


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("obj, names", INSTANCES, ids=IDS)
def test_assignment_raises(obj, names):
    for name in (*names, "unknown_attribute"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


@pytest.mark.parametrize("obj, names", INSTANCES, ids=IDS)
def test_deletion_raises(obj, names):
    before = _fields(obj, names)
    for name in (*names, "unknown_attribute"):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj, names) == before


def _slotted_values_built_every_way() -> dict:
    """Quaternions, matrices and fractions from each constructor that writes
    the slots directly, by how they were built."""
    alg = standard_algebra()
    q = named_elements().B2
    m = RHO_Y(q)
    return {
        "quaternion-init": q,
        "quaternion-mul": q * q,
        "quaternion-inverse": q.inverse(),
        "quaternion-from-ints": Quaternion._from_ints(alg, (1, 0b10, 0, 0b11), 0b10),
        "matrix-rho": m,
        "matrix-mul": m * RHO_Y(q.inverse()),
        "matrix-init": Matrix2("y", rf(0b10), rf(0), rf(1, 0b11), rf(1)),
        "matrix-identity": Matrix2.identity("t"),
        "fraction-init": rf(0b110, 0b10),
        "fraction-coprime": RationalFunction._coprime(0b11, 0b10),
        "fraction-rnorm": q.rnorm(),
        "fraction-embed-scalar": RHO_T.embed_scalar(rf(0b111, 0b10)),
    }


SLOTTED = _slotted_values_built_every_way()


@pytest.mark.parametrize("obj", SLOTTED.values(), ids=SLOTTED.keys())
def test_every_slot_refuses_assignment_after_construction(obj):
    if isinstance(obj, Matrix2):
        _set__memo(obj, {})
        act(obj, standard_vertex(obj.var))  # fills the act memo, which must stay the same dict
    elif isinstance(obj, Quaternion):
        _set__memo(obj, {})
        obj * named_elements().B1  # fills the product memo (B1 is over 1), likewise
    slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots and ("_memo" in slots) == isinstance(obj, (Quaternion, Matrix2))
    if "_memo" in slots:
        assert type(obj._memo) is dict and obj._memo
    before = {name: getattr(obj, name) for name in slots}
    for name in slots:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert all(getattr(obj, name) is value for name, value in before.items())
    repr(obj)  # every slot is still there to print


def test_run_all_results_are_equal_and_own_their_details():
    """Two runs give equal verdicts, and each result's details are its own:
    writing to one run's details leaves the other's as they were."""
    first, second = run_all(1), run_all(1)
    assert [r[:3] for r in first] == [r[:3] for r in second]
    for a, b in zip(first, second):
        assert a.details is not b.details
        a.details["key"] = 1
        assert "key" not in b.details


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
    if type(obj).__hash__ not in (None, object.__hash__) and not isinstance(obj, (V4Structure, CertificateResult)):
        assert hash(twin) == hash(obj)


def _with_last_relator_reversed(presentation: Presentation) -> Presentation:
    *rest, last = presentation.relators
    assert last[::-1] != last
    return Presentation(presentation.generators, (*rest, last[::-1]))


def test_value_equality_and_hash():
    pairs = [
        (("t", -2, 9), ("t", -2, 9)),
        (Place("finite", 0b111), PLACE_ZETA),
        (Place("infinity"), PLACE_INF),
        (QuaternionAlgebra(rf(0b10), rf(0b1001)), standard_algebra()),
        (complex_counts(4, 2), ComplexCounts(4, 2, 12, 9, 1)),
        (ball_check(1), BallCheckReport(1, 7, 7, 7, 7, True)),
        (named_elements(), named_elements()),
        (lambda_presentation(), lambda_presentation()),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    different = [
        (("y", 0, 0), ("t", 0, 0)),
        (("y", 1, 0), ("y", 1, 1)),
        (("y", 1, 0), ("y", 2, 0)),
        (standard_product_vertex(), standard_vertex("y")),
        (PLACE_ZERO, PLACE_ONE),
        (PLACE_ZERO, PLACE_INF),
        (standard_algebra(), QuaternionAlgebra(rf(0b10), rf(0b1001), "w")),
        (standard_algebra(), QuaternionAlgebra(rf(0b11), rf(0b1001))),
        (lambda_presentation(), gr_presentation()),
        (lambda_presentation(), _with_last_relator_reversed(lambda_presentation())),
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
        v = (act(RHO_Y(g), w[0]), act(RHO_T(g), w[1]))
        table.setdefault(v, len(table))
    for v, index in table.items():
        horizontal, vertical = v
        (hf, hn, ht), (vf, vn, vt) = v
        rebuilt = ((hf, hn, ht), (vf, vn, vt))
        assert rebuilt is not v and table[rebuilt] == index
        by_factor = {horizontal: "h", vertical: "v"}
        assert by_factor[(hf, hn, ht)] == "h" and by_factor[(vf, vn, vt)] == "v"
    assert len(set(table)) == len(table) == len({(vertex_key(h), vertex_key(v)) for h, v in table})


def test_vertex_fields_and_text():
    """A vertex's fields are its positions (field, level, tail); here the
    class of [[t^3, t+t^2], [0, 1]], reached by the action."""
    v = act(Matrix2("t", rf(0b1000), rf(0b110), rf(0), rf(1)), standard_vertex("t"))
    field, level, tail = v
    assert (field, level, tail) == ("t", 3, 0b11) and vertex_key(v) == "t:3:3"


def test_ball_check_report_json_keeps_its_keys_in_order():
    report = ball_check(2)
    assert list(report._asdict().items()) == [
        ("radius", 2),
        ("word_count", 37),
        ("distinct_elements", 28),
        ("distinct_vertices", 28),
        ("expected_vertices", 28),
        ("injective", True),
    ]


def test_constructors_reject_invalid_values():
    c1 = named_elements().C1
    for pair in (
        (standard_vertex("t"), standard_vertex("y")),
        (standard_vertex("y"), standard_vertex("y")),
        (standard_vertex("t"), standard_vertex("t")),
    ):
        with pytest.raises(ValueError, match="different fields"):
            bt_act(c1, pair)
    with pytest.raises(ValueError, match="unknown place kind"):
        Place("weird")
    with pytest.raises(ValueError, match="irreducible"):
        Place("finite", 0b101)  # 1+z^2 = (1+z)^2
    with pytest.raises(ValueError, match="irreducible"):
        Place("finite")
    with pytest.raises(ValueError, match="no minimal polynomial"):
        Place("infinity", 0b10)
    for relator in ((0,), (2,), (1, -2)):
        with pytest.raises(ValueError, match="out of range"):
            Presentation(("a",), (relator,))
    with pytest.raises(ValueError, match="nonzero"):
        QuaternionAlgebra(rf(0b10), rf(0))
    for a, b in ((rf(1, 0b10), rf(0b1001)), (rf(0b10), rf(0b10, 0b11))):
        with pytest.raises(ValueError, match="polynomials"):
            QuaternionAlgebra(a, b)

