"""End-to-end arithmetic certificates.

Each certificate is a plain function that re-derives one of the structural
facts and returns `(passed, details)`, with enough detail to see what
broke.  Certificates never read the clock; `suite.run_all` names and times
them.
Here: the ramification set of the algebra, the discriminant of the standard
order, the standard vertex stabilizer, the neighbor geometry of the
generating sets, and the simple-transitivity ball check on the product of
the two trees.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from operator import index

from .embeddings import RHO_T, RHO_Y, Matrix2
from .lattice import standard_structure
from .places import (
    NAMED_PLACES,
    PLACE_ONE,
    PLACE_ZERO,
    PLACE_ZETA,
    Place,
    local_symbol,
    valuation,
)
from .quaternion import Quaternion, is_ring_unit, named_elements, standard_algebra
from .rational import RationalFunction, _set__memo, rf
from .squares import V4Structure
from .tree import act, ball_vertex_count, bt_act, distance, standard_product_vertex, vertex_key


def ramified_places() -> list[Place]:
    """Places among {0, 1, zeta, inf} where [z, 1+z^3) is a division algebra."""
    alg = standard_algebra()
    return [p for p in NAMED_PLACES if local_symbol(alg.a, alg.b, p) == 1]


def ramification_certificate() -> tuple[bool, dict]:
    ram = ramified_places()
    expected = [PLACE_ONE, PLACE_ZETA]
    passed = ram == expected and len(ram) % 2 == 0
    return passed, {"ramified": [p.name for p in ram], "expected": [p.name for p in expected]}


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


def discriminant_certificate() -> tuple[bool, dict]:
    disc = order_discriminant()
    expected = rf(0b1001) ** 2  # (1+z^3)^2
    return disc == expected, {"discriminant": str(disc), "expected": str(expected)}


def _mod_pi_matrix(m: Matrix2) -> list[list[int]] | None:
    """Reduce an integral matrix modulo the uniformizer; None if not integral.
    The residue field is GF(2), so an entry reduces to 1 exactly when it is a unit."""
    v11, v12, v21, v22 = (valuation(e, PLACE_ZERO) for e in m.entries)
    if min(v11, v12, v21, v22) < 0:
        return None
    return [[int(v11 == 0), int(v12 == 0)], [int(v21 == 0), int(v22 == 0)]]


def stabilizer_certificate() -> tuple[bool, dict]:
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
    return not failures, details


def neighbors_certificate(structure: V4Structure) -> tuple[bool, dict]:
    """The A side moves only the vertical tree factor, the B side only the
    horizontal one, each onto three distinct neighbors of the base vertex."""
    w = standard_product_vertex()
    factor = ("horizontal", "vertical")  # the names of w[0] and w[1]
    failures = []
    details: dict = {}

    for side, names, moved in (("A", structure.a_names, 1), ("B", structure.b_names, 0)):
        fixed = 1 - moved
        images = []
        for name in names:
            img = bt_act(structure.elements[name], w)
            if img[fixed] != w[fixed]:
                failures.append(f"{name} moved the {factor[fixed]} factor")
            if distance(img[moved], w[moved]) != 1:
                failures.append(f"{name} did not send the {factor[moved]} base to a neighbor")
            images.append(img[moved])
        if len(set(images)) != 3:
            failures.append(f"{side} images not pairwise distinct")
        details[f"{side.lower()}_{factor[moved]}_images"] = [vertex_key(v) for v in images]
    details["failures"] = failures
    return not failures, details


# -- the ball check ----------------------------------------------------------


BallCheckReport = namedtuple(
    "BallCheckReport", "radius word_count distinct_elements distinct_vertices expected_vertices injective"
)


def _over_one_plus_z(x: int) -> int:
    """x/(1+z) for x divisible by 1+z: bit k of the quotient is the XOR of
    the bits above k of x, a suffix XOR taken in doubling strides."""
    s, n = 1, x.bit_length()
    while s < n:
        x ^= x >> s
        s += s
    return x >> 1


def _word_key(nums: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The numerators, not all zero, divided by the highest power of z and
    then of 1+z that divides all four: common trailing zeros are shifted
    out, and while every coordinate has even weight (f(1) = 0) all four are
    divided by 1+z.  That is their primitive part whenever their content is
    z^i (1+z)^j, which `ball_check` guarantees; see there.  When there is
    nothing to divide, the common case, `nums` itself is returned."""
    n0, n1, n2, n3 = nums
    low = n0 | n1 | n2 | n3
    shift = (low & -low).bit_length() - 1
    if shift:
        n0, n1, n2, n3 = n0 >> shift, n1 >> shift, n2 >> shift, n3 >> shift
    elif n0.bit_count() & 1 or n1.bit_count() & 1 or n2.bit_count() & 1 or n3.bit_count() & 1:
        return nums  # nothing to divide
    while not (n0.bit_count() & 1 or n1.bit_count() & 1 or n2.bit_count() & 1 or n3.bit_count() & 1):
        n0, n1, n2, n3 = _over_one_plus_z(n0), _over_one_plus_z(n1), _over_one_plus_z(n2), _over_one_plus_z(n3)
    return n0, n1, n2, n3


def ball_check(radius: int, structure: V4Structure | None = None) -> BallCheckReport:
    """Enumerate freely reduced words in the generators of `structure` (the
    cached `standard_structure()` when none is given) up to the radius,
    intern their values projectively, act on the base vertex, and compare
    the element count against the vertex count of the product-tree ball.

    c1 and c2 are treated as their own inverses (no c^-1 letters); only free
    reductions are pruned, so relator collisions are found by interning.

    The words are walked depth first from one explicit stack of (element,
    horizontal vertex, vertical vertex, leftmost letter, letters left): a
    popped word makes all its one-letter-longer children, and a child is
    pushed only while it has letters left.  `word_count` counts the words
    the walk makes.  The order cannot change the verdict: one element met
    on two vertices is seen by whichever word comes second, and two
    elements on one vertex leave fewer distinct vertices than elements,
    which the counts at the end compare.  Besides the interned ball, the
    stack holds only the unwalked siblings of the current word's prefixes,
    fewer than 5L + 1 entries (4L - 2 from L = 2 on).  The six generators
    and their twelve matrices are the package's only memoized values: each
    is built afresh for the call and given an empty `_memo`, which
    `Quaternion.__mul__` and `tree.act` then fill, and which holds at most
    one entry per (generator, element) pair.  The call's one map,
    `classes`, takes numerator tuples to a class's (horizontal vertex,
    vertical vertex, element) entry: each class's primitive key, and the
    numerators of every product met.  So memory is O(|ball| + 5L) rather
    than the 5^L words of a whole layer, and nothing is cached across calls
    or left on any other value.

    Keying `classes` by numerators is sound: the generators and
    every interned element are over denominator 1, so every product is
    too, and equal numerators are equal quaternions, of one class.  Each
    word past the empty one costs exactly one `Quaternion.__mul__` call
    (generator times the element of its suffix), two memoized `act` calls
    (one per tree), one lookup of the product's numerators in `classes`
    and one comparison of its two vertices with its class's; nothing else
    is paid per word.  So a check at radius L makes word_count - 1
    `__mul__` calls and twice as many `act` calls.  Words reach an element
    by several paths, so only the first call for each (generator, element)
    pair computes; the others return the product from the generator's memo
    (150 of 186 calls compute at radius 3, 1,392 of 4,686 at radius 5).
    The memo keeps returning the same products, so only numerators that
    `classes` has not met pay the projective key (90 of 186 words at
    radius 3, 698 of 4,686 at radius 5), and only a new key makes a new
    class, counted as it is made.  A word whose numerators were met before
    still compares its vertices, so a revisit that lands elsewhere turns
    the check red.

    Every element is kept as its primitive representative: the projective
    key (a primitive polynomial 4-tuple) over denominator 1, one Quaternion
    per distinct key.  When `_word_key` returns the product's numerators
    unchanged, the product itself is interned, which the generator's memo
    already holds, rather than a second copy.  Nothing observable changes:
    elements are interned projectively, and the vertices come from the
    generators' matrices, whose scalar factors do not move a vertex (a
    homothety class).

    The key of a word is `_word_key` of the product, which divides out
    powers of z and 1+z only and runs no gcd chain.  It is exact: every
    generator key has reduced norm 1+z or z+z^2, a unit of R1, and nrd is
    multiplicative, so by induction every interned element has norm
    z^i (1+z)^j; for polynomial x with content c, c^2 divides nrd(x), so
    the content of a product g*e is itself z^i (1+z)^j.  It is also sound
    without that lemma: a key that is not fully reduced can only split a
    projective class into several keys, never merge two classes, and both
    halves of a split class act on the base vertex alike, so they share a
    vertex, there are fewer vertices than elements, and the check turns
    red.  A wrong key can never give a false pass.
    """
    radius = index(radius)  # a float radius would never count down to 0
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if structure is None:
        structure = standard_structure()
    canon = Quaternion.projective_canon
    word_key = _word_key
    letters = list(structure.a_names) + list(structure.b_names)
    one = standard_algebra().one()
    alg = one.algebra
    primitive = Quaternion._from_ints
    steps = {}  # letter -> (letter, element, rho_y matrix, rho_t matrix)
    for name in letters:
        gen = primitive(alg, canon(structure.elements[name]), 1)
        steps[name] = step = (name, gen, RHO_Y(gen), RHO_T(gen))
        for value in step[1:]:
            _set__memo(value, {})
    # the letters allowed after each leftmost letter: all but its inverse
    follow = {name: [steps[n] for n in letters if structure.inv[n] != name] for name in letters}
    follow[None] = list(steps.values())

    w = standard_product_vertex()
    # numerators (a class's key, or a product's met so far) -> its class's
    # (horizontal vertex, vertical vertex, the class's one Quaternion)
    classes: dict = {canon(one): (w[0], w[1], one)}
    distinct_elements = word_count = 1
    consistent = True
    # stack entries: (element, horizontal vertex, vertical vertex, leftmost letter, letters left)
    stack = [(one, w[0], w[1], None, radius)] if radius else []
    pop, push = stack.pop, stack.append
    while stack:
        elem, horizontal, vertical, first, left = pop()
        left -= 1
        children = follow[first]
        word_count += len(children)
        for name, gen, my, mt in children:
            new_h = act(my, horizontal)
            new_v = act(mt, vertical)
            product = gen * elem
            nums = product._nums
            entry = classes.get(nums)
            if entry is None:
                key = word_key(nums)
                entry = classes.get(key)
                if entry is None:
                    if key is not nums:
                        product = primitive(alg, key, 1)
                    entry = classes[key] = (new_h, new_v, product)
                    distinct_elements += 1
                classes[nums] = entry
            if entry[0] != new_h or entry[1] != new_v:
                consistent = False
            if left:
                push((entry[2], new_h, new_v, name, left))

    distinct_vertices = len({(h, v) for h, v, _ in classes.values()})
    expected = ball_vertex_count(radius)
    injective = consistent and distinct_elements == distinct_vertices == expected
    return BallCheckReport(radius, word_count, distinct_elements, distinct_vertices, expected, injective)


def ball_certificate(radius: int, structure: V4Structure) -> tuple[bool, dict]:
    report = ball_check(radius, structure)
    return report.injective, report._asdict()
