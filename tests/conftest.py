"""Shared helpers: deterministic random generators for the property suites,
the c1 -> d fault injection, a tree-vertex tail built from its exponents, a
decoder for the paper's cycle notation of wreath permutations, and a bridge
to sympy's GF(2)[x]."""

from __future__ import annotations

import random
import re

import pytest

from quatlat.embeddings import Matrix2
from quatlat.lattice import standard_structure
from quatlat.quaternion import Quaternion, QuaternionAlgebra, named_elements, standard_algebra
from quatlat.rational import ONE_RF, RationalFunction


def make_rng(seed: int = 0x5EED) -> random.Random:
    return random.Random(seed)


def random_poly(rng: random.Random, max_degree: int = 5) -> int:
    """A GF(2)[x] int of degree <= max_degree, zero included."""
    return rng.getrandbits(max_degree + 1)


def random_nonzero_poly(rng: random.Random, max_degree: int = 5) -> int:
    while True:
        p = random_poly(rng, max_degree)
        if p:
            return p


def random_rational(rng: random.Random, max_degree: int = 5) -> RationalFunction:
    return RationalFunction(random_poly(rng, max_degree), random_nonzero_poly(rng, max_degree))


def random_quaternion(rng: random.Random, algebra: QuaternionAlgebra, max_degree: int = 2) -> Quaternion:
    return algebra.element(*(random_rational(rng, max_degree) for _ in range(4)))


def random_nonzero_quaternion(rng: random.Random, algebra: QuaternionAlgebra, max_degree: int = 2) -> Quaternion:
    while True:
        q = random_quaternion(rng, algebra, max_degree)
        if not q.is_zero():
            return q


def random_invertible_quaternion(rng: random.Random, algebra: QuaternionAlgebra, max_degree: int = 2) -> Quaternion:
    while True:
        q = random_quaternion(rng, algebra, max_degree)
        if not q.rnorm().is_zero():
            return q


def random_unit(rng: random.Random, var_bits: int = 0b10) -> RationalFunction:
    """A valuation-zero element: nonzero constant terms top and bottom."""
    num = 1 | (rng.getrandbits(4) << 1)
    den = 1 | (rng.getrandbits(4) << 1)
    return RationalFunction(num, den)


def random_integral_unit_matrix(rng: random.Random, var: str) -> Matrix2:
    """A random element of GL2 of the valuation ring: a product of integral
    elementary matrices, unit diagonals and swaps."""
    m = Matrix2.identity(var)
    zero = RationalFunction(0)
    one = ONE_RF
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            p = RationalFunction(random_poly(rng, 3))
            f = Matrix2(var, one, p, zero, one)
        elif kind == 1:
            p = RationalFunction(random_poly(rng, 3))
            f = Matrix2(var, one, zero, p, one)
        elif kind == 2:
            f = Matrix2(var, random_unit(rng), zero, zero, random_unit(rng))
        else:
            f = Matrix2(var, zero, one, one, zero)
        m = m * f
    return m


def random_invertible_matrix(rng: random.Random, var: str, max_degree: int = 3) -> Matrix2:
    while True:
        m = Matrix2(var, *(random_rational(rng, max_degree) for _ in range(4)))
        if not m.det().is_zero():
            return m


def sympy_bridge():
    """(sympy, x, poly, bits): sympy's GF(2)[x] and the conversions between
    its polynomials and coefficient-bit ints; skips the test without sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(bits: int):
        return sympy.Poly([(bits >> k) & 1 for k in range(max(bits.bit_length(), 1) - 1, -1, -1)], x, modulus=2)

    def bits(p) -> int:
        return sum((int(c) % 2) << k for (k,), c in p.terms())

    return sympy, x, poly, bits


def c1_swapped_for_d():
    """The standard structure with c1's element replaced by d, a fault that
    the ball check, `neighbors`, `relators` and `v4-structure` turn red on;
    the certificates that read only the squares resolved when the structure
    was built stay green."""
    structure = standard_structure()
    return structure._replace(elements={**structure.elements, "c1": named_elements().D})


def make_tail(level: int, exponents) -> int:
    """The vertex tail at `level` of the Laurent polynomial sum of pi^e
    over the exponents, each below the level: bit level-1-e is set per e."""
    tail = 0
    for e in exponents:
        if e >= level:
            raise ValueError(f"exponent {e} is not below the level {level}")
        tail ^= 1 << (level - 1 - e)
    return tail


def wreath_from_cycles(text: str, labels: tuple[str, ...]) -> tuple[int, ...]:
    """Decode "((g0 cycles, g1 cycles), flip|id)", with g_i the component
    mapping into fiber i, into an index tuple over labels x {0,1}: point k
    is (labels[k], 0) and point n + k is (labels[k], 1)."""
    match = re.fullmatch(r"\(\(([^,]*), ([^,]*)\), (flip|id)\)", text)
    if match is None:
        raise ValueError(f"not a wreath cycle string: {text!r}")
    g0, g1 = {x: x for x in labels}, {x: x for x in labels}
    for g, cycles in ((g0, match[1]), (g1, match[2])):
        for cycle in re.findall(r"\(([^()]*)\)", cycles):
            names = cycle.split()
            for k, x in enumerate(names):
                g[x] = names[(k + 1) % len(names)]
    n = len(labels)
    pos = {x: k for k, x in enumerate(labels)}
    if match[3] == "flip":  # (x,0) -> (g1(x), 1) and (x,1) -> (g0(x), 0)
        return tuple([pos[g1[x]] + n for x in labels] + [pos[g0[x]] for x in labels])
    return tuple([pos[g0[x]] for x in labels] + [pos[g1[x]] + n for x in labels])


@pytest.fixture(scope="session")
def algebra() -> QuaternionAlgebra:
    return standard_algebra()
