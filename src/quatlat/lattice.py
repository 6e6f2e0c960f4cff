"""The standard lattice data: the V4-structure on b1, b1^-1, c1 / b2, b2^-1, c2
inside the projectivized unit group of [z, 1+z^3), its square complex, and the
generator assignments used for relator checks.

Everything is cached; the objects are immutable and shared freely.
"""

from __future__ import annotations

from functools import lru_cache

from .quaternion import Quaternion, named_elements
from .squares import GroupOps, SquareComplexVH, V4Structure, build_complex, build_structure


def quaternion_ops() -> GroupOps:
    """Group operations in the projectivized unit group: multiplication,
    inversion, and projective canonicalization for interning."""
    return GroupOps(
        mul=lambda p, q: p * q,
        inv=lambda q: q.inverse(),
        canon=lambda q: q.projective_canon(),
    )


@lru_cache(maxsize=1)
def standard_structure() -> V4Structure:
    ne = named_elements()
    ops = quaternion_ops()
    a_side = [("b1", ne.B1), ("b1^-1", ne.B1.inverse()), ("c1", ne.C1)]
    b_side = [("b2", ne.B2), ("b2^-1", ne.B2.inverse()), ("c2", ne.C2)]
    return build_structure(a_side, b_side, ops)


@lru_cache(maxsize=1)
def standard_complex() -> SquareComplexVH:
    return build_complex(standard_structure())


@lru_cache(maxsize=1)
def generator_images() -> dict[str, Quaternion]:
    """Quaternion images of all named presentation generators."""
    ne = named_elements()
    return {
        "b1": ne.B1,
        "b2": ne.B2,
        "c1": ne.C1,
        "c2": ne.C2,
        "d": ne.D,
        "a1": ne.C1 * ne.B1.inverse(),
        "a2": ne.C2 * ne.B2.inverse(),
    }
