"""The standard lattice data: the V4-structure on b1, b1^-1, c1 / b2, b2^-1, c2
inside the projectivized unit group of [z, 1+z^3), which is also its square
complex (see `squares`), and the generator assignments used for relator
checks.

The structure is cached, immutable and shared freely; `generator_images`
reads one and builds a fresh dict on each call, so a caller may change it.
"""

from __future__ import annotations

from functools import lru_cache

from .quaternion import Quaternion, named_elements
from .squares import GroupOps, V4Structure, build_structure


@lru_cache(maxsize=1)
def standard_structure() -> V4Structure:
    """The structure in the projectivized unit group, whose elements are
    interned by their projective representatives."""
    ne = named_elements()
    ops = GroupOps(mul=lambda p, q: p * q, inv=lambda q: q.inverse(), canon=lambda q: q.projective_canon())
    a_side = [("b1", ne.B1), ("b1^-1", ne.B1.inverse()), ("c1", ne.C1)]
    b_side = [("b2", ne.B2), ("b2^-1", ne.B2.inverse()), ("c2", ne.C2)]
    return build_structure(a_side, b_side, ops)


def generator_images(structure: V4Structure) -> dict[str, Quaternion]:
    """Quaternion images of all named presentation generators: b1, b2, c1
    and c2 as the structure holds them, a1 = c1*b1^-1, a2 = c2*b2^-1, and d."""
    images = {name: structure.elements[name] for name in ("b1", "b2", "c1", "c2")}
    images["d"] = named_elements().D
    images["a1"] = images["c1"] * images["b1"].inverse()
    images["a2"] = images["c2"] * images["b2"].inverse()
    return images
