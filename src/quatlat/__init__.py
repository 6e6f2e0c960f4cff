"""Exact arithmetic for a quaternionic lattice acting on a product of trees,
with certificates for the numerical invariants of the associated fake quadric.
"""

from .binpoly import parse_poly
from .embeddings import RHO_T, RHO_Y, Matrix2
from .places import (
    PLACE_INF,
    PLACE_ONE,
    PLACE_ZERO,
    PLACE_ZETA,
    Place,
    laurent_expand,
    local_symbol,
    residue,
    valuation,
)
from .quaternion import (
    NamedElements,
    Quaternion,
    QuaternionAlgebra,
    named_elements,
    parse_quaternion,
    standard_algebra,
)
from .rational import RationalFunction, parse_rational, rf
from .tree import TreeVertex, act, bt_act, distance, standard_product_vertex, vertex_from_matrix

__all__ = [
    "Matrix2",
    "NamedElements",
    "PLACE_INF",
    "PLACE_ONE",
    "PLACE_ZERO",
    "PLACE_ZETA",
    "Place",
    "Quaternion",
    "QuaternionAlgebra",
    "RHO_T",
    "RHO_Y",
    "RationalFunction",
    "TreeVertex",
    "act",
    "bt_act",
    "distance",
    "laurent_expand",
    "local_symbol",
    "named_elements",
    "parse_poly",
    "parse_quaternion",
    "parse_rational",
    "residue",
    "rf",
    "standard_algebra",
    "standard_product_vertex",
    "valuation",
    "vertex_from_matrix",
]
