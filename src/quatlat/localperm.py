"""Local permutation groups of a V4-structure.

Each edge of the complex carries, at each of its two ends, a bijection
between the squares attached to it and the opposite-type edges there; both
come from `squares.edge_ends`, which pairs them square by square.  Composing
one with the other's inverse gives a permutation sigma of (labels x {0,1})
that lies in the wreath product Sym(labels) wr Sym({0,1}).
The groups generated by these sigmas are compared against the reference
group {((s, tau s tau), e)} = Sym(X) x {+-1}, tau being the inversion
involution on the label set.

A permutation is a plain index tuple over the 2|X| points, point k < n being
(labels[k], 0) and point n + k being (labels[k], 1); the wreath element
((g0, g1), e) acts by (x, i) -> (g_{e(i)}(x), e(i)).  A group is the
frozenset of its index tuples, so groups compare with == and <= and their
order is len.
"""

from __future__ import annotations

from itertools import permutations

from .squares import InvalidStructureError, V4Structure, edge_ends

Perm = tuple[int, ...]


def wreath_perm(labels: tuple[str, ...], g0: dict[str, str], g1: dict[str, str], flip: bool) -> Perm:
    """The index tuple of ((g0, g1), e): component g_i maps INTO fiber i."""
    n = len(labels)
    pos = {x: k for k, x in enumerate(labels)}
    mapping = [0] * (2 * n)
    for k, x in enumerate(labels):
        if flip:
            mapping[k] = pos[g1[x]] + n  # (x,0) -> (g1(x), 1)
            mapping[k + n] = pos[g0[x]]  # (x,1) -> (g0(x), 0)
        else:
            mapping[k] = pos[g0[x]]
            mapping[k + n] = pos[g1[x]] + n
    return tuple(mapping)


def sigma(structure: V4Structure, label: str, index: int) -> Perm:
    """The wreath permutation t^0 (t^1)^-1 | t^1 (t^0)^-1 induced by the edge,
    over the opposite side's labels, t^e being its bijection at end e."""
    pairs = edge_ends(structure, label, index)
    opposite = structure.b_names if label in structure.a_names else structure.a_names
    g0 = {stop: start for start, stop in pairs}  # into fiber 0: t^0 after inverse of t^1
    g1 = {start: stop for start, stop in pairs}
    if set(g0) != set(opposite) or set(g1) != set(opposite):
        raise InvalidStructureError("sigma components are not permutations of the opposite side")
    return wreath_perm(opposite, g0, g1, flip=True)


# -- groups ----------------------------------------------------------------


def generate(perms: list[Perm]) -> frozenset[Perm]:
    """Closure under composition, breadth-first; finite by construction."""
    if not perms:
        raise ValueError("need at least one generator")
    identity = tuple(range(len(perms[0])))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in perms:
                prod = tuple(g[k] for k in m)  # g after m
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(elements)


def local_group(structure: V4Structure, side: str, index: int) -> frozenset[Perm]:
    """P^A_j (side="A", generated over B-edges) or P^B_i (side="B")."""
    if side == "A":
        gens = [sigma(structure, b, index) for b in structure.b_names]
    elif side == "B":
        gens = [sigma(structure, a, index) for a in structure.a_names]
    else:
        raise ValueError("side must be 'A' or 'B'")
    return generate(gens)


def reference_group(labels: tuple[str, ...], inv: dict[str, str]) -> frozenset[Perm]:
    """All ((s, tau s tau), e) for s in Sym(labels), e in Sym({0,1});
    tau is the inversion involution on the labels."""
    elements = set()
    for perm_images in permutations(labels):
        s = dict(zip(labels, perm_images))
        tst = {x: inv[s[inv[x]]] for x in labels}
        for flip in (False, True):
            elements.add(wreath_perm(labels, s, tst, flip))
    return frozenset(elements)
