"""Group presentations: generation from a V4-structure, fixed presentations,
relator evaluation, Reidemeister-Schreier kernels and abelianization.

Words over a presentation's generators are tuples of nonzero signed indices:
+k stands for generator k-1, -k for its inverse.  Relator comparison happens
up to free reduction, cyclic rotation, inversion and replacing g^-1 by g for
generators with a square relator (involutions), which is exactly the
ambiguity left by choosing different orbit representatives.

The finite quotient behind the second route to Gamma^ab = Z/15 is
Lambda -> V4, with V4 = (Z/2)^2 written as 2-bit ints under XOR; a quotient
map is just the tuple of generator images, and its cosets are their span.
"""

from __future__ import annotations

from functools import lru_cache

from .quaternion import Quaternion
from .smith import invariant_factors
from .squares import V4Structure, v4_orbits_of_squares

Word = tuple[int, ...]


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def exponent_vector(word: Word, n_gens: int) -> list[int]:
    out = [0] * n_gens
    for letter in word:
        out[abs(letter) - 1] += 1 if letter > 0 else -1
    return out


class Presentation:
    """Named generators and relators, words in their signed indices."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]) -> None:
        n = len(generators)
        for rel in relators:
            if any(letter == 0 or abs(letter) > n for letter in rel):
                raise ValueError("relator letter out of range")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)

    def __setattr__(self, name, value):
        raise AttributeError(f"Presentation is immutable; cannot set {name}")

    def __reduce__(self):  # copy and pickle through the public constructor
        return (Presentation, (self.generators, self.relators))

    def gen_index(self, name: str) -> int:
        return self.generators.index(name) + 1

    def word(self, text: str) -> Word:
        """Build a word from "b1 b2 c1^-1 b2" style text."""
        letters = []
        for token in text.split():
            if token.endswith("^-1"):
                letters.append(-self.gen_index(token[:-3]))
            else:
                letters.append(self.gen_index(token))
        return tuple(letters)

    def involutions(self) -> frozenset[int]:
        """Generator indices g with a literal relator g^2."""
        out = set()
        for rel in self.relators:
            r = free_reduce(rel)
            if len(r) == 2 and r[0] == r[1] and r[0] > 0:
                out.add(r[0])
        return frozenset(out)

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        parts: list[tuple[int, int]] = []  # (letter, count)
        for letter in word:
            if parts and parts[-1][0] == letter:
                parts[-1] = (letter, parts[-1][1] + 1)
            else:
                parts.append((letter, 1))
        chunks = []
        for letter, count in parts:
            name = self.generators[abs(letter) - 1]
            exp = count if letter > 0 else -count
            chunks.append(name if exp == 1 else f"{name}^{exp}")
        return "".join(chunks)

    def text(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"< {gens} | {rels} >"

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "generators": list(self.generators),
            "relators": [list(r) for r in self.relators],
            "relator_text": [self.word_str(r) for r in self.relators],
        }


def _involution_normalize(word: Word, involutions: frozenset[int]) -> Word:
    return free_reduce(tuple(abs(x) if abs(x) in involutions else x for x in word))


NameWord = tuple[tuple[str, int], ...]


def _name_word(presentation: Presentation, word: Word) -> NameWord:
    return tuple(
        (presentation.generators[abs(letter) - 1], 1 if letter > 0 else -1) for letter in word
    )


def canonical_relator(presentation: Presentation, word: Word, involution_names: frozenset[str]) -> NameWord:
    """Canonical form up to free reduction, cyclic rotation, inversion and
    rewriting g^-1 as g for involutive generators; as a name-signed word so
    presentations with differently ordered generator lists compare equal."""

    def normalize(w: NameWord) -> NameWord:
        flipped = tuple((n, 1) if n in involution_names else (n, s) for n, s in w)
        out: list[tuple[str, int]] = []
        for n, s in flipped:
            if out and out[-1][0] == n and out[-1][1] == -s:
                out.pop()
            else:
                out.append((n, s))
        return tuple(out)

    w = normalize(_name_word(presentation, word))
    w_inv = normalize(tuple((n, -s) for n, s in reversed(w)))
    candidates = []
    for base in (w, w_inv):
        for k in range(len(base) or 1):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


def same_presentation(p: Presentation, q: Presentation) -> bool:
    """Same generator names and the same relator set up to rotation,
    inversion and involution rewriting (the ambiguity of orbit choices)."""
    if set(p.generators) != set(q.generators):
        return False
    inv_names = {p.generators[i - 1] for i in p.involutions()} | {
        q.generators[i - 1] for i in q.involutions()
    }
    canon_p = sorted(canonical_relator(p, r, frozenset(inv_names)) for r in p.relators)
    canon_q = sorted(canonical_relator(q, r, frozenset(inv_names)) for r in q.relators)
    return canon_p == canon_q


# -- presentation of the orbifold fundamental group ------------------------


def orbifold_presentation(structure: V4Structure) -> Presentation:
    """Reduced presentation: one generator per inverse-pair on each side, a
    square relator for each self-inverse label, and one relator a b' a'^-1 b^-1
    per Klein-four orbit of squares (inverse labels rewritten as inverses)."""
    generators: list[str] = []
    signed: dict[str, int] = {}
    torsion: list[str] = []
    for names in (structure.a_names, structure.b_names):
        for name in names:
            if name in signed:
                continue
            partner = structure.inv[name]
            generators.append(name)
            idx = len(generators)
            signed[name] = idx
            if partner == name:
                torsion.append(name)
            else:
                signed[partner] = -idx
    relators: list[Word] = [(signed[name], signed[name]) for name in torsion]
    involutions = frozenset(abs(signed[name]) for name in torsion)
    for orbit in v4_orbits_of_squares(structure):
        a, bp, b, ap = orbit[0]
        raw = (signed[a], signed[bp], -signed[ap], -signed[b])
        relators.append(_involution_normalize(raw, involutions))
    return Presentation(tuple(generators), tuple(relators))


# -- the fixed presentations ------------------------------------------------


def lambda_presentation() -> Presentation:
    p = Presentation(("b1", "b2", "c1", "c2"), ())
    rels = (
        p.word("c1 c1"),
        p.word("c2 c2"),
        p.word("c1 c2 c1^-1 c2^-1"),
        p.word("b1 b2 c1 b2"),
        p.word("b1 c2 b1 b2^-1"),
    )
    return Presentation(p.generators, rels)


def gr_presentation() -> Presentation:
    p = Presentation(("b1", "b2", "c1", "c2", "d"), ())
    rels = (
        p.word("c1 c1"),
        p.word("c2 c2"),
        p.word("d d"),
        p.word("c1 c2 c1^-1 c2^-1"),
        p.word("c1 d c1^-1 d^-1"),
        p.word("c2 d c2^-1 d^-1"),
        p.word("b1 b2 c1 b2"),
        p.word("b1 c2 b1 b2^-1"),
        p.word("d b1 d b1"),
        p.word("d b2 d b2"),
    )
    return Presentation(p.generators, rels)


def gamma_presentation() -> Presentation:
    p = Presentation(("a1", "a2"), ())
    rels = (
        p.word("a2 a1^-1 a2 a2 a1 a2 a1 a2 a2 a1^-1 a2 a1"),
        p.word("a1 a2 a2 a1^-1 a2 a2 a1^-1 a2 a2 a1 a2 a1^-1 a2"),
    )
    return Presentation(p.generators, rels)


def fixed_presentations() -> dict[str, Presentation]:
    return {
        "lambda": lambda_presentation(),
        "gr": gr_presentation(),
        "gamma": gamma_presentation(),
    }


# -- evaluation in the quaternion algebra -----------------------------------


def evaluate_word(word: Word, images: dict[str, Quaternion], presentation: Presentation) -> Quaternion:
    """Multiply out the images; inverse letters use quaternion inversion."""
    sample = next(iter(images.values()))
    result = sample.algebra.one()
    inverses: dict[int, Quaternion] = {}
    for letter in word:
        name = presentation.generators[abs(letter) - 1]
        img = images[name]
        if letter > 0:
            result = result * img
        else:
            if letter not in inverses:
                inverses[letter] = img.inverse()
            result = result * inverses[letter]
    return result


def is_projectively_trivial(q: Quaternion) -> bool:
    return q.is_scalar() and not q.is_zero()


# -- the quotient Lambda -> V4 and Reidemeister-Schreier ----------------------


class InvalidQuotientError(ValueError):
    pass


# V4 = (Z/2)^2 as 2-bit ints under XOR (1 = v, 2 = h, 3 = vh):
# b1, c1 -> the vertical generator; b2, c2 -> the horizontal one
V4_QUOTIENT_OF_LAMBDA = (1, 2, 1, 2)


def reidemeister_schreier(presentation: Presentation, images: tuple[int, ...]) -> Presentation:
    """Presentation of the kernel of the map sending generator k to images[k]
    in an elementary abelian 2-group of ints under XOR.

    The cosets are the XOR span of the images, found by a breadth-first
    coset tree over positive generator letters, which is also the Schreier
    transversal.  Schreier generators are named x{coset}_{gen}; tree
    generators are dropped and every relator is rewritten from every coset,
    then freely reduced.  A relator that does not map to 0 raises
    InvalidQuotientError.
    """
    n_gens = len(presentation.generators)
    if len(images) != n_gens:
        raise ValueError("one image per generator required")

    # breadth-first coset tree, root 0; the list grows while it is walked
    order = [0]
    tree_edges: set[tuple[int, int]] = set()
    for coset in order:
        for g in range(n_gens):
            nxt = coset ^ images[g]
            if nxt not in order:
                tree_edges.add((coset, g))
                order.append(nxt)

    # Schreier generators: one per (coset, generator) pair off the tree
    gen_name: dict[tuple[int, int], int] = {}
    names = []
    for coset in order:
        for g in range(n_gens):
            if (coset, g) in tree_edges:
                continue
            gen_name[(coset, g)] = len(names) + 1
            names.append(f"x{coset}_{presentation.generators[g]}")

    def rewrite(start: int, word: Word) -> Word:
        out = []
        coset = start
        for letter in word:
            g = abs(letter) - 1
            if letter > 0:
                key = (coset, g)
                coset ^= images[g]
                if key not in tree_edges:
                    out.append(gen_name[key])
            else:
                coset ^= images[g]
                key = (coset, g)
                if key not in tree_edges:
                    out.append(-gen_name[key])
        if coset != start:
            raise InvalidQuotientError(f"relator {presentation.word_str(word)} does not map to 1")
        return free_reduce(tuple(out))

    relators = []
    for coset in order:
        for rel in presentation.relators:
            rewritten = rewrite(coset, rel)
            if rewritten:
                relators.append(rewritten)
    return Presentation(tuple(names), tuple(relators))


# -- abelianization ----------------------------------------------------------


def abelianization(presentation: Presentation) -> tuple[list[int], int]:
    """Invariant factors (> 1) and free rank of the abelianized group,
    via the Smith normal form of the relator exponent matrix."""
    n = len(presentation.generators)
    matrix = [exponent_vector(rel, n) for rel in presentation.relators]
    return invariant_factors(matrix, cols=n)


@lru_cache(maxsize=1)
def abelianizations() -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, ...], int]]:
    """(invariant factors, free rank) of Gamma^ab and of the abelianized
    Reidemeister-Schreier kernel of Lambda -> V4: the two routes to Z/15."""
    gamma_factors, gamma_rank = abelianization(gamma_presentation())
    kernel = reidemeister_schreier(lambda_presentation(), V4_QUOTIENT_OF_LAMBDA)
    kernel_factors, kernel_rank = abelianization(kernel)
    return (tuple(gamma_factors), gamma_rank), (tuple(kernel_factors), kernel_rank)
