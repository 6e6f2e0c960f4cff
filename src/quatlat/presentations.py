"""Group presentations: generation from a V4-structure, fixed presentations,
relator evaluation, Reidemeister-Schreier kernels and abelianization.

Words over a presentation's generators are tuples of nonzero signed indices:
+k stands for generator k-1, -k for its inverse.  Relator comparison happens
up to free and cyclic reduction, cyclic rotation, inversion and replacing
g^-1 by g for generators with a square relator (involutions), which is
exactly the ambiguity left by choosing different orbit representatives.

The finite quotient behind the second route to Gamma^ab = Z/15 is
Lambda -> V4, with V4 = (Z/2)^2 written as 2-bit ints under XOR in the
encoding stated once in the `squares` docstring; a quotient map is just the
tuple of generator images, and its cosets are their span.  Nothing here is
cached; `suite.abelianization_certificate` alone compares the two routes.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .quaternion import Quaternion
from .smith import invariant_factors
from .squares import V4Structure, boundary, v4_orbits_of_squares

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


class Presentation(tuple):
    """The tuple (generators, relators): named generators and relators,
    words in their signed indices."""

    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]) -> Presentation:
        n = len(generators)
        for rel in relators:
            if any(letter == 0 or abs(letter) > n for letter in rel):
                raise ValueError("relator letter out of range")
        return tuple.__new__(cls, (generators, relators))

    generators = property(itemgetter(0))
    relators = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[tuple[str, ...], tuple[Word, ...]]:  # copy and pickle through __new__
        return tuple(self)

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
        chunks = []
        for letter, run in groupby(word):
            name, count = self.generators[abs(letter) - 1], len(list(run))
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


def canonical_relator(word: Word, involutions: frozenset[int]) -> Word:
    """Canonical form up to free and cyclic reduction, cyclic rotation,
    inversion and rewriting g^-1 as g for the involutive generator indices."""
    w = _involution_normalize(word, involutions)
    while len(w) > 1 and w[0] == -w[-1]:  # a first x and a last x^-1 cancel cyclically
        w = w[1:-1]
    w_inv = _involution_normalize(tuple(-x for x in reversed(w)), involutions)
    return min(base[k:] + base[:k] for base in (w, w_inv) for k in range(len(base) or 1))


def same_presentation(p: Presentation, q: Presentation) -> bool:
    """Same generator names and the same relator set up to reduction,
    rotation, inversion and involution rewriting (`canonical_relator`);
    q's words are renumbered into p's generator order by name."""
    if set(p.generators) != set(q.generators):
        return False
    to_p = [p.gen_index(name) for name in q.generators]
    q_relators = [tuple(to_p[x - 1] if x > 0 else -to_p[-x - 1] for x in r) for r in q.relators]
    involutions = p.involutions() | {to_p[i - 1] for i in q.involutions()}
    canon_p = sorted(canonical_relator(r, involutions) for r in p.relators)
    return canon_p == sorted(canonical_relator(r, involutions) for r in q_relators)


# -- presentation of the orbifold fundamental group ------------------------


def orbifold_presentation(structure: V4Structure) -> Presentation:
    """Reduced presentation: one generator per inverse-pair on each side, a
    square relator for each self-inverse label, and one relator per Klein-four
    orbit of squares: the `squares.boundary` a b' a'^-1 b^-1 of its first
    square (inverse labels rewritten as inverses)."""
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
        raw = tuple(sign * signed[label] for label, _, sign in boundary(orbit[0]))
        relators.append(_involution_normalize(raw, involutions))
    return Presentation(tuple(generators), tuple(relators))


# -- the fixed presentations ------------------------------------------------


def _fixed(generators: tuple[str, ...], *relator_texts: str) -> Presentation:
    """The presentation with relators written as Presentation.word text."""
    parser = Presentation(generators, ())
    return Presentation(generators, tuple(map(parser.word, relator_texts)))


def lambda_presentation() -> Presentation:
    return _fixed(
        ("b1", "b2", "c1", "c2"),
        "c1 c1", "c2 c2", "c1 c2 c1^-1 c2^-1",
        "b1 b2 c1 b2", "b1 c2 b1 b2^-1",
    )


def gr_presentation() -> Presentation:
    return _fixed(
        ("b1", "b2", "c1", "c2", "d"),
        "c1 c1", "c2 c2", "d d",
        "c1 c2 c1^-1 c2^-1", "c1 d c1^-1 d^-1", "c2 d c2^-1 d^-1",
        "b1 b2 c1 b2", "b1 c2 b1 b2^-1", "d b1 d b1", "d b2 d b2",
    )


def gamma_presentation() -> Presentation:
    return _fixed(
        ("a1", "a2"),
        "a2 a1^-1 a2 a2 a1 a2 a1 a2 a2 a1^-1 a2 a1",
        "a1 a2 a2 a1^-1 a2 a2 a1^-1 a2 a2 a1 a2 a1^-1 a2",
    )


def fixed_presentations() -> dict[str, Presentation]:
    return {
        "lambda": lambda_presentation(),
        "gr": gr_presentation(),
        "gamma": gamma_presentation(),
    }


# -- evaluation in the quaternion algebra -----------------------------------


def evaluate_word(word: Word, images: dict[str, Quaternion], presentation: Presentation) -> Quaternion:
    """Multiply out the images; inverse letters use quaternion inversion."""
    result = next(iter(images.values())).algebra.one()
    for letter in word:
        img = images[presentation.generators[abs(letter) - 1]]
        result = result * (img if letter > 0 else img.inverse())
    return result


def is_projectively_trivial(q: Quaternion) -> bool:
    return q.is_scalar() and not q.is_zero()


# -- the quotient Lambda -> V4 and Reidemeister-Schreier ----------------------


class InvalidQuotientError(ValueError):
    pass


# V4 = (Z/2)^2 as 2-bit ints under XOR, encoded as in the `squares` docstring
# (1 = gamma_v, 2 = gamma_h): b1, c1 -> gamma_v; b2, c2 -> gamma_h
V4_QUOTIENT_OF_LAMBDA = (1, 2, 1, 2)


def reidemeister_schreier(presentation: Presentation, images: tuple[int, ...]) -> Presentation:
    """Presentation of the kernel of the map sending generator k to images[k]
    in an elementary abelian 2-group of ints under XOR.

    The cosets are the XOR span of the images, found by a breadth-first
    coset tree over positive generator letters, which is also the Schreier
    transversal.  Each (coset, generator) pair off the tree is a Schreier
    generator, named x{coset}_{gen} in the order the tree walk meets it;
    every relator is rewritten from every coset, then freely reduced.  A
    relator that does not map to 0 raises InvalidQuotientError.
    """
    n_gens = len(presentation.generators)
    if len(images) != n_gens:
        raise ValueError("one image per generator required")

    # breadth-first coset tree, root 0; the list grows while it is walked.
    # label[coset, g] is 0 on a tree edge, else the Schreier generator's index
    order = [0]
    label: dict[tuple[int, int], int] = {}
    names: list[str] = []
    for coset in order:
        for g in range(n_gens):
            nxt = coset ^ images[g]
            if nxt in order:
                names.append(f"x{coset}_{presentation.generators[g]}")
                label[coset, g] = len(names)
            else:
                label[coset, g] = 0
                order.append(nxt)

    def rewrite(start: int, word: Word) -> Word:
        out = []
        coset = start
        for letter in word:
            g = abs(letter) - 1
            nxt = coset ^ images[g]
            # g is read from the coset before the step, g^-1 from the one after
            k = label[coset, g] if letter > 0 else -label[nxt, g]
            if k:
                out.append(k)
            coset = nxt
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
    read from the relator exponent matrix by smith.invariant_factors."""
    n = len(presentation.generators)
    matrix = [exponent_vector(rel, n) for rel in presentation.relators]
    return invariant_factors(matrix, cols=n)

