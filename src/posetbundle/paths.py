"""Paths in a poset, elementary deformations, bounded homotopy search,
and fundamental-group presentations with homomorphism counting."""

from __future__ import annotations

import re
from functools import cached_property

from .errors import (BLANKS, BadParameter, EndpointMismatch, check_limit,
                     content_lines, located)
from .frozen import Frozen
from .simplicial import (
    Simplex0,
    complex_of,
    degeneracy,
    enumerate_simplices,
    enumerated,
    parse_simplex1,
    reverse,
)


class Path(Frozen):
    """A composable sequence of 1-simplices, stored start-to-end.

    In the written form {b_n, ..., b_1} the rightmost simplex b_1 is
    traversed first; `steps` holds (b_1, ..., b_n).
    """

    steps: tuple

    def __init__(self, steps):
        if not steps:
            raise EndpointMismatch("a path needs at least one step")
        for earlier, later in zip(steps, steps[1:]):
            if earlier.face0 != later.face1:
                raise EndpointMismatch(
                    f"steps do not chain: {earlier.encode()} then {later.encode()}"
                )
        self.__dict__["steps"] = steps

    @classmethod
    def _of(cls, steps):
        """Trusted constructor for steps known to chain, such as the ids
        of the deformation index mapped to their 1-simplices."""
        self = cls.__new__(cls)
        self.__dict__["steps"] = steps
        return self

    @property
    def start(self) -> Simplex0:
        return self.steps[0].face1

    @property
    def end(self) -> Simplex0:
        return self.steps[-1].face0

    def is_loop(self):
        return self.start == self.end

    def __len__(self):
        return len(self.steps)

    def encode(self):
        return ";".join(b.encode() for b in reversed(self.steps))


def parse_path_text(text: str, P: Poset) -> Path:
    """Read the path file format that `Path.encode` writes: 1-simplices of
    P, first step written last, separated by spaces, tabs or `;`; `#`
    starts a comment, and a 1-simplex does not span lines."""
    steps = []
    for number, line, _ in content_lines(text):
        with located(f" (line {number})"):
            pieces = re.split(r"(\([^()]*\))", line)
            stray = [t for t in pieces[::2] if not re.fullmatch(r"[ \t;]*", t)]
            if stray:
                raise BadParameter(f"path file has text outside 1-simplices: "
                                   f"{stray[0].strip(BLANKS)!r}")
            steps += (enumerated(P, parse_simplex1(c)) for c in pieces[1::2])
    if not steps:
        raise BadParameter("path file contains no 1-simplices")
    return Path(tuple(reversed(steps)))


def degenerate_loop(a: Simplex0) -> Path:
    return Path((degeneracy(a, 0),))


def compose(q: Path, p: Path) -> Path:
    """q * p: traverse p first; associative."""
    if p.end != q.start:
        raise EndpointMismatch(
            f"cannot compose: {p.encode()} ends at {p.end.encode()}, "
            f"{q.encode()} starts at {q.start.encode()}"
        )
    return Path._of(p.steps + q.steps)


def reverse_path(p: Path) -> Path:
    return Path._of(tuple(reverse(b) for b in reversed(p.steps)))


def _ranked(p: Path, P: Poset):
    """The tuple of step ids of p; `NoSuchSimplex` for a foreign step."""
    return tuple(map(complex_of(P)[1].id_of, p.steps))


def _path(ranked, steps) -> Path:
    """The path of the step ids `ranked`, which chain; `steps` are the
    1-simplices."""
    return Path._of(tuple(steps[r] for r in ranked))


def _neighbours(ranked, moves, bound):
    """The set of rank tuples of length <= bound one elementary
    deformation away from `ranked`; `moves` is
    `complex_of(P)[2].deformations`.  Its iteration order follows the
    order it is filled in, which `homotopic`'s certificates and criterion
    12's search rely on: expansions by position, then contractions by
    position, each in table order; head and tail are sliced once per
    position that has a move."""
    expansions, contractions = moves
    out = set()
    for i, r in enumerate(ranked if len(ranked) < bound else ()):
        if pairs := expansions.get(r):
            head, tail = ranked[:i], ranked[i + 1:]
            for pair in pairs:
                out.add(head + pair + tail)
    for i in range(len(ranked) - 1):
        if singles := contractions.get(ranked[i:i + 2]):
            head, tail = ranked[:i], ranked[i + 2:]
            for single in singles:
                out.add(head + single + tail)
    return out


def deformations(p: Path, P: Poset):
    """All single elementary deformations of p, in either direction.

    For each 2-simplex c: a step equal to boundary 1 of c may be replaced
    by the pair (boundary 2 then boundary 0), and a consecutive pair
    matching that shape may be contracted back to boundary 1 of c.  The
    paths are distinct and sorted by the tuple of their steps' ranks in
    `enumerate_simplices(P, 1)`, which is sort key order.  A step that is
    not a 1-simplex of P is a `NoSuchSimplex`.
    """
    ranked, K = _ranked(p, P), complex_of(P)
    steps, moves = K[1].simplices, K[2].deformations
    return tuple(_path(t, steps)
                 for t in sorted(_neighbours(ranked, moves, len(ranked) + 1)))


class HomotopyVerdict(Frozen):
    status: str  # "yes" | "no" | "unknown"
    certificate: tuple  # chain of paths from p to q when status == "yes"

    def __init__(self, status, certificate=()):
        self.__dict__.update(status=status, certificate=certificate)

    def __bool__(self):
        return self.status == "yes"


def homotopic(p: Path, q: Path, P: Poset, bound: int, limit=10 ** 6) -> HomotopyVerdict:
    """Three-valued bounded homotopy test.

    "yes" comes with a certificate: a shortest chain of elementary
    deformations from p to q whose paths, p and q included, all have
    length <= bound.  "no" is backed by an abelianization separator: the
    edge words of p and q (the base-free part of `pi1_presentation`,
    which any poset has, connected or not) differ modulo the relator
    lattice, a homotopy invariant.  Otherwise, as whenever p or q is
    longer than the bound, "unknown".  Deformations undo each other, so
    the search runs from both ends, a whole layer of the smaller frontier
    at a time, until a new path is one the other side holds.  A search
    that would hold more than `limit` paths, both sides together with p
    and q, is a `SearchLimitExceeded`; a step that is not a 1-simplex of
    P is a `NoSuchSimplex`; a bound that is not an int >= 0 is a
    `BadParameter`.
    """
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise BadParameter(f"bound must be an int >= 0, got {bound!r}")
    source, target = _ranked(p, P), _ranked(q, P)
    if p.start != q.start or p.end != q.end:
        raise EndpointMismatch("homotopy requires equal endpoints")
    K = complex_of(P)
    presentation, words = _presentation(K)
    if not _abelianized_equal(presentation, _steps_word(words, source),
                              _steps_word(words, target)):
        return HomotopyVerdict("no")
    if max(len(source), len(target)) > bound:
        return HomotopyVerdict("unknown")
    what = f"paths of length <= {bound} searched"
    moves = K[2].deformations
    # Side 0 maps the paths it holds to their parents towards p, side 1
    # towards q; a frontier is the newest layer of its side.
    parents = ({source: None}, {target: None})
    frontiers = [[source], [target]]
    meet = source if source == target else None
    while meet is None and all(frontiers):
        side = len(frontiers[1]) < len(frontiers[0])
        mine, other = parents[side], parents[not side]
        layer = []
        for current in frontiers[side]:
            # Before each expansion, so no verdict passes the limit.
            check_limit(len(mine) + len(other), limit, what)
            for neighbour in _neighbours(current, moves, bound):
                if neighbour in mine:
                    continue
                mine[neighbour] = current
                if neighbour in other:
                    meet = neighbour
                    break
                layer.append(neighbour)
            if meet is not None:
                break
        frontiers[side] = layer
    if meet is None:
        return HomotopyVerdict("unknown")
    # Walk from the meeting path back to p, then on to q.
    chain = [meet]
    while (node := parents[0][chain[-1]]) is not None:
        chain.append(node)
    chain.reverse()
    while (node := parents[1][chain[-1]]) is not None:
        chain.append(node)
    steps = enumerate_simplices(P, 1)
    return HomotopyVerdict("yes", tuple(_path(r, steps) for r in chain))


# -- fundamental group presentations --------------------------------------


class Presentation(Frozen):
    """Generators and relators; a relator is a tuple of signed generator
    indices (i, +1|-1), and any other letter is a `BadParameter`.  The
    relator lattice is factorised on first use and kept, so every query
    on one presentation shares one Smith form."""

    generators: tuple
    relators: tuple

    def __init__(self, *fields):
        super().__init__(*fields)
        letters = {(i, sign) for i in range(len(self.generators))
                   for sign in (1, -1)}
        for relator in self.relators:
            for letter in relator:
                if type(letter) is not tuple or letter not in letters:
                    raise BadParameter(
                        f"relator letter {letter!r} is not (i, 1) or (i, -1)"
                        f" with 0 <= i < {len(self.generators)}")

    def exponents(self, word):
        """The exponent sum of each generator in `word`."""
        row = [0] * len(self.generators)
        for idx, sign in word:
            row[idx] += sign
        return row

    def exponent_matrix(self):
        return list(map(self.exponents, self.relators))

    @cached_property
    def checked_relators(self):
        """The distinct freely reduced relators that are not empty, in
        first-seen order: they hold under exactly the same assignments
        as `relators`, so `enumerate_homs` checks only these."""
        out = {}
        for relator in self.relators:
            word = []
            for letter in relator:
                if word and word[-1] == (letter[0], -letter[1]):
                    word.pop()
                else:
                    word.append(letter)
            if word:
                out.setdefault(tuple(word), None)
        return tuple(out)

    @cached_property
    def lattice(self):
        """The lattice of relator exponent vectors in Z^generators,
        spanned by the distinct nonzero rows of `exponent_matrix()`."""
        from . import smith
        rows = {tuple(row): None for row in self.exponent_matrix() if any(row)}
        return smith.RowLattice(list(map(list, rows)), len(self.generators))

    def abelian_invariants(self):
        return self.lattice.invariant_factors()


class WordMap:
    """Maps 1-simplices and paths of a poset to words of a presentation.

    `edge_words[i]` is the word of the 1-simplex with id i, which is
    also the word of the based loop through it: tree edges and loops at
    a point have the empty word.  `tree[x]` holds the step ids of the
    spanning tree path from the base point to the point with id x.
    """

    def __init__(self, edges, edge_words, tree):
        self._edges = edges
        self.edge_words = edge_words
        self.tree = tree

    def path_word(self, p: Path):
        """The word of p; `NoSuchSimplex` for a step outside the poset."""
        return _steps_word(self.edge_words, map(self._edges.id_of, p.steps))

    def tree_path(self, a) -> Path:
        """The chosen path from the base point to element a;
        `NoSuchSimplex` for an element outside the poset."""
        point = self._edges.complex[0].id_of(Simplex0(a))
        return _path(self.tree[point], self._edges.simplices)


def _steps_word(edge_words, steps):
    """The word of the path of the step ids `steps`."""
    return tuple(w for i in steps for w in edge_words[i])


def invert_word(word):
    return tuple((idx, -sign) for idx, sign in reversed(word))


def _abelianized_equal(p, w1, w2):
    return p.exponents(w1 + invert_word(w2)) in p.lattice


def _presentation(K):
    """The base-free part of `pi1_presentation`, on any poset, kept in
    `K.pi1`: the presentation and the edge words."""
    if K.pi1 is not None:
        return K.pi1
    # A class of the spanning tree has the empty word, and any other
    # class that is not a loop at a point contributes a generator.  Loops
    # at a point (including degenerate edges) are trivial in the
    # edge-path group: the 2-simplex with vertex map (a, a, s) and top
    # edge b gives the relator g h g^-1 for the generator h of b; dropping
    # them shrinks the presentation without changing the group.
    edges = K[1]
    generators, words = [], [()] * len(edges.faces)
    for (i, j), joined in zip(edges.classes, edges.spanning[0]):
        y, x = edges.faces[i]  # end, start
        if not joined and x != y:
            words[i] = ((len(generators), 1),)
            words[j] = ((len(generators), -1),)
            generators.append(edges.encode(i))
    relators = tuple(
        word for b0, b1, b2 in K[2].faces
        if (word := words[b0] + words[b2] + invert_word(words[b1]))
    )
    K.pi1 = Presentation(tuple(generators), relators), tuple(words)
    return K.pi1


def pi1_presentation(P: Poset, a0: str):
    """A finite presentation of the edge-path group of P based at a0,
    and the `WordMap` of its spanning tree; kept on `complex_of(P)`.

    The spanning tree of the multigraph (vertices = elements, one edge
    per reverse-pair of 1-simplices), dimension-1 `Cells.spanning`, is
    contracted; every other edge class contributes a generator, and
    every 2-simplex contributes the relator
    word(boundary 0) word(boundary 2) word(boundary 1)^-1.  None of this
    depends on a0, so every base point of P shares one `Presentation`
    and one edge word table; only the tree paths from a0,
    `Complex.tree(a0)`, are its own.
    """
    K = complex_of(P)
    if a0 in K.presentations:
        return K.presentations[a0]
    tree = K.tree(a0)
    presentation, words = _presentation(K)
    K.presentations[a0] = (presentation, WordMap(K[1], words, tree))
    return K.presentations[a0]


def enumerate_homs(presentation: Presentation, G: FiniteGroup, limit=10 ** 6):
    """All maps generators -> G satisfying the relators, in
    `itertools.product` order.

    `limit` bounds the |G|^k assignments of the k generators.  They grow
    one generator at a time, as tuples of element ids, and each of the
    presentation's `checked_relators` is evaluated on the group's tables
    once, as soon as the last generator it mentions has a value.
    """
    k = len(presentation.generators)
    total = len(G) ** k
    check_limit(total, limit, f"{len(G)}^{k} = {total} assignments")
    unit = G.unit
    closing = [[] for _ in range(k)]
    for relator in presentation.checked_relators:
        closing[max(idx for idx, _ in relator)].append(relator)
    homs = [()]
    for relators in closing:
        extended = []
        for prefix in homs:
            for g in range(len(G)):
                assignment = prefix + (g,)
                for relator in relators:
                    if _word(G, relator, assignment) != unit:
                        break
                else:
                    extended.append(assignment)
        homs = extended
    return tuple(tuple(map(G.elements.__getitem__, hom)) for hom in homs)


def hom_class_representatives(presentation: Presentation, G: FiniteGroup,
                              limit=10 ** 6):
    """The first homomorphism of each orbit under simultaneous
    conjugation, in `enumerate_homs` order."""
    rows, inverses, index = G.rows, G.inverses, G.index.__getitem__
    representatives, seen = [], set()
    for sigma in enumerate_homs(presentation, G, limit=limit):
        x = tuple(map(index, sigma))
        if x not in seen:
            representatives.append(sigma)
            seen.update(tuple(rows[rows[h][g]][inverses[h]] for g in x)
                        for h in range(len(G)))
    return tuple(representatives)


def count_hom_classes(presentation: Presentation, G: FiniteGroup,
                      limit=10 ** 6) -> int:
    """Relator-respecting generator assignments up to simultaneous
    conjugation."""
    return len(hom_class_representatives(presentation, G, limit=limit))


def _word(G: FiniteGroup, word, x):
    """The id of `word` on G's tables, generator i taking the id x[i]."""
    rows, inverses, value = G.rows, G.inverses, G.unit
    for idx, sign in word:
        value = rows[value][x[idx] if sign > 0 else inverses[x[idx]]]
    return value


def word_value(word, assignment, G: FiniteGroup):
    """The element `word` takes when generator i takes assignment[i]; a
    value outside G is a `MissingValue`, and a letter naming a generator
    without a value a `BadParameter`."""
    try:
        x = tuple(map(G.index.__getitem__, assignment))
    except KeyError as error:
        raise G._missing(error) from None
    for idx, _ in word:
        if not 0 <= idx < len(x):
            raise BadParameter(f"letter {idx} names a generator without a "
                               f"value ({len(x)} given)")
    return G.elements[_word(G, word, x)]
