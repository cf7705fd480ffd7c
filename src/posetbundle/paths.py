"""Paths in a poset, elementary deformations, bounded homotopy search,
and fundamental-group presentations with homomorphism counting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import smith
from .errors import EndpointMismatch, NotConnected, SearchLimitExceeded
from .groups import FiniteGroup
from .poset import Poset
from .simplicial import (
    Simplex0,
    Simplex1,
    degeneracy,
    enumerate_simplices,
    reversal_classes,
    reverse,
)


@dataclass(frozen=True)
class Path:
    """A composable sequence of 1-simplices, stored start-to-end.

    In the written form {b_n, ..., b_1} the rightmost simplex b_1 is
    traversed first; `steps` holds (b_1, ..., b_n).
    """

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise EndpointMismatch("a path needs at least one step")
        for earlier, later in zip(self.steps, self.steps[1:]):
            if earlier.face0 != later.face1:
                raise EndpointMismatch(
                    f"steps do not chain: {earlier.encode()} then {later.encode()}"
                )

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


def degenerate_loop(a: Simplex0) -> Path:
    return Path((degeneracy(a, 0),))


def compose(q: Path, p: Path) -> Path:
    """q * p: traverse p first; associative."""
    if p.end != q.start:
        raise EndpointMismatch(
            f"cannot compose: {p.encode()} ends at {p.end.encode()}, "
            f"{q.encode()} starts at {q.start.encode()}"
        )
    return Path(p.steps + q.steps)


def reverse_path(p: Path) -> Path:
    return Path(tuple(reverse(b) for b in reversed(p.steps)))


def deformations(p: Path, P: Poset):
    """All single elementary deformations of p, in either direction.

    For each 2-simplex c: a step equal to boundary 1 of c may be replaced
    by the pair (boundary 2 then boundary 0), and a consecutive pair
    matching that shape may be contracted back to boundary 1 of c.
    """
    out = []
    seen = set()
    for c in enumerate_simplices(P, 2):
        d0, d1, d2 = c.face0, c.face1, c.face2
        for i, b in enumerate(p.steps):
            if b == d1:
                steps = p.steps[:i] + (d2, d0) + p.steps[i + 1:]
                if steps not in seen:
                    seen.add(steps)
                    out.append(Path(steps))
        for i in range(len(p.steps) - 1):
            if p.steps[i] == d2 and p.steps[i + 1] == d0:
                steps = p.steps[:i] + (d1,) + p.steps[i + 2:]
                if steps not in seen:
                    seen.add(steps)
                    out.append(Path(steps))
    out.sort(key=lambda q: tuple(b.sort_key() for b in q.steps))
    return tuple(out)


@dataclass(frozen=True)
class HomotopyVerdict:
    status: str  # "yes" | "no" | "unknown"
    certificate: tuple = ()  # chain of paths from p to q when status == "yes"

    def __bool__(self):
        return self.status == "yes"


def homotopic(p: Path, q: Path, P: Poset, bound: int) -> HomotopyVerdict:
    """Three-valued bounded homotopy test.

    "yes" comes with a deformation certificate found by BFS over paths of
    length <= bound.  "no" is backed by an abelianization separator: the
    word images of p and q differ in the abelianized edge-path group,
    which is a homotopy invariant.  Otherwise "unknown".
    """
    if p.start != q.start or p.end != q.end:
        raise EndpointMismatch("homotopy requires equal endpoints")
    presentation, words = pi1_presentation(P, p.start.element)
    if not _abelianized_equal(presentation, words.path_word(p), words.path_word(q)):
        return HomotopyVerdict("no")
    parents = {p.steps: None}
    frontier = [p]
    while frontier:
        next_frontier = []
        for current in frontier:
            if current.steps == q.steps:
                chain = []
                node = current.steps
                while node is not None:
                    chain.append(Path(node))
                    node = parents[node]
                return HomotopyVerdict("yes", tuple(reversed(chain)))
            for neighbor in deformations(current, P):
                if len(neighbor) > bound or neighbor.steps in parents:
                    continue
                parents[neighbor.steps] = current.steps
                next_frontier.append(neighbor)
        frontier = next_frontier
    if q.steps in parents:  # pragma: no cover - caught in the loop
        raise AssertionError
    return HomotopyVerdict("unknown")


# -- fundamental group presentations --------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Generators and relators; a relator is a tuple of signed generator
    indices (i, +1|-1)."""

    generators: tuple
    relators: tuple

    def exponent_matrix(self):
        rows = []
        for relator in self.relators:
            row = [0] * len(self.generators)
            for idx, sign in relator:
                row[idx] += sign
            rows.append(row)
        return rows

    def abelian_invariants(self):
        return smith.abelian_invariants(self.exponent_matrix(),
                                        len(self.generators))


class WordMap:
    """Maps 1-simplices and paths of a poset to words of a presentation."""

    def __init__(self, edge_words, tree_paths, base):
        self._edge_words = edge_words
        self._tree_paths = tree_paths
        self.base = base

    def edge_word(self, b: Simplex1):
        return self._edge_words[b]

    def path_word(self, p: Path):
        word = []
        for b in p.steps:
            word.extend(self._edge_words[b])
        return tuple(word)

    def tree_path(self, a) -> Path:
        """The chosen path from the base point to element a."""
        return self._tree_paths[a]


def invert_word(word):
    return tuple((idx, -sign) for idx, sign in reversed(word))


def _abelianized_equal(presentation, w1, w2):
    n = len(presentation.generators)
    diff = [0] * n
    for idx, sign in w1:
        diff[idx] += sign
    for idx, sign in w2:
        diff[idx] -= sign
    return smith.in_row_lattice(presentation.exponent_matrix(), diff)


@lru_cache(maxsize=None)
def pi1_presentation(P: Poset, a0: str):
    """A finite presentation of the edge-path group of P based at a0.

    A deterministic spanning tree of the multigraph (vertices = elements,
    one edge per reverse-pair of 1-simplices, Kruskal over sort keys) is
    contracted; every other edge class contributes a generator, and every
    2-simplex contributes the relator
    word(boundary 0) word(boundary 2) word(boundary 1)^-1.
    """
    P.check_element(a0)
    classes = reversal_classes(P)

    # Kruskal over class representatives in sort order.
    component = {x: x for x in P.elements}

    def find(x):
        while component[x] != x:
            component[x] = component[component[x]]
            x = component[x]
        return x

    tree_edges = set()
    tree_adjacency = {x: [] for x in P.elements}
    for b, _ in classes:
        x, y = b.face1.element, b.face0.element
        if x == y:
            continue
        rx, ry = find(x), find(y)
        if rx != ry:
            component[rx] = ry
            tree_edges.add(b)
            tree_adjacency[x].append((y, b, False))
            tree_adjacency[y].append((x, b, True))
    if any(find(x) != find(a0) for x in P.elements):
        raise NotConnected(f"{P.name} is not pathwise connected")

    # Tree paths from a0 by BFS (adjacency lists are in insertion order,
    # which is deterministic).
    tree_paths = {a0: degenerate_loop(Simplex0(a0))}
    order = [a0]
    frontier = [a0]
    while frontier:
        nxt = []
        for x in frontier:
            for y, b, reversed_ in tree_adjacency[x]:
                if y in tree_paths:
                    continue
                step = reverse(b) if reversed_ else b
                if x == a0:
                    tree_paths[y] = Path((step,))
                else:
                    tree_paths[y] = compose(Path((step,)), tree_paths[x])
                order.append(y)
                nxt.append(y)
        frontier = nxt

    generators = []
    edge_words = {}
    for rep, rev in classes:
        if rep in tree_edges or rep.face0 == rep.face1:
            # Loops at a point (including degenerate edges) are trivial
            # in the edge-path group: the 2-simplex with vertex map
            # (a, a, s) and top edge b gives the relator g h g^-1 for
            # the generator h of b; dropping them shrinks the
            # presentation without changing the group.
            edge_words[rep] = edge_words[rev] = ()
            continue
        edge_words[rep] = ((len(generators), 1),)
        edge_words[rev] = ((len(generators), -1),)
        generators.append(rep.encode())

    relators = []
    for c in enumerate_simplices(P, 2):
        word = tuple(edge_words[c.face0]) + tuple(edge_words[c.face2]) + invert_word(
            edge_words[c.face1]
        )
        if word:
            relators.append(word)
    presentation = Presentation(tuple(generators), tuple(relators))
    return presentation, WordMap(edge_words, tree_paths, a0)


@lru_cache(maxsize=None)
def based_loops(P: Poset, a0: str):
    """The based loop through each 1-simplex, with its word.

    For every 1-simplex b, in `enumerate_simplices(P, 1)` order, a triple
    (b, loop, word): the loop at a0 that follows the spanning tree to the
    start of b, crosses b and returns along the tree from its end, and
    the word of that loop in the presentation of `pi1_presentation`.
    """
    _, words = pi1_presentation(P, a0)
    out = []
    for b in enumerate_simplices(P, 1):
        loop = compose(
            reverse_path(words.tree_path(b.face0.element)),
            compose(Path((b,)), words.tree_path(b.face1.element)),
        )
        out.append((b, loop, words.path_word(loop)))
    return tuple(out)


def enumerate_homs(presentation: Presentation, G: FiniteGroup, limit=10 ** 6):
    """All maps generators -> G satisfying the relators."""
    k = len(presentation.generators)
    total = len(G) ** k
    if total > limit:
        raise SearchLimitExceeded(
            f"{len(G)}^{k} = {total} assignments exceed the limit {limit}"
        )
    homs = []
    for assignment in itertools.product(G.elements, repeat=k):
        ok = True
        for relator in presentation.relators:
            value = G.identity
            for idx, sign in relator:
                g = assignment[idx] if sign > 0 else G.inv(assignment[idx])
                value = G.mul(value, g)
            if value != G.identity:
                ok = False
                break
        if ok:
            homs.append(assignment)
    return tuple(homs)


def count_hom_classes(presentation: Presentation, G: FiniteGroup,
                      limit=10 ** 6) -> int:
    """Relator-respecting generator assignments up to simultaneous
    conjugation."""
    homs = set(enumerate_homs(presentation, G, limit=limit))
    classes = 0
    while homs:
        seed = min(homs)
        orbit = {
            tuple(G.conjugate(h, g) for g in seed) for h in G.elements
        }
        homs -= orbit
        classes += 1
    return classes


def word_value(word, assignment, G: FiniteGroup):
    value = G.identity
    for idx, sign in word:
        g = assignment[idx] if sign > 0 else G.inv(assignment[idx])
        value = G.mul(value, g)
    return value
