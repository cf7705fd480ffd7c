"""Singular simplices of a poset up to dimension 3.

A simplex is a support element together with compatible faces; this is
the finite normal form of an order-preserving map from the subset-poset
of {0..n} into the base poset.  Equality is structural.  Vertex i of a
1-simplex b is read as: boundary 1 is the start point, boundary 0 the
endpoint.

The enumerated complex is integer-indexed: each poset owns one
`Complex`, whose `Cells` for dimension n are glued from dimension n-1
on first use.  A simplex's id is its rank in `enumerate_simplices`.
The gluing yields only the support id and the face ids of each cell;
the other tables (reverse and leg ids, the inflating and degenerate
masks) are computed from these, and cochains store their values as
tuples indexed by the ids, so coboundaries and cocycle checks build no
simplex objects.  The objects of a dimension are built once, when first
asked for, so the faces of an enumerated simplex are the enumerated
objects one dimension down, and each computes its hash on first use;
the id of a given simplex is looked up among them.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from functools import cached_property, wraps
from operator import itemgetter

from .errors import (BLANKS, BadParameter, IndexOutOfRange, NoSuchSimplex,
                     NotConnected, UnsupportedDimension)
from .poset import row_ids


class Simplex:
    """A support together with its faces, the simplices one dimension
    down; `Simplex0`..`Simplex3` fix the dimension and name the support
    `element` or the faces `face0`.. (read-only views of `faces`).

    The constructor checks the number of faces and, for n >= 2, the
    simplicial identity: face i of face k is face k-1 of face i for all
    i < k; the enumerated simplices skip that check (see `_build`),
    since gluing their faces checked it.  The hash is computed on first
    use, from the support and the faces, and then kept.  Equality is
    structural within one dimension: a freshly built simplex equals the
    enumerated one with the same data, and a hash mismatch settles most
    unequal pairs without recursing into faces.  Simplices are
    immutable.
    """

    __slots__ = ("support", "faces", "_hash")
    dim = None

    def __init_subclass__(cls):
        n = cls.dim
        cls._arity = n + 1 if n else 0
        cls._identities = tuple((k, i) for k in range(n + 1)
                                for i in range(k)) if n >= 2 else ()
        for k in range(cls._arity):
            setattr(cls, f"face{k}", property(lambda d, k=k: d.faces[k]))

    def __init__(self, support, *faces):
        if len(faces) != self._arity:
            raise TypeError(f"{type(self).__name__} takes a support and "
                            f"{self._arity} faces, got {len(faces)}")
        for k, i in self._identities:
            a, b = faces[k].faces[i], faces[i].faces[k - 1]
            if a is not b and a != b:
                raise BadParameter(
                    f"incompatible faces for {self.dim}-simplex: face {i} "
                    f"of face {k} is not face {k - 1} of face {i}")
        _set_support(self, support)
        _set_faces(self, faces)
        _set_hash(self, None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.support,) + self.faces))
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (hash(self) == hash(other) and self.support == other.support
                and self.faces == other.faces)

    def __repr__(self):
        return f"{type(self).__name__}({self.encode()})"

    def __reduce__(self):
        # Unpickle through __init__: string hashes, and with them the
        # cached hash, differ from one interpreter process to the next.
        return type(self), (self.support,) + self.faces

    def encode(self):
        if not self.faces:
            return self.support
        faces = ",".join(f.encode() for f in self.faces)
        return f"({self.support};{faces})"

    def sort_key(self):
        return (self.support,) + tuple(f.sort_key() for f in self.faces)


# The slot setters the constructor uses to get past __setattr__.
_set_support = Simplex.support.__set__
_set_faces = Simplex.faces.__set__
_set_hash = Simplex._hash.__set__


def _build(cls, names, support, faces):
    """The simplices of class cls with supports `names[support[i]]` and
    face tuples `faces[i]`, as `Simplex.__init__` writes them but without
    its identity check, which gluing the faces has done, and with the
    hash left to the first use.  Each slot is written from a column."""
    out = [object.__new__(cls) for _ in faces]
    columns = map(names.__getitem__, support), faces, itertools.repeat(None)
    for set_, column in zip((_set_support, _set_faces, _set_hash), columns):
        deque(map(set_, out, column), maxlen=0)
    return tuple(out)


class Simplex0(Simplex):
    __slots__ = ()
    dim = 0
    element = Simplex.support


class Simplex1(Simplex):
    __slots__ = ()  # face0 is the endpoint, face1 the start point
    dim = 1


class Simplex2(Simplex):
    __slots__ = ()
    dim = 2


class Simplex3(Simplex):
    __slots__ = ()
    dim = 3


_SIMPLEX_CLASSES = (Simplex0, Simplex1, Simplex2, Simplex3)


def boundary(d, i):
    """The i-th face of a simplex of dimension >= 1."""
    if d.dim == 0:
        raise IndexOutOfRange("a 0-simplex has no boundary")
    if not 0 <= i <= d.dim:
        raise IndexOutOfRange(f"boundary index {i} out of range for dim {d.dim}")
    return d.faces[i]


def degeneracy(d, i):
    """The degenerate (n+1)-simplex s_i(d); supports are preserved.

    Face j of s_i(d) is s_{i-1}(face j of d) for j < i, d itself for
    j = i and i + 1, and s_i(face j-1 of d) for j > i + 1.
    """
    n = d.dim
    if n > 2:
        raise UnsupportedDimension("degeneracies are implemented for dimensions 0-2")
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"degeneracy index {i} out of range for dim {n}")
    faces = ([degeneracy(f, i - 1) for f in d.faces[:i]] + [d, d]
             + [degeneracy(f, i) for f in d.faces[i + 1:]])
    return _SIMPLEX_CLASSES[n + 1](d.support, *faces)


def is_degenerate(d) -> bool:
    """True iff d equals some s_i of a lower simplex.

    If d = s_i(d'), then faces i and i + 1 of d are both d', so checking
    s_i(face i) for each i is a complete check.
    """
    return any(d.faces[i] == d.faces[i + 1] and degeneracy(d.faces[i], i) == d
               for i in range(d.dim))


def is_inflating(P: Poset, d) -> bool:
    """A 1-simplex is inflating when its start lies below its end;
    higher simplices, when all their faces are."""
    if d.dim == 1:
        return P.leq(d.face1.element, d.face0.element)
    return all(is_inflating(P, f) for f in d.faces)


def reverse(b: Simplex1) -> Simplex1:
    """Same support, swapped endpoints; an involution."""
    return Simplex1(b.support, b.face1, b.face0)


def enumerated(P: Poset, d):
    """The enumerated simplex equal to d; `NoSuchSimplex` if d is not a
    simplex of P.  Dictionaries keyed by enumerated simplices match it
    by identity."""
    cells = complex_of(P)[d.dim]
    return cells.simplices[cells.id_of(d)]


def _face_rule(sigma):
    """(sigma(j), whether it is reversed) for each face j of a 2-simplex
    permuted by sigma, as `permute2` states the rule; `BadParameter`
    unless sigma permutes (0, 1, 2)."""
    sigma = tuple(sigma)
    if len(sigma) != 3 or set(sigma) != {0, 1, 2}:
        raise BadParameter(f"{sigma!r} is not a permutation of (0, 1, 2)")
    # (a, b): the two vertices other than j, in order.
    return tuple((sigma[j], sigma[a] > sigma[b])
                 for j, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))))


def permute2(c: Simplex2, sigma) -> Simplex2:
    """The orientation (vertex permutation) action on a 2-simplex.

    sigma = (sigma(0), sigma(1), sigma(2)): vertex k of the result is
    vertex sigma(k) of c.  So face j of the result is face sigma(j) of
    c, reversed when sigma swaps the order of the two other vertices.
    `Cells.permuted` is the same action on ids.
    """
    return Simplex2(c.support, *(reverse(c.faces[k]) if flip else c.faces[k]
                                 for k, flip in _face_rule(sigma)))


EVEN_PERMUTATIONS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
ODD_PERMUTATIONS = ((1, 0, 2), (2, 1, 0), (0, 2, 1))


def _check_dimension(n):
    if type(n) is not int or not 0 <= n <= 3:
        raise UnsupportedDimension(f"dimension {n!r} not supported (0..3)")


def enumerate_simplices(P: Poset, n: int):
    """All n-simplices of P in deterministic (sort key) order.

    The simplices are the objects of `complex_of(P)[n].simplices`, so
    every face of an enumerated simplex is the very object enumerated
    one dimension down, and each simplex hashes at most once.  Repeated
    calls return the same cached tuple; the `inflating` mask of the
    same cells picks out the inflating ones.
    """
    return complex_of(P)[n].simplices


def _gc_paused(f):
    """f with the cyclic garbage collector paused while it runs.  Gluing
    a dimension and building its objects allocate hundreds of thousands
    of tuples and simplices that all stay alive, so every collection the
    allocations trigger walks a growing heap and frees nothing."""
    @wraps(f)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return f(*args)
        finally:
            if enabled:
                gc.enable()
    return paused


class Cells:
    """The n-simplices of a poset as integer tables, with the simplex
    objects built only when asked for.

    The id of a simplex is its rank in sort key order.  The gluing
    (`_glue`) makes the primary tables: `support[i]` is the id of the
    support of simplex i, its rank in `P.elements`, and `faces[i]` holds
    the ids of its faces one dimension down.  Everything else is built
    on first use from them:
    - `simplices`, the enumerated objects, in one pass;
    - `ids`, which maps each of `simplices` (or one equal to it) to its
      id (`id_of` raises `NoSuchSimplex` for any other simplex), and
      `at`, which maps (support id, *face ids) to the id;
    - the `inflating` and `degenerate` masks, and in dimensions 1-3
      `degeneracies[i][j]`, the id of s_i of simplex j one dimension
      down (see `degeneracy`);
    - in dimension 1, the id of each simplex's `reverse`; its `legs`,
      the ids of (s; s, end) and (s; s, start) for support s; the
      `chains`, the ids of (x; x, v), (x; x, s) and (s; s, v) for each
      strict chain v < s < x, read off the 1-simplex (x; s, v); and the
      reversal classes as id pairs (i, reverse of i) with i <= its
      reverse: all of them in `classes`, those without an inflating
      member in `free_classes`; and the `spanning` tree over the classes;
    - in dimension 2, `deformations`, which maps the id of a boundary 1
      to the id pairs (boundary 2, boundary 0), and such a pair to the
      1-tuples of boundary 1 ids: the moves of `paths.homotopic`; and,
      not cached, `permuted(sigma)`, the ids of the orientation action.
    The tables of dimension 1 or 2 raise `UnsupportedDimension` in any
    other.  Inside the library a simplex is an id: objects are built
    (`simplices`, and `ids` from them) only where the public API takes a
    simplex in or hands one out.  `encode(i)`, the text of simplex i,
    reads the tables.
    """

    def __init__(self, K, n):
        self.complex = K
        self.dim = n
        self.support, self.faces = _glue(K.poset, n, K[n - 1] if n else None)

    @cached_property
    @_gc_paused
    def simplices(self):
        names = self.complex.poset.elements
        if self.dim:
            ids, lower = self.faces, self.complex[self.dim - 1].simplices
            faces = list(zip(*(map(lower.__getitem__, map(itemgetter(k), ids))
                               for k in range(self.dim + 1))))
            return _build(_SIMPLEX_CLASSES[self.dim], names, self.support,
                          faces)
        return tuple(map(Simplex0, names))

    def encode(self, i):
        """The text `Simplex.encode` writes for simplex i, read from the
        tables."""
        name = self.complex.poset.elements[self.support[i]]
        if not self.dim:
            return name
        lower = self.complex[self.dim - 1]
        return f"({name};{','.join(map(lower.encode, self.faces[i]))})"

    @cached_property
    def ids(self):
        return dict(zip(self.simplices, range(len(self.faces))))

    def id_of(self, d):
        """The id of the simplex d; `NoSuchSimplex` if d is not one of
        these cells."""
        try:
            return self.ids[d]
        except KeyError:
            raise NoSuchSimplex(f"{d.encode()} is not a {self.dim}-simplex "
                                f"of {self.complex.poset.name}") from None

    @cached_property
    def at(self):
        return {(x, *f): i
                for i, (x, f) in enumerate(zip(self.support, self.faces))}

    @cached_property
    def inflating(self):
        if self.dim == 1:
            up = self.complex.poset.up
            return tuple(up[s] >> e & 1 == 1 for e, s in self.faces)
        lower = self.complex[self.dim - 1].inflating if self.dim else ()
        return tuple(all(map(lower.__getitem__, f)) for f in self.faces)

    @cached_property
    def degeneracies(self):
        # Face j of s_i(d) is s_{i-1}(face j of d) for j < i, d itself for
        # j = i and i + 1, and s_i(face j-1 of d) for j > i + 1.
        lower = self.complex[self.dim - 1]
        down = lower.degeneracies if self.dim > 1 else ()
        return tuple(
            tuple(self.at[(x, *[down[i - 1][g] for g in f[:i]], j, j,
                           *[down[i][g] for g in f[i + 1:]])]
                  for j, (x, f) in enumerate(zip(lower.support, lower.faces)))
            for i in range(self.dim))

    @cached_property
    def degenerate(self):
        mask = [False] * len(self.faces)
        for row in self.degeneracies if self.dim else ():
            for k in row:
                mask[k] = True
        return tuple(mask)

    def _only_in(self, n, what):
        if self.dim != n:
            raise UnsupportedDimension(f"{what} implemented for "
                                       f"{n}-simplices")

    @cached_property
    def reverse(self):
        self._only_in(1, "reverses are")
        return tuple(self.at[x, s, e]
                     for x, (e, s) in zip(self.support, self.faces))

    @cached_property
    def legs(self):
        self._only_in(1, "legs are")
        at = self.at
        return tuple((at[s, s, e], at[s, s, a])
                     for s, (e, a) in zip(self.support, self.faces))

    @cached_property
    def chains(self):
        at = self.at
        return tuple((a, e, at[s, s, v]) for x, (s, v), (e, a)
                     in zip(self.support, self.faces, self.legs)
                     if x != s != v and (s, s, v) in at)

    @cached_property
    def classes(self):
        return tuple((i, j) for i, j in enumerate(self.reverse) if i <= j)

    @cached_property
    def free_classes(self):
        infl = self.inflating
        return tuple((i, j) for i, j in self.classes
                     if not infl[i] and not infl[j])

    @cached_property
    def spanning(self):
        """(joined, adjacency): Kruskal over the `classes` in id (sort
        key) order, one edge per class.  `joined[k]` is whether class k
        joined two components, so is a tree edge; `adjacency[x]` lists
        (neighbour, step id) for each tree edge at point x, in the order
        the edges joined."""
        component = list(range(len(self.complex.poset)))
        joined, adjacency = [], [[] for _ in component]
        for i, j in self.classes:
            y, x = self.faces[i]  # end, start
            joined.append(component[x] != component[y])
            if joined[-1]:
                old = component[x]
                component = [component[y] if c == old else c
                             for c in component]
                adjacency[x].append((y, i))
                adjacency[y].append((x, j))
        return tuple(joined), adjacency

    def permuted(self, sigma):
        """The id of `permute2(c, sigma)` for each 2-simplex id of c, read
        from `at` and the reverse ids one dimension down; for sigma =
        (1, 0, 2), simplex i with support x and faces (b0, b1, b2) goes
        to `at[x, b1, b0, reverse[b2]]`."""
        self._only_in(2, "the orientation action is")
        rule, at = _face_rule(sigma), self.at
        rev = self.complex[1].reverse
        return tuple(at[(x, *(rev[f[k]] if flip else f[k]
                              for k, flip in rule))]
                     for x, f in zip(self.support, self.faces))

    @cached_property
    def deformations(self):
        self._only_in(2, "deformations are")
        expansions, contractions = {}, {}
        for b0, b1, b2 in self.faces:
            expansions.setdefault(b1, []).append((b2, b0))
            contractions.setdefault((b2, b0), []).append((b1,))
        return expansions, contractions


class Complex:
    """The enumerated complex of a poset: one `Cells` per dimension
    0..3, each built on first use from the one below.  The poset owns
    it (`complex_of`), so every per-poset table hangs off it and goes
    with the poset: the spanning tree paths by base point (`trees`, see
    `tree`), the parts of `paths.pi1_presentation`, its base-free part
    `pi1` and its `presentations` by base point, and the based-loop
    values of each homomorphism of the fundamental group by (group,
    limit) (`hom_loops`, see `cochains._hom_loops`)."""

    def __init__(self, P: Poset):
        self.poset = P
        self._cells = {}
        self.trees = {}
        self.pi1 = None
        self.presentations = {}
        self.hom_loops = {}

    def tree(self, a0):
        """The step ids of the spanning tree path from a0 to each point,
        by point id, kept in `trees`; a0's own path is its degenerate
        1-simplex.  `UnknownElement` if a0 is not an element, then
        `NotConnected` unless the tree reaches every point."""
        try:
            return self.trees[a0]
        except KeyError:
            pass
        P, edges = self.poset, self[1]
        # Breadth first over the adjacency lists, in their order.
        root, tree = P.id_of(a0), [None] * len(P)
        tree[root] = (edges.at[root, root, root],)
        queue = [root]
        for x in queue:
            for y, step in edges.spanning[1][x]:
                if tree[y] is None:
                    tree[y] = (tree[x] if x != root else ()) + (step,)
                    queue.append(y)
        if None in tree:
            raise NotConnected(f"{P.name} is not pathwise connected")
        self.trees[a0] = tree = tuple(tree)
        return tree

    def __getitem__(self, n):
        if type(n) is int:  # not a bool or float equal to a key
            try:
                return self._cells[n]
            except KeyError:
                pass
        _check_dimension(n)
        cells = self._cells[n] = Cells(self, n)
        return cells


def complex_of(P: Poset) -> Complex:
    """The complex P owns, built on first use; it lives as long as P."""
    if P._complex is None:
        P._complex = Complex(P)
    return P._complex


@_gc_paused
def _glue(P: Poset, n: int, lower):
    """The support ids and face ids of the n-simplices of P, glued from
    the cells `lower` one dimension down.

    An n-simplex with support x is a tuple of faces f_0..f_n, each an
    (n-1)-simplex with support <= x, such that face i of f_k is face k-1
    of f_i for all i < k (for n >= 2; for n = 1 any two points below x
    are the faces).  So the first k faces of f_k are fixed by the faces
    chosen before it, and the candidates for f_k are looked up by that
    prefix in `by0`, `by01` and `by012`; a tuple found this way satisfies
    every identity.  Taking the candidates in id order of dimension n-1
    yields the simplices in sort key order.
    """
    if n == 0:
        return tuple(range(len(P))), ((),) * len(P)
    faces, by_support = lower.faces, {}
    for i, x in enumerate(lower.support):
        by_support.setdefault(x, []).append(i)
    support, out = [], []
    for x, row in enumerate(P.down):
        below = list(row_ids(row))
        if n == 1:
            glued = [(e, s) for e in below for s in below]
        else:
            # Ids are sorted by support first, so concatenating the groups
            # in element order keeps the candidates in id order.
            cands = [i for y in below for i in by_support.get(y, ())]
            by0, by01, by012 = {}, {}, {}
            for i in cands:
                f = faces[i]
                by0.setdefault(f[0], []).append(i)
                by01.setdefault(f[:2], []).append(i)
                if n == 3:
                    by012.setdefault(f, []).append(i)
            if n == 2:
                glued = [(a, b, c) for a in cands for fa in [faces[a]]
                         for b in by0[fa[0]]
                         for c in by01.get((fa[1], faces[b][1]), ())]
            else:
                glued = [(a, b, c, d) for a in cands for fa in [faces[a]]
                         for b in by0[fa[0]] for fb in [faces[b]]
                         for c in by01.get((fa[1], fb[1]), ())
                         for d in by012.get((fa[2], fb[2], faces[c][2]), ())]
        support += [x] * len(glued)
        out += glued
    return tuple(support), tuple(out)


def parse_simplex1(text: str) -> Simplex1:
    """Parse the textual encoding ``(<support>;<face0>,<face1>)``."""
    text = text.strip(BLANKS)
    if not (text.startswith("(") and text.endswith(")")):
        raise BadParameter(f"bad 1-simplex encoding: {text!r}")
    body = text[1:-1]
    try:
        sup, faces = body.split(";")
        f0, f1 = faces.split(",")
    except ValueError:
        raise BadParameter(f"bad 1-simplex encoding: {text!r}") from None
    return Simplex1(sup.strip(BLANKS), Simplex0(f0.strip(BLANKS)),
                    Simplex0(f1.strip(BLANKS)))
