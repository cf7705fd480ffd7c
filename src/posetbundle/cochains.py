"""Group-valued cochains on the simplices of a poset.

Degrees 0..3 are implemented.  A 1-cochain assigns a group element to
every 1-simplex; a 2-cochain carries an inner-automorphism component on
1-simplices next to its group component on 2-simplices, and a 3-cochain
a central group component on 3-simplices.  Coboundaries, the cocycle
conditions, morphisms of 1-cocycles, and exhaustive enumeration and
classification of 1-cocycles live here.

A cochain stores a tuple of group element ids (see `FiniteGroup`)
indexed by the simplex ids of the poset's `Complex`, and an
automorphism component as the ids of canonical coset representatives,
so the operations here are index arithmetic on the group's tables.
`values` and `tau` are read-only views keyed by simplex.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType

from .errors import (
    BLANKS,
    BadParameter,
    CentralityViolation,
    MissingValue,
    Mismatch,
    UnknownElement,
    check_limit,
    check_name,
    content_lines,
    located,
    split_fields,
)
from .frozen import Frozen
from .groups import InnerAut
from .poset import base_point
from .simplicial import complex_of, enumerated, parse_simplex1


def _in_order(cells, mapping, message):
    """The values of `mapping` in simplex id order; `MissingValue` unless
    its keys are exactly the simplices of `cells`."""
    try:
        out = [mapping[d] for d in cells.simplices]
    except KeyError:
        out = None
    if out is None or len(out) != len(mapping):
        raise MissingValue(message)
    return out


def _total(n, P):
    return f"a {n}-cochain must assign a value to every {n}-simplex of {P.name}"


_TAU_TOTAL = "the automorphism component must cover every 1-simplex"


def _element_ids(G, names, items):
    """The ids of `names`; if one is outside G, a `MissingValue` naming
    the first (key, name) pair of `items` whose name is outside G."""
    try:
        return tuple(map(G.index.__getitem__, names))
    except KeyError:
        d, g = next((d, g) for d, g in items if g not in G)
        raise MissingValue(f"{g!r} (value at {d}) is not in {G.name}") from None


class _Cochain:
    """What the cochain types share: a poset, a group, the `cells` of one
    dimension and `ids`, the element id of the value at each simplex in
    simplex id order; in degrees 2 and 3 also `tau_ids`, the canonical
    element id of the automorphism component at each 1-simplex (None
    below).  Equality compares poset, group and both id tuples within
    one type; the hash covers the values.

    The public constructors validate a dictionary keyed by simplices;
    `_of` wraps ids that the library computed with the group's own
    tables, one per cell, and checks nothing.
    """

    __slots__ = ("poset", "group", "cells", "ids")
    dim = None
    tau_ids = None

    def __init__(self, P: Poset, G: FiniteGroup, values):
        values = dict(values)
        self.poset, self.group = P, G
        self.cells = complex_of(P)[self.dim]
        names = _in_order(self.cells, values, _total(self.dim, P))
        self.ids = _element_ids(G, names, ((d.encode(), g)
                                           for d, g in values.items()))

    @classmethod
    def _of(cls, P: Poset, G: FiniteGroup, ids, tau_ids=None):
        self = cls.__new__(cls)
        self.poset, self.group, self.ids = P, G, ids
        self.cells = complex_of(P)[cls.dim]
        if tau_ids is not None:
            self.tau_ids = tau_ids
        return self

    def __call__(self, d):
        """The value at the simplex d; `NoSuchSimplex` if d is not one of
        the simplices of this degree."""
        return self.group.elements[self.ids[self.cells.id_of(d)]]

    @property
    def values(self):
        """Simplex -> group element, read-only."""
        names = map(self.group.elements.__getitem__, self.ids)
        return MappingProxyType(dict(zip(self.cells.simplices, names)))

    @property
    def tau(self):
        """1-simplex -> `InnerAut`, read-only; None in degrees 0 and 1."""
        if self.tau_ids is not None:
            G = self.group
            auts = (InnerAut(G, G.elements[t]) for t in self.tau_ids)
            return MappingProxyType(dict(zip(
                complex_of(self.poset)[1].simplices, auts)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.poset, self.group, self.tau_ids, self.ids) == (
            other.poset, other.group, other.tau_ids, other.ids
        )

    def __hash__(self):
        return hash((self.poset, self.group, self.ids))

    def __repr__(self):
        return (f"{type(self).__name__}(over {self.poset.name}, "
                f"values in {self.group.name})")


class Cochain0(_Cochain):
    """An assignment of group elements to the points of a poset."""

    __slots__ = ()
    dim = 0

    def at(self, element: str):
        """Value at a point given by its element name."""
        try:
            return self.group.elements[self.ids[self.poset.id_of(element)]]
        except UnknownElement:
            raise MissingValue(f"no value at {element!r}") from None


class Cochain1(_Cochain):
    """An assignment of group elements to the 1-simplices of a poset."""

    __slots__ = ()
    dim = 1


def _tau_ids(P: Poset, G: FiniteGroup, tau):
    auts = _in_order(complex_of(P)[1], dict(tau), _TAU_TOTAL)
    return tuple(G.index[t.canonical] for t in auts)


class Cochain2(_Cochain):
    """A 2-cochain: inner automorphisms on 1-simplices, group elements on
    2-simplices, intertwined so that conjugation by the 2-face value
    carries the automorphism of boundary 1 to the composite of the
    automorphisms of boundaries 0 and 2."""

    __slots__ = ("tau_ids",)
    dim = 2

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        self.tau_ids = _tau_ids(P, G, tau)
        super().__init__(P, G, values)
        t, rows, canon = self.tau_ids, G.rows, G.coset_rep
        for c, g, (b0, b1, b2) in zip(self.cells.simplices, self.ids,
                                      self.cells.faces):
            if canon[rows[g][t[b1]]] != canon[rows[t[b0]][t[b2]]]:
                raise Mismatch(
                    f"2-cochain component at {c.encode()} does not intertwine "
                    "the automorphism components of its faces"
                )


class Cochain3(_Cochain):
    """A 3-cochain: the automorphism component of a 2-cochain together
    with central group elements on 3-simplices."""

    __slots__ = ("tau_ids",)
    dim = 3

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        values = dict(values)
        super().__init__(P, G, values)
        center = set(G.center())
        for d, g in values.items():
            if g not in center:
                raise CentralityViolation(
                    f"3-cochain value {g!r} at {d.encode()} is not central"
                )
        self.tau_ids = _tau_ids(P, G, tau)


# -- constructions ---------------------------------------------------------


def trivial_cochain1(P: Poset, G: FiniteGroup) -> Cochain1:
    return Cochain1._of(P, G, (G.unit,) * len(complex_of(P)[1].faces))


def random_cochain0(P: Poset, G: FiniteGroup, rng) -> Cochain0:
    return Cochain0._of(P, G, tuple(rng.randrange(len(G))
                                    for _ in P.elements))


def random_cochain1(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    return Cochain1._of(P, G, tuple(rng.randrange(len(G))
                                    for _ in complex_of(P)[1].faces))


def _point_ids(P: Poset, G: FiniteGroup, f):
    """A point assignment (element -> group element, or a `Morphism1`) as
    ids in element order, which is the order of the 0-simplex ids;
    `MissingValue` if f misses an element or a value is outside G."""
    if isinstance(f, Morphism1):
        f = f._lookup
    try:
        names = [f[a] for a in P.elements]
    except KeyError:
        missing = [a for a in P.elements if a not in f]
        raise MissingValue(f"assignment misses elements: {missing}") from None
    return _element_ids(G, names, zip(P.elements, names))


def _act(G: FiniteGroup, faces, values, f):
    """The action of a point assignment f on 1-cochain values: f(end) g
    f(start)^-1 for the value g at each 1-simplex, with `faces` the
    (end, start) point ids of the 1-simplices, all as ids.  Morphisms,
    gauge transformations and the cocycles of a homomorphism are all
    written with it."""
    rows, inv = G.rows, G.inverses
    return tuple(rows[rows[f[end]][g]][inv[f[start]]]
                 for g, (end, start) in zip(values, faces))


def coboundary_from_assignment(P: Poset, G: FiniteGroup, f) -> Cochain1:
    """The coboundary of the 0-cochain given by element name -> group
    element."""
    return coboundary0(Cochain0._of(P, G, _point_ids(P, G, f)))


def pushforward(phi: GroupHom, u: Cochain1) -> Cochain1:
    """Apply a group homomorphism to every value."""
    if phi.source != u.group:
        raise Mismatch("homomorphism source does not match the cochain group")
    image = phi.as_dict()
    ids = [phi.target.index[image[g]] for g in u.group.elements]
    return Cochain1._of(u.poset, phi.target, tuple(ids[g] for g in u.ids))


def associated_cocycle(z: Cochain1, action: GroupHom) -> Cochain1:
    """Push a cocycle forward along an action homomorphism.

    A homomorphism maps each 2-simplex identity to one, so the result is
    a cocycle."""
    if not is_cocycle(z):
        raise Mismatch("the associated construction starts from a cocycle")
    return pushforward(action, z)


# -- coboundaries ----------------------------------------------------------


def coboundary0(v: Cochain0) -> Cochain1:
    """(dv)(b) = v(end) v(start)^-1."""
    G, x = v.group, v.ids
    rows, inv = G.rows, G.inverses
    return Cochain1._of(v.poset, G, tuple(
        rows[x[end]][inv[x[start]]]
        for end, start in v.cells.complex[1].faces))


def coboundary1(u: Cochain1) -> Cochain2:
    """(du)(c) = u(b0) u(b2) u(b1)^-1, with automorphism component ad(u)."""
    G, x = u.group, u.ids
    rows, inv = G.rows, G.inverses
    values = tuple(rows[rows[x[b0]][x[b2]]][inv[x[b1]]]
                   for b0, b1, b2 in u.cells.complex[2].faces)
    return Cochain2._of(u.poset, G, values,
                        tuple(map(G.coset_rep.__getitem__, x)))


def _imbalances(w: Cochain2):
    """(id, (dw)(d)) at each 3-simplex d where w(f0) w(f2) differs from
    tau(w(f3)) w(f1), lazily in id order; tau, from a conjugation table, is
    the automorphism of the rear edge (boundary 0 of faces 0 and 1)."""
    G, x = w.group, w.ids
    rows, inv, ids = G.rows, G.inverses, range(len(G))
    conj = [[rows[rows[r][g]][inv[r]] for g in ids] for r in ids]
    rear = [conj[w.tau_ids[b0]] for b0, _, _ in w.cells.faces]
    for i, (f0, f1, f2, f3) in enumerate(w.cells.complex[3].faces):
        left, right = rows[x[f0]][x[f2]], rows[rear[f0][x[f3]]][x[f1]]
        if left != right:
            yield i, rows[left][inv[right]]


def coboundary2(w: Cochain2) -> Cochain3:
    """(dw)(d) = w(f0) w(f2) (tau(w(f3)) w(f1))^-1, e off `_imbalances`."""
    values = [w.group.unit] * len(w.cells.complex[3].faces)
    for i, g in _imbalances(w):
        values[i] = g
    return Cochain3._of(w.poset, w.group, tuple(values), w.tau_ids)


def coboundary(cochain):
    if isinstance(cochain, Cochain0):
        return coboundary0(cochain)
    if isinstance(cochain, Cochain1):
        return coboundary1(cochain)
    if isinstance(cochain, Cochain2):
        return coboundary2(cochain)
    raise BadParameter("no coboundary implemented above degree 2")


# -- cocycle conditions ----------------------------------------------------


def _is_functor(u: Cochain1, legs) -> bool:
    """The degree-1 test of `is_cocycle` on the (value id, legs) pairs
    `legs` of the 1-simplices it reads; `is_connection` passes the
    inflating ones."""
    rows, inv, x = u.group.rows, u.group.inverses, u.ids
    for g, (e, s) in legs:
        if g != rows[inv[x[e]]][x[s]]:
            return False
    for xv, xs, sv in u.cells.chains:
        if x[xv] != rows[x[xs]][x[sv]]:
            return False
    return True


def is_cocycle(cochain) -> bool:
    """The kernel condition: in degree 0 a coboundary that takes only the
    identity; in degree 2 no `_imbalances`, the first ending the test; in
    degree 1 the identity u(b0) u(b2) = u(b1) on every 2-simplex, tested
    as a functor g(x, v) = u(x; x, v) on the order: u(s; c, a) =
    g(s, c)^-1 g(s, a) on every 1-simplex (its `legs`) and g(x, v) =
    g(x, s) g(s, v) on every strict chain v < s < x (`chains`), each the
    identity of one 2-simplex.  Conversely these give g(s, s) = e and
    u(s; c, a) = g(x, c)^-1 g(x, a) for every x >= s, so both sides of
    each identity with support x read g(x, v2)^-1 g(x, v0)."""
    if isinstance(cochain, Cochain1):
        return _is_functor(cochain, zip(cochain.ids, cochain.cells.legs))
    if isinstance(cochain, Cochain2):
        return next(_imbalances(cochain), None) is None
    if isinstance(cochain, Cochain0):
        return set(coboundary0(cochain).ids) <= {cochain.group.unit}
    raise BadParameter("cocycle condition implemented for degrees 0-2")


def identity_failures(u: Cochain1):
    """The ids of the 2-simplices where `coboundary1(u)` is not the
    identity, lazily and in id order; no simplex object is built.
    `check-cocycle` lists them."""
    unit = u.group.unit
    return (i for i, g in enumerate(coboundary1(u).ids) if g != unit)


# -- paths and path independence -------------------------------------------


def _path_value(u: Cochain1, steps):
    """The id of the product of u along the 1-simplex ids `steps`, the
    first step rightmost."""
    rows, x = u.group.rows, u.ids
    value = u.group.unit
    for i in steps:
        value = rows[x[i]][value]
    return value


def extend_to_path(u: Cochain1, p: Path):
    """The ordered product of values along a path (first step rightmost);
    `NoSuchSimplex` if a step is not a 1-simplex of u's poset."""
    return u.group.elements[_path_value(u, map(u.cells.id_of, p.steps))]


def _transport(u: Cochain1, a0: str):
    rows, x, out = u.group.rows, u.ids, []
    for steps in u.cells.complex.tree(a0):
        value = u.group.unit
        for i in steps:
            value = rows[x[i]][value]
        out.append(value)
    return tuple(out)


def tree_transport(u: Cochain1, a0: str):
    """T_u(a) = u(tree path to a) for every point a (element -> group
    element): the product of u along the path from a0 to a in the
    spanning tree, `Complex.tree(a0)`, which `pi1_presentation(P, a0)`
    also contracts."""
    names = map(u.group.elements.__getitem__, _transport(u, a0))
    return dict(zip(u.poset.elements, names))


def is_path_independent(u: Cochain1):
    """Whether the extension of u to paths depends only on endpoints.

    Returns a witness 0-cochain v with dv = u when it does (this is
    exactly the coboundary condition), otherwise None.  The witness is
    the tree transport t from the base point: each 1-simplex is checked
    against t(end) t(start)^-1 in id order, and the first that differs
    ends the test.
    """
    rows, inv = u.group.rows, u.group.inverses
    t = _transport(u, base_point(u.poset))
    for g, (end, start) in zip(u.ids, u.cells.faces):
        if rows[t[end]][inv[t[start]]] != g:
            return None
    return Cochain0._of(u.poset, u.group, t)


# -- morphisms of 1-cocycles -----------------------------------------------


class Morphism1(Frozen):
    """A morphism of 1-cochains: a family f with
    f(end) source(b) = target(b) f(start) for every 1-simplex b."""

    source: Cochain1
    target: Cochain1
    assignment: tuple  # sorted (element, group element) pairs

    def as_dict(self):
        return dict(self.assignment)

    @cached_property
    def _lookup(self):
        return dict(self.assignment)

    def __call__(self, element):
        try:
            return self._lookup[element]
        except KeyError:
            self.source.poset.check_element(element)
            raise MissingValue(f"no value at {element!r}") from None


def _same_base(u: Cochain1, P: Poset, G: FiniteGroup):
    if u.poset != P or u.group != G:
        raise Mismatch("cochains live over different posets or groups")


def is_morphism(f, source: Cochain1, target: Cochain1) -> bool:
    _same_base(source, target.poset, target.group)
    G, f = source.group, _point_ids(source.poset, source.group, f)
    return _act(G, source.cells.faces, source.ids, f) == target.ids


def morphisms(v1: Cochain1, v: Cochain1):
    """The morphisms v1 -> v, lazily, as sorted (element, group element)
    assignments.

    A morphism of cochains over a connected poset is fixed by its value
    at the base point a0: f(a) = T_v(a) f(a0) T_v1(a)^-1 with T the tree
    transport.  Each seed value f(a0), in group element order, is
    transported and checked 1-simplex by 1-simplex until one differs.
    """
    P, G = v.poset, v.group
    _same_base(v1, P, G)
    rows, inv = G.rows, G.inverses
    a0 = base_point(P)  # point id 0
    t = _transport(v, a0)
    t1 = t if v1 is v else _transport(v1, a0)
    for seed in range(len(G)):
        f = [rows[rows[ta][seed]][inv[t1a]] for ta, t1a in zip(t, t1)]
        f[0] = seed
        for g1, g, (end, start) in zip(v1.ids, v.ids, v.cells.faces):
            if rows[rows[f[end]][g1]][inv[f[start]]] != g:
                break
        else:
            yield tuple(zip(P.elements, map(G.elements.__getitem__, f)))


def find_morphism(v1: Cochain1, v: Cochain1):
    """A morphism v1 -> v if one exists, else None."""
    assignment = next(morphisms(v1, v), None)
    return None if assignment is None else Morphism1(v1, v, assignment)


def are_equivalent(z: Cochain1, z1: Cochain1) -> bool:
    """Cocycle morphisms over a group are invertible, so existence in one
    direction is equivalence."""
    return find_morphism(z, z1) is not None


# -- enumeration and classification ----------------------------------------
#
# These read the fundamental group, so they import `paths` when they run;
# the rest of this module never needs it.


def _loop_ids(G: FiniteGroup, words, x):
    """The id of the value on the based loop through each 1-simplex of
    the homomorphism that takes generator i to the element with id x[i]."""
    from .paths import _word
    return tuple(_word(G, word, x) for word in words.edge_words)


def _hom_loops(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """The `_loop_ids` of each homomorphism of the fundamental group at
    the base point into G, in `paths._hom_ids` order: row h is the
    cocycle of homomorphism h (`cocycle_from_hom`), and `_act` of a point
    assignment on it the cocycle of the pair.  Kept on `complex_of(P)`
    by group; `limit` is checked first, as `_hom_ids` checks it,
    so a smaller limit still raises and a larger one reads the table."""
    K = complex_of(P)
    if G in K.hom_loops:
        K.pi1[0].check_hom_limit(G, limit)
    else:
        from .paths import _hom_ids, pi1_presentation
        presentation, words = pi1_presentation(P, base_point(P))
        K.hom_loops[G] = tuple(_loop_ids(G, words, x)
                               for x in _hom_ids(presentation, G, limit))
    return K.hom_loops[G]


def cocycle_from_hom(P, G, sigma):
    """The 1-cocycle z(b) = sigma([loop through b]) of a homomorphism
    sigma (generator values) of the fundamental group at the base point,
    the identity on the spanning tree.  A sigma that does not give one
    element of G per generator is a `BadParameter` or, for a value
    outside G, a `MissingValue`."""
    from .paths import pi1_presentation
    presentation, words = pi1_presentation(P, base_point(P))
    generators = presentation.generators
    if len(sigma) != len(generators):
        raise BadParameter(f"sigma needs one value per generator "
                           f"({len(generators)}), got {len(sigma)}")
    x = _element_ids(G, sigma, zip(generators, sigma))
    return Cochain1._of(P, G, _loop_ids(G, words, x))


def enumerate_cocycles(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """All 1-cocycles of P with values in G: by homomorphism in
    `paths._hom_ids` order, then by point assignment in product order.

    A cocycle is the same thing as a fundamental-group homomorphism
    together with a free choice of group element at every point other
    than the base point, so the enumeration ranges over those pairs.
    The value g of each based loop is computed once per homomorphism;
    the cocycles are built by 1-simplex columns from tables of a g b^-1.
    Distinct pairs give distinct cocycles: the tree edges (empty words)
    fix the assignment and the generator edges (one letter) sigma.
    """
    loops = _hom_loops(P, G, limit)
    others = len(P) - 1  # the base point has id 0, the others follow it
    check_limit(len(loops) * len(G) ** others, limit,
                f"{len(loops)} homomorphisms x {len(G)}^{others} point "
                "assignments")
    faces, n = complex_of(P)[1].faces, len(G)
    rows, inv = G.rows, G.inverses
    # tables[g][a * n + b] is a g b^-1; columns[e, s] indexes it by f(e), f(s).
    tables = [[rows[rows[a][g]][inv[b]] for a in range(n) for b in range(n)]
              for g in range(n)]
    fs = [(G.unit,) + c for c in itertools.product(range(n), repeat=others)]
    columns = {(e, s): [f[e] * n + f[s] for f in fs] for e, s in set(faces)}
    return tuple(Cochain1._of(P, G, ids) for x in loops for ids in zip(*(
        map(tables[g].__getitem__, columns[b]) for g, b in zip(x, faces))))


def classify_cocycles(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """Representatives of the equivalence classes of 1-cocycles.

    Over a connected poset the classes are the conjugation orbits of
    fundamental-group homomorphisms.  Each class is represented by the
    cocycle of the first homomorphism of its orbit, trivial on the
    spanning tree, in `paths._hom_ids` order: `paths._class_ids` read
    through `_loop_ids`.  A disconnected poset raises `NotConnected`.
    """
    from .paths import _class_ids, pi1_presentation
    presentation, words = pi1_presentation(P, base_point(P))
    return tuple(Cochain1._of(P, G, _loop_ids(G, words, x))
                 for x in _class_ids(presentation, G, limit))


# -- textual format --------------------------------------------------------


def _read_values(lines, G, what, read_key):
    """The ``<key> = <element of G>`` lines of a cochain or assignment
    file as a dict, each checked as it is read; `read_key` turns a left
    side into (key, key as messages write it) or raises if P lacks it."""
    values = {}
    for number, line, raw in lines:
        with located(f" (line {number})"):
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise BadParameter(f"bad {what} line: {raw!r}")
            key, label = read_key(lhs)
            if key in values:
                raise BadParameter(f"repeated value for {label}: {raw!r}")
            g = rhs.strip(BLANKS)
            if g not in G:
                raise MissingValue(f"{g!r} (value at {label}) is not in "
                                   f"{G.name}")
            values[key] = g
    return values


def parse_cochain_text(text: str, P: Poset, G: FiniteGroup) -> Cochain1:
    """Parse the 1-cochain format: a header line
    ``cochain <name> over <poset> values <group>`` followed by one
    ``(<support>;<end>,<start>) = <element>`` line per 1-simplex."""
    lines = content_lines(text)
    number, line, raw = next(lines, (None, None, None))
    if line is None:
        raise BadParameter("missing cochain header")
    with located(f" (line {number})"):
        fields = split_fields(line)
        if len(fields) != 6 or fields[::2] != ["cochain", "over", "values"]:
            raise BadParameter(f"bad cochain header: {raw!r}")
        if fields[3] != P.name:
            raise Mismatch(f"cochain is over {fields[3]!r}, not {P.name!r}")
        if fields[5] != G.name:
            raise Mismatch(f"cochain takes values in {fields[5]!r}, "
                           f"not {G.name!r}")

    def simplex(lhs):
        b = enumerated(P, parse_simplex1(lhs))
        return b, b.encode()

    return Cochain1(P, G, _read_values(lines, G, "cochain", simplex))


def format_cochain_text(u: Cochain1, name="u") -> str:
    check_name(name, "cochain name")
    lines = [f"cochain {name} over {u.poset.name} values {u.group.name}"]
    names = u.group.elements
    lines += (f"{u.cells.encode(i)} = {names[g]}" for i, g in enumerate(u.ids))
    return "\n".join(lines) + "\n"


def parse_assignment_text(text: str, P: Poset, G: FiniteGroup):
    """Parse ``<element> = <group element>`` lines into a total map on
    the points of P."""

    def element(lhs):
        a = lhs.strip(BLANKS)
        P.check_element(a)
        return a, a

    f = _read_values(content_lines(text), G, "assignment", element)
    _point_ids(P, G, f)  # every element has a value
    return f


def format_assignment_text(f) -> str:
    return "\n".join(f"{a} = {g}" for a, g in sorted(f.items())) + "\n"
