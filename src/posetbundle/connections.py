"""Connections on principal bundles over a poset.

A connection is a 1-cochain that inverts under edge reversal and is
flat on inflating 2-simplices, a functor on the inflating order.  Its
curvature is the coboundary, its induced 1-cocycle the underlying
bundle, and its holonomy the subgroup generated by based loop values.
"""

from __future__ import annotations

import itertools

from .cochains import (
    Cochain1,
    Morphism1,
    _act,
    _is_functor,
    _same_base,
    _transport,
    coboundary1,
    enumerate_cocycles,
    extend_to_path,
    is_cocycle,
    tree_transport,
)
from .errors import (
    Mismatch,
    MissingValue,
    MixedCocycles,
    NoSuchSimplex,
    NotAConnection,
    NotCentral,
    PreconditionViolated,
    TrivialGroup,
    WrongCocycle,
    check_limit,
)
from .simplicial import complex_of, enumerate_simplices


def is_connection(u: Cochain1) -> bool:
    """Whether u inverts on every reversal class and is flat on the
    inflating 2-simplices: `is_cocycle`'s test, with legs read on the
    inflating 1-simplices only.  Legs are inflating, so b's leg identity
    is inflating iff b is, and every chain's is; conversely both sides of
    each inflating identity with support x read g(x, v2)^-1 g(x, v0)."""
    inv, x = u.group.inverses, u.ids
    for i, j in u.cells.classes:
        if x[j] != inv[x[i]]:
            return False
    legs = zip(x, u.cells.legs)
    return _is_functor(u, itertools.compress(legs, u.cells.inflating))


def _require_connection(u: Cochain1):
    if not is_connection(u):
        raise NotAConnection("the given 1-cochain is not a connection")


def curvature(u: Cochain1) -> Cochain2:
    """The coboundary of a connection; identity exactly on the flat part."""
    _require_connection(u)
    return coboundary1(u)


def is_flat(u: Cochain1) -> bool:
    """Whether the curvature of the connection u is the identity
    everywhere, which is the cocycle identity of u."""
    _require_connection(u)
    return is_cocycle(u)


def transport_between(u: Cochain1, o: str, a1: str, a: str):
    """The parallel transport u(o; o, a1)^-1 u(o; o, a) between two
    points below a common upper bound o; `UnknownElement` if a name is
    not an element of P."""
    P, G, at = u.poset, u.group, u.cells.at
    top, *ends = map(P.id_of, (o, a1, a))
    values = []
    for x, end in zip((a1, a), ends):
        try:
            values.append(u.ids[at[top, top, end]])
        except KeyError:
            raise NoSuchSimplex(f"({o};{o},{x}) is not a 1-simplex of "
                                f"{P.name}") from None
    return G.elements[G.rows[G.inverses[values[0]]][values[1]]]


def induced_cocycle(u: Cochain1) -> Cochain1:
    """The underlying 1-cocycle of a connection.

    Both endpoints of a 1-simplex sit below its support s, so
    z(b) = u(s; s, end)^-1 u(s; s, start), read through the `legs` of b,
    is defined from inflating values only; it agrees with u on inflating
    simplices, and it is a cocycle since u is flat on the inflating
    2-simplices (see `is_cocycle`).
    """
    _require_connection(u)
    x, rows, inv = u.ids, u.group.rows, u.group.inverses
    return Cochain1._of(u.poset, u.group, tuple(
        rows[inv[x[e]]][x[s]] for e, s in u.cells.legs))


def is_adapted(u: Cochain1, z: Cochain1) -> bool:
    """Whether the connection u lives on the bundle z: they agree on
    inflating 1-simplices."""
    _same_base(u, z.poset, z.group)
    return all(a == b for a, b, inflating
               in zip(u.ids, z.ids, u.cells.inflating) if inflating)


def construct_from_cochain(v: Cochain1, z: Cochain1) -> Cochain1:
    """The connection b -> v(reverse b)^-1 z(b) v(b) on the bundle z,
    where v is any 1-cochain equal to the identity on inflating
    simplices and their reverses, so the result equals z there; z
    inverts on every reversal class, and so does the result (`_twist`)."""
    if not is_cocycle(z):
        raise PreconditionViolated(
            "the base of a connection must be a 1-cocycle"
        )
    _same_base(v, z.poset, z.group)
    G, cells, t = z.group, z.cells, v.ids
    free = set(cells.free_classes)
    if any(t[i] != G.unit or t[j] != G.unit
           for i, j in cells.classes if (i, j) not in free):
        raise PreconditionViolated(
            "the twisting cochain must be trivial on inflating "
            "simplices and their reverses"
        )
    return Cochain1._of(z.poset, G, _twist(G, cells.free_classes, z.ids, t))


def _twist(G: FiniteGroup, free, x, t):
    """`construct_from_cochain` on ids, for a twist t that is the unit
    outside the reversal classes `free`: t(j)^-1 x(i) t(i) on each."""
    rows, inv = G.rows, G.inverses
    values = list(x)
    for i, j in free:
        values[i] = rows[rows[inv[t[j]]][x[i]]][t[i]]
        values[j] = rows[rows[inv[t[i]]][x[j]]][t[j]]
    return tuple(values)


def construct_nonflat(z: Cochain1, b: Simplex1 = None, g=None):
    """A nonflat connection on the bundle z, with a witness 2-simplex.

    Twists z (`_twist`) by g^-1 on a 1-simplex b that is non-inflating
    in both orientations, so u(b) = z(b) g^-1 and its inverse g z(b)^-1
    on the reverse of b; such a simplex exists exactly when the poset is
    not totally ordered.
    Faces 0 and 2 of the witness are legs of b, where u = z, so the
    curvature there is z(b) g z(b)^-1, which a nontrivial g keeps off
    the identity.  b is free, so the twist touches no inflating value
    and u is a connection.
    """
    if not is_cocycle(z):
        raise WrongCocycle("nonflat construction starts from a 1-cocycle")
    P, G = z.poset, z.group
    if G.is_trivial():
        raise TrivialGroup("no nonflat connection with trivial coefficients")
    cells = z.cells
    if b is None:
        if not cells.free_classes:
            raise NoSuchSimplex(
                f"every 1-simplex of {P.name} is inflating up to reversal"
            )
        i = cells.free_classes[0][0]  # the smallest free id
    else:
        i = cells.id_of(b)
        if cells.inflating[i] or cells.inflating[cells.reverse[i]]:
            raise NoSuchSimplex(
                f"{b.encode()} is inflating in some orientation"
            )
    if g is None:
        g = next(h for h in G.elements if h != G.identity)
    if g not in G:
        raise MissingValue(f"{g!r} is not an element of {G.name}")
    if g == G.identity:
        raise TrivialGroup("the twisting element must be nontrivial")
    t = [G.unit] * len(z.ids)
    t[i] = G.inverses[G.index[g]]
    u = Cochain1._of(P, G, _twist(G, ((i, cells.reverse[i]),), z.ids, t))
    # The witness has vertices (start, support, end) and boundary 1 b.
    e, s = cells.legs[i]
    cells2 = complex_of(P)[2]
    c = cells2.at[cells.support[i], cells.reverse[e], i, s]
    return u, cells2.simplices[c]


# -- central structure -----------------------------------------------------


def central_decompose(u: Cochain1):
    """Split a central connection as (z, chi): z the induced cocycle and
    chi the central cochain with u = z chi pointwise."""
    z = induced_cocycle(u)
    G = u.group
    rows, inv = G.rows, G.inverses
    chi = tuple(rows[inv[a]][b] for a, b in zip(z.ids, u.ids))
    center = {G.index[g] for g in G.center()}
    for i, g in enumerate(chi):
        if g not in center:
            raise NotCentral(f"component {G.elements[g]!r} at "
                             f"{u.cells.encode(i)} is not central")
    return z, Cochain1._of(u.poset, G, chi)


def central_part(u: Cochain1) -> Cochain1:
    """The central cochain chi with u = z chi pointwise, z the induced
    cocycle."""
    return central_decompose(u)[1]


def is_central(u: Cochain1) -> bool:
    try:
        central_decompose(u)
    except NotCentral:
        return False
    return True


def star_compose(u: Cochain1, u1: Cochain1) -> Cochain1:
    """(u * u1)(b) = u(b) z(b)^-1 u1(b) = u(b) chi1(b): the abelian
    composition of central connections on a common bundle z.  chi1 is
    central and trivial on inflating simplices, so the result, like that
    of `star_inverse`, inverts and equals z there: a connection on z."""
    _same_base(u, u1.poset, u1.group)
    z, _ = central_decompose(u)
    z1, chi1 = central_decompose(u1)
    if z1 != z:
        raise MixedCocycles("connections live on different bundles")
    rows = u.group.rows
    return Cochain1._of(u.poset, u.group, tuple(
        rows[a][c] for a, c in zip(u.ids, chi1.ids)))


def star_inverse(u: Cochain1) -> Cochain1:
    """The inverse for star composition: b -> z(b) chi(b)^-1."""
    z, chi = central_decompose(u)
    rows, inv = u.group.rows, u.group.inverses
    return Cochain1._of(u.poset, u.group, tuple(
        rows[a][inv[c]] for a, c in zip(z.ids, chi.ids)))


# -- holonomy --------------------------------------------------------------


def holonomy_generators(u: Cochain1, a0: str):
    """The value of u on the based loop through each 1-simplex b (tree path
    to the start of b, b, tree path to its end backwards), in id order.  A
    connection inverts under reversal, so with T the tree transport this
    is T(end)^-1 u(b) T(start)."""
    _require_connection(u)
    G = u.group
    t = [G.inverses[g] for g in _transport(u, a0)]
    return tuple(map(G.elements.__getitem__, _act(G, u.cells.faces, u.ids, t)))


def holonomy(u: Cochain1, a0: str):
    """The holonomy subgroup at a0, as a tuple of elements."""
    return u.group.subgroup_generated(holonomy_generators(u, a0))


def restricted_holonomy(u: Cochain1, a0: str):
    """The normal closure, inside the holonomy group, of curvature values
    carried back to the base point along the spanning tree: the value
    (du)(c) is a loop at the last vertex v of c, carried as
    T(v)^-1 (du)(c) T(v) with T the tree transport."""
    ambient = holonomy(u, a0)
    G, t, ends = u.group, _transport(u, a0), u.cells.faces
    rows, inv = G.rows, G.inverses
    last = (t[ends[b0][0]] for b0, _, _ in complex_of(u.poset)[2].faces)
    gens = {G.elements[rows[rows[inv[tv]][w]][tv]]
            for w, tv in zip(coboundary1(u).ids, last)}
    return G.normal_closure_in(ambient, gens)


def enumerate_loops(P: Poset, a0: str, max_len: int):
    """All loops at a0 of length <= max_len (breadth-first, deterministic);
    `UnknownElement` if a0 is not an element of P."""
    from .paths import Path
    P.check_element(a0)
    step_from = {}
    for b in enumerate_simplices(P, 1):
        step_from.setdefault(b.face1.element, []).append(b)
    loops = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for steps in frontier:
            at = steps[-1].face0.element if steps else a0
            for b in step_from.get(at, []):
                extended = steps + (b,)
                nxt.append(extended)
                if b.face0.element == a0:
                    loops.append(Path._of(extended))
        frontier = nxt
    return tuple(loops)


def holonomy_by_loops(u: Cochain1, a0: str, max_len: int):
    """Oracle: the subgroup generated by values of all loops up to a
    length bound."""
    values = {extend_to_path(u, p) for p in enumerate_loops(u.poset, a0, max_len)}
    return u.group.subgroup_generated(sorted(values))


def ambrose_singer_reduce(u: Cochain1, a0: str):
    """Gauge the connection into its holonomy group.

    Returns (u1, f, H): u1 is a connection with values in the holonomy
    group H at a0, namely u1(b) = u(reversed tree path * b * tree path),
    and f with f(a) = u(tree path to a) is a morphism from u1 (viewed in
    the ambient group) to u: u1(b) = T(end)^-1 u(b) T(start), with T
    the tree transport, is u gauged by T^-1, and f = T is that gauge.
    """
    P, G = u.poset, u.group
    loops = holonomy_generators(u, a0)
    f = tree_transport(u, a0)
    H = G.subgroup(G.subgroup_generated(loops),
                   name=f"hol({u.poset.name},{a0})")
    included = Cochain1._of(P, G, tuple(map(G.index.__getitem__, loops)))
    u1 = Cochain1._of(P, H, tuple(map(H.index.__getitem__, loops)))
    return u1, Morphism1(included, u, tuple(sorted(f.items()))), H


def holonomy_conjugacy_check(u: Cochain1, a0: str, a1: str):
    """A group element conjugating the holonomy at a0 onto the holonomy
    at a1, obtained by transporting along the spanning tree."""
    h0, h1 = holonomy(u, a0), holonomy(u, a1)
    g = tree_transport(u, a0)[a1]
    if u.group.conjugate_subset(h0, g) != h1:
        raise Mismatch(
            "transport along the tree failed to conjugate the holonomy"
        )
    return g


# -- enumeration -----------------------------------------------------------


def enumerate_connections(P: Poset, G: FiniteGroup, z: Cochain1 = None,
                          limit=10 ** 6):
    """All connections with values in G, optionally only those on the
    bundle z.

    A connection agrees with its induced cocycle on inflating
    1-simplices, and that cocycle is unique, so the connections on a
    bundle are the bundle with a free value g (and g^-1 on the reverse)
    on each reversal class without an inflating member.  Bundles come
    in `enumerate_cocycles` order, twists in `itertools.product` order;
    the limit bounds bundles x twists.
    """
    if z is not None:
        _same_base(z, P, G)
        if not is_cocycle(z):
            raise PreconditionViolated(
                "the base of a connection must be a 1-cocycle")
    bundles = (z,) if z is not None else enumerate_cocycles(P, G, limit)
    free = complex_of(P)[1].free_classes
    check_limit(len(bundles) * len(G) ** len(free), limit,
                f"{len(bundles)} bundles x {len(G)}^{len(free)} twists")
    out = []
    for bundle in bundles:
        for choice in itertools.product(range(len(G)), repeat=len(free)):
            values = list(bundle.ids)
            for (i, j), g in zip(free, choice):
                values[i], values[j] = g, G.inverses[g]
            out.append(Cochain1._of(P, G, tuple(values)))
    return tuple(out)
