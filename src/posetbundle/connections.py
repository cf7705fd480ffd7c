"""Connections on principal bundles over a poset.

A connection is a 1-cochain that inverts under edge reversal and is
flat on inflating 2-simplices.  Its curvature is the coboundary, its
induced 1-cocycle is the underlying bundle, and its holonomy is the
subgroup generated by values on based loops.
"""

from __future__ import annotations

import itertools

from .cochains import (
    Cochain1,
    Cochain2,
    Morphism1,
    coboundary1,
    enumerate_cocycles,
    extend_to_path,
    identity_failures,
    is_cocycle,
    is_morphism,
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
    SearchLimitExceeded,
    TrivialGroup,
    WrongCocycle,
)
from .groups import FiniteGroup
from .paths import Path, based_loops
from .poset import Poset
from .simplicial import (
    Simplex0,
    Simplex1,
    enumerate_simplices,
    enumerated,
    is_inflating,
    noninflating_classes,
    pinches,
    reversal_classes,
    reverse,
)


def connection_violations(u: Cochain1):
    """Where the connection axioms fail: the members of reversal classes
    whose values are not mutually inverse, and inflating 2-simplices that
    are not flat."""
    P, G = u.poset, u.group
    bad_edges = []
    for rep, rev in reversal_classes(P):
        if u(rev) != G.inv(u(rep)):
            bad_edges.extend((rep,) if rep == rev else (rep, rev))
    bad_triangles = identity_failures(
        u, enumerate_simplices(P, 2, inflating_only=True)
    )
    return tuple(bad_edges), tuple(bad_triangles)


def is_connection(u: Cochain1) -> bool:
    bad_edges, bad_triangles = connection_violations(u)
    return not bad_edges and not bad_triangles


def _require_connection(u: Cochain1):
    if not is_connection(u):
        raise NotAConnection("the given 1-cochain is not a connection")


def curvature(u: Cochain1) -> Cochain2:
    """The coboundary of a connection; identity exactly on the flat part."""
    _require_connection(u)
    return coboundary1(u)


def is_flat(u: Cochain1) -> bool:
    w = curvature(u)
    e = u.group.identity
    return all(g == e for g in w.values.values())


def transport_between(u: Cochain1, o: str, a1: str, a: str):
    """The parallel transport u(o; o, a1)^-1 u(o; o, a) between two
    points below a common upper bound o."""
    G = u.group
    top = Simplex0(o)
    return G.mul(
        G.inv(u(Simplex1(o, top, Simplex0(a1)))),
        u(Simplex1(o, top, Simplex0(a))),
    )


def induced_cocycle(u: Cochain1) -> Cochain1:
    """The underlying 1-cocycle of a connection.

    Both endpoints of a 1-simplex sit below its support, so
    z(b) = u(top <- end)^-1 u(top <- start) is defined from inflating
    values only; it agrees with u on inflating simplices.  On the pinch
    simplex c of b, whose boundaries 0 and 2 run from top to the end
    and from the start to top, this is z(b) = u(boundary 0) u(boundary 2),
    as u inverts under reversal: the value that would make u flat on c.
    """
    _require_connection(u)
    P, G = u.poset, u.group
    values = {
        b: G.mul(u(c.face0), u(c.face2)) for b, c in pinches(P).items()
    }
    z = Cochain1(P, G, values)
    if not is_cocycle(z):  # pragma: no cover - guards a library invariant
        raise WrongCocycle("induced cochain failed the cocycle identity")
    return z


def is_adapted(u: Cochain1, z: Cochain1) -> bool:
    """Whether the connection u lives on the bundle z: they agree on
    inflating 1-simplices."""
    P = u.poset
    return all(
        u(b) == z(b)
        for b in enumerate_simplices(P, 1)
        if is_inflating(P, b)
    )


def construct_from_cochain(v: Cochain1, z: Cochain1) -> Cochain1:
    """The connection b -> v(reverse b)^-1 z(b) v(b) on the bundle z,
    where v is any 1-cochain equal to the identity on inflating
    simplices and their reverses."""
    if not is_cocycle(z):
        raise PreconditionViolated(
            "the base of a connection must be a 1-cocycle"
        )
    if v.poset != z.poset or v.group != z.group:
        raise Mismatch("cochain and cocycle live over different data")
    P, G = z.poset, z.group
    free = set(noninflating_classes(P))
    values = {}
    for rep, rev in reversal_classes(P):
        if (rep, rev) not in free and (
            v(rep) != G.identity or v(rev) != G.identity
        ):
            raise PreconditionViolated(
                "the twisting cochain must be trivial on inflating "
                "simplices and their reverses"
            )
        values[rep] = G.product(G.inv(v(rev)), z(rep), v(rep))
        values[rev] = G.product(G.inv(v(rep)), z(rev), v(rev))
    u = Cochain1(P, G, values)
    _require_connection(u)
    return u


def noninflating_pairs(P: Poset):
    """1-simplices that are non-inflating in both orientations
    (incomparable endpoints below a common upper bound), in
    `enumerate_simplices` order."""
    members = {b for pair in noninflating_classes(P) for b in pair}
    return tuple(b for b in enumerate_simplices(P, 1) if b in members)


def construct_nonflat(z: Cochain1, b: Simplex1 = None, g=None):
    """A nonflat connection on the bundle z, with a witness 2-simplex.

    Twists z by g on a 1-simplex that is non-inflating in both
    orientations; such a simplex exists exactly when the poset is not
    totally ordered, and a nontrivial g makes the curvature miss the
    identity on the witness.
    """
    if not is_cocycle(z):
        raise WrongCocycle("nonflat construction starts from a 1-cocycle")
    P, G = z.poset, z.group
    if G.is_trivial():
        raise TrivialGroup("no nonflat connection with trivial coefficients")
    candidates = noninflating_pairs(P)
    if b is None:
        if not candidates:
            raise NoSuchSimplex(
                f"every 1-simplex of {P.name} is inflating up to reversal"
            )
        b = candidates[0]
    else:
        b = enumerated(P, b)
        if b not in candidates:
            raise NoSuchSimplex(
                f"{b.encode()} is inflating in some orientation"
            )
    if g is None:
        g = next(h for h in G.elements if h != G.identity)
    if g not in G:
        raise MissingValue(f"{g!r} is not an element of {G.name}")
    if g == G.identity:
        raise TrivialGroup("the twisting element must be nontrivial")
    twist = {d: G.identity for d in enumerate_simplices(P, 1)}
    twist[b] = G.inv(z(b))
    twist[reverse(b)] = G.mul(g, G.inv(z(b)))
    u = construct_from_cochain(Cochain1(P, G, twist), z)
    c = pinches(P)[b]
    witness = c if curvature(u)(c) != G.identity else None
    return u, witness


# -- central structure -----------------------------------------------------


def central_decompose(u: Cochain1):
    """Split a central connection as (z, chi): z the induced cocycle and
    chi the central cochain with u = z chi pointwise."""
    z = induced_cocycle(u)
    G = u.group
    center = set(G.center())
    chi = {}
    for b in enumerate_simplices(u.poset, 1):
        chi[b] = g = G.mul(G.inv(z(b)), u(b))
        if g not in center:
            raise NotCentral(
                f"component {g!r} at {b.encode()} is not central"
            )
    return z, Cochain1(u.poset, G, chi)


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
    composition of central connections on a common bundle z."""
    if u.poset != u1.poset or u.group != u1.group:
        raise Mismatch("connections live over different posets or groups")
    z, _ = central_decompose(u)
    z1, chi1 = central_decompose(u1)
    if z1 != z:
        raise MixedCocycles("connections live on different bundles")
    G = u.group
    values = {b: G.mul(u(b), chi1(b)) for b in enumerate_simplices(u.poset, 1)}
    out = Cochain1(u.poset, G, values)
    _require_connection(out)
    return out


def star_inverse(u: Cochain1) -> Cochain1:
    """The inverse for star composition: b -> z(b) chi(b)^-1."""
    z, chi = central_decompose(u)
    G = u.group
    values = {
        b: G.mul(z(b), G.inv(chi(b)))
        for b in enumerate_simplices(u.poset, 1)
    }
    out = Cochain1(u.poset, G, values)
    _require_connection(out)
    return out


# -- holonomy --------------------------------------------------------------


def holonomy_generators(u: Cochain1, a0: str):
    _require_connection(u)
    return tuple(
        extend_to_path(u, loop) for _, loop, _ in based_loops(u.poset, a0)
    )


def holonomy(u: Cochain1, a0: str):
    """The holonomy subgroup at a0, as a tuple of elements."""
    return u.group.subgroup_generated(holonomy_generators(u, a0))


def restricted_holonomy(u: Cochain1, a0: str):
    """The normal closure, inside the holonomy group, of curvature values
    carried back to the base point along the spanning tree."""
    _require_connection(u)
    P, G = u.poset, u.group
    transport = tree_transport(u, a0)
    ambient = holonomy(u, a0)
    gens = []
    for c in enumerate_simplices(P, 2):
        loop_value = G.product(G.inv(u(c.face1)), u(c.face0), u(c.face2))
        carrier = transport[c.face2.face1.element]
        gens.append(G.product(G.inv(carrier), loop_value, carrier))
    return G.normal_closure_in(ambient, gens)


def enumerate_loops(P: Poset, a0: str, max_len: int):
    """All loops at a0 of length <= max_len (breadth-first, deterministic)."""
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
                    loops.append(Path(extended))
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
    the ambient group) to u.
    """
    _require_connection(u)
    P, G = u.poset, u.group
    f = tree_transport(u, a0)
    H = G.subgroup(holonomy(u, a0), name=f"hol({u.poset.name},{a0})")
    values = {
        b: G.product(G.inv(f[b.face0.element]), u(b), f[b.face1.element])
        for b in enumerate_simplices(P, 1)
    }
    for b, g in values.items():
        if g not in H:  # pragma: no cover - guards a library invariant
            raise NotAConnection(
                f"reduced value {g!r} at {b.encode()} left the holonomy group"
            )
    u1 = Cochain1(P, H, values)
    _require_connection(u1)
    included = Cochain1(P, G, values)
    morphism = Morphism1(included, u, tuple(sorted(f.items())))
    if not is_morphism(f, included, u):  # pragma: no cover - invariant
        raise NotAConnection("reduction did not produce a morphism")
    return u1, morphism, H


def holonomy_conjugacy_check(u: Cochain1, a0: str, a1: str):
    """A group element conjugating the holonomy at a0 onto the holonomy
    at a1, obtained by transporting along the spanning tree."""
    _require_connection(u)
    G = u.group
    g = tree_transport(u, a0)[a1]
    h0 = holonomy(u, a0)
    h1 = holonomy(u, a1)
    if G.conjugate_subset(h0, g) != h1:
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
    if z is not None and not is_cocycle(z):
        raise PreconditionViolated(
            "the base of a connection must be a 1-cocycle"
        )
    bundles = (z,) if z is not None else enumerate_cocycles(P, G, limit)
    free = noninflating_classes(P)
    if len(bundles) * len(G) ** len(free) > limit:
        raise SearchLimitExceeded(
            f"{len(bundles)} bundles x {len(G)}^{len(free)} twists exceed "
            f"the limit {limit}"
        )
    out = []
    for bundle in bundles:
        for choice in itertools.product(G.elements, repeat=len(free)):
            values = dict(bundle.values)
            for (rep, rev), g in zip(free, choice):
                values[rep] = g
                values[rev] = G.inv(g)
            out.append(Cochain1(P, G, values))
    return tuple(out)
