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
    extend_to_path,
    identity_failures,
    is_cocycle,
    is_morphism,
    tree_transport,
)
from .errors import (
    Mismatch,
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
    Simplex2,
    enumerate_simplices,
    is_inflating,
    reversal_classes,
    reverse,
)


def connection_violations(u: Cochain1):
    """Where the connection axioms fail: reversal pairs whose values are
    not mutually inverse, and inflating 2-simplices that are not flat."""
    P, G = u.poset, u.group
    bad_edges = []
    for b in enumerate_simplices(P, 1):
        if u(reverse(b)) != G.inv(u(b)):
            bad_edges.append(b)
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
    values only; it agrees with u on inflating simplices.
    """
    _require_connection(u)
    P, G = u.poset, u.group
    values = {
        b: transport_between(u, b.support, b.face0.element, b.face1.element)
        for b in enumerate_simplices(P, 1)
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
    for b in enumerate_simplices(P, 1):
        if is_inflating(P, b) and (
            v(b) != G.identity or v(reverse(b)) != G.identity
        ):
            raise PreconditionViolated(
                "the twisting cochain must be trivial on inflating "
                "simplices and their reverses"
            )
    values = {
        b: G.product(G.inv(v(reverse(b))), z(b), v(b))
        for b in enumerate_simplices(P, 1)
    }
    u = Cochain1(P, G, values)
    _require_connection(u)
    return u


def noninflating_pairs(P: Poset):
    """1-simplices that are non-inflating in both orientations
    (incomparable endpoints below a common upper bound)."""
    return tuple(
        b
        for b in enumerate_simplices(P, 1)
        if not is_inflating(P, b) and not is_inflating(P, reverse(b))
    )


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
    if b is None:
        candidates = noninflating_pairs(P)
        if not candidates:
            raise NoSuchSimplex(
                f"every 1-simplex of {P.name} is inflating up to reversal"
            )
        b = candidates[0]
    elif is_inflating(P, b) or is_inflating(P, reverse(b)):
        raise NoSuchSimplex(
            f"{b.encode()} is inflating in some orientation"
        )
    if g is None:
        g = next(h for h in G.elements if h != G.identity)
    if g == G.identity:
        raise TrivialGroup("the twisting element must be nontrivial")
    twist = {d: G.identity for d in enumerate_simplices(P, 1)}
    twist[b] = G.inv(z(b))
    twist[reverse(b)] = G.mul(g, G.inv(z(b)))
    u = construct_from_cochain(Cochain1(P, G, twist), z)
    top = Simplex0(b.support)
    c = Simplex2(
        b.support,
        Simplex1(b.support, b.face0, top),
        b,
        Simplex1(b.support, top, b.face1),
    )
    witness = c if curvature(u)(c) != G.identity else None
    return u, witness


# -- central structure -----------------------------------------------------


def central_part(u: Cochain1) -> Cochain1:
    """The cochain chi with u = z chi pointwise, z the induced cocycle."""
    z = induced_cocycle(u)
    G = u.group
    return Cochain1(
        u.poset,
        G,
        {b: G.mul(G.inv(z(b)), u(b)) for b in enumerate_simplices(u.poset, 1)},
    )


def is_central(u: Cochain1) -> bool:
    chi = central_part(u)
    center = set(u.group.center())
    return all(g in center for g in chi.values.values())


def central_decompose(u: Cochain1):
    """Split a central connection as (induced cocycle, central cochain)."""
    z = induced_cocycle(u)
    chi = central_part(u)
    center = set(u.group.center())
    for b, g in chi.values.items():
        if g not in center:
            raise NotCentral(
                f"component {g!r} at {b.encode()} is not central"
            )
    return z, chi


def star_compose(u: Cochain1, u1: Cochain1) -> Cochain1:
    """(u * u1)(b) = u(b) z(b)^-1 u1(b): the abelian composition of
    central connections on a common bundle z."""
    if u.poset != u1.poset or u.group != u1.group:
        raise Mismatch("connections live over different posets or groups")
    for v in (u, u1):
        if not is_central(v):
            raise NotCentral("star composition needs central connections")
    z = induced_cocycle(u)
    if induced_cocycle(u1) != z:
        raise MixedCocycles("connections live on different bundles")
    G = u.group
    values = {
        b: G.product(u(b), G.inv(z(b)), u1(b))
        for b in enumerate_simplices(u.poset, 1)
    }
    out = Cochain1(u.poset, G, values)
    _require_connection(out)
    return out


def star_inverse(u: Cochain1) -> Cochain1:
    """The inverse for star composition: b -> z(b) chi(b)^-1."""
    if not is_central(u):
        raise NotCentral("star inversion needs a central connection")
    G = u.group
    z = induced_cocycle(u)
    chi = central_part(u)
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

    Values are chosen per reversal class (self-paired classes need an
    involution) and filtered by the connection axioms; with z given, the
    inflating classes are pinned to z first.
    """
    fixed = {}
    free = []
    for rep, other in reversal_classes(P):
        if z is not None and (is_inflating(P, rep) or is_inflating(P, other)):
            fixed[rep] = z(rep)
            fixed[other] = z(other)
        else:
            free.append((rep, other))
    if len(G) ** len(free) > limit:
        raise SearchLimitExceeded(
            f"{len(G)}^{len(free)} candidate connections exceed the "
            f"limit {limit}"
        )
    out = []
    for choice in itertools.product(G.elements, repeat=len(free)):
        values = dict(fixed)
        ok = True
        for (rep, other), g in zip(free, choice):
            if rep == other and g != G.inv(g):
                ok = False
                break
            values[rep] = g
            values[other] = G.inv(g)
        if not ok:
            continue
        u = Cochain1(P, G, values)
        if is_connection(u) and (z is None or is_adapted(u, z)):
            out.append(u)
    return tuple(out)
