"""Brute-force oracles that only the tests use: each rebuilds a result
of the library from its definition, independently of the fast tables;
the categories 2G and 3G in which the source paper takes the values of
2- and 3-cochains; and the argparse parser that `cli.parse` replaced."""

import argparse
import contextlib
import io
import itertools

from posetbundle.cli import COMMANDS
from posetbundle.cochains import (Cochain1, _act, _path_value,
                                  cocycle_from_hom, is_cocycle)
from posetbundle.connections import construct_from_cochain
from posetbundle.errors import (Mismatch, PosetBundleError, UsageError,
                                check_limit)
from posetbundle.frozen import Frozen
from posetbundle.gauge import GaugeTransformation, gauge_act
from posetbundle.groups import FiniteGroup, InnerAut
from posetbundle.paths import (enumerate_homs, invert_word, parse_path_text,
                               pi1_presentation)
from posetbundle.poset import Poset, base_point, build_poset
from posetbundle.simplicial import (_SIMPLEX_CLASSES, _check_dimension,
                                    complex_of, enumerate_simplices)


def enumerate_simplices_raw(P: Poset, n: int):
    """Brute-force oracle for `enumerate_simplices`.

    Runs over the monotone maps from the nonempty subsets of {0..n} into
    P, which are exactly the singular n-simplices, builds each simplex
    from scratch and sorts by sort key.
    """
    _check_dimension(n)
    subsets = [subset for size in range(1, n + 2)
               for subset in itertools.combinations(range(n + 1), size)]

    def build(values, indices):
        faces = [build(values, indices[:k] + indices[k + 1:])
                 for k in range(len(indices))] if len(indices) > 1 else []
        return _SIMPLEX_CLASSES[len(indices) - 1](values[indices], *faces)

    results = []

    def assign(pos, values):
        if pos == len(subsets):
            results.append(build(values, tuple(range(n + 1))))
            return
        subset = subsets[pos]
        if len(subset) == 1:
            candidates = P.elements
        else:
            lower = [values[subset[:k] + subset[k + 1:]]
                     for k in range(len(subset))]
            candidates = [
                x for x in P.elements if all(P.leq(lo, x) for lo in lower)
            ]
        for x in candidates:
            values[subset] = x
            assign(pos + 1, values)
        values.pop(subset, None)

    assign(0, {})
    results.sort(key=lambda d: d.sort_key())
    return tuple(results)


def enumerate_cocycles_raw(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """Brute-force oracle for `enumerate_cocycles`: filter every map on
    1-simplices."""
    simplices = enumerate_simplices(P, 1)
    check_limit(len(G) ** len(simplices), limit,
                f"{len(G)}^{len(simplices)} maps")
    out = []
    for assignment in itertools.product(G.elements, repeat=len(simplices)):
        z = Cochain1(P, G, dict(zip(simplices, assignment)))
        if is_cocycle(z):
            out.append(z)
    return tuple(out)


def gauge_group_product_scan(z: Cochain1, limit=10 ** 6):
    """Oracle for `gauge.gauge_group_raw`: every point assignment, a
    tuple of element ids in element order, in `itertools.product` order,
    kept if it fixes z, f(end) z(b) f(start)^-1 = z(b), on every
    1-simplex b."""
    P, G = z.poset, z.group
    check_limit(len(G) ** len(P), limit, f"{len(G)}^{len(P)} assignments")
    rows, inv = G.rows, G.inverses
    edges = tuple(zip(z.ids, z.cells.faces))

    def fixes(f):
        return all(rows[rows[f[end]][g]][inv[f[start]]] == g
                   for g, (end, start) in edges)

    name = G.elements.__getitem__
    return tuple(GaugeTransformation(z, tuple(zip(P.elements, map(name, f))))
                 for f in filter(fixes, itertools.product(range(len(G)),
                                                          repeat=len(P))))


def morphisms_full_act(v1: Cochain1, v: Cochain1):
    """Oracle for `cochains.morphisms`: each seed f(a0), in group element
    order, transported along the tree paths one `_path_value` per point,
    and kept if `_act` of it on every value of v1 gives v."""
    P, G = v.poset, v.group
    rows, inv = G.rows, G.inverses
    paths = complex_of(P).tree(base_point(P))
    t = [_path_value(v, steps) for steps in paths]
    t1 = [_path_value(v1, steps) for steps in paths]
    kept = []
    for seed in range(len(G)):
        f = [rows[rows[ta][seed]][inv[t1a]] for ta, t1a in zip(t, t1)]
        f[0] = seed
        if _act(G, v.cells.faces, v1.ids, f) == v.ids:
            kept.append(tuple(zip(P.elements, map(G.elements.__getitem__, f))))
    return kept


def neighbours_slicing_each_move(ranked, moves, bound):
    """Oracle for `paths._neighbours`, filled in the same order:
    expansions by position, then contractions by position, each in
    table order, every path sliced from `ranked` on its own."""
    expansions, contractions = moves
    out = set()
    for i, r in enumerate(ranked if len(ranked) < bound else ()):
        for pair in expansions.get(r, ()):
            out.add(ranked[:i] + pair + ranked[i + 1:])
    for i in range(len(ranked) - 1):
        for single in contractions.get(ranked[i:i + 2], ()):
            out.add(ranked[:i] + single + ranked[i + 2:])
    return out


def component_posets(P: Poset):
    """The components of P, grown by comparability, each as the poset
    it spans, in the order of their first elements."""
    out, left = [], list(P.elements)
    while left:
        component = {left[0]}
        while grown := {y for x in component for y in P.elements
                        if P.comparable(x, y)} - component:
            component |= grown
        out.append(build_poset([x for x in P.elements if x in component],
                               [pair for pair in P.pairs()
                                if pair[0] in component], name=P.name))
        left = [x for x in left if x not in component]
    return out


def separated_by_edge_words(p, q, P: Poset):
    """Oracle for the "no" of `paths.homotopic`: on the component of P
    that p and q run in, their words in the raw edge-path presentation
    of `pi1_presentation` (one generator per non-tree reversal class, one
    relator per 2-simplex) differ modulo its relator lattice."""
    a0 = p.start.element
    Q = next(Q for Q in component_posets(P) if a0 in Q)
    presentation, words = pi1_presentation(Q, a0)
    w1, w2 = (words.path_word(parse_path_text(r.encode(), Q)) for r in (p, q))
    return (presentation.exponents(w1 + invert_word(w2))
            not in presentation.lattice)


def random_cocycle_raw(P: Poset, G: FiniteGroup, rng):
    """Oracle for `acceptance.random_cocycle`: a homomorphism drawn from
    the named list of `enumerate_homs`, a point assignment drawn as an
    element -> group element dict, and the cocycle of the homomorphism,
    `cocycle_from_hom`, moved by the assignment with `gauge_act`."""
    a0 = base_point(P)
    presentation, _ = pi1_presentation(P, a0)
    sigma = rng.choice(enumerate_homs(presentation, G))
    f = {a: rng.choice(G.elements) for a in P.elements}
    f[a0] = G.identity
    return gauge_act(f, cocycle_from_hom(P, G, sigma))


def random_connection_raw(P: Poset, G: FiniteGroup, rng):
    """Oracle for `acceptance.random_connection`: a twist drawn by
    element name on each 1-simplex of a free reversal class, in id
    order, of a `random_cocycle_raw` bundle."""
    z = random_cocycle_raw(P, G, rng)
    cells = complex_of(P)[1]
    twist = [G.unit] * len(cells.faces)
    for i in sorted(i for pair in cells.free_classes for i in pair):
        twist[i] = G.index[rng.choice(G.elements)]
    return construct_from_cochain(Cochain1._of(P, G, tuple(twist)), z)


def named_word_value(word, assignment, G: FiniteGroup):
    """Brute-force oracle for `paths._word`: the value of a word of
    signed generator indices, multiplied letter by letter through the
    group's named `mul` and `inv`."""
    value = G.identity
    for idx, sign in word:
        g = assignment[idx] if sign > 0 else G.inv(assignment[idx])
        value = G.mul(value, g)
    return value


# -- the categories 2G and 3G ------------------------------------------------
#
# In the source paper a 2-cochain takes values in the 2-category 2G and a
# 3-cochain in 3G.  The library stores element ids and `tau_ids` and
# computes on the group tables instead; the composition laws below are
# the oracle that `coboundary1`, `coboundary2` and the `Cochain2`
# intertwining check are compared with.


class DiamondUndefined(PosetBundleError):
    pass


class DotUndefined(PosetBundleError):
    pass


def ad(G: FiniteGroup, g) -> InnerAut:
    return InnerAut(G, g)


def identity_aut(G: FiniteGroup) -> InnerAut:
    return InnerAut(G, G.identity)


class Arrow2G(Frozen):
    g: str
    tau: InnerAut


class Arrow3G(Frozen):
    g: str  # must be central
    tau: InnerAut
    gamma: InnerAut

    def __init__(self, g, tau, gamma):
        if g not in tau.group.center():
            raise Mismatch(f"{g!r} is not central")
        self.__dict__.update(g=g, tau=tau, gamma=gamma)


def compose_2g(x: Arrow2G, y: Arrow2G, law: str) -> Arrow2G:
    """The two composition laws of 2G.

    times: (g, tau) x (h, gamma) = (g tau(h), tau gamma), always defined.
    diamond: (g, tau) <> (h, gamma) = (g h, gamma), defined when
    ad(h) gamma = tau.
    """
    G = x.tau.group
    if law == "times":
        return Arrow2G(G.mul(x.g, x.tau(y.g)), x.tau.compose(y.tau))
    if law == "diamond":
        if ad(G, y.g).compose(y.tau) != x.tau:
            raise DiamondUndefined("side condition ad(h) gamma = tau fails")
        return Arrow2G(G.mul(x.g, y.g), y.tau)
    raise Mismatch(f"unknown 2G law {law!r}")


def compose_3g(x: Arrow3G, y: Arrow3G, law: str) -> Arrow3G:
    """The three composition laws of 3G (times < diamond < dot)."""
    G = x.tau.group
    gg = G.mul(x.g, y.g)
    if law == "times":
        gamma = x.gamma.compose(x.tau).compose(y.gamma).compose(x.tau.inverse())
        return Arrow3G(gg, x.tau.compose(y.tau), gamma)
    if law == "diamond":
        if x.tau != y.gamma.compose(y.tau):
            raise DiamondUndefined("side condition tau = gamma' tau' fails")
        return Arrow3G(gg, y.tau, x.gamma.compose(y.gamma))
    if law == "dot":
        if x.tau != y.tau or x.gamma != y.gamma:
            raise DotUndefined("dot requires equal tau and gamma components")
        return Arrow3G(gg, x.tau, x.gamma)
    raise Mismatch(f"unknown 3G law {law!r}")


def unit_2g(G: FiniteGroup) -> Arrow2G:
    return Arrow2G(G.identity, identity_aut(G))


def one_arrows_2g(G: FiniteGroup):
    """The 1-arrows of 2G: pairs (e, tau), one per inner automorphism,
    carried by its first representative in element order."""
    auts = dict.fromkeys(ad(G, g) for g in G.elements)
    return tuple(Arrow2G(G.identity, tau) for tau in auts)


def coboundary1_2g(u: Cochain1, c):
    """(du)(c) in 2G: (A(u(b0)) x A(u(b2))) <> (u(b1)^-1, ad u(b1)) with
    A(g) = (g, id) and b0, b1, b2 the faces of the 2-simplex c."""
    G, id_aut = u.group, identity_aut(u.group)
    front = compose_2g(Arrow2G(u(c.face0), id_aut),
                       Arrow2G(u(c.face2), id_aut), "times")
    g1 = u(c.face1)
    return compose_2g(front, Arrow2G(G.inv(g1), ad(G, g1)), "diamond")


def degree2_sides_2g(w, tau, d):
    """The two sides of the degree-2 identity of the 2-cochain w at the
    3-simplex d, in 2G, with `tau` the automorphism component of w:
    (W(f0) x 1_tau(e01)) <> W(f2) and (1_tau(e23) x W(f3)) <> W(f1),
    where W(c) = (w(c), tau(b1 c)), 1_t = (e, t), f0..f3 are the faces
    of d, e01 = f3.face2 and e23 = f0.face0."""
    G = w.group
    f0, f1, f2, f3 = d.faces

    def W(c):
        return Arrow2G(w(c), tau[c.face1])

    def one(b):
        return Arrow2G(G.identity, tau[b])

    left = compose_2g(compose_2g(W(f0), one(f3.face2), "times"), W(f2),
                      "diamond")
    right = compose_2g(compose_2g(one(f0.face0), W(f3), "times"), W(f1),
                       "diamond")
    return left, right


def is_2_arrow(g, tau, c) -> bool:
    """Whether (g, tau(b1)) is a 2-arrow tau(b1) -> tau(b0) tau(b2) for
    the faces b0, b1, b2 of the 2-simplex c: whether its diamond after
    1_tau(b0) x 1_tau(b2) is defined."""
    G = tau[c.face1].group
    ends = compose_2g(Arrow2G(G.identity, tau[c.face0]),
                      Arrow2G(G.identity, tau[c.face2]), "times")
    try:
        compose_2g(ends, Arrow2G(g, tau[c.face1]), "diamond")
    except DiamondUndefined:
        return False
    return True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posetbundle",
        description="Non-Abelian cohomology of finite posets: simplices, "
        "cocycles, connections, holonomy and gauge transformations.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, specs, help_ in COMMANDS:
        p = sub.add_parser(name, **({"help": help_} if help_ else {}))
        loads = []
        for flags, load, kwargs in specs:
            action = p.add_argument(*flags, **kwargs)
            if load:
                loads.append((action.dest, load))
        p.set_defaults(fn=fn, loads=loads)
    return parser


def argparse_outcome(parser, argv):
    """What the reference parser makes of `argv`: the parsed arguments
    as a dict (without the `fn` and `loads` it adds), or the exit code.
    The table's `_nonnegative_int` raises `UsageError` where it raised
    `argparse.ArgumentTypeError` in the argparse CLI, whose exit code
    was 2."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code
    except UsageError:
        return 2
    del args["fn"], args["loads"]
    return args
