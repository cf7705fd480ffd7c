"""Brute-force oracles that only the tests use: each rebuilds a result
of the library from its definition, independently of the fast tables;
and the argparse parser that `cli.parse` replaced."""

import argparse
import contextlib
import io
import itertools

from posetbundle.cli import COMMANDS
from posetbundle.cochains import (Cochain1, _act, _path_value,
                                  cocycle_from_hom, is_cocycle)
from posetbundle.connections import construct_from_cochain
from posetbundle.errors import UsageError, check_limit
from posetbundle.gauge import GaugeTransformation, gauge_act
from posetbundle.groups import FiniteGroup
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


def separated_by_edge_words(p, q, P: Poset):
    """Oracle for the "no" of `paths.homotopic`: on the component of P
    that p and q run in, their words in the raw edge-path presentation
    of `pi1_presentation` (one generator per non-tree reversal class, one
    relator per 2-simplex) differ modulo its relator lattice."""
    a0, component = p.start.element, {p.start.element}
    while grown := {y for x in component for y in P.elements
                    if P.comparable(x, y)} - component:
        component |= grown
    Q = build_poset([x for x in P.elements if x in component],
                    [pair for pair in P.pairs() if pair[0] in component],
                    name=P.name)
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
