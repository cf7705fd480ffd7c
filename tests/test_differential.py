"""Differential tests of the tree-transport helpers, the cochain
identity, the constructed cocycle classes and connections, the indexed
deformation search from both ends, the memoised path values of a
cochain family, the text of simplices read from the id tables, the
presentation and holonomy on simplex ids, the id kernels of cochains
and connections, the restricted holonomy from the curvature
and the nonflat twist, the reduced relators, the
relator lattice, the word evaluator and the hom class representatives
against brute force or the
filters, scans and object-keyed formulas they replace, on random posets
of at most four (five for the presentation and the cocycle count)
elements with values in Z2, Z3 and S3; and of subgroup closures against
the worklist and fixpoint they replace, over S3, S4, Z6 and the trivial
group; and of the CLI parser against the argparse parser it replaced, on
argv lists drawn from the command table; and of `cli.run` on such lists
with fixture files and any text among the tokens."""

import contextlib
import io
import itertools
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from posetbundle import cli
from posetbundle.acceptance import (_path_values, random_cocycle,
                                    random_connection)
from posetbundle.cochains import (
    Cochain0,
    Cochain1,
    Cochain2,
    Cochain3,
    _path_value,
    are_equivalent,
    associated_cocycle,
    classify_cocycles,
    coboundary0,
    coboundary1,
    coboundary2,
    enumerate_cocycles,
    extend_to_path,
    find_morphism,
    format_cochain_text,
    identity_failures,
    is_cocycle,
    is_morphism,
    is_path_independent,
    morphisms,
    random_cochain0,
    random_cochain1,
    tree_transport,
    trivial_cochain1,
)
from posetbundle.connections import (
    ambrose_singer_reduce,
    construct_from_cochain,
    construct_nonflat,
    curvature,
    enumerate_connections,
    enumerate_loops,
    holonomy,
    holonomy_generators,
    induced_cocycle,
    is_adapted,
    is_connection,
    restricted_holonomy,
    star_compose,
    star_inverse,
)
from posetbundle.errors import (NoSuchSimplex, NotConnected,
                                PreconditionViolated, SearchLimitExceeded,
                                UsageError)
from posetbundle.gauge import gauge_act, gauge_group, gauge_group_raw
from posetbundle.groups import (GroupHom, ad, cyclic_group, symmetric_group,
                                trivial_group)
from posetbundle.paths import (
    Path,
    Presentation,
    _abelianized_equal,
    _neighbours,
    _ranked,
    _word,
    compose,
    count_hom_classes,
    deformations,
    degenerate_loop,
    enumerate_homs,
    hom_class_representatives,
    homotopic,
    invert_word,
    pi1_presentation,
    reverse_path,
)
from posetbundle.poset import base_point, build_poset, is_pathwise_connected
from posetbundle.smith import RowLattice
from posetbundle.simplicial import (
    Simplex0,
    Simplex1,
    Simplex2,
    complex_of,
    degeneracy,
    enumerate_simplices,
    enumerated,
    is_inflating,
    reverse,
)

from inputs import (CONNECTION_KINDS, PATH_FILES, gathered_through_legs,
                    near_a_connection, write_fixtures)
from oracles import (argparse_outcome, build_parser, enumerate_cocycles_raw,
                     gauge_group_product_scan, morphisms_full_act,
                     named_word_value, neighbours_slicing_each_move,
                     random_cocycle_raw, random_connection_raw)
from strategies import small_posets

GROUPS = st.sampled_from(
    [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
)
SEEDS = st.randoms(use_true_random=False)


@pytest.mark.parametrize("max_size, pi1_rate", [(4, 30), (5, 20)])
def test_connected_draws_reach_nontrivial_pi1(max_size, pi1_rate):
    """On a fixed stream of draws, at least 1 in `pi1_rate` connected
    posets has a nontrivial fundamental group and 1 in 10 a free
    reversal class, so the rows below see both."""
    counts = [0, 0, 0]

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(small_posets(max_size=max_size, connected=True))
    def count(P):
        counts[0] += 1
        counts[1] += bool(pi1_presentation(P, base_point(P))[0]
                          .abelian_invariants())
        counts[2] += bool(complex_of(P)[1].free_classes)

    count()
    draws, pi1, free = counts
    assert pi1 * pi1_rate >= draws and free * 10 >= draws


def brute_force_morphism_exists(v1, v):
    P, G = v.poset, v.group
    return any(
        is_morphism(dict(zip(P.elements, choice)), v1, v)
        for choice in itertools.product(G.elements, repeat=len(P))
    )


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS, SEEDS, st.booleans())
def test_find_morphism_matches_brute_force(P, G, rng, related):
    """On arbitrary 1-cochains, not only cocycles."""
    v1 = random_cochain1(P, G, rng)
    if related:
        f = {a: rng.choice(G.elements) for a in P.elements}
        v = gauge_act(f, v1)
    else:
        v = random_cochain1(P, G, rng)
    found = find_morphism(v1, v)
    assert (found is not None) == brute_force_morphism_exists(v1, v)
    if related:
        assert found is not None
    if found is not None:
        assert is_morphism(found.as_dict(), v1, v)


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS, SEEDS)
def test_gauge_group_matches_raw(P, G, rng):
    z = random_cocycle(P, G, rng)
    assert gauge_group(z) == gauge_group_raw(z)


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS, SEEDS, st.booleans())
def test_gauge_group_raw_matches_the_product_scan(P, G, rng, cocycle):
    """The pruned scan against the plain one, tuple for tuple, on random
    cocycles and on plain 1-cochains, which the raw scan also takes."""
    z = random_cocycle(P, G, rng) if cocycle else random_cochain1(P, G, rng)
    assert gauge_group_raw(z) == gauge_group_product_scan(z)


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS, SEEDS,
       st.sampled_from(["related", "near", "unrelated"]))
def test_morphisms_match_the_full_act_filter(P, G, rng, kind):
    """The seeds `morphisms` keeps, each tested only up to its first
    failing 1-simplex, are those whose `_act` on all of v1 gives v: for v
    a gauge transform of v1, that transform with the value at one random
    1-simplex replaced, and an unrelated 1-cochain."""
    v1 = random_cochain1(P, G, rng)
    if kind == "unrelated":
        v = random_cochain1(P, G, rng)
    else:
        v = gauge_act({a: rng.choice(G.elements) for a in P.elements}, v1)
    if kind == "near":
        ids = list(v.ids)
        ids[rng.randrange(len(ids))] = rng.randrange(len(G))
        v = Cochain1._of(P, G, tuple(ids))
    assert list(morphisms(v1, v)) == morphisms_full_act(v1, v)


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS, st.integers(0, 2 ** 32),
       st.lists(st.booleans(), min_size=1, max_size=4))
def test_samplers_match_the_named_draws(P, G, seed, twisted_calls):
    """Each call of `random_cocycle` (False) or `random_connection`
    (True) in the drawn order gives the cochain of its oracle and leaves
    the rng in the oracle's state: the kept table and the id draws make
    the same random calls as the named ones."""
    rng, raw = random.Random(seed), random.Random(seed)
    for twisted in twisted_calls:
        sample, oracle = ((random_connection, random_connection_raw)
                          if twisted else (random_cocycle, random_cocycle_raw))
        assert sample(P, G, rng) == oracle(P, G, raw)
        assert rng.getstate() == raw.getstate()


@settings(max_examples=40, deadline=None)
@given(small_posets(), GROUPS, SEEDS, st.integers(1, 4))
def test_path_values_match_the_fold_of_each_cochain(P, G, rng, size):
    """One `acceptance._path_values` table, asked for many id tuples of
    length 0-6 twice over, gives each the `_path_value` of every 1-cochain
    of a random family (not only cocycles).  The tuples need not chain,
    so a step id recurs after different values, and the second round
    finds every step in the table."""
    family = [random_cochain1(P, G, rng) for _ in range(size)]
    n = len(complex_of(P)[1].faces)
    paths = [tuple(rng.randrange(n) for _ in range(rng.randint(0, 6)))
             for _ in range(30)]
    values = _path_values(family)
    for r in paths + paths:
        assert values(r) == tuple(_path_value(z, r) for z in family)


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), st.sampled_from([cyclic_group(2),
                                                      cyclic_group(3)]),
       SEEDS, st.integers(0, 2))
def test_path_independence_is_the_coboundary_scan(P, G, rng, kind):
    """`is_path_independent` gives a v with dv = u exactly when u is the
    coboundary of some point assignment, and None otherwise, on a random
    cochain (kind 0), a random coboundary (1), and a random coboundary
    with one value changed (2), which differs from a coboundary at one
    1-simplex only."""
    coboundaries = {coboundary0(Cochain0._of(P, G, ids)) for ids in
                    itertools.product(range(len(G)), repeat=len(P))}
    u = (random_cochain1(P, G, rng) if kind == 0
         else coboundary0(random_cochain0(P, G, rng)))
    if kind == 2:
        ids = list(u.ids)
        i = rng.randrange(len(ids))
        ids[i] = (ids[i] + rng.randrange(1, len(G))) % len(G)
        u = Cochain1._of(P, G, tuple(ids))
    v = is_path_independent(u)
    if u in coboundaries:
        assert v is not None and coboundary0(v) == u
    else:
        assert v is None


@settings(max_examples=25, deadline=None)
@given(small_posets(max_size=3, connected=True),
       st.sampled_from([cyclic_group(2), cyclic_group(3)]))
def test_enumerated_cocycles_match_the_filter(P, G):
    """`enumerate_cocycles`, through the homomorphism loop table, lists
    each cocycle that the filter over every map on 1-simplices finds,
    once, wherever the filter fits its limit (on about 3 in 4 draws;
    on 4 elements, fewer than 1 in 3); the filter lists them in product
    order."""
    try:
        raw = enumerate_cocycles_raw(P, G, limit=2 ** 14)
    except SearchLimitExceeded:
        return
    fast = enumerate_cocycles(P, G)
    assert sorted(z.ids for z in fast) == sorted(z.ids for z in raw)


def reordered(values):
    return dict(reversed(list(values.items())))


@settings(max_examples=25, deadline=None)
@given(small_posets(max_height=2), GROUPS, SEEDS)
def test_equal_cochains_hash_equal(P, G, rng):
    """Equal cochains built from dicts in different insertion orders, and
    on an equal poset Q rebuilt from P: each owns its complex, and the
    two agree on the tables, a seeded draw and its coboundaries."""
    v = random_cochain0(P, G, rng)
    u = random_cochain1(P, G, rng)
    w = coboundary1(u)
    x = coboundary2(w)
    pairs = [
        (v, Cochain0(P, G, reordered(v.values))),
        (u, Cochain1(P, G, reordered(u.values))),
        (w, Cochain2(P, G, reordered(w.tau), reordered(w.values))),
        (x, Cochain3(P, G, reordered(x.tau), reordered(x.values))),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == 4
    Q = build_poset(P.elements, P.pairs(), P.name)
    K, L = complex_of(P), complex_of(Q)
    assert Q == P and L is not K
    for n in range(3):
        assert (L[n].faces, L[n].support) == (K[n].faces, K[n].support)
    seed = rng.randrange(2 ** 32)
    uP, uQ = (random_cochain1(R, G, random.Random(seed)) for R in (P, Q))
    assert uP == uQ and hash(uP) == hash(uQ)
    assert coboundary1(uP) == coboundary1(uQ)
    assert coboundary2(coboundary1(uP)) == coboundary2(coboundary1(uQ))


# -- the presentation and holonomy on ids against the object-keyed ones ----


def reversal_classes(P):
    """Oracle: the classes {b, reverse(b)} of enumerated 1-simplices as
    (representative, reverse) pairs, the representative the member with
    the smaller sort key, in sort key order of the representatives."""
    return [(b, enumerated(P, reverse(b))) for b in enumerate_simplices(P, 1)
            if b.sort_key() <= reverse(b).sort_key()]


def object_pi1_presentation(P, a0):
    """Oracle: the presentation built on simplices as dictionary keys.
    Returns (generators, relators, edge words by 1-simplex, tree paths
    by element)."""
    classes = reversal_classes(P)
    component = {x: x for x in P.elements}

    def find(x):
        while component[x] != x:
            component[x] = component[component[x]]
            x = component[x]
        return x

    tree_edges = set()
    tree_adjacency = {x: [] for x in P.elements}
    for b, rb in classes:
        x, y = b.face1.element, b.face0.element
        if x == y:
            continue
        rx, ry = find(x), find(y)
        if rx != ry:
            component[rx] = ry
            tree_edges.add(b)
            tree_adjacency[x].append((y, b))
            tree_adjacency[y].append((x, rb))
    if any(find(x) != find(a0) for x in P.elements):
        raise NotConnected(f"{P.name} is not pathwise connected")
    tree_paths = {a0: Path((enumerated(P, degeneracy(Simplex0(a0), 0)),))}
    frontier = [a0]
    while frontier:
        nxt = []
        for x in frontier:
            for y, step in tree_adjacency[x]:
                if y in tree_paths:
                    continue
                if x == a0:
                    tree_paths[y] = Path((step,))
                else:
                    tree_paths[y] = compose(Path((step,)), tree_paths[x])
                nxt.append(y)
        frontier = nxt
    generators, edge_words = [], {}
    for rep, rev in classes:
        if rep in tree_edges or rep.face0 == rep.face1:
            edge_words[rep] = edge_words[rev] = ()
            continue
        edge_words[rep] = ((len(generators), 1),)
        edge_words[rev] = ((len(generators), -1),)
        generators.append(rep.encode())
    relators = []
    for c in enumerate_simplices(P, 2):
        word = (edge_words[c.face0] + edge_words[c.face2]
                + invert_word(edge_words[c.face1]))
        if word:
            relators.append(word)
    return tuple(generators), tuple(relators), edge_words, tree_paths


def object_based_loops(P, a0):
    """Oracle: (b, loop, word) for every 1-simplex b, the loop at a0
    along the tree to the start of b, across b and back along the tree
    from its end."""
    _, _, edge_words, tree_paths = object_pi1_presentation(P, a0)
    out = []
    for b in enumerate_simplices(P, 1):
        loop = compose(reverse_path(tree_paths[b.face0.element]),
                       compose(Path((b,)), tree_paths[b.face1.element]))
        word = tuple(w for step in loop.steps for w in edge_words[step])
        out.append((b, loop, word))
    return out


def some_connection(P, G, rng):
    """A random connection: a random twist of a random bundle, or of a
    random coboundary when the homomorphisms are too many to list."""
    generators = pi1_presentation(P, base_point(P))[0].generators
    if len(G) ** len(generators) <= 1296:
        return random_connection(P, G, rng)
    z = coboundary0(random_cochain0(P, G, rng))
    twist = {b: G.identity for b in enumerate_simplices(P, 1)}
    for b in enumerate_simplices(P, 1):
        if not is_inflating(P, b) and not is_inflating(P, reverse(b)):
            twist[b] = rng.choice(G.elements)
    return construct_from_cochain(Cochain1(P, G, twist), z)


def assert_presentation_matches_objects(P, G, rng):
    edges = enumerate_simplices(P, 1)
    for a0 in P.elements:
        presentation, words = pi1_presentation(P, a0)
        assert pi1_presentation(P, a0) is pi1_presentation(P, a0)
        generators, relators, edge_words, tree_paths = \
            object_pi1_presentation(P, a0)
        assert presentation.generators == generators
        assert presentation.relators == relators
        assert dict(zip(edges, words.edge_words)) == edge_words
        assert {a: words.tree_path(a) for a in P.elements} == tree_paths
        loops = object_based_loops(P, a0)
        assert all(word == edge_words[b] for b, _, word in loops)
        u = some_connection(P, G, rng)
        assert holonomy_generators(u, a0) == tuple(
            extend_to_path(u, loop) for _, loop, _ in loops)


@pytest.mark.parametrize("name", ["chain2", "chain3", "vee", "circle2",
                                  "twoloop"])
def test_fixture_presentations_match_objects(posets, groups, name):
    rng = random.Random(name)
    for G in groups.values():
        assert_presentation_matches_objects(posets[name], G, rng)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=5, connected=True), GROUPS, SEEDS)
def test_presentations_match_objects(P, G, rng):
    assert_presentation_matches_objects(P, G, rng)


# -- classes and connections by construction against the old filters ------

CANDIDATE_BOUND = 1296
COCYCLE_BOUND = 216


def filtered_classes(P, G):
    """Oracle: cocycles trivial on the spanning tree, filtered by the
    cocycle identity and deduplicated by morphism search; None above
    the candidate bound."""
    _, words = pi1_presentation(P, base_point(P))
    tree = {b for a in P.elements for b in words.tree_path(a).steps}
    fixed, free = {}, []
    for rep, rev in reversal_classes(P):
        if rep == rev or rep in tree or rev in tree:
            fixed[rep] = fixed[rev] = G.identity
        else:
            free.append((rep, rev))
    if len(G) ** len(free) > CANDIDATE_BOUND:
        return None
    representatives = []
    for choice in itertools.product(G.elements, repeat=len(free)):
        values = dict(fixed)
        for (rep, rev), g in zip(free, choice):
            values[rep], values[rev] = g, G.inv(g)
        z = Cochain1(P, G, values)
        if is_cocycle(z) and all(
            find_morphism(z, r) is None for r in representatives
        ):
            representatives.append(z)
    return representatives


def satisfies_connection_axioms(u):
    P, G = u.poset, u.group
    return all(
        u(reverse(b)) == G.inv(u(b)) for b in enumerate_simplices(P, 1)
    ) and all(
        G.mul(u(c.face0), u(c.face2)) == u(c.face1)
        for c in enumerate_simplices(P, 2) if is_inflating(P, c)
    )


def filtered_connections(P, G, z=None, bound=CANDIDATE_BOUND):
    """Oracle: one value per reversal class (pinned to z on classes with
    an inflating member when z is given), filtered by the connection
    axioms and agreement with z; None above `bound` candidates."""
    fixed, free = {}, []
    for rep, rev in reversal_classes(P):
        if z is not None and (is_inflating(P, rep) or is_inflating(P, rev)):
            fixed[rep], fixed[rev] = z(rep), z(rev)
        else:
            free.append((rep, rev))
    if len(G) ** len(free) > bound:
        return None
    out = []
    for choice in itertools.product(G.elements, repeat=len(free)):
        if any(rep == rev and g != G.inv(g)
               for (rep, rev), g in zip(free, choice)):
            continue
        values = dict(fixed)
        for (rep, rev), g in zip(free, choice):
            values[rep], values[rev] = g, G.inv(g)
        u = Cochain1(P, G, values)
        if satisfies_connection_axioms(u) and (
            z is None or is_adapted(u, z)
        ):
            out.append(u)
    return out


def product_filtered_homs(presentation, G):
    """Oracle: every generator assignment, filtered by the relators."""
    return tuple(
        a for a in itertools.product(
            G.elements, repeat=len(presentation.generators))
        if all(named_word_value(r, a, G) == G.identity
               for r in presentation.relators)
    )


@settings(max_examples=60, deadline=None)
@given(small_posets(connected=True), GROUPS)
def test_classify_cocycles_matches_filter(P, G):
    old = filtered_classes(P, G)
    if old is None:
        return
    reps = classify_cocycles(P, G)
    assert list(reps) == old
    assert len(reps) == count_hom_classes(
        pi1_presentation(P, base_point(P))[0], G
    )


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS)
def test_every_cocycle_has_exactly_one_representative(P, G):
    """The independent check of criterion 2, now that classes and hom
    classes are computed along one path."""
    a0 = base_point(P)
    homs = enumerate_homs(pi1_presentation(P, a0)[0], G)
    if len(homs) * len(G) ** (len(P) - 1) > COCYCLE_BOUND:
        return
    reps = classify_cocycles(P, G)
    for z in enumerate_cocycles(P, G):
        assert sum(1 for r in reps if are_equivalent(z, r)) == 1


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS)
def test_connections_on_a_bundle_match_filter(P, G):
    for z in classify_cocycles(P, G):
        old = filtered_connections(P, G, z)
        if old is not None:
            assert list(enumerate_connections(P, G, z)) == old


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=3, connected=True), GROUPS)
def test_all_connections_match_filter(P, G):
    old = filtered_connections(P, G)
    if old is None:
        return
    found = enumerate_connections(P, G)
    assert len(found) == len(set(found))
    assert set(found) == set(old)


@pytest.mark.parametrize("name, key, bound, count", [
    ("vee", "z2", CANDIDATE_BOUND, 8),
    ("vee", "z3", 3 ** 8, 27),
    ("circle2", "z2", 2 ** 14, 64),
])
def test_all_connections_match_filter_with_free_classes(posets, groups, name,
                                                        key, bound, count):
    """Posets with a free reversal class, so that connections differ from
    their bundles, which the connected draws on at most 3 elements never
    give; a row's bound is the filter's |G|^classes candidates."""
    P, G = posets[name], groups[key]
    assert complex_of(P)[1].free_classes
    old = filtered_connections(P, G, bound=bound)
    found = enumerate_connections(P, G)
    assert len(found) == len(set(found)) == len(old) == count
    assert set(found) == set(old)


def test_connections_need_a_cocycle(posets):
    P = posets["circle2"]
    non = Cochain1(P, cyclic_group(2), {
        b: "g1" for b in enumerate_simplices(P, 1)
    })
    assert not is_cocycle(non)
    with pytest.raises(PreconditionViolated):
        enumerate_connections(P, cyclic_group(2), non)


def test_all_connections_need_a_connected_poset():
    P = build_poset(["a", "b"], [], name="two-points")
    with pytest.raises(NotConnected):
        enumerate_connections(P, cyclic_group(2))


@pytest.mark.parametrize("name", ["circle2", "twoloop"])
def test_fixture_classes_and_fibres_match_filters(posets, groups, name):
    """Posets with several cocycle classes, which small random posets
    seldom are."""
    P = posets[name]
    presentation, _ = pi1_presentation(P, base_point(P))
    for G in groups.values():
        assert enumerate_homs(presentation, G) == product_filtered_homs(
            presentation, G
        )
        reps = classify_cocycles(P, G)
        old = filtered_classes(P, G)
        if old is not None:
            assert list(reps) == old
        for z in reps:
            old = filtered_connections(P, G, z)
            if old is not None:
                assert list(enumerate_connections(P, G, z)) == old


@settings(max_examples=40, deadline=None)
@given(small_posets(connected=True), GROUPS)
def test_enumerate_homs_matches_product_filter(P, G):
    presentation, _ = pi1_presentation(P, base_point(P))
    if len(G) ** len(presentation.generators) <= CANDIDATE_BOUND:
        assert enumerate_homs(presentation, G) == product_filtered_homs(
            presentation, G
        )


# Relators with cancelling letters, repeats and words that reduce to
# the empty word, with the relators `enumerate_homs` checks.
CANCELLING_PRESENTATIONS = (
    (Presentation(("a",), (((0, 1), (0, -1)),)), ()),
    (Presentation(("a", "b"), (
        ((0, 1), (1, 1), (1, -1), (0, 1)),
        ((0, 1), (0, 1)),
        ((1, 1), (0, 1), (0, -1), (1, -1)),
        ((0, 1), (0, 1)),
    )), (((0, 1), (0, 1)),)),
    (Presentation(("a", "b", "c"), (
        ((2, 1), (2, -1)),
        ((0, 1), (1, 1), (0, -1), (1, -1)),
        ((0, 1), (2, 1), (2, -1), (1, 1), (0, -1), (1, -1)),
        ((2, 1), (0, 1), (0, 1), (0, 1), (2, -1)),
        ((1, -1), (1, 1)),
    )), (
        ((0, 1), (1, 1), (0, -1), (1, -1)),
        ((2, 1), (0, 1), (0, 1), (0, 1), (2, -1)),
    )),
)


@pytest.mark.parametrize("presentation, checked", CANCELLING_PRESENTATIONS)
def test_enumerate_homs_checks_reduced_relators(presentation, checked):
    assert presentation.checked_relators == checked
    for G in (cyclic_group(2), cyclic_group(3), symmetric_group(3)):
        assert enumerate_homs(presentation, G) == product_filtered_homs(
            presentation, G)


@st.composite
def presentations(draw):
    """Up to three generators and six relators, each a random word of up
    to six letters, a few of them repeated."""
    n = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, max_size=6).map(tuple),
                          max_size=6))
    repeats = (draw(st.lists(st.sampled_from(words), max_size=3))
               if words else [])
    return Presentation(tuple("abc"[:n]), tuple(words + repeats))


@settings(max_examples=60, deadline=None)
@given(st.one_of(presentations(), small_posets(max_size=5, connected=True).map(
    lambda P: pi1_presentation(P, base_point(P))[0])), SEEDS)
def test_relator_lattice_matches_the_raw_exponent_matrix(presentation, rng):
    """The lattice is built from the distinct nonzero rows; a lattice of
    every raw row answers the same."""
    n = len(presentation.generators)
    raw = RowLattice(presentation.exponent_matrix(), n)
    assert presentation.abelian_invariants() == raw.invariant_factors()
    for _ in range(20):
        words = [tuple((rng.randrange(n), rng.choice((1, -1)))
                       for _ in range(rng.randrange(6) if n else 0))
                 for _ in range(2)]
        diff = [0] * n
        for word, side in zip(words, (1, -1)):
            for idx, sign in word:
                diff[idx] += side * sign
        assert _abelianized_equal(presentation, *words) == (diff in raw)
    if len(presentation.relators) < 20 and n <= 3:
        assert enumerate_homs(presentation, symmetric_group(3)) == (
            product_filtered_homs(presentation, symmetric_group(3)))


def named_class_representatives(presentation, G):
    """Oracle: the first homomorphism of each orbit, the orbits taken by
    conjugating generator values by name with `G.conjugate`."""
    representatives, seen = [], set()
    for sigma in enumerate_homs(presentation, G):
        if sigma not in seen:
            representatives.append(sigma)
            seen.update(tuple(G.conjugate(h, g) for g in sigma)
                        for h in G.elements)
    return tuple(representatives)


# Each row runs one kernel of the presentation layer and its reference
# on a random presentation, group and rng and returns both results.


def row_word(presentation, G, rng):
    sigma = tuple(rng.choice(G.elements) for _ in presentation.generators)
    x = tuple(G.index[g] for g in sigma)
    words = presentation.relators + tuple(map(invert_word,
                                              presentation.relators))
    return ([G.elements[_word(G, w, x)] for w in words],
            [named_word_value(w, sigma, G) for w in words])


def row_hom_class_representatives(presentation, G, rng):
    return (hom_class_representatives(presentation, G),
            named_class_representatives(presentation, G))


ROWS_ON_PRESENTATIONS = {
    "word": row_word,
    "hom_class_representatives": row_hom_class_representatives,
}


@pytest.mark.parametrize("name", sorted(ROWS_ON_PRESENTATIONS))
@settings(max_examples=40, deadline=None)
@given(presentation=presentations(), G=GROUPS, rng=SEEDS)
def test_presentation_kernel_matches_reference(name, presentation, G, rng):
    fast, reference = ROWS_ON_PRESENTATIONS[name](presentation, G, rng)
    assert fast == reference


def scan_deformations(p, P):
    """Oracle: each 2-simplex compared with every step and pair of steps
    of p, the paths sorted by the sort keys of their steps."""
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


def scan_certificate(p, q, P, bound):
    """Oracle: breadth-first search over `scan_deformations`; the chain
    from p to q, or None when q is not reached within the bound."""
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
                return tuple(reversed(chain))
            for neighbour in scan_deformations(current, P):
                if len(neighbour) <= bound and neighbour.steps not in parents:
                    parents[neighbour.steps] = current.steps
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return None


def random_path(P, rng, max_len=4):
    """A random walk of 1 to `max_len` enumerated 1-simplices."""
    step_from = {}
    for b in enumerate_simplices(P, 1):
        step_from.setdefault(b.face1.element, []).append(b)
    at = rng.choice(P.elements)
    steps = []
    for _ in range(rng.randint(1, max_len)):
        b = rng.choice(step_from[at])
        steps.append(b)
        at = b.face0.element
    return Path(tuple(steps))


@settings(max_examples=60, deadline=None)
@given(small_posets(connected=True), SEEDS)
def test_deformations_match_scan(P, rng):
    p = random_path(P, rng)
    assert deformations(p, P) == scan_deformations(p, P)


@pytest.mark.parametrize("name", ["circle2", "twoloop"])
def test_deformations_of_fixture_loops_match_scan(posets, name):
    P = posets[name]
    for p in enumerate_loops(P, P.elements[0], 4):
        assert deformations(p, P) == scan_deformations(p, P)


def assert_neighbours_in_reference_order(P, rng):
    """A random walk of 1 to 5 steps, as step ids, at bounds from one
    below its length to one above: `_neighbours` gives the reference's
    paths in the reference's iteration order, which follows the order
    they were added in."""
    moves = complex_of(P)[2].deformations
    ranked = _ranked(random_path(P, rng, max_len=5), P)
    for bound in range(len(ranked) - 1, len(ranked) + 2):
        assert list(_neighbours(ranked, moves, bound)) == list(
            neighbours_slicing_each_move(ranked, moves, bound))


@settings(max_examples=60, deadline=None)
@given(small_posets(), SEEDS)
def test_neighbours_match_the_reference_in_order(P, rng):
    assert_neighbours_in_reference_order(P, rng)


def test_neighbours_of_fixture_paths_match_the_reference_in_order(posets):
    rng = random.Random(42)
    for P in posets.values():
        for _ in range(40):
            assert_neighbours_in_reference_order(P, rng)


def assert_certificate_like_scan(chain, expected, p, q, P, bound):
    """`chain` is as long as the oracle's chain `expected` (or both are
    missing), runs from p to q, stays within the bound and takes one
    `scan_deformations` step at a time."""
    if expected is None:
        assert chain == ()
        return
    assert len(chain) == len(expected)
    assert chain[0].steps == p.steps and chain[-1].steps == q.steps
    assert all(len(path) <= bound for path in chain)
    for a, b in zip(chain, chain[1:]):
        assert b.steps in {d.steps for d in scan_deformations(a, P)}


@pytest.mark.parametrize("name", ["circle2", "twoloop"])
def test_certificates_match_scan_search(posets, name):
    """Short loops against the constant loop and against each other,
    all homotopic within the bound: the certificate is a valid chain as
    short as the one the oracle search finds."""
    P = posets[name]
    a0 = P.elements[0]
    loops = list(enumerate_loops(P, a0, 3))[:6]
    pairs = [(p, degenerate_loop(Simplex0(a0))) for p in loops]
    pairs += list(zip(loops, loops[1:]))
    for p, q in pairs:
        expected = scan_certificate(p, q, P, 4)
        assert expected is not None
        assert_certificate_like_scan(homotopic(p, q, P, 4).certificate,
                                     expected, p, q, P, 4)


def random_path_between(P, rng, start, end, max_len=3):
    """A random walk from `start` of at most `max_len` steps whose last
    step goes to `end`, or None when the walk ends where no step to
    `end` starts."""
    steps, at = [], start
    for _ in range(rng.randint(0, max_len - 1)):
        b = rng.choice([b for b in enumerate_simplices(P, 1)
                        if b.face1.element == at])
        steps.append(b)
        at = b.face0.element
    last = [b for b in enumerate_simplices(P, 1)
            if b.face1.element == at and b.face0.element == end]
    return Path(tuple(steps) + (rng.choice(last),)) if last else None


@settings(max_examples=100, deadline=None)
@given(small_posets(connected=True), SEEDS, st.integers(0, 4))
def test_homotopic_matches_scan_search(P, rng, bound):
    """Random pairs of paths with equal endpoints: the search from both
    ends gives the verdict of the one-sided oracle search, with every
    path of a certificate, p and q included, within the bound, and a
    certificate as long as the oracle's, in both orders."""
    p = random_path(P, rng, max_len=3)
    q = random_path_between(P, rng, p.start.element, p.end.element) or p
    verdict, back = homotopic(p, q, P, bound), homotopic(q, p, P, bound)
    assert back.status == verdict.status
    if max(len(p), len(q)) > bound:
        assert verdict.status in ("no", "unknown")
        return
    expected = scan_certificate(p, q, P, bound)
    assert (verdict.status == "yes") == (expected is not None)
    assert_certificate_like_scan(verdict.certificate, expected, p, q, P,
                                 bound)
    assert_certificate_like_scan(back.certificate,
                                 expected and expected[::-1], q, p, P, bound)


@settings(max_examples=60, deadline=None)
@given(small_posets(connected=True), SEEDS)
def test_trusted_paths_still_chain(P, rng):
    """`deformations`, the `homotopic` certificates, the tree paths and
    `enumerate_loops` build their paths without the chaining check: each
    of them still passes it."""
    p = random_path(P, rng)
    q = random_path_between(P, rng, p.start.element, p.end.element) or p
    _, words = pi1_presentation(P, p.start.element)
    built = (deformations(p, P) + homotopic(p, q, P, 4).certificate
             + tuple(map(words.tree_path, P.elements))
             + enumerate_loops(P, p.start.element, 3))
    for path in built:
        assert Path(path.steps) == path


@settings(max_examples=60, deadline=None)
@given(P=small_posets(connected=True), G=GROUPS, rng=SEEDS)
def test_built_results_keep_the_invariants_the_library_proves(P, G, rng):
    """The constructions check what their callers pass in, never what
    they build; their docstrings prove each result's invariant, and this
    asserts it.  `construct_from_cochain` on a random free twist, the
    star operations on central connections of one bundle,
    `construct_nonflat` (whose curvature misses the identity on its
    witness, for a random nontrivial twist) and `ambrose_singer_reduce`
    at every base point build connections, the last with a morphism;
    `induced_cocycle` and `associated_cocycle` build cocycles; and every
    cochain holds one value per cell."""
    edges = complex_of(P)[1]
    z = random_cocycle(P, G, rng)
    center = [G.index[g] for g in G.center()]

    def twisted(values):
        twist = [G.unit] * len(edges.faces)
        for i in sorted(i for pair in edges.free_classes for i in pair):
            twist[i] = rng.choice(values)
        return construct_from_cochain(Cochain1._of(P, G, tuple(twist)), z)

    u, central = twisted(range(len(G))), [twisted(center), twisted(center)]
    built = [u, *central, star_compose(*central), star_inverse(central[0])]
    if edges.free_classes and len(G) > 1:
        twist = rng.choice([h for h in G.elements if h != G.identity])
        nonflat, witness = construct_nonflat(z, g=twist)
        assert curvature(nonflat)(witness) != G.identity
        built.append(nonflat)
    for v in built:
        assert is_connection(v)
    g = rng.choice(G.elements)
    action = GroupHom.from_dict(G, G, {h: G.conjugate(g, h)
                                       for h in G.elements})
    cocycles = [induced_cocycle(u), associated_cocycle(z, action)]
    for c in cocycles:
        assert is_cocycle(c)
    for a0 in P.elements:
        u1, f, _ = ambrose_singer_reduce(u, a0)
        assert is_connection(u1) and is_morphism(f, f.source, u)
        built += [u1, f.source]
    for c in built + cocycles:
        assert len(c.ids) == len(c.cells.faces)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.data())
def test_cells_encode_matches_the_objects(n, data):
    """The text read from the id tables is the text of the enumerated
    simplex, in every dimension."""
    P = data.draw(small_posets(max_height=2 if n == 3 else None,
                               connected=True))
    cells = complex_of(P)[n]
    assert [cells.encode(i) for i in range(len(cells.support))] == [
        d.encode() for d in enumerate_simplices(P, n)]


# -- id kernels against the dict/Simplex formulas they replaced ------------


def ref_d0(v):
    G = v.group
    return {b: G.mul(v(b.face0), G.inv(v(b.face1)))
            for b in enumerate_simplices(v.poset, 1)}


def ref_d1(u):
    """(tau, values) of the coboundary of a 1-cochain."""
    G = u.group
    return (
        {b: ad(G, u(b)) for b in enumerate_simplices(u.poset, 1)},
        {c: G.product(u(c.face0), u(c.face2), G.inv(u(c.face1)))
         for c in enumerate_simplices(u.poset, 2)},
    )


def ref_d2(w):
    G, out = w.group, {}
    for d in enumerate_simplices(w.poset, 3):
        f0, f1, f2, f3 = d.faces
        twisted = G.mul(w.tau[f0.face0](w(f3)), w(f1))
        out[d] = G.product(w(f0), w(f2), G.inv(twisted))
    return out


def ref_identity_failures(u, simplices):
    G = u.group
    return tuple(c for c in simplices
                 if G.mul(u(c.face0), u(c.face2)) != u(c.face1))


def ref_is_cocycle(x):
    P, G = x.poset, x.group
    if x.dim == 0:
        return all(x(b.face0) == x(b.face1) for b in enumerate_simplices(P, 1))
    if x.dim == 1:
        return not ref_identity_failures(x, enumerate_simplices(P, 2))
    return all(
        G.mul(x(d.face0), x(d.face2))
        == G.mul(x.tau[d.face0.face0](x(d.face3)), x(d.face1))
        for d in enumerate_simplices(P, 3)
    )


def ref_extend_to_path(u, p):
    G = u.group
    value = G.identity
    for b in p.steps:
        value = G.mul(u(b), value)
    return value


def ref_induced(u):
    """z(b) = u(top <- end)^-1 u(top <- start), top the support of b."""
    G = u.group
    out = {}
    for b in enumerate_simplices(u.poset, 1):
        top = Simplex0(b.support)
        out[b] = G.mul(G.inv(u(Simplex1(b.support, top, b.face0))),
                       u(Simplex1(b.support, top, b.face1)))
    return out


def ref_restricted_holonomy(u, a0):
    """The normal closure in the holonomy group of the loop
    u(c1)^-1 u(c0) u(c2) at the first vertex v of each 2-simplex c,
    carried back to a0 as T(v)^-1 (loop) T(v), T the tree transport."""
    G, T = u.group, tree_transport(u, a0)
    gens = []
    for c in enumerate_simplices(u.poset, 2):
        loop = G.product(G.inv(u(c.face1)), u(c.face0), u(c.face2))
        t = T[c.face2.face1.element]
        gens.append(G.product(G.inv(t), loop, t))
    return G.normal_closure_in(holonomy(u, a0), gens)


def ref_construct_nonflat(z, b, g):
    """z twisted by the 1-cochain v that is z(b)^-1 on b, g z(b)^-1 on
    its reverse and the identity elsewhere, and the 2-simplex with
    boundary 1 b through its support if the curvature misses the
    identity there."""
    P, G = z.poset, z.group
    v = dict.fromkeys(enumerate_simplices(P, 1), G.identity)
    v[b] = G.inv(z(b))
    v[reverse(b)] = G.mul(g, v[b])
    u = construct_from_cochain(Cochain1(P, G, v), z)
    top = Simplex0(b.support)
    c = Simplex2(b.support, Simplex1(b.support, b.face0, top), b,
                 Simplex1(b.support, top, b.face1))
    return u, None if curvature(u)(c) == G.identity else c


def random_cochain2(P, G, rng):
    """A 2-cochain with a random automorphism component: each value is
    the one the intertwining condition fixes up to the center, times a
    random central element."""
    tau = {b: ad(G, rng.choice(G.elements))
           for b in enumerate_simplices(P, 1)}
    rep = {b: t.representative for b, t in tau.items()}
    values = {
        c: G.product(rep[c.face0], rep[c.face2], G.inv(rep[c.face1]),
                     rng.choice(G.center()))
        for c in enumerate_simplices(P, 2)
    }
    return Cochain2(P, G, tau, values)


def either_cocycle_or_not(P, G, rng, dim):
    """A random cochain of the given degree, or half the time a
    coboundary (a constant 0-cochain in degree 0), which is a cocycle.
    (Over S3, whose center is trivial, every 2-cochain is a cocycle.)"""
    if dim == 0:
        g = rng.choice(G.elements)
        constant = Cochain0(P, G, {a: g for a in enumerate_simplices(P, 0)})
        return rng.choice([random_cochain0(P, G, rng), constant])
    if dim == 1:
        return rng.choice([random_cochain1(P, G, rng),
                           coboundary0(random_cochain0(P, G, rng))])
    return rng.choice([random_cochain2(P, G, rng),
                       coboundary1(random_cochain1(P, G, rng))])


# Each row runs one id kernel and its dict/Simplex reference on one
# random input drawn from (poset, group, rng) and returns both results.


def row_d0(P, G, rng):
    v = random_cochain0(P, G, rng)
    return dict(coboundary0(v).values), ref_d0(v)


def row_d1(P, G, rng):
    u = random_cochain1(P, G, rng)
    w = coboundary1(u)
    return (dict(w.tau), dict(w.values)), ref_d1(u)


def row_d2(P, G, rng):
    w = either_cocycle_or_not(P, G, rng, 2)
    return dict(coboundary2(w).values), ref_d2(w)


def row_is_cocycle(dim):
    def row(P, G, rng):
        x = either_cocycle_or_not(P, G, rng, dim)
        return is_cocycle(x), ref_is_cocycle(x)
    return row


def near_coboundaries(P, G, rng):
    """A random 1-cochain, a coboundary, that coboundary with the value
    at one random 1-simplex replaced by a random element, and a random g
    gathered through the legs, which breaks a chain identity only: the
    cochains that tell a check of some of the cocycle identities from
    one of all."""
    d = coboundary0(random_cochain0(P, G, rng))
    ids = list(d.ids)
    ids[rng.randrange(len(ids))] = rng.randrange(len(G))
    return [random_cochain1(P, G, rng), d, Cochain1._of(P, G, tuple(ids)),
            Cochain1._of(P, G, tuple(gathered_through_legs(P, G, rng)))]


def row_is_cocycle_2_near_cocycles(P, G, rng):
    """`is_cocycle` of a 2-cochain, which stops at the first unbalanced
    3-simplex, against "`coboundary2` takes only the unit" and against
    the reference: on a random 2-cochain and a coboundary, and on each
    with the value at one random 2-simplex replaced."""
    ws = [random_cochain2(P, G, rng), coboundary1(random_cochain1(P, G, rng))]
    for w in ws[:]:
        ids = list(w.ids)
        ids[rng.randrange(len(ids))] = rng.randrange(len(G))
        ws.append(Cochain2._of(P, G, tuple(ids), w.tau_ids))
    return ([(is_cocycle(w), set(coboundary2(w).ids) <= {G.unit}) for w in ws],
            [(ref_is_cocycle(w),) * 2 for w in ws])


def row_is_cocycle_near_coboundaries(P, G, rng):
    """`is_cocycle` reads the identities of the legs and chains only;
    the reference checks every 2-simplex."""
    us = near_coboundaries(P, G, rng)
    return [is_cocycle(u) for u in us], [ref_is_cocycle(u) for u in us]


def row_identity_failures(P, G, rng):
    u = either_cocycle_or_not(P, G, rng, 1)
    simplices = complex_of(P)[2].simplices
    return (tuple(simplices[i] for i in identity_failures(u)),
            ref_identity_failures(u, enumerate_simplices(P, 2)))


def row_is_connection(P, G, rng):
    """`is_connection` reads reversal, the legs of the inflating
    1-simplices and the chains; the reference checks reversal on every
    1-simplex and every inflating 2-simplex, as objects.  One input of
    each kind."""
    us = [near_a_connection(P, G, rng, kind) for kind in CONNECTION_KINDS]
    return ([is_connection(u) for u in us],
            [satisfies_connection_axioms(u) for u in us])


def row_extend_to_path(P, G, rng):
    u, p = random_cochain1(P, G, rng), random_path(P, rng)
    return extend_to_path(u, p), ref_extend_to_path(u, p)


def row_curvature(P, G, rng):
    u = random_connection(P, G, rng)
    w = curvature(u)
    return (dict(w.tau), dict(w.values)), ref_d1(u)


def row_induced_cocycle(P, G, rng):
    u = random_connection(P, G, rng)
    return dict(induced_cocycle(u).values), ref_induced(u)


def row_is_adapted(P, G, rng):
    """A random connection against its own bundle and a random one."""
    u = random_connection(P, G, rng)
    bundles = (induced_cocycle(u), random_cocycle(P, G, rng))
    return [is_adapted(u, z) for z in bundles], [
        all(u(b) == z(b) for b in enumerate_simplices(P, 1)
            if is_inflating(P, b)) for z in bundles]


def free_edges(P):
    """The 1-simplices of P that are non-inflating in both orientations."""
    return [b for b in enumerate_simplices(P, 1)
            if not is_inflating(P, b) and not is_inflating(P, reverse(b))]


def row_restricted_holonomy(P, G, rng):
    """At every base point of four random bundles, each twisted on one
    free edge if there is one, by an involution if G has one.  Then the
    holonomy group is often a subgroup that is not normal, inside which
    the normal closure tells apart where the curvature values were
    carried from."""
    bundles = [random_cocycle(P, G, rng) for _ in range(4)]
    edges, twists = free_edges(P), [h for h in G.elements if h != G.identity]
    involutions = [h for h in twists if G.mul(h, h) == G.identity]
    if edges:
        bundles = [ref_construct_nonflat(z, rng.choice(edges),
                                         rng.choice(involutions or twists))[0]
                   for z in bundles]
    return ([restricted_holonomy(u, a) for u in bundles for a in P.elements],
            [ref_restricted_holonomy(u, a) for u in bundles
             for a in P.elements])


def row_construct_nonflat(P, G, rng):
    """Every free edge twisted by every g != e on a random bundle; on a
    poset without free edges there is nothing to twist."""
    z = random_cocycle(P, G, rng)
    twists = [(b, g) for b in free_edges(P)
              for g in G.elements if g != G.identity]
    if not twists:
        with pytest.raises(NoSuchSimplex):
            construct_nonflat(z)
    return ([construct_nonflat(z, b, g) for b, g in twists],
            [ref_construct_nonflat(z, b, g) for b, g in twists])


def row_tree_transport(P, G, rng):
    u, a0 = random_cochain1(P, G, rng), rng.choice(P.elements)
    _, words = pi1_presentation(P, a0)
    return tree_transport(u, a0), {
        a: ref_extend_to_path(u, words.tree_path(a)) for a in P.elements
    }


def row_format_cochain_text(P, G, rng):
    """The text read from the id tables (`Cells.encode`) against the
    text of the objects in `values`, on a random cochain, cocycle and
    connection."""
    us = [random_cochain1(P, G, rng), random_cocycle(P, G, rng),
          random_connection(P, G, rng)]
    header = f"cochain u over {P.name} values {G.name}\n"
    return [format_cochain_text(u) for u in us], [
        header + "".join(f"{b.encode()} = {g}\n" for b, g in u.values.items())
        for u in us]


# Rows up to dimension 2 run on connected posets of height up to 4; the
# rows that reach dimension 3 on posets of height at most 2, where it
# stays small (a 4-chain has 153,367 3-simplices).
ROWS_UP_TO_DIM2 = {
    "d0": row_d0,
    "d1": row_d1,
    "is_cocycle_0": row_is_cocycle(0),
    "is_cocycle_1": row_is_cocycle(1),
    "is_cocycle_1_near_coboundaries": row_is_cocycle_near_coboundaries,
    "identity_failures": row_identity_failures,
    "is_connection": row_is_connection,
    "extend_to_path": row_extend_to_path,
    "curvature": row_curvature,
    "induced_cocycle": row_induced_cocycle,
    "tree_transport": row_tree_transport,
    "format_cochain_text": row_format_cochain_text,
}
ROWS_IN_DIM3 = {"d2": row_d2, "is_cocycle_2": row_is_cocycle(2),
                "is_cocycle_2_near_cocycles": row_is_cocycle_2_near_cocycles}
# Rows that twist a bundle on an edge non-inflating both ways, which a
# connected poset of height 2 on three or four elements often has; the
# posets of the rows above have one minimum, so few have such an edge.
ROWS_ON_FREE_EDGES = {
    "curvature": row_curvature,
    "induced_cocycle": row_induced_cocycle,
    "is_adapted": row_is_adapted,
    "is_connection": row_is_connection,
    "restricted_holonomy": row_restricted_holonomy,
    "construct_nonflat": row_construct_nonflat,
}


@pytest.mark.parametrize("name", sorted(ROWS_UP_TO_DIM2))
@settings(max_examples=30, deadline=None)
@given(P=small_posets(connected=True), G=GROUPS, rng=SEEDS)
def test_id_kernel_matches_reference(name, P, G, rng):
    fast, reference = ROWS_UP_TO_DIM2[name](P, G, rng)
    assert fast == reference


@pytest.mark.parametrize("name", sorted(ROWS_IN_DIM3))
@settings(max_examples=30, deadline=None)
@given(P=small_posets(max_height=2), G=GROUPS, rng=SEEDS)
def test_id_kernel_matches_reference_in_dim3(name, P, G, rng):
    fast, reference = ROWS_IN_DIM3[name](P, G, rng)
    assert fast == reference


@pytest.mark.parametrize("name", sorted(ROWS_ON_FREE_EDGES))
@settings(max_examples=40, deadline=None)
@given(P=small_posets(max_height=2, min_size=3).filter(is_pathwise_connected),
       G=GROUPS, rng=SEEDS)
def test_id_kernel_matches_reference_on_free_edges(name, P, G, rng):
    fast, reference = ROWS_ON_FREE_EDGES[name](P, G, rng)
    assert fast == reference


def check_spanning_tree(P, G, rng):
    """At every base point of P: each tree path of `Complex.tree` chains
    as a `Path` of 1-simplex objects from the base point to its point,
    the presentation's `WordMap.tree` is that table, and `tree_transport`
    of a random cochain is `extend_to_path` along `WordMap.tree_path`.
    A connected P has exactly |P| - 1 tree classes; on any other,
    `tree_transport` and `holonomy` raise `NotConnected`."""
    K = complex_of(P)
    edges = K[1].simplices
    tree_classes = sum(K[1].spanning[0])
    if not is_pathwise_connected(P):
        assert tree_classes < len(P) - 1
        u = trivial_cochain1(P, G)
        for a0 in P.elements:
            for call in (tree_transport, holonomy):
                with pytest.raises(NotConnected) as caught:
                    call(u, a0)
                assert str(caught.value) == f"{P.name} is not pathwise connected"
        return
    assert tree_classes == len(P) - 1
    u = random_cochain1(P, G, rng)
    for a0 in P.elements:
        tree = K.tree(a0)
        for a, steps in zip(P.elements, tree):
            p = Path(tuple(edges[i] for i in steps))
            assert (p.start.element, p.end.element) == (a0, a)
        _, words = pi1_presentation(P, a0)
        assert words.tree is tree
        assert tree_transport(u, a0) == {
            a: extend_to_path(u, words.tree_path(a)) for a in P.elements}


@settings(max_examples=60, deadline=None)
@given(P=small_posets(), G=GROUPS, rng=SEEDS)
def test_spanning_tree_paths_reach_every_point(P, G, rng):
    check_spanning_tree(P, G, rng)


@pytest.mark.parametrize("name", ["chain2", "chain3", "vee", "circle2",
                                  "twoloop"])
def test_spanning_tree_of_each_fixture(posets, groups, name):
    assert len(posets) == 5
    check_spanning_tree(posets[name], groups["s3"], random.Random(name))


def test_is_cocycle_rows_see_both_verdicts(posets, groups):
    """The inputs of the is_cocycle rows are cocycles or not, both often
    enough to tell the kernels apart."""
    rng = random.Random(3)
    for dim, G in ((0, groups["s3"]), (1, groups["s3"]), (2, groups["z3"])):
        verdicts = {row_is_cocycle(dim)(posets["vee"], G, rng)[1]
                    for _ in range(12)}
        assert verdicts == {True, False}
    for G in groups.values():
        verdicts = {v for _ in range(12) for v in
                    row_is_cocycle_near_coboundaries(posets["twoloop"], G,
                                                     rng)[1]}
        assert verdicts == {True, False}


def connection_parts(u):
    """Whether u inverts under reversal, whether it passes the leg
    identity of every inflating 1-simplex, and whether it is a
    connection, all read from the simplex objects."""
    P, G = u.poset, u.group
    legs = ref_induced(u)
    return (all(u(reverse(b)) == G.inv(u(b))
                for b in enumerate_simplices(P, 1)),
            all(u(b) == legs[b]
                for b in enumerate_simplices(P, 1) if is_inflating(P, b)),
            satisfies_connection_axioms(u))


def test_each_kind_near_a_connection_breaks_its_part(posets, groups):
    """Over S3, each changed kind of `near_a_connection` is no
    connection in some of 12 draws, and breaks only the part of the test
    it is made for: reversal on circle2's free classes; the leg identity
    of chain3's one inflating 1-simplex that is no leg; a chain
    identity, with every leg identity kept, on chain3."""
    rng, S3 = random.Random(5), groups["s3"]
    for name, kind, parts in (
            ("circle2", "connection", {(True, True, True)}),
            ("circle2", "reversal", {(False, True, False)}),
            ("chain3", "inflating", {(True, False, False)}),
            ("chain3", "non_functor", {(True, True, False),
                                       (True, True, True)})):
        seen = {connection_parts(near_a_connection(posets[name], S3, rng,
                                                   kind))
                for _ in range(12)}
        assert seen <= parts, (name, kind)
        assert any(not verdict for _, _, verdict in seen) == (
            kind != "connection"), (name, kind)


def test_values_and_tau_are_read_only(posets):
    P, S3 = posets["circle2"], symmetric_group(3)
    u = random_cochain1(P, S3, random.Random(1))
    w = coboundary1(u)
    b, c = enumerate_simplices(P, 1)[0], enumerate_simplices(P, 2)[0]
    for view, key, value in ((u.values, b, "123"), (w.values, c, "123"),
                             (w.tau, b, ad(S3, "123"))):
        with pytest.raises(TypeError):
            view[key] = value
        with pytest.raises(TypeError):
            del view[key]
    assert u.values[b] == u(b) and w.tau[b] == ad(S3, u(b))


# -- subgroup closures against the worklist and fixpoint they replace ------


def worklist_subgroup_generated(G, generators):
    """The former closure: products on both sides with the generators
    and the inverse of each new member, until nothing is new."""
    members = {G.identity}
    frontier = [G.identity]
    gens = list(generators)
    for g in gens:
        if g not in members:
            members.add(g)
            frontier.append(g)
    while frontier:
        h = frontier.pop()
        for g in gens + [G.inv(h)]:
            for prod in (G.mul(h, g), G.mul(g, h)):
                if prod not in members:
                    members.add(prod)
                    frontier.append(prod)
    return tuple(g for g in G.elements if g in members)


def fixpoint_normal_closure(G, ambient, generators):
    """The former normal closure: regenerate after every new conjugate
    until conjugation by `ambient` adds nothing."""
    closure = set(worklist_subgroup_generated(G, generators))
    changed = True
    while changed:
        changed = False
        for g in ambient:
            for h in list(closure):
                c = G.conjugate(g, h)
                if c not in closure:
                    closure = set(worklist_subgroup_generated(
                        G, tuple(closure) + (c,)))
                    changed = True
    return tuple(g for g in G.elements if g in closure)


CLOSURE_GROUPS = [symmetric_group(3), symmetric_group(4), cyclic_group(6),
                  trivial_group()]


@st.composite
def group_and_subsets(draw):
    G = draw(st.sampled_from(CLOSURE_GROUPS))
    subset = st.lists(st.sampled_from(G.elements), max_size=3)
    return G, draw(subset), draw(subset)


@settings(max_examples=150, deadline=None)
@given(group_and_subsets())
def test_subgroup_closures_match_worklist_and_fixpoint(case):
    G, gens, ambient_gens = case
    assert G.subgroup_generated(gens) == worklist_subgroup_generated(G, gens)
    ambient = worklist_subgroup_generated(G, ambient_gens)
    assert G.normal_closure_in(ambient, gens) == \
        fixpoint_normal_closure(G, ambient, gens)


# -- cocycle enumeration: one cocycle per (homomorphism, assignment) -------


def assert_one_cocycle_per_pair(P, G, bound=None):
    """|homs| |G|^(|P|-1) cocycles, no two equal; with a `bound`, an
    example with more (homomorphism, assignment) pairs is skipped."""
    presentation, _ = pi1_presentation(P, base_point(P))
    try:
        homs = enumerate_homs(presentation, G)
    except SearchLimitExceeded:
        assert bound is not None
        return
    pairs = len(homs) * len(G) ** (len(P) - 1)
    if bound is not None and pairs > bound:
        return
    cocycles = enumerate_cocycles(P, G)
    assert len(cocycles) == pairs
    assert len(set(cocycles)) == len(cocycles)


@pytest.mark.parametrize("name", ["chain2", "chain3", "vee", "circle2",
                                  "twoloop"])
@pytest.mark.parametrize("group", ["z2", "z3", "s3"])
def test_fixture_cocycles_are_distinct_and_counted(posets, groups, name,
                                                   group):
    assert_one_cocycle_per_pair(posets[name], groups[group])


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=5, connected=True), GROUPS)
def test_cocycles_are_distinct_and_counted(P, G):
    assert_one_cocycle_per_pair(P, G, bound=20000)


# -- the search-limit messages, word for word ------------------------------


def test_search_limit_messages(posets, groups):
    circle, Z3, S3 = posets["circle2"], groups["z3"], groups["s3"]
    presentation, _ = pi1_presentation(posets["twoloop"], "m1")
    cases = [
        (lambda: enumerate_homs(presentation, S3, limit=10),
         "6^5 = 7776 assignments exceed the limit 10"),
        (lambda: enumerate_cocycles(circle, Z3, limit=30),
         "3 homomorphisms x 3^3 point assignments exceed the limit 30"),
        (lambda: enumerate_cocycles_raw(circle, Z3, limit=1000),
         "3^20 maps exceed the limit 1000"),
        (lambda: enumerate_connections(circle, Z3, limit=100),
         "81 bundles x 3^2 twists exceed the limit 100"),
        (lambda: gauge_group_raw(trivial_cochain1(circle, Z3), limit=10),
         "3^4 assignments exceed the limit 10"),
    ]
    for search, message in cases:
        with pytest.raises(SearchLimitExceeded) as caught:
            search()
        assert str(caught.value) == message


def test_search_limits_admit_a_search_of_exactly_the_limit(posets, groups):
    circle, Z3 = posets["circle2"], groups["z3"]
    assert len(enumerate_cocycles(circle, Z3, limit=81)) == 81
    assert len(enumerate_connections(circle, Z3, limit=729)) == 729
    assert len(gauge_group_raw(trivial_cochain1(circle, Z3), limit=81)) == 3


# -- the CLI parser against the argparse parser ----------------------------

# Tokens for values and strays: numbers negative, fractional and not
# numbers at all, names of no choice, option-like values, a space, `-`,
# unknown options and options of other commands.  None of them is a help
# flag, which ends a parse with exit code 0.  `--` is left out: argparse
# (3.11) refuses it after an option that follows the last positional
# (`simplices p --dim 1 --`), and drops a second one from the positional
# that holds it (`dd-check p g -- --` reads the cochain `[]`).
CLI_TOKENS = ("3", "0", "-1", "-2.5", "1_0", " 7", "x", "", "-",
              "a b", "-x y", "chain", "Chain", "circle", "json", "xml",
              "c.poset", "--bogus", "-q", "--lim", "--limit=2", "--format",
              "--=x", "-o", "--dim", "--inflating", "--base=a1", "-ox")


def spellings(flags):
    """Each way to write a flag: itself and, for a long flag, each of
    its prefixes that still names it in every command."""
    return [f[:n] for f in flags for n in range(3 if f[:2] == "--" else 2,
                                                   len(f) + 1)]


def cli_values(spec):
    """Values for an argument: one it takes as often as any token."""
    kwargs = spec[2]
    good = kwargs.get("choices") or (("5", "0") if "type" in kwargs
                                     else ("c.poset",))
    return st.sampled_from(good) | st.sampled_from(CLI_TOKENS)


@st.composite
def option_tokens(draw, spec, values=cli_values):
    flags, _, kwargs = spec
    # One of the flags, then one of its spellings: `-o` as often as
    # `--output` and its prefixes together.
    flag = draw(st.sampled_from(spellings([draw(st.sampled_from(flags))])))
    value = draw(values(spec))
    if kwargs.get("action") and draw(st.booleans()):
        return [flag]
    if draw(st.booleans()):
        return [f"{flag}={value}"]
    if len(flag) == 2 and draw(st.booleans()):
        return [flag + value]  # a one-letter flag with its value attached
    return [flag, value]


@st.composite
def cli_argvs(draw, values=cli_values, rows=cli.COMMANDS,
              strays=st.lists(st.sampled_from(CLI_TOKENS), max_size=2)):
    """An argv list: a command of `rows`, its positionals in order
    (each one possibly missing) and its options, `=` forms, attached
    values and prefixes among them, then `strays` anywhere, and
    `--format` before the command, or after it."""
    row = draw(st.sampled_from(rows))
    specs = row[2]
    tokens = [draw(values(spec)) for spec in specs
              if spec[0][0][0] != "-" and draw(st.integers(0, 7))]
    groups = [draw(option_tokens(spec, values)) for spec in specs
              if spec[0][0][0] == "-" and draw(st.booleans())]
    groups += [[t] for t in draw(strays)]
    for group in groups:
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = group
    top = draw(st.lists(option_tokens(cli.TOP[0], values), max_size=1))
    if top and draw(st.integers(0, 4)) == 0:
        return [row[0], *tokens, *top[0]]
    return [*(top[0] if top else ()), row[0], *tokens]


ARGPARSE = build_parser()


@settings(max_examples=800, deadline=None)
@given(cli_argvs())
@example(["gen", "chain", "3", "-oc.poset"])
@example(["gen", "-o-1", "chain", "3"])
def test_cli_parser_matches_argparse(argv):
    expected = argparse_outcome(ARGPARSE, argv)
    try:
        row, args = cli.parse(argv)
    except UsageError as exc:
        usage, error = str(exc).splitlines()
        assert usage.startswith("usage: posetbundle") and ": error: " in error
        assert expected == 2
        return
    assert vars(args) == expected
    assert row[0] == args.command


# -- the CLI end to end on raw argv lists ----------------------------------

# The fixture files each loader reads, as `inputs.write_fixtures` writes
# them: the files of one poset and group that fit together, or any.
CLI_FILES = {
    cli._load_poset: ("chain3.poset", "vee.poset", "circle2.poset",
                      "twoloop.poset"),
    cli._load_group: ("z2.group", "z3.group", "s3.group"),
    cli._load_cochain: ("winding-z3.cochain", "fullimage-s3.cochain"),
    cli._load_assignment: ("g1.assign",),
    cli._load_path: tuple(PATH_FILES),
}
CLI_WORLDS = tuple({**CLI_FILES, cli._load_poset: (poset,),
                    cli._load_group: (group,), cli._load_cochain: (cochain,),
                    cli._load_path: tuple(p for p in PATH_FILES
                                          if p.startswith(poset[:-6]))}
                   for poset, group, cochain in (
                       ("circle2.poset", "z3.group", "winding-z3.cochain"),
                       ("twoloop.poset", "s3.group", "fullimage-s3.cochain"))
                   ) + (CLI_FILES,)
# Any text but "/", so that an output file stays in the directory the
# run is in.  NUL is drawn too: no argv of a process can hold it, but an
# in-process caller of `cli.run` can.
CLI_TEXT = st.text(st.characters(blacklist_characters="/"), max_size=6)
# Counts, limits and bounds small enough that every run is quick.
CLI_COUNTS = st.integers(0, 10 ** 4).map(str)
CLI_FLAGS = sorted({flag for row in cli.COMMANDS for spec in row[2]
                    if spec[0][0][0] == "-" for flag in spellings(spec[0])})


@st.composite
def run_argvs(draw):
    """An argv list of `cli_argvs` for a command but `suite`, whose input
    files are fixture files of one of `CLI_WORLDS`, whose numbers are
    counts, whose other values and stray token may be any text, and
    whose stray token may be a flag of any command or `--`."""
    files = draw(st.sampled_from(CLI_WORLDS))

    def values(spec):
        _, load, kwargs = spec
        if load:
            return st.sampled_from(files[load])
        if "type" in kwargs:
            return CLI_COUNTS | cli_values(spec)
        if "choices" in kwargs:
            return cli_values(spec)
        return cli_values(spec) | CLI_TEXT

    strays = st.sampled_from((*CLI_TOKENS, *CLI_FLAGS, "--")) | CLI_TEXT
    return draw(cli_argvs(values, [r for r in cli.COMMANDS
                                   if r[0] != "suite"],
                          st.lists(strays, max_size=1)))


@pytest.fixture(scope="module")
def cli_fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    write_fixtures(directory)
    return directory


@settings(max_examples=300, deadline=None)
@given(argv=run_argvs())
def test_cli_run_on_raw_argv(cli_fixtures, argv):
    """Every run, in a fresh copy of the fixtures, ends with exit code 0,
    1 or 2 and no traceback, and exit code 1, a false verdict, comes only
    from a command that gives one."""
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        shutil.copytree(cli_fixtures, directory, dirs_exist_ok=True)
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:
        assert cli.parse(argv)[0][0] in ("check-cocycle", "dd-check",
                                         "homotopic")
