"""Differential tests of the tree-transport helpers and the cochain
identity against brute force, on random connected posets of at most four
elements with values in Z2, Z3 and S3."""

import itertools

from hypothesis import given, settings, strategies as st

from posetbundle.acceptance import random_cocycle
from posetbundle.cochains import (
    Cochain0,
    Cochain1,
    Cochain2,
    Cochain3,
    coboundary1,
    coboundary2,
    find_morphism,
    is_morphism,
    random_cochain0,
    random_cochain1,
)
from posetbundle.gauge import gauge_act, gauge_group, gauge_group_raw
from posetbundle.groups import cyclic_group, symmetric_group
from posetbundle.poset import build_poset

GROUPS = st.sampled_from(
    [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
)
SEEDS = st.randoms(use_true_random=False)


@st.composite
def small_posets(draw, max_size=4, max_height=None):
    """Random posets on at most `max_size` elements.

    Relations run from earlier to later positions of a random ordering
    of the names.  By default each element after the first is related
    to an earlier one, so the poset is connected.  With `max_height=2`
    only the first `split` positions lie below the rest, which keeps
    dimension 3 small, and the poset may be disconnected.
    """
    n = draw(st.integers(1, max_size))
    names = draw(st.permutations("abcd"[:n]))
    if max_height == 2:
        split = draw(st.integers(0, n))
        pairs = [(i, j) for i in range(split) for j in range(split, n)]
        tree = []
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        tree = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    chosen = set(tree) | extra
    return build_poset(names, [(names[i], names[j]) for i, j in chosen])


def brute_force_morphism_exists(v1, v):
    P, G = v.poset, v.group
    return any(
        is_morphism(dict(zip(P.elements, choice)), v1, v)
        for choice in itertools.product(G.elements, repeat=len(P))
    )


@settings(max_examples=40, deadline=None)
@given(small_posets(), GROUPS, SEEDS, st.booleans())
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
@given(small_posets(), GROUPS, SEEDS)
def test_gauge_group_matches_raw(P, G, rng):
    z = random_cocycle(P, G, rng)
    assert gauge_group(z) == gauge_group_raw(z)


def reordered(values):
    return dict(reversed(list(values.items())))


@settings(max_examples=25, deadline=None)
@given(small_posets(max_height=2), GROUPS, SEEDS)
def test_equal_cochains_hash_equal(P, G, rng):
    """Equal cochains built from dicts in different insertion orders."""
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
