import gc
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from posetbundle.cochains import _hom_loops
from posetbundle.errors import BadParameter, IndexOutOfRange, UnsupportedDimension
from posetbundle.groups import trivial_group
from posetbundle.paths import Path, _ranked
from posetbundle.poset import build_poset, generate
from posetbundle.simplicial import (
    EVEN_PERMUTATIONS,
    ODD_PERMUTATIONS,
    Complex,
    Simplex0,
    Simplex1,
    Simplex2,
    Simplex3,
    boundary,
    complex_of,
    degeneracy,
    enumerate_simplices,
    enumerated,
    is_degenerate,
    is_inflating,
    parse_simplex1,
    permute2,
    reverse,
)

from oracles import enumerate_simplices_raw
from strategies import small_posets

# Frozen simplex counts for the fixture posets.
FROZEN_COUNTS = {
    ("chain2", 1): 5,
    ("chain3", 1): 14,
    ("vee", 1): 11,
    ("circle2", 0): 4,
    ("circle2", 1): 20,
    ("circle2", 2): 108,
    ("circle2", 3): 976,
}


@pytest.mark.parametrize("poset_name,dim", sorted(FROZEN_COUNTS))
def test_frozen_counts(posets, poset_name, dim):
    P = posets[poset_name]
    assert len(enumerate_simplices(P, dim)) == FROZEN_COUNTS[(poset_name, dim)]


def test_dimension_range(posets):
    with pytest.raises(UnsupportedDimension):
        enumerate_simplices(posets["chain2"], 4)
    with pytest.raises(UnsupportedDimension):
        enumerate_simplices(posets["chain2"], -1)


@pytest.mark.parametrize("dim", [True, 1.0, 1.5, "1", None])
def test_non_integer_dimensions_are_rejected(posets, dim):
    P = posets["chain2"]
    K = complex_of(P)
    before = dict(K._cells)
    message = re.escape(f"dimension {dim!r} not supported")
    with pytest.raises(UnsupportedDimension, match=message):
        enumerate_simplices(P, dim)
    with pytest.raises(UnsupportedDimension, match=message):
        K[dim]
    assert K._cells == before
    assert all(type(n) is int for n in K._cells)


def test_enumeration_is_sorted_and_duplicate_free(posets):
    for dim in range(3):
        simplices = enumerate_simplices(posets["circle2"], dim)
        keys = [d.sort_key() for d in simplices]
        assert keys == sorted(keys)
        assert len(set(simplices)) == len(simplices)


def test_face_compatibility_enforced():
    a, b, o = Simplex0("a"), Simplex0("b"), Simplex0("o")
    ab = Simplex1("o", b, a)
    with pytest.raises(BadParameter):
        Simplex2("o", ab, ab, ab)  # faces cannot chain


def test_boundary_indices(posets):
    b = enumerate_simplices(posets["chain2"], 1)[0]
    with pytest.raises(IndexOutOfRange):
        boundary(b, 2)
    with pytest.raises(IndexOutOfRange):
        boundary(Simplex0("x1"), 0)


def test_simplicial_identities_on_degeneracies(posets):
    P = posets["circle2"]
    for b in enumerate_simplices(P, 1):
        # d_i s_0 and d_i s_1 of a 1-simplex
        s0, s1 = degeneracy(b, 0), degeneracy(b, 1)
        assert boundary(s0, 0) == b and boundary(s0, 1) == b
        assert boundary(s0, 2) == degeneracy(b.face1, 0)
        assert boundary(s1, 1) == b and boundary(s1, 2) == b
        assert boundary(s1, 0) == degeneracy(b.face0, 0)
        assert is_degenerate(s0) and is_degenerate(s1)
        assert s0.support == s1.support == b.support
    for c in enumerate_simplices(P, 2)[:25]:
        for i in range(3):
            d = degeneracy(c, i)
            assert boundary(d, i) == c and boundary(d, i + 1) == c
            assert is_degenerate(d)


def test_degeneracy_index_range():
    a = Simplex0("x")
    with pytest.raises(IndexOutOfRange):
        degeneracy(a, 1)
    with pytest.raises(IndexOutOfRange):
        degeneracy(degeneracy(a, 0), 2)


def test_nondegenerate_edges(posets):
    P = posets["circle2"]
    for b in enumerate_simplices(P, 1):
        expected = b.face0 == b.face1 and b.face0.element == b.support
        assert is_degenerate(b) == expected


def test_reverse_is_an_involution(posets):
    for b in enumerate_simplices(posets["circle2"], 1):
        assert reverse(reverse(b)) == b
        assert reverse(b).support == b.support


def test_inflating_criterion(posets):
    P = posets["circle2"]
    for b in enumerate_simplices(P, 1):
        assert is_inflating(P, b) == P.leq(b.face1.element, b.face0.element)
    filtered = tuple(itertools.compress(enumerate_simplices(P, 2),
                                        complex_of(P)[2].inflating))
    oracle = tuple(
        c for c in enumerate_simplices(P, 2) if is_inflating(P, c)
    )
    assert filtered == oracle


def test_permute2_is_a_right_action(posets):
    perms = EVEN_PERMUTATIONS + ODD_PERMUTATIONS
    sample = enumerate_simplices(posets["circle2"], 2)[::17]
    for c in sample:
        assert permute2(c, (0, 1, 2)) == c
        for sigma, tau in itertools.product(perms, repeat=2):
            composite = tuple(sigma[tau[k]] for k in range(3))
            assert permute2(permute2(c, sigma), tau) == permute2(c, composite)


def test_permute2_rejects_non_permutations(posets):
    c = enumerate_simplices(posets["circle2"], 2)[0]
    with pytest.raises(BadParameter):
        permute2(c, (0, 0, 1))


def test_parse_simplex1_round_trip(posets):
    for b in enumerate_simplices(posets["circle2"], 1):
        assert parse_simplex1(b.encode()) == b
    with pytest.raises(BadParameter):
        parse_simplex1("o1;a1,a2")
    with pytest.raises(BadParameter):
        parse_simplex1("(o1;a1)")


# -- the glued complex against the monotone-map oracle ----------------------

def assert_matches_oracle(P, dim):
    raw = enumerate_simplices_raw(P, dim)
    glued = enumerate_simplices(P, dim)
    assert glued == raw
    assert [d.encode() for d in glued] == [d.encode() for d in raw]
    assert [hash(d) for d in glued] == [hash(d) for d in raw]
    inflating = tuple(d for d in raw if is_inflating(P, d))
    mask = complex_of(P)[dim].inflating
    assert tuple(itertools.compress(glued, mask)) == inflating


def assert_faces_shared(P, dim):
    lower = {f: f for f in enumerate_simplices(P, dim - 1)}
    for d in enumerate_simplices(P, dim):
        for i, f in enumerate(d.faces):
            assert lower[f] is f
            assert boundary(d, i) is f


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop"])
def test_enumeration_matches_oracle_on_fixtures(posets, poset_name):
    P = posets[poset_name]
    for dim in range(4):
        assert_matches_oracle(P, dim)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=6, min_size=0))
def test_enumeration_matches_oracle_up_to_dim2(P):
    for dim in range(3):
        assert_matches_oracle(P, dim)


# Dimension 3 grows fast with the height of the poset: chain3 has 7,413
# 3-simplices, which the oracle builds in seconds, and a 4-chain has
# 153,367.  Random posets for this dimension therefore have height at
# most 2 and at most 4 elements; the fixtures above cover height 3.
@settings(max_examples=15, deadline=None)
@given(small_posets(max_height=2, min_size=0))
def test_enumeration_matches_oracle_in_dim3(P):
    assert_matches_oracle(P, 3)
    assert_faces_shared(P, 3)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=6, min_size=0))
def test_faces_are_shared(P):
    for dim in range(1, 3):
        assert_faces_shared(P, dim)


def test_faces_are_shared_on_fixtures(posets):
    for P in posets.values():
        for dim in range(1, 4):
            assert_faces_shared(P, dim)


@settings(max_examples=40, deadline=None)
@given(small_posets(max_size=6, min_size=0))
def test_permuted_ids_are_the_ids_of_permute2(P):
    cells = complex_of(P)[2]
    for sigma in itertools.permutations(range(3)):
        assert cells.permuted(sigma) == tuple(
            cells.ids[permute2(c, sigma)] for c in cells.simplices)


def test_permuted_rejects_non_permutations_and_other_dimensions(posets):
    K = complex_of(posets["circle2"])
    with pytest.raises(BadParameter):
        K[2].permuted((0, 0, 1))
    with pytest.raises(UnsupportedDimension):
        K[1].permuted((1, 0, 2))


@pytest.mark.parametrize("table, dim", [
    ("reverse", 1), ("legs", 1), ("chains", 1), ("classes", 1),
    ("free_classes", 1), ("deformations", 2)])
def test_tables_of_one_dimension_reject_the_others(posets, table, dim):
    # The chains read the legs, and the classes read the reverses, so
    # the checks in reverse, legs and deformations cover every table.
    K = complex_of(posets["circle2"])
    getattr(K[dim], table)
    for n in {0, 1, 2, 3} - {dim}:
        with pytest.raises(UnsupportedDimension):
            getattr(K[n], table)


def test_repeated_calls_share_the_complex(posets):
    P = posets["circle2"]
    assert enumerate_simplices(P, 2) is enumerate_simplices(P, 2)
    assert enumerate_simplices(P, 2) is complex_of(P)[2].simplices


def test_fresh_simplices_equal_enumerated_ones(posets):
    P = posets["circle2"]
    index = {d: i for dim in range(4) for i, d in
             enumerate(enumerate_simplices(P, dim))}
    for b in enumerate_simplices(P, 1):
        fresh = parse_simplex1(b.encode())
        assert fresh is not b
        assert fresh == b and hash(fresh) == hash(b)
        assert Simplex1(b.support, Simplex0(b.face0.element),
                        Simplex0(b.face1.element)) in index
    for dim in range(3):
        for d in enumerate_simplices(P, dim):
            for i in range(dim + 1):
                s = degeneracy(d, i)
                twin = enumerate_simplices(P, dim + 1)[index[s]]
                assert s == twin and hash(s) == hash(twin)
    for c in enumerate_simplices(P, 2):
        for sigma in EVEN_PERMUTATIONS + ODD_PERMUTATIONS:
            assert permute2(c, sigma) in index


def test_unequal_simplices_differ(posets):
    simplices = enumerate_simplices(posets["twoloop"], 2)
    for c, c1 in zip(simplices, simplices[1:]):
        assert c != c1
    assert Simplex0("a") != Simplex1("a", Simplex0("a"), Simplex0("a"))


def test_pickled_simplices_rehash_in_another_process(posets):
    # String hashes differ between interpreter processes, so a cached
    # hash must not travel with a pickled simplex.
    script = (
        "import pickle, sys\n"
        "from posetbundle.poset import generate\n"
        "from posetbundle.simplicial import enumerate_simplices\n"
        "sys.stdout.buffer.write(pickle.dumps("
        "enumerate_simplices(generate('circle', 2), 2)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="1")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, check=True, timeout=60).stdout
    here = enumerate_simplices(posets["circle2"], 2)
    assert set(pickle.loads(out)) == set(here)


def test_pickled_posets_and_groups_rehash_in_another_process():
    # Posets and groups keep a hash of their strings too, so they are
    # pickled under one hash seed and loaded under another.
    build = ("import pickle, sys\n"
             "from posetbundle.groups import symmetric_group\n"
             "from posetbundle.poset import generate\n"
             "built = generate('circle', 2), symmetric_group(3)\n")
    dump = build + "sys.stdout.buffer.write(pickle.dumps(built))\n"
    load = build + (
        "P, G = pickle.loads(sys.stdin.buffer.read())\n"
        "assert (P, G) == built and hash(P) == hash(built[0])\n"
        "assert {built[0]: 1}.get(P) == 1 and len({G, built[1]}) == 1\n")
    out = b""
    for seed, script in (("1", dump), ("2", load)):
        out = subprocess.run([sys.executable, "-c", script], input=out,
                             env=dict(os.environ, PYTHONHASHSEED=seed),
                             capture_output=True, check=True,
                             timeout=60).stdout


def rebuilt(d):
    """d built afresh, face by face, through the simplex constructors."""
    if not d.faces:
        return Simplex0(d.support)
    return type(d)(d.support, *map(rebuilt, d.faces))


def test_enumerated_simplices_hash_on_first_use_like_built_ones():
    P = generate("circle", 2)  # a fresh poset: no simplex of it is hashed yet
    for n, cls in ((1, Simplex1), (2, Simplex2), (3, Simplex3)):
        sample = enumerate_simplices(P, n)[::5]
        assert all(d._hash is None for d in sample)
        for d in sample:
            fresh = rebuilt(d)
            assert type(fresh) is cls and fresh is not d
            assert fresh == d and d == fresh and hash(fresh) == hash(d)
            back = pickle.loads(pickle.dumps(d))
            assert back == d and hash(back) == hash(d)
            assert back.encode() == d.encode()


# -- the integer tables of the complex ---------------------------------------


def assert_complex_invariants(P, dims):
    K = complex_of(P)
    for n in dims:
        cells = K[n]
        assert cells.simplices is enumerate_simplices(P, n)
        assert len(cells.faces) == len(cells.simplices)
        for i, (d, face_ids) in enumerate(zip(cells.simplices, cells.faces)):
            assert cells.ids[d] == i
            assert len(face_ids) == len(d.faces)
            for j, f in zip(face_ids, d.faces):
                assert K[n - 1].simplices[j] is f
        assert list(cells.inflating) == [is_inflating(P, d)
                                         for d in cells.simplices]
        assert list(cells.degenerate) == [is_degenerate(d)
                                          for d in cells.simplices]
    if 1 in dims:
        edges, triangles = K[1], K[2]
        steps = edges.simplices
        for i, (b, r) in enumerate(zip(steps, edges.reverse)):
            assert edges.reverse[r] == i
            assert steps[r] is enumerated(P, reverse(b))
            end, start = (steps[k] for k in edges.legs[i])
            assert (end.face1, start.face1) == b.faces
            assert end.face0 is start.face0
            assert end.support == start.support == end.face0.support == b.support
            assert _ranked(Path((b,)), P) == (i,)
        # the deformation index of `homotopic` speaks the same ids
        expansions, contractions = triangles.deformations
        for c in triangles.simplices:
            pair = (steps.index(c.face2), steps.index(c.face0))
            assert pair in expansions[steps.index(c.face1)]
            assert (steps.index(c.face1),) in contractions[pair]


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop"])
def test_complex_tables_on_fixtures(posets, poset_name):
    assert_complex_invariants(posets[poset_name], range(4))


@settings(max_examples=30, deadline=None)
@given(small_posets(max_height=2, min_size=0))
def test_complex_tables_on_random_posets(P):
    assert_complex_invariants(P, range(4))


@settings(max_examples=30, deadline=None)
@given(small_posets(max_height=2, min_size=0))
def test_id_tables_match_the_oracle_before_any_object(P):
    """The tables built from ids alone equal those derived from the
    oracle's objects, and reading them builds no simplex object; `ids`,
    read after the objects exist, maps the oracle's simplices to their
    ranks."""
    K = Complex(P)
    raw = [enumerate_simplices_raw(P, n) for n in range(4)]
    raw_ids = [{d: i for i, d in enumerate(r)} for r in raw]
    for n in range(4):
        cells = K[n]
        assert cells.support == tuple(P.elements.index(d.support)
                                      for d in raw[n])
        assert cells.faces == tuple(tuple(raw_ids[n - 1][f] for f in d.faces)
                                    for d in raw[n])
        assert cells.inflating == tuple(is_inflating(P, d) for d in raw[n])
        assert cells.degenerate == tuple(map(is_degenerate, raw[n]))
        for i in range(n):
            assert cells.degeneracies[i] == tuple(
                raw_ids[n][degeneracy(f, i)] for f in raw[n - 1])
    edges = K[1]
    assert edges.reverse == tuple(raw_ids[1][reverse(b)] for b in raw[1])

    def g(x, v):
        return raw_ids[1][Simplex1(x, Simplex0(x), Simplex0(v))]

    assert edges.legs == tuple((g(b.support, b.face0.support),
                                g(b.support, b.face1.support))
                               for b in raw[1])
    assert sorted(edges.chains) == sorted(
        (g(x, v), g(x, s), g(s, v))
        for x, s, v in itertools.permutations(P.elements, 3)
        if P.leq(v, s) and P.leq(s, x))
    assert not any("simplices" in vars(K[n]) for n in range(4))
    for n in range(4):
        glued = K[n].simplices
        assert glued == raw[n]
        assert [d.encode() for d in glued] == [d.encode() for d in raw[n]]
        assert [hash(d) for d in glued] == [hash(d) for d in raw[n]]
        assert [K[n].ids[d] for d in raw[n]] == list(range(len(raw[n])))
        for d in glued[:: max(1, len(glued) // 7)]:
            assert type(d)(d.support, *d.faces) == d  # the identities hold


def test_ids_are_keyed_by_the_enumerated_objects(posets):
    """Equal simplices of another complex map to the ids of the
    enumerated ones, and every key of `ids` is an enumerated object, so
    a lookup of an enumerated simplex ends at `is`."""
    P = posets["circle2"]
    K = Complex(P)
    others = enumerate_simplices(P, 2)  # equal objects of another complex
    sigmas = EVEN_PERMUTATIONS + ODD_PERMUTATIONS
    fresh = [permute2(c, sigma) for c in others[:24] for sigma in sigmas]
    built = K[2].simplices
    assert [built[K[2].ids[d]] for d in fresh] == fresh
    for n in range(4):
        objects = K[n].simplices
        assert list(K[n].ids) == list(objects)
        assert all(key is objects[i] for key, i in K[n].ids.items())


def test_complex_cache_is_bounded():
    """No table holds complexes by value: those kept are the complexes
    of the posets still alive, and each stays with its poset."""
    first = build_poset(["p0"], [])
    K = complex_of(first)
    chains = [build_poset([f"p{i}", "q"], [(f"p{i}", "q")])
              for i in range(133)]
    gone = [weakref.ref(complex_of(P)) for P in chains]
    kept = chains[-3:]
    del chains
    gc.collect()
    assert [ref() for ref in gone[:-3]] == [None] * 130
    assert complex_of(first) is K  # never evicted while `first` lives
    assert len(enumerate_simplices(first, 1)) == 1
    for P, ref in zip(kept, gone[-3:]):
        assert complex_of(P) is ref() is complex_of(P)
        assert enumerate_simplices(P, 1) == enumerate_simplices_raw(P, 1)


def sphere():
    """The face poset of the boundary of the tetrahedron: S^2."""
    faces = [c for k in (1, 2, 3) for c in itertools.combinations("0123", k)]
    return build_poset(
        ["s" + "".join(f) for f in faces],
        [("s" + "".join(a), "s" + "".join(b))
         for a in faces for b in faces if set(a) < set(b)], name="sphere")


def test_dropping_a_poset_releases_its_tables():
    """A poset owns its complex, so what the complex kept goes with the
    poset: its cells to dimension 2, a spanning tree, the presentation of
    pi1 and a table of homomorphisms.  Nothing holds them by value."""
    gc.collect()
    tracemalloc.start()
    try:
        P = sphere()
        K = complex_of(P)
        assert len(K[2].faces) == 7238 and len(enumerate_simplices(P, 1)) > 0
        _hom_loops(P, trivial_group())
        assert K.tree("s0") and K.pi1 and K.hom_loops and complex_of(P) is K
        built, _ = tracemalloc.get_traced_memory()
        del P, K
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built > 500_000 and retained < built / 100


def test_legs_and_chains_count_what_a_cocycle_test_reads(posets):
    """One pair of legs per 1-simplex and one triple per strict chain
    v < s < x: no chain on posets of height 1."""
    for P, edges, chains in ((posets["circle2"], 20, 0),
                             (posets["chain3"], 14, 1),
                             (generate("chain", 4), 30, 4)):
        cells = complex_of(P)[1]
        assert (len(cells.legs), len(cells.chains)) == (edges, chains)


@pytest.mark.parametrize("dim, i, error, message", [
    (3, 0, UnsupportedDimension,
     "degeneracies are implemented for dimensions 0-2"),
    (0, 1, IndexOutOfRange, "degeneracy index 1 out of range for dim 0"),
    (2, 3, IndexOutOfRange, "degeneracy index 3 out of range for dim 2"),
])
def test_degeneracy_refuses_what_it_cannot_build(posets, dim, i, error,
                                                 message):
    d = enumerate_simplices(posets["circle2"], dim)[0]
    with pytest.raises(error) as caught:
        degeneracy(d, i)
    assert str(caught.value) == message
