import os
import pickle
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import posetbundle
from posetbundle.errors import (
    AntisymmetryViolation,
    BadParameter,
    DuplicateElement,
    UnknownElement,
)
from posetbundle.groups import symmetric_group
from posetbundle.simplicial import complex_of
from posetbundle.poset import (
    Poset,
    build_poset,
    format_poset_text,
    fundamental_open,
    generate,
    is_directed,
    is_pathwise_connected,
    is_totally_ordered,
    parse_poset_text,
)
from strategies import TEXT_NAMES


# Run in a child process: load the pickled (poset, group) pair from
# stdin, compare it with fresh ones and print the hash of each.
LOAD_AND_HASH = """
import pickle, sys
from posetbundle.groups import symmetric_group
from posetbundle.poset import generate
P, G = pickle.load(sys.stdin.buffer)
fresh = generate("circle", 2), symmetric_group(3)
assert (P, G) == fresh and hash(P) == hash(fresh[0]) and hash(G) == hash(fresh[1])
print(hash(P), hash(G))
"""


def test_poset_and_group_pickle_across_hash_seeds():
    """A pickled `Poset` and `FiniteGroup` load, in a process with another
    hash seed, as objects equal to fresh ones that hash like them there:
    their kept hash is of strings, so `__reduce__` rebuilds it.  The
    complex a poset owns stays out: a pickle of P with its tables built
    is byte for byte that of a fresh equal poset."""
    P, G = generate("circle", 2), symmetric_group(3)
    K = complex_of(P)
    assert K[3].faces and K.tree("a1")
    assert pickle.dumps(P) == pickle.dumps(generate("circle", 2))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(posetbundle.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", LOAD_AND_HASH],
                         input=pickle.dumps((P, G)), env=env,
                         capture_output=True, check=True, timeout=60)
    assert out.stdout.split() != [str(hash(P)).encode(), str(hash(G)).encode()]
    assert (P == 1, G == 1) == (False, False)


def test_build_takes_transitive_closure():
    P = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert P.leq("x", "z")
    assert P.leq("x", "x")
    assert not P.leq("z", "x")


def test_build_rejects_antisymmetry_violation():
    with pytest.raises(AntisymmetryViolation):
        build_poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_build_rejects_duplicates_and_unknowns():
    with pytest.raises(DuplicateElement):
        build_poset(["x", "x"], [])
    with pytest.raises(UnknownElement):
        build_poset(["x"], [("x", "y")])


def test_unknown_element_lookup():
    P = generate("chain", 2)
    assert [P.id_of(x) for x in P.elements] == [0, 1]
    for call in (P.id_of, P.check_element, P.up_set, P.down_set,
                 lambda x: P.leq("x1", x), lambda x: P.leq(x, "bad")):
        with pytest.raises(UnknownElement) as caught:
            call("nope")
        assert str(caught.value) == "'nope' is not an element of chain2"


def test_chain_fixture():
    P = generate("chain", 3)
    assert P.elements == ("x1", "x2", "x3")
    assert is_totally_ordered(P)
    assert is_directed(P)
    assert is_pathwise_connected(P)
    # diagonal + x1<x2, x1<x3, x2<x3
    assert len(P.pairs()) == 6


def test_vee_fixture():
    P = generate("vee", 1)
    assert sorted(P.elements) == ["a1", "a2", "o"]
    assert not is_totally_ordered(P)
    assert is_directed(P)
    assert not P.comparable("a1", "a2")


def test_circle_fixture():
    P = generate("circle", 2)
    assert P.elements == ("a1", "a2", "o1", "o2")
    assert not is_directed(P)
    assert not is_totally_ordered(P)
    assert is_pathwise_connected(P)
    assert P.leq("a1", "o1") and P.leq("a2", "o1")
    assert P.leq("a1", "o2") and P.leq("a2", "o2")
    assert not P.comparable("o1", "o2")


def test_disconnected_poset_detected():
    P = build_poset(["x", "y"], [])
    assert not is_pathwise_connected(P)


def test_generate_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        generate("chain", 0)
    with pytest.raises(BadParameter):
        generate("circle", 1)
    with pytest.raises(BadParameter):
        generate("torus", 2)
    for n in (2.0, "3", True, None):
        with pytest.raises(BadParameter) as caught:
            generate("chain", n)
        assert str(caught.value) == f"n must be an int, got {n!r}"


def test_down_and_up_sets():
    P = generate("circle", 2)
    assert P.down_set("o1") == ("a1", "a2", "o1")
    assert P.up_set("a1") == ("a1", "o1", "o2")


def test_fundamental_open_is_upward_closed():
    P = generate("circle", 2)
    U = fundamental_open(P, "a1")
    for x in U.members:
        for y in P.up_set(x):
            assert y in U


def test_text_round_trip():
    for P in (generate("chain", 3), generate("circle", 2), generate("vee", 1)):
        assert parse_poset_text(format_poset_text(P)) == P


@pytest.mark.parametrize("elements, name, bad", [
    (["a b", "c"], "p", "a b"),
    (["a;b"], "p", "a;b"),
    (["a#b", "c"], "p", "a#b"),
    (["", "c"], "p", ""),
    (["a(b"], "p", "a(b"),
    (["a,b"], "p", "a,b"),
    (["a=b"], "p", "a=b"),
    (["a\u2028b"], "p", "a\u2028b"),
    ([1], "p", 1),
    (["a"], "p#q", "p#q"),
    (["a"], "my p", "my p"),
    (["a"], None, None),
], ids=["space", "semicolon", "hash", "empty", "paren", "comma", "equals",
        "line-separator", "not-a-string", "hash-name", "space-name",
        "no-name"])
def test_names_the_text_formats_cannot_write_back_are_rejected(
        elements, name, bad):
    with pytest.raises(BadParameter, match=re.escape(repr(bad))):
        Poset(elements, [], name=name)


@given(st.lists(TEXT_NAMES, max_size=3, unique=True), TEXT_NAMES)
@example(["a b", "c"], "p")
@example(["a#b", "c"], "p")
@example(["", "c"], "p")
@example(["a"], "my#x")
def test_a_poset_is_rejected_or_round_trips_through_text(elements, name):
    try:
        P = Poset(elements, zip(elements, elements[1:]), name=name)
    except BadParameter:
        return
    Q = parse_poset_text(format_poset_text(P))
    assert Q == P and Q.name == P.name


def test_parse_errors():
    with pytest.raises(BadParameter):
        parse_poset_text("elem x y\n")  # missing header
    with pytest.raises(BadParameter):
        parse_poset_text("poset p\nwat x\n")
    with pytest.raises(BadParameter):
        parse_poset_text("poset p\nle x\n")


def test_parse_rejects_repeated_header_and_le_lines():
    with pytest.raises(BadParameter, match="repeated poset header after 'a'"):
        parse_poset_text("poset a\nelem x y\nposet b\n")
    with pytest.raises(BadParameter, match="repeated le line: 'le x y'"):
        parse_poset_text("poset p\nelem x y\nle x y\nle x y\n")
    # the same relation written once, next to its transitive consequence
    P = parse_poset_text("poset p\nelem x y z\nle x y\nle y z\nle x z\n")
    assert P.name == "p" and P.leq("x", "z")


def test_parse_ignores_comments_and_blanks():
    P = parse_poset_text("# a comment\nposet p\n\nelem x y # trailing\nle x y\n")
    assert P.leq("x", "y")


@given(
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")),
        max_size=8,
    )
)
def test_closure_is_reflexive_and_transitive(rels):
    try:
        P = build_poset(list("abcd"), rels)
    except AntisymmetryViolation:
        return
    for x in P.elements:
        assert P.leq(x, x)
        for y in P.elements:
            for z in P.elements:
                if P.leq(x, y) and P.leq(y, z):
                    assert P.leq(x, z)
                if x != y and P.leq(x, y):
                    assert not P.leq(y, x)


def warshall_poset(elements, relations):
    """The pairs of the Warshall closure of `relations` over the sorted
    elements, or the text of the first antisymmetry violation in that
    order: the brute-force oracle for `build_poset`."""
    elements = sorted(elements)
    index = {x: i for i, x in enumerate(elements)}
    n = len(elements)
    m = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in relations:
        m[index[lo]][index[hi]] = True
    for k in range(n):
        for i in range(n):
            if m[i][k]:
                m[i] = [a or b for a, b in zip(m[i], m[k])]
    closure = [(elements[i], elements[j]) for i in range(n) for j in range(n)
               if m[i][j]]
    for lo, hi in closure:
        if lo != hi and (hi, lo) in closure:
            return f"{lo!r} <= {hi!r} and {hi!r} <= {lo!r}"
    return tuple(closure)


def comparability_connected(elements, closure):
    """Whether the comparability graph of the pairs `closure` on
    `elements` is connected."""
    seen = set(elements[:1])
    for _ in elements:
        seen |= {y for x, y in closure if x in seen}
        seen |= {x for x, y in closure if y in seen}
    return len(seen) == len(elements)


@given(st.lists(st.tuples(st.sampled_from("abcdef"),
                          st.sampled_from("abcdef")), max_size=12))
@example([("c", "a"), ("b", "c"), ("a", "c"), ("c", "b")])
def test_build_poset_matches_the_warshall_closure(rels):
    """The pairs, up- and down-sets, pair count and connectivity of the
    order, or its first antisymmetry violation, are those of the
    Warshall closure; the drawn relations often close cycles.  After
    one pass over the example, the rows of a show c in a cycle with a
    but not yet b."""
    expected = warshall_poset("abcdef", rels)
    for construct in (build_poset, Poset):
        try:
            P = construct(list("fbdace"), rels)
        except AntisymmetryViolation as caught:
            assert str(caught) == expected
            continue
        assert P.pairs() == expected
        for x in P.elements:
            assert P.up_set(x) == tuple(hi for lo, hi in expected if lo == x)
            assert P.down_set(x) == tuple(lo for lo, hi in expected
                                          if hi == x)
        assert sum(map(int.bit_count, P.up)) == len(expected)
        assert is_pathwise_connected(P) == comparability_connected(
            P.elements, expected)


CHAIN = [f"a{i:05d}" for i in range(3000)]
COVERS = list(zip(CHAIN, CHAIN[1:]))


@pytest.mark.parametrize("relations", [
    COVERS,
    COVERS + [(CHAIN[-1], CHAIN[0])],
    [(hi, lo) for lo, hi in COVERS] + [(CHAIN[0], CHAIN[-1])],
], ids=["chain", "chain_closed_top_to_bottom", "reversed_closed_bottom_to_top"])
def test_order_of_a_long_chain_closes_fast(relations):
    """A 3,000-element chain closes by bit rows in a few hundredths of a
    second; a search that closes each element's up-set on its own takes
    seconds.  Both cycles report the least element and its successor."""
    start = time.perf_counter()
    try:
        P = Poset(CHAIN, relations)
        found = (sum(map(int.bit_count, P.up)), is_totally_ordered(P),
                 is_directed(P), is_pathwise_connected(P))
    except AntisymmetryViolation as caught:
        found = str(caught)
    assert time.perf_counter() - start < 1.0
    assert found == ((4_501_500, True, True, True) if relations is COVERS
                     else "'a00000' <= 'a00001' and 'a00001' <= 'a00000'")


@pytest.mark.parametrize("elements, relations, error, message", [
    (["a", "a", "b"], [], DuplicateElement, "duplicate element 'a'"),
    (["a"], [("a", "b")], UnknownElement,
     "relation references unknown element 'b'"),
    (["a", "b"], [("a", "b"), ("b", "a")], AntisymmetryViolation,
     "'a' <= 'b' and 'b' <= 'a'"),
    (["a", "b", "c"], [("a", "b"), ("a", "b", "c")], BadParameter,
     "relation ('a', 'b', 'c') is not a pair"),
], ids=["repeated", "unknown", "cycle", "not_a_pair"])
def test_poset_validates_its_input(elements, relations, error, message):
    for construct in (build_poset, Poset):
        with pytest.raises(error) as caught:
            construct(elements, relations)
        assert str(caught.value) == message


def test_poset_closes_its_input():
    assert Poset(["a"], []).leq("a", "a")
    P = Poset(["x", "y", "z"], iter([("x", "y"), ("y", "z")]), name="p")
    assert P == build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert P.leq("x", "z") and P.name == "p"


def brute_force_predicates(P):
    """(directed, totally ordered) from their pairwise definitions."""
    pairs = [(x, y) for x in P.elements for y in P.elements]
    directed = all(any(P.leq(x, z) and P.leq(y, z) for z in P.elements)
                   for x, y in pairs)
    return directed, all(P.comparable(x, y) for x, y in pairs)


@given(st.permutations("abcde"), st.integers(0, 5),
       st.sets(st.sampled_from([(i, j) for j in range(5) for i in range(j)])))
@example(list("abcde"), 0, set())
def test_order_predicates_match_their_definitions(names, n, pairs):
    """Relations run from earlier to later positions, so every draw is a
    poset; n = 0 is the empty poset, directed and totally ordered."""
    names = names[:n]
    P = build_poset(names, [(names[i], names[j]) for i, j in pairs if j < n])
    assert (is_directed(P), is_totally_ordered(P)) == brute_force_predicates(P)


def test_large_chain_round_trips_through_text():
    P = generate("chain", 200)
    assert parse_poset_text(format_poset_text(P)) == P


def test_parse_errors_give_the_line():
    with pytest.raises(BadParameter) as caught:
        parse_poset_text("poset p\n\n# comment\nelem x y\nfoo bar\n")
    assert str(caught.value) == "unrecognized poset line: 'foo bar' (line 5)"
    with pytest.raises(BadParameter) as caught:
        parse_poset_text("elem x y\n")  # about no one line
    assert str(caught.value) == "missing 'poset <name>' header"
