"""The one simplex class against the per-dimension code it replaced.

The face checks of the former `Simplex2` and `Simplex3`, the six cases
of the former `degeneracy` and the former face table of `permute2` are
kept here as oracles."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from posetbundle.errors import BadParameter, NoSuchSimplex
from posetbundle.simplicial import (
    EVEN_PERMUTATIONS,
    ODD_PERMUTATIONS,
    Simplex,
    Simplex0,
    Simplex1,
    Simplex2,
    Simplex3,
    complex_of,
    degeneracy,
    enumerate_simplices,
    enumerated,
    is_degenerate,
    permute2,
    reverse,
)

from strategies import small_posets


def old_simplex2_accepts(c0, c1, c2):
    return (c0.face0 == c1.face0 and c0.face1 == c2.face0
            and c1.face1 == c2.face1)


def old_simplex3_accepts(d0, d1, d2, d3):
    return (
        d0.face0 == d1.face0
        and d0.face1 == d2.face0
        and d0.face2 == d3.face0
        and d1.face1 == d2.face1
        and d1.face2 == d3.face1
        and d2.face2 == d3.face2
    )


OLD_ACCEPTS = {2: old_simplex2_accepts, 3: old_simplex3_accepts}
CLASSES = {0: Simplex0, 1: Simplex1, 2: Simplex2, 3: Simplex3}


def old_degeneracy(d, i):
    if d.dim == 0:
        return Simplex1(d.element, d, d)
    if d.dim == 1:
        if i == 0:
            return Simplex2(d.support, d, d, old_degeneracy(d.face1, 0))
        return Simplex2(d.support, old_degeneracy(d.face0, 0), d, d)
    if i == 0:
        return Simplex3(d.support, d, d, old_degeneracy(d.face1, 0),
                        old_degeneracy(d.face2, 0))
    if i == 1:
        return Simplex3(d.support, old_degeneracy(d.face0, 0), d, d,
                        old_degeneracy(d.face2, 1))
    return Simplex3(d.support, old_degeneracy(d.face0, 1),
                    old_degeneracy(d.face1, 1), d, d)


OLD_PERM2_FACES = {
    (0, 1, 2): ((0, False), (1, False), (2, False)),
    (1, 0, 2): ((1, False), (0, False), (2, True)),
    (2, 1, 0): ((2, True), (1, True), (0, True)),
    (0, 2, 1): ((0, True), (2, False), (1, False)),
    (2, 0, 1): ((2, False), (0, True), (1, True)),
    (1, 2, 0): ((1, True), (2, True), (0, False)),
}


def old_permute2(c, sigma):
    faces = [reverse(c.faces[idx]) if reversed_ else c.faces[idx]
             for idx, reversed_ in OLD_PERM2_FACES[sigma]]
    return Simplex2(c.support, *faces)


def builds(n, support, faces):
    """Whether the generic constructor accepts the faces."""
    try:
        CLASSES[n](support, *faces)
    except BadParameter:
        return False
    return True


@st.composite
def face_tuples(draw, n, seeds):
    """(poset, support, faces): n + 1 enumerated (n-1)-simplices, either
    drawn at random or taken from a seed simplex with some faces
    replaced at random, so both verdicts of the face check occur."""
    P = draw(small_posets(max_height=2 if n == 3 else None))
    lower = enumerate_simplices(P, n - 1)
    candidates = seeds(P)
    if candidates and draw(st.booleans()):
        d = draw(st.sampled_from(candidates))
        faces = list(d.faces)
        for k in draw(st.sets(st.integers(0, n))):
            faces[k] = draw(st.sampled_from(lower))
        return P, d.support, tuple(faces)
    faces = tuple(draw(st.sampled_from(lower)) for _ in range(n + 1))
    return P, draw(st.sampled_from(P.elements)), faces


def seeds2(P):
    return enumerate_simplices(P, 2)


def seeds3(P):
    return enumerate_simplices(P, 3) + tuple(
        degeneracy(c, i) for c in enumerate_simplices(P, 2)[:20]
        for i in range(3)
    )


@settings(max_examples=150, deadline=None)
@given(face_tuples(2, seeds2))
def test_dim2_faces_accepted_exactly_when_the_old_check_does(case):
    P, x, faces = case
    assert builds(2, x, faces) == old_simplex2_accepts(*faces)


@settings(max_examples=100, deadline=None)
@given(face_tuples(3, seeds3))
def test_dim3_faces_accepted_exactly_when_the_old_check_does(case):
    P, x, faces = case
    assert builds(3, x, faces) == old_simplex3_accepts(*faces)


def test_enumerated_faces_pass_the_old_checks(posets):
    for P in posets.values():
        for n in (2, 3):
            for d in enumerate_simplices(P, n)[:300]:
                assert OLD_ACCEPTS[n](*d.faces)


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop"])
def test_degeneracy_matches_the_old_cases(posets, poset_name):
    P = posets[poset_name]
    for n in range(3):
        for d in enumerate_simplices(P, n):
            for i in range(n + 1):
                s, old = degeneracy(d, i), old_degeneracy(d, i)
                assert type(s) is type(old) and s == old
                assert s.encode() == old.encode() and hash(s) == hash(old)


def test_permute2_matches_the_old_face_table(posets):
    for P in (posets["circle2"], posets["twoloop"]):
        for c in enumerate_simplices(P, 2):
            for sigma in EVEN_PERMUTATIONS + ODD_PERMUTATIONS:
                assert permute2(c, sigma) == old_permute2(c, sigma)


def test_subclasses_only_fix_the_dimension_and_the_slot_names():
    """Only the base class has slots; the names in the subclasses are
    views of them, so no simplex has a slot per face."""
    assert Simplex.__slots__ == ("support", "faces", "_hash")
    for n, cls in CLASSES.items():
        assert issubclass(cls, Simplex) and cls.dim == n
        assert cls.__slots__ == ()
    assert Simplex0.element is Simplex.support
    assert [k for k in range(5) if hasattr(Simplex3, f"face{k}")] == [
        0, 1, 2, 3]
    assert not hasattr(Simplex1, "face2") and not hasattr(Simplex0, "face0")


def test_faces_are_views(posets):
    for n in range(1, 4):
        for d in enumerate_simplices(posets["circle2"], n)[:20]:
            for k in range(n + 1):
                assert getattr(d, f"face{k}") is d.faces[k]
                with pytest.raises(AttributeError):
                    setattr(d, f"face{k}", d.faces[0])
            assert getattr(type(d), "face0").fset is None


def test_named_slots_read_the_faces(posets):
    for P in posets.values():
        for n in range(1, 4):
            for d in enumerate_simplices(P, n)[:50]:
                assert d.faces == tuple(getattr(d, f"face{k}")
                                        for k in range(n + 1))
    a = Simplex0("a")
    assert a.element == a.support == "a" and a.faces == ()


def test_simplices_are_immutable(posets):
    c = enumerate_simplices(posets["circle2"], 2)[0]
    a = Simplex0("a")
    for d, name in ((a, "element"), (a, "support"), (c, "face0"),
                    (c, "faces"), (c, "support"), (c, "_hash"),
                    (c, "other")):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert c == enumerate_simplices(posets["circle2"], 2)[0]
    assert not hasattr(c, "__dict__")


def test_wrong_face_count_is_a_type_error():
    a = Simplex0("a")
    b = Simplex1("a", a, a)
    c = Simplex2("a", b, b, b)
    for cls, args in ((Simplex0, ()), (Simplex0, ("a", a)),
                      (Simplex1, ("a", a)), (Simplex1, ("a", a, a, a)),
                      (Simplex2, ("a", b, b)), (Simplex2, ("a", b, b, b, b)),
                      (Simplex3, ("a", c, c, c)), (Simplex3, ("a",))):
        with pytest.raises(TypeError):
            cls(*args)


def test_pickling_round_trips(posets):
    for n in range(4):
        simplices = enumerate_simplices(posets["circle2"], n)[:40]
        back = pickle.loads(pickle.dumps(simplices))
        assert back == simplices
        assert [hash(d) for d in back] == [hash(d) for d in simplices]
        assert [type(d) for d in back] == [type(d) for d in simplices]


def hand_built_legs(b):
    """(s; s, end) and (s; s, start), for b with support s."""
    top = Simplex0(b.support)
    return (Simplex1(b.support, top, b.face0),
            Simplex1(b.support, top, b.face1))


def hand_built_pinch(b):
    top = Simplex0(b.support)
    return Simplex2(b.support, Simplex1(b.support, b.face0, top), b,
                    Simplex1(b.support, top, b.face1))


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop"])
def test_legs_are_the_hand_built_simplices(posets, poset_name):
    edges = complex_of(posets[poset_name])[1]
    table = edges.legs
    assert len(table) == len(edges.simplices)
    for b, legs in zip(edges.simplices, table):
        assert tuple(map(edges.simplices.__getitem__, legs)) == \
            hand_built_legs(b)
    assert edges.legs is table


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop"])
def test_pinches_are_the_hand_built_simplices(posets, poset_name):
    """The 2-simplex with vertices (start, support, end) and boundary 1
    b, as `construct_nonflat` and criterion 7 look it up: at (support,
    reverse of the end leg, b, start leg)."""
    K = complex_of(posets[poset_name])
    edges, triangles = K[1], K[2]
    for i, (b, (e, s)) in enumerate(zip(edges.simplices, edges.legs)):
        c = triangles.at[edges.support[i], edges.reverse[e], i, s]
        assert triangles.simplices[c] == hand_built_pinch(b)
        assert triangles.simplices[c].face1 is b


def test_enumerated_returns_the_enumerated_object(posets):
    P = posets["twoloop"]
    for n in range(3):
        for d in enumerate_simplices(P, n):
            fresh = pickle.loads(pickle.dumps(d))
            assert fresh is not d and enumerated(P, fresh) is d
    for foreign in (Simplex0("zz"), Simplex1("m1", Simplex0("M1"),
                                             Simplex0("m1"))):
        with pytest.raises(NoSuchSimplex):
            enumerated(P, foreign)


def old_is_degenerate(d):
    if d.dim == 0:
        return False
    if d.dim == 1:
        return d.face0 == d.face1 and d.face0.element == d.support
    return any(degeneracy(f, i) == d for f in d.faces for i in range(d.dim))


@pytest.mark.parametrize("poset_name", ["vee", "circle2", "twoloop"])
def test_is_degenerate_matches_the_scan_over_all_faces(posets, poset_name):
    P = posets[poset_name]
    for n in range(4):
        simplices = enumerate_simplices(P, n)
        flags = [is_degenerate(d) for d in simplices]
        assert flags == [old_is_degenerate(d) for d in simplices]
        if n:
            assert any(flags) and not all(flags)


def test_sort_keys_and_encodings_keep_their_form():
    a, b = Simplex0("a"), Simplex0("b")
    e = Simplex1("o", a, b)
    assert a.sort_key() == ("a",) and a.encode() == "a"
    assert e.sort_key() == ("o", ("a",), ("b",)) and e.encode() == "(o;a,b)"
    c = degeneracy(e, 0)
    assert c.sort_key() == ("o", e.sort_key(), e.sort_key(),
                            ("b", ("b",), ("b",)))
    assert c.encode() == "(o;(o;a,b),(o;a,b),(b;b,b))"
