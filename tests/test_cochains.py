import gc
import itertools
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from posetbundle.acceptance import random_cocycle
from posetbundle.cochains import (
    Cochain0,
    Cochain1,
    Cochain2,
    associated_cocycle,
    are_equivalent,
    classify_cocycles,
    coboundary,
    coboundary0,
    coboundary1,
    coboundary2,
    coboundary_from_assignment,
    cocycle_from_hom,
    enumerate_cocycles,
    extend_to_path,
    find_morphism,
    format_assignment_text,
    format_cochain_text,
    identity_failures,
    is_cocycle,
    is_morphism,
    is_path_independent,
    parse_assignment_text,
    parse_cochain_text,
    pushforward,
    random_cochain0,
    random_cochain1,
    trivial_cochain1,
)
from posetbundle.cochains import _act, _hom_loops, _loop_ids
from posetbundle.errors import (
    BadParameter,
    CentralityViolation,
    DuplicateElement,
    MalformedTable,
    Mismatch,
    MissingValue,
    NoInverse,
    NoSuchSimplex,
    SearchLimitExceeded,
    UnknownElement,
)
from posetbundle.groups import (
    FiniteGroup,
    GroupHom,
    ad,
    cyclic_group,
    parse_group_text,
    symmetric_group,
)
from posetbundle.paths import (
    Path,
    compose,
    enumerate_homs,
    pi1_presentation,
    reverse_path,
    word_value,
)
from posetbundle.poset import (base_point, build_poset, generate,
                               parse_poset_text)
from posetbundle.simplicial import (
    Simplex0,
    Simplex1,
    boundary,
    complex_of,
    enumerate_simplices,
)

from oracles import enumerate_cocycles_raw, enumerate_simplices_raw
from strategies import TEXT_NAMES

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def all_cochain1(P, G):
    simplices = enumerate_simplices(P, 1)
    for values in itertools.product(G.elements, repeat=len(simplices)):
        yield Cochain1(P, G, dict(zip(simplices, values)))


def test_totality_is_checked(posets):
    P = posets["chain2"]
    with pytest.raises(MissingValue):
        Cochain1(P, Z2, {})
    b = enumerate_simplices(P, 1)[0]
    full = {d: "g0" for d in enumerate_simplices(P, 1)}
    full[b] = "nope"
    with pytest.raises(MissingValue):
        Cochain1(P, Z2, full)


def test_coboundary0_formula(posets):
    P = posets["circle2"]
    rng = random.Random(5)
    v = random_cochain0(P, Z3, rng)
    dv = coboundary0(v)
    for b in enumerate_simplices(P, 1):
        assert dv(b) == Z3.mul(v(b.face0), Z3.inv(v(b.face1)))
    assert is_cocycle(dv)
    assert coboundary(v) == dv


def test_coboundary1_formula(posets):
    P = posets["circle2"]
    rng = random.Random(6)
    u = random_cochain1(P, S3, rng)
    du = coboundary1(u)
    for c in enumerate_simplices(P, 2)[:40]:
        assert du(c) == S3.product(u(c.face0), u(c.face2), S3.inv(u(c.face1)))
        assert du.tau[c.face1] == ad(S3, u(c.face1))


def test_second_coboundary_vanishes(posets):
    P = posets["circle2"]
    rng = random.Random(7)
    for _ in range(5):
        u = random_cochain1(P, S3, rng)
        ddu = coboundary2(coboundary1(u))
        assert all(g == S3.identity for g in ddu.values.values())
    with pytest.raises(BadParameter):
        coboundary(ddu)


def test_second_coboundary_builds_no_simplex_objects():
    # d1, d2 and the cocycle check read the id tables only, so on a fresh
    # poset's complex no dimension builds its simplex objects.
    P = generate("circle", 2)
    u = random_cochain1(P, S3, random.Random(8))
    ddu = coboundary2(coboundary1(u))
    is_cocycle(u)
    K = complex_of(P)
    assert [n for n in range(4) if "simplices" in vars(K[n])] == []
    raw = enumerate_simplices_raw(P, 3)
    assert dict(ddu.values) == dict.fromkeys(raw, S3.identity)
    assert list(ddu.values) == list(raw)


def test_cochain2_intertwining_guard(posets):
    P = posets["circle2"]
    u = trivial_cochain1(P, S3)
    tau = {b: ad(S3, "231") for b in enumerate_simplices(P, 1)}
    values = {c: S3.identity for c in enumerate_simplices(P, 2)}
    with pytest.raises(Mismatch):
        Cochain2(P, S3, tau, values)
    del u


def test_cochain3_centrality_guard(posets):
    P = posets["chain3"]
    w = coboundary1(trivial_cochain1(P, S3))
    dw = coboundary2(w)
    bad = dict(dw.values)
    d = next(iter(bad))
    bad[d] = "213"
    from posetbundle.cochains import Cochain3

    with pytest.raises(CentralityViolation):
        Cochain3(P, S3, dw.tau, bad)


def test_every_cochain_degree_has_a_readable_repr(posets):
    """A repr names the degree, the poset and the group, never an
    address, so a failing example prints the same on every run."""
    cochains = [random_cochain0(posets["circle2"], S3, random.Random(0))]
    for _ in range(3):
        cochains.append(coboundary(cochains[-1]))
    assert [repr(c) for c in cochains] == [
        f"Cochain{n}(over circle2, values in S3)" for n in range(4)]


def test_cocycle_enumeration_matches_oracle(posets):
    cases = [
        (posets["chain2"], Z2),
        (posets["chain2"], Z3),
        (posets["vee"], Z2),
    ]
    for P, G in cases:
        fast = set(enumerate_cocycles(P, G))
        raw = set(enumerate_cocycles_raw(P, G))
        assert fast == raw
    with pytest.raises(SearchLimitExceeded):
        enumerate_cocycles_raw(posets["circle2"], Z2, limit=100)


def per_cocycle_loop_cocycles(P, G):
    """Reference enumeration: rebuild the based loop through every
    1-simplex for every (homomorphism, point assignment) pair and
    deduplicate whole cochains."""
    a0 = P.elements[0]
    presentation, words = pi1_presentation(P, a0)
    others = P.elements[1:]
    out, seen = [], set()
    for sigma in enumerate_homs(presentation, G):
        for choice in itertools.product(G.elements, repeat=len(others)):
            f = dict(zip(others, choice))
            f[a0] = G.identity
            values = {}
            for b in enumerate_simplices(P, 1):
                loop = compose(
                    reverse_path(words.tree_path(b.face0.element)),
                    compose(Path((b,)), words.tree_path(b.face1.element)),
                )
                g = word_value(words.path_word(loop), sigma, G)
                values[b] = G.product(f[b.face0.element], g,
                                      G.inv(f[b.face1.element]))
            z = Cochain1(P, G, values)
            if z not in seen:
                seen.add(z)
                out.append(z)
    return out


@pytest.mark.parametrize("poset_name,group", [
    ("circle2", Z2), ("circle2", Z3), ("circle2", S3), ("twoloop", Z2),
])
def test_cocycle_enumeration_matches_loop_construction(posets, poset_name,
                                                       group):
    P = posets[poset_name]
    fast = enumerate_cocycles(P, group)
    reference = per_cocycle_loop_cocycles(P, group)
    assert list(fast) == reference
    simplices = enumerate_simplices(P, 1)
    assert [[z(b) for b in simplices] for z in fast] == [
        [z(b) for b in simplices] for z in reference
    ]


def test_hom_loop_table_is_kept_on_the_complex(posets):
    """One table per (poset, group, limit), read by the enumeration and
    the sampler alike."""
    P = posets["twoloop"]
    table = _hom_loops(P, S3)
    assert _hom_loops(P, S3) is table
    assert complex_of(P).hom_loops[S3, 10 ** 6] is table
    assert len(enumerate_cocycles(P, S3)) == len(table) * 6 ** (len(P) - 1)
    random_cocycle(P, S3, random.Random(3))
    assert complex_of(P).hom_loops[S3, 10 ** 6] is table


def test_kept_hom_loop_table_does_not_lift_a_smaller_limit(posets):
    P = posets["twoloop"]
    _hom_loops(P, S3)
    with pytest.raises(SearchLimitExceeded) as caught:
        enumerate_cocycles(P, S3, limit=10)
    assert str(caught.value) == "6^5 = 7776 assignments exceed the limit 10"


def test_clearing_the_complex_cache_releases_the_hom_loop_tables(posets):
    """The poset's complex is its cache: an equal poset built again gets a
    fresh one with no hom-loop table, and dropping the poset frees the
    complex and the tables kept on it."""
    P = build_poset(posets["twoloop"].elements, posets["twoloop"].pairs())
    _hom_loops(P, S3)
    kept = complex_of(P)
    assert kept.hom_loops
    Q = build_poset(P.elements, P.pairs())
    assert Q == P and complex_of(Q) is not kept
    assert complex_of(Q).hom_loops == {}
    gone = weakref.ref(kept)
    del P, kept
    gc.collect()
    assert gone() is None


def test_based_loops_carry_the_edge_words(posets):
    """The loop at a0 along the tree to the start of b, across b and
    back along the tree from its end has the word of b."""
    for P in (posets["circle2"], posets["twoloop"]):
        for a0 in P.elements:
            _, words = pi1_presentation(P, a0)
            for i, b in enumerate(enumerate_simplices(P, 1)):
                loop = compose(
                    reverse_path(words.tree_path(b.face0.element)),
                    compose(Path((b,)), words.tree_path(b.face1.element)),
                )
                assert loop.start.element == a0 and loop.is_loop()
                assert b in loop.steps
                assert words.path_word(loop) == words.edge_words[i]


def test_empty_poset_has_no_cocycle_enumeration(groups):
    empty = build_poset([], [], name="empty")
    for fn in (enumerate_cocycles, classify_cocycles):
        with pytest.raises(BadParameter):
            fn(empty, groups["z2"])


def test_cocycle_count_on_circle(posets):
    assert len(enumerate_cocycles(posets["circle2"], Z2)) == 16


def test_classification_counts(posets):
    P = posets["circle2"]
    assert len(classify_cocycles(P, Z2)) == 2
    assert len(classify_cocycles(P, Z3)) == 3
    assert len(classify_cocycles(P, S3)) == 3
    assert len(classify_cocycles(posets["chain3"], S3)) == 1
    assert len(classify_cocycles(posets["vee"], Z3)) == 1


def test_class_representatives_are_inequivalent(posets):
    reps = classify_cocycles(posets["circle2"], Z3)
    for i, z in enumerate(reps):
        assert is_cocycle(z)
        assert are_equivalent(z, z)
        for z1 in reps[i + 1:]:
            assert not are_equivalent(z, z1)


def test_every_cocycle_is_equivalent_to_a_representative(posets):
    P = posets["circle2"]
    reps = classify_cocycles(P, Z2)
    for z in enumerate_cocycles(P, Z2):
        assert sum(1 for r in reps if are_equivalent(z, r)) == 1


def test_path_independence_is_the_coboundary_condition(posets):
    P = posets["chain2"]
    coboundaries = set()
    for choice in itertools.product(Z2.elements, repeat=len(P)):
        f = dict(zip(P.elements, choice))
        coboundaries.add(coboundary_from_assignment(P, Z2, f))
    for u in all_cochain1(P, Z2):
        witness = is_path_independent(u)
        assert (witness is not None) == (u in coboundaries)
        if witness is not None:
            assert coboundary0(witness) == u


def test_extension_is_multiplicative(posets):
    P = posets["circle2"]
    rng = random.Random(8)
    u = random_cochain1(P, S3, rng)
    b1 = Simplex1("o1", Simplex0("o1"), Simplex0("a1"))
    p = Path((b1,))
    q = reverse_path(p)
    loop = compose(q, p)
    assert extend_to_path(u, loop) == S3.mul(
        extend_to_path(u, q), extend_to_path(u, p)
    )


def test_morphism_condition(posets):
    P = posets["circle2"]
    z = enumerate_cocycles(P, Z3)[5]
    m = find_morphism(z, z)
    assert m is not None and is_morphism(m.as_dict(), z, z)
    for b in enumerate_simplices(P, 1):
        assert Z3.mul(m(b.face0.element), z(b)) == Z3.mul(z(b), m(b.face1.element))
    with pytest.raises(Mismatch):
        find_morphism(z, trivial_cochain1(posets["chain2"], Z3))


def test_morphisms_transport_the_cocycle_identity(posets):
    P = posets["circle2"]
    cocycles = enumerate_cocycles(P, Z2)
    z = cocycles[0]
    partners = [z1 for z1 in cocycles if find_morphism(z, z1) is not None]
    for z1 in partners:
        m = find_morphism(z, z1)
        assert is_morphism(m.as_dict(), z, z1)


def test_pushforward_and_associated(posets):
    P = posets["circle2"]
    sign = GroupHom.from_dict(
        S3, Z2,
        {g: ("g0" if g in ("123", "231", "312") else "g1") for g in S3.elements},
    )
    z = classify_cocycles(P, S3)[-1]
    out = associated_cocycle(z, sign)
    assert out.group == Z2 and is_cocycle(out)
    assert out == pushforward(sign, z)
    with pytest.raises(Mismatch):
        pushforward(sign, trivial_cochain1(P, Z2))
    rng = random.Random(9)
    non = random_cochain1(P, S3, rng)
    while is_cocycle(non):
        non = random_cochain1(P, S3, rng)
    with pytest.raises(Mismatch):
        associated_cocycle(non, sign)


def test_cocycle_violation_reporting(posets):
    P = posets["circle2"]
    rng = random.Random(10)
    non = random_cochain1(P, Z2, rng)
    while is_cocycle(non):
        non = random_cochain1(P, Z2, rng)
    simplices = complex_of(P)[2].simplices
    bad = tuple(simplices[i] for i in identity_failures(non))
    assert bad
    for c in bad:
        assert Z2.mul(non(c.face0), non(c.face2)) != non(c.face1)
    assert bad == tuple(c for c in enumerate_simplices(P, 2)
                        if Z2.mul(non(c.face0), non(c.face2)) != non(c.face1))
    assert tuple(identity_failures(trivial_cochain1(P, Z2))) == ()


def test_cochain_text_round_trip(posets):
    P = posets["circle2"]
    rng = random.Random(11)
    u = random_cochain1(P, S3, rng)
    text = format_cochain_text(u, name="sample")
    assert parse_cochain_text(text, P, S3) == u
    with pytest.raises(Mismatch):
        parse_cochain_text(text, posets["chain2"], S3)
    with pytest.raises(Mismatch):
        parse_cochain_text(text, P, Z2)
    with pytest.raises(BadParameter):
        parse_cochain_text("not a header\n", P, S3)


@given(st.lists(TEXT_NAMES, min_size=2, max_size=2, unique=True), TEXT_NAMES)
@example(["a;b", "c"], "e")
@example(["a,b", "c"], "e")
@example(["a(b", "c"], "e")
@example(["a=b", "c"], "e")
@example(["a", "b"], "x=y")
def test_a_trivial_cochain_is_rejected_or_round_trips_through_text(points, g):
    """On the poset points[0] <= points[1], with values in the group {g}."""
    try:
        P = build_poset(points, [tuple(points)], name="p")
        G = FiniteGroup([g], {(g, g): g}, name="one")
    except BadParameter:
        return
    u = trivial_cochain1(P, G)
    assert parse_cochain_text(format_cochain_text(u), P, G) == u


def test_cochain_text_rejects_repeated_simplex(posets):
    P = posets["circle2"]
    text = format_cochain_text(trivial_cochain1(P, Z3), name="t")
    first = text.splitlines()[1]
    repeated = text + first.replace("= g0", "= g1") + "\n"
    with pytest.raises(BadParameter, match="repeated"):
        parse_cochain_text(repeated, P, Z3)


def test_assignment_text_round_trip(posets):
    P = posets["circle2"]
    f = {a: "g1" for a in P.elements}
    assert parse_assignment_text(format_assignment_text(f), P, Z3) == f
    with pytest.raises(MissingValue):
        parse_assignment_text("a1 = g1\n", P, Z3)
    with pytest.raises(MissingValue):
        parse_assignment_text(
            "\n".join(f"{a} = bogus" for a in P.elements), P, Z3
        )


def test_assignment_text_rejects_repeated_element(posets):
    P = posets["circle2"]
    text = "\n".join(f"{a} = g0" for a in P.elements) + "\na1 = g2\n"
    with pytest.raises(BadParameter, match="repeated value for a1: 'a1 = g2'"):
        parse_assignment_text(text, P, Z3)


def test_cochain_and_assignment_errors_give_the_line(posets):
    P = posets["circle2"]
    text = format_cochain_text(trivial_cochain1(P, Z3), name="t")
    lines = text.splitlines()
    lines[3] = "(o1;a1,o1) g0"
    with pytest.raises(BadParameter) as caught:
        parse_cochain_text("\n".join(lines), P, Z3)
    assert str(caught.value) == "bad cochain line: '(o1;a1,o1) g0' (line 4)"
    with pytest.raises(Mismatch) as caught:
        parse_cochain_text("\n" + text, P, Z2)
    assert str(caught.value).endswith("not 'Z2' (line 2)")
    text = "\n".join(f"{a} = g0" for a in P.elements) + "\no9 = g1\n"
    with pytest.raises(UnknownElement) as caught:
        parse_assignment_text(text, P, Z3)
    assert str(caught.value) == "'o9' is not an element of circle2 (line 5)"



def test_cochain_value_errors_give_the_line(posets):
    """A value outside the group and a simplex outside the poset are
    rejected on their own line, not after the whole file is read."""
    P = posets["circle2"]
    lines = format_cochain_text(trivial_cochain1(P, Z3), name="t").splitlines()
    assert lines[1] == "(a1;a1,a1) = g0"
    outside = [lines[0], "(a1;a1,a1) = g9"] + lines[2:]
    with pytest.raises(MissingValue) as caught:
        parse_cochain_text("\n".join(outside), P, Z3)
    assert str(caught.value) == \
        "'g9' (value at (a1;a1,a1)) is not in Z3 (line 2)"
    foreign = lines + ["(o9;a1,a1) = g0"]
    with pytest.raises(NoSuchSimplex) as caught:
        parse_cochain_text("\n".join(foreign), P, Z3)
    assert str(caught.value) == \
        f"(o9;a1,a1) is not a 1-simplex of circle2 (line {len(foreign)})"
    with pytest.raises(MissingValue) as caught:
        parse_assignment_text("a1 = g0\na2 = g9\n", P, Z3)
    assert str(caught.value) == "'g9' (value at a2) is not in Z3 (line 2)"


def _cochain(text):
    return parse_cochain_text(text, build_poset(["x"], []), Z2)


def _assignment(text):
    return parse_assignment_text(text, build_poset(["x"], []), Z2)


def _table(text):
    return FiniteGroup(text.split(), {})


@pytest.mark.parametrize("parse, text, error, message, suffix", [
    (parse_group_text, "group a b\n", MalformedTable,
     "bad group header: 'group a b'", " (line 1)"),
    (parse_group_text, "group g\nelems e\nfoo\n", MalformedTable,
     "unrecognized group line: 'foo'", " (line 3)"),
    (parse_group_text, "elems e\ntable\ne: e\n", MalformedTable,
     "missing group header or elems line", ""),
    (parse_group_text, "group g\nelems e e\ntable\ne: e e\n",
     MalformedTable, "duplicate group elements", " (line 2)"),
    (_table, "e", MalformedTable, "missing product 'e'*'e'", ""),
    (parse_group_text, "group g\nelems e a\ntable\ne: e x\na: a e\n",
     MalformedTable, "product 'e'*'a' = 'x' not an element", ""),
    (parse_group_text, "group g\nelems e a\ntable\ne: e a\na: a a\n",
     NoInverse, "'a' has no inverse", ""),
    (parse_poset_text, "poset a b\n", BadParameter,
     "bad poset header: 'poset a b'", " (line 1)"),
    (parse_poset_text, "poset p\nelem x\nle y x\n", UnknownElement,
     "relation references unknown element 'y'", " (line 3)"),
    (parse_poset_text, "poset p\nelem a\nelem a\n", DuplicateElement,
     "duplicate element 'a'", " (line 3)"),
    (_cochain, "# nothing but a comment\n", BadParameter,
     "missing cochain header", ""),
    (_assignment, "\nx g0\n", BadParameter,
     "bad assignment line: 'x g0'", " (line 2)"),
])
def test_parser_and_table_errors(parse, text, error, message, suffix):
    with pytest.raises(error) as caught:
        parse(text)
    assert str(caught.value) == message + suffix

@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_coboundaries_are_cocycles(rng):
    from posetbundle.poset import generate

    P = generate("circle", 2)
    v = random_cochain0(P, S3, rng)
    assert is_path_independent(coboundary0(v)) is not None


def test_value_outside_the_poset_is_no_such_simplex(posets):
    P = posets["circle2"]
    u = random_cochain1(P, Z2, random.Random(0))
    with pytest.raises(NoSuchSimplex) as caught:
        u(Simplex1("a1", Simplex0("a1"), Simplex0("o1")))
    assert str(caught.value) == "(a1;a1,o1) is not a 1-simplex of circle2"
    c = enumerate_simplices(P, 2)[0]
    with pytest.raises(NoSuchSimplex) as caught:
        u(c)
    assert str(caught.value) == f"{c.encode()} is not a 1-simplex of circle2"
    step = enumerate_simplices(posets["chain3"], 1)[3]
    with pytest.raises(NoSuchSimplex):
        extend_to_path(u, Path((step,)))
    v = random_cochain0(P, Z2, random.Random(0))
    with pytest.raises(MissingValue) as caught:
        v.at("x1")
    assert str(caught.value) == "no value at 'x1'"


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_cochain0_at_matches_call(rng):
    from posetbundle.poset import generate

    P = generate("vee", 1)
    v = random_cochain0(P, Z3, rng)
    for a in enumerate_simplices(P, 0):
        assert v.at(a.element) == v(a)


# A point assignment that misses elements is refused, in the words of
# `parse_assignment_text`, by every entry point that reads one.
MISSES = "assignment misses elements: ['a1', 'a2', 'o1', 'o2']"


def test_coboundary_from_assignment_needs_every_element(posets):
    with pytest.raises(MissingValue) as caught:
        coboundary_from_assignment(posets["circle2"], Z2, {})
    assert str(caught.value) == MISSES


def test_is_morphism_needs_every_element(posets):
    u = trivial_cochain1(posets["circle2"], Z2)
    with pytest.raises(MissingValue) as caught:
        is_morphism({}, u, u)
    assert str(caught.value) == MISSES


def test_cocycle_from_hom_checks_sigma(posets):
    """circle2 has three generators: sigma needs one value of G each."""
    P = posets["circle2"]
    for sigma in [("g1",), ("g1",) * 4, ()]:
        with pytest.raises(BadParameter):
            cocycle_from_hom(P, Z2, sigma)
    with pytest.raises(MissingValue) as caught:
        cocycle_from_hom(P, Z2, ("g1", "zz", "g0"))
    assert str(caught.value).startswith("'zz' (value at ")
    presentation, _ = pi1_presentation(P, "a1")
    for sigma in enumerate_homs(presentation, Z2):
        assert is_cocycle(cocycle_from_hom(P, Z2, sigma))


def test_is_morphism_refuses_cochains_over_different_groups(posets):
    P = posets["circle2"]
    f = {a: "g0" for a in P.elements}
    with pytest.raises(Mismatch):
        is_morphism(f, trivial_cochain1(P, Z2), trivial_cochain1(P, Z3))
    with pytest.raises(Mismatch):
        is_morphism(f, trivial_cochain1(P, Z2),
                    trivial_cochain1(posets["vee"], Z2))


def per_assignment_cocycles(P, G):
    """`enumerate_cocycles` built one point assignment at a time: `_act`
    of each assignment on the loop values of each homomorphism."""
    presentation, words = pi1_presentation(P, base_point(P))
    faces, index = complex_of(P)[1].faces, G.index.__getitem__
    loops = [_loop_ids(G, words, tuple(map(index, sigma)))
             for sigma in enumerate_homs(presentation, G)]
    return tuple(Cochain1._of(P, G, _act(G, faces, x, (G.unit,) + choice))
                 for x in loops
                 for choice in itertools.product(range(len(G)),
                                                 repeat=len(P) - 1))


@pytest.mark.parametrize("G", [Z2, Z3, S3], ids=["z2", "z3", "s3"])
def test_column_build_matches_the_per_assignment_build(posets, G):
    """Same cocycles in the same order, on every fixture (all within the
    default limit) and on a one-point poset."""
    point = build_poset(["a"], [], name="point")
    for P in (point, *posets.values()):
        assert enumerate_cocycles(P, G) == per_assignment_cocycles(P, G)


CIRCLE2 = generate("circle", 2)


@given(TEXT_NAMES)
@example("my u")
@example("u#")
@example("")
def test_a_cochain_name_is_rejected_or_round_trips_through_text(name):
    u = random_cochain1(CIRCLE2, Z3, random.Random(len(name)))
    try:
        text = format_cochain_text(u, name=name)
    except BadParameter as caught:
        assert repr(name) in str(caught)
        return
    assert parse_cochain_text(text, CIRCLE2, Z3) == u


@pytest.mark.parametrize("name, group", [("chain2", "z2"), ("chain3", "z2"),
                                         ("vee", "z2"), ("chain2", "s3")])
def test_functor_test_decides_every_cochain(posets, groups, name, group):
    """All 1-cochains, so also those that break only the leg or only the
    chain half of `is_cocycle`; over S3 as well, since Z2 cannot see the
    order of a product."""
    P, G = posets[name], groups[group]
    n = len(complex_of(P)[1].faces)
    for ids in itertools.product(range(len(G)), repeat=n):
        u = Cochain1._of(P, G, ids)
        assert is_cocycle(u) == (next(identity_failures(u), None) is None)


def test_a_changed_value_of_the_functor_fails_the_chain_test(posets):
    """A chain3 x S3 cocycle z rebuilt through the legs from its functor
    g(x, v) = z(x; x, v), with g(x3, x1) changed: the rebuilt cochain
    passes every leg test by construction, so only the chain
    x1 < x2 < x3 can reject it."""
    P = posets["chain3"]
    edges = complex_of(P)[1]
    rows, inv = S3.rows, S3.inverses

    def through_legs(g):
        return Cochain1._of(P, S3, tuple(rows[inv[g[e]]][g[s]]
                                         for e, s in edges.legs))

    z = random_cocycle(P, S3, random.Random(3))
    assert through_legs(z.ids) == z
    g = list(z.ids)
    k = edges.id_of(Simplex1("x3", Simplex0("x3"), Simplex0("x1")))
    g[k] = rows[g[k]][S3.index["213"]]
    u = through_legs(g)
    assert u.ids[k] == g[k] and not is_cocycle(u)
    assert next(identity_failures(u), None) is not None


def test_a_degree_1_check_glues_no_2_simplices():
    P = build_poset(["p", "q", "r"], [("p", "q"), ("q", "r")],
                    name="fresh")
    K = complex_of(P)
    assert is_cocycle(trivial_cochain1(P, S3))
    assert is_cocycle(coboundary0(random_cochain0(P, S3, random.Random(1))))
    assert 2 not in K._cells


@pytest.mark.parametrize("op, message", [
    (is_cocycle, "cocycle condition implemented for degrees 0-2"),
    (coboundary, "no coboundary implemented above degree 2"),
], ids=["is_cocycle", "coboundary"])
def test_degree_3_has_no_cocycle_test_and_no_coboundary(posets, op, message):
    u = random_cochain1(posets["circle2"], Z3, random.Random(0))
    with pytest.raises(BadParameter) as caught:
        op(coboundary2(coboundary1(u)))
    assert str(caught.value) == message
