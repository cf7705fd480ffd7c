import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from posetbundle import smith
from posetbundle.connections import enumerate_loops
from posetbundle.errors import (
    BadParameter,
    EndpointMismatch,
    MissingValue,
    NoSuchSimplex,
    NotConnected,
    SearchLimitExceeded,
)
from posetbundle.groups import cyclic_group, symmetric_group
from posetbundle.paths import (
    Path,
    Presentation,
    compose,
    count_hom_classes,
    deformations,
    degenerate_loop,
    enumerate_homs,
    homotopic,
    invert_word,
    parse_path_text,
    pi1_presentation,
    reverse_path,
    word_value,
)
from posetbundle.poset import build_poset, generate, is_pathwise_connected
from posetbundle.simplicial import (Simplex0, Simplex1, complex_of,
                                   enumerate_simplices, reverse)

from strategies import TEXT_NAMES


def edge(support, end, start):
    return Simplex1(support, Simplex0(end), Simplex0(start))


def circle_paths():
    """Loops at a1 on circle2: a trivial out-and-back and the winding loop."""
    b1 = edge("o1", "o1", "a1")
    b2 = edge("o1", "o1", "a2")
    b3 = edge("o2", "o2", "a2")
    b4 = edge("o2", "o2", "a1")
    trivial = compose(reverse_path(Path((b1,))), Path((b1,)))
    winding = Path((b1, reverse(b2), b3, reverse(b4)))
    return trivial, winding


def test_path_chaining_is_validated():
    with pytest.raises(EndpointMismatch):
        Path(())
    with pytest.raises(EndpointMismatch):
        Path((edge("o1", "o1", "a1"), edge("o2", "o2", "a2")))


@pytest.mark.parametrize("name", ["circle2", "twoloop"])
def test_compose_and_reverse_give_the_checked_paths(posets, name):
    """Both build their result without re-checking its steps: it is the
    path that the checking constructor builds from them."""
    P = posets[name]
    loops = enumerate_loops(P, P.elements[0], 3)[:20]
    for p in loops:
        r = reverse_path(p)
        assert r.steps == tuple(reverse(b) for b in reversed(p.steps))
        assert r == Path(r.steps) and hash(r) == hash(Path(r.steps))
        for q in loops:
            assert compose(q, p) == Path(p.steps + q.steps)


SEPARATORS = (";", " ", "\n", " ; # a comment\n", ";\n\n;", "\t;")


@pytest.mark.parametrize("separator", SEPARATORS)
def test_path_text_round_trips_every_loop(posets, separator):
    """`parse_path_text` reads back what `Path.encode` writes, and the
    steps may be parted by `;`, blanks, line breaks and comments."""
    for P in posets.values():
        for p in enumerate_loops(P, P.elements[0], 3):
            assert parse_path_text(p.encode(), P) == p
            text = separator.join(b.encode() for b in reversed(p.steps))
            assert parse_path_text(f"# {P.name}\n{text}\n", P) == p


@given(st.lists(TEXT_NAMES, min_size=2, max_size=2, unique=True))
@example(["a;b", "c"])
@example(["a,b", "c"])
@example(["a(b", "c"])
@example(["a=b", "c"])
def test_a_step_is_rejected_or_round_trips_through_path_text(points):
    """The path file of each 1-simplex of points[0] <= points[1]."""
    try:
        P = build_poset(points, [tuple(points)], name="p")
    except BadParameter:
        return
    for b in enumerate_simplices(P, 1):
        assert parse_path_text(Path((b,)).encode(), P) == Path((b,))


@pytest.mark.parametrize("text, message", [
    ("", "path file contains no 1-simplices"),
    ("# only a comment\n\n", "path file contains no 1-simplices"),
    ("(o1;o1,a1) x", "path file has text outside 1-simplices: 'x' (line 1)"),
    ("(o1;o1,a1)\n(o1;a1,o1), (o1;o1,a1)",
     "path file has text outside 1-simplices: ',' (line 2)"),
    ("((o1;o1,a1)", "path file has text outside 1-simplices: '(' (line 1)"),
    ("(o1;o1)", "bad 1-simplex encoding: '(o1;o1)' (line 1)"),
])
def test_path_text_errors_name_the_line(posets, text, message):
    with pytest.raises(BadParameter) as caught:
        parse_path_text(text, posets["circle2"])
    assert str(caught.value) == message


def test_compose_and_reverse():
    b1 = edge("o1", "o1", "a1")  # a1 -> o1
    b2 = edge("o2", "o2", "a1")  # a1 -> o2
    loop = compose(reverse_path(Path((b1,))), Path((b1,)))  # a1 -> o1 -> a1
    assert loop.is_loop() and loop.start.element == "a1" and len(loop) == 2
    with pytest.raises(EndpointMismatch):
        compose(Path((b2,)), Path((b1,)))  # o1 is not a1
    q = Path((b1,))
    assert reverse_path(reverse_path(q)) == q
    assert reverse_path(q).start == q.end and reverse_path(q).end == q.start


def test_degenerate_loop():
    loop = degenerate_loop(Simplex0("a1"))
    assert loop.is_loop() and len(loop) == 1


def test_deformations_are_symmetric(posets):
    P = posets["circle2"]
    trivial, winding = circle_paths()
    for p in (trivial, winding):
        for q in deformations(p, P):
            assert p in deformations(q, P)
            assert q.start == p.start and q.end == p.end


def test_deformations_reject_foreign_steps(posets):
    P = posets["circle2"]
    foreign = Path((edge("o1", "o1", "a1"), edge("x", "x", "o1")))
    with pytest.raises(NoSuchSimplex):
        deformations(foreign, P)


def test_deformations_accept_freshly_built_steps(posets):
    P = posets["circle2"]
    trivial, _ = circle_paths()
    fresh = Path(tuple(edge(b.support, b.face0.element, b.face1.element)
                       for b in trivial.steps))
    assert fresh.steps[0] is not trivial.steps[0]
    assert deformations(fresh, P) == deformations(trivial, P)


@pytest.mark.parametrize("bound", [-1, 2.0, "4", True, None])
def test_homotopic_checks_bound_first(posets, bound):
    """A bad bound is refused before any search, even where the
    abelianization alone would answer "no"."""
    P = posets["circle2"]
    _, winding = circle_paths()
    degen = degenerate_loop(Simplex0("a1"))
    with pytest.raises(BadParameter):
        homotopic(winding, degen, P, bound)
    assert homotopic(winding, degen, P, 0).status == "no"


def test_homotopic_limit_counts_the_paths_searched(posets):
    """The loop at a1 through o1 and then o2 is three deformations from
    the degenerate loop within bound 3.  The search expands a layer of
    p's side, then one of q's; the first expansion of the third round
    starts with 24 paths held on both sides, p and q included, and
    meets q's side.  A limit of 24 admits that search and a limit of 23
    stops it."""
    P = posets["circle2"]
    p = Path((edge("o1", "a1", "a1"), edge("o2", "a1", "a1")))
    degen = degenerate_loop(Simplex0("a1"))
    yes = homotopic(p, degen, P, 3, limit=24)
    assert yes.status == "yes" and len(yes.certificate) == 4
    with pytest.raises(SearchLimitExceeded, match="exceed the limit 23$"):
        homotopic(p, degen, P, 3, limit=23)


def test_homotopic_limit_stops_an_exploding_search(posets):
    """The commutator of the two generator loops of twoloop at M1 has
    the abelianised word of the constant loop, so the search runs; the
    paths within bound 12 are too many to visit, and the limit ends the
    search at once."""
    P = posets["twoloop"]
    a = Path((edge("M1", "m2", "M1"), edge("M2", "m1", "m2"),
              edge("M1", "M1", "m1")))
    b = Path((edge("M1", "m2", "M1"), edge("M3", "m1", "m2"),
              edge("M1", "M1", "m1")))
    commutator = compose(reverse_path(b), compose(reverse_path(a),
                                                  compose(b, a)))
    assert len(commutator) == 12
    start = time.perf_counter()
    with pytest.raises(SearchLimitExceeded, match="length <= 12"):
        homotopic(commutator, degenerate_loop(Simplex0("M1")), P, 12,
                  limit=1000)
    assert time.perf_counter() - start < 1


def test_homotopy_verdicts(posets):
    P = posets["circle2"]
    trivial, winding = circle_paths()
    degen = degenerate_loop(Simplex0("a1"))
    yes = homotopic(trivial, degen, P, bound=4)
    assert yes.status == "yes" and bool(yes)
    # the certificate is a chain of one-step deformations
    for a, b in zip(yes.certificate, yes.certificate[1:]):
        assert b in deformations(a, P)
    assert homotopic(winding, degen, P, bound=4).status == "no"
    assert homotopic(winding, winding, P, bound=4).status == "yes"
    double = compose(winding, winding)
    assert homotopic(double, winding, P, bound=4).status == "no"
    with pytest.raises(EndpointMismatch):
        homotopic(trivial, Path((edge("o1", "o1", "a2"),)), P, bound=2)


def test_homotopy_verdict_unknown_below_the_needed_bound(posets):
    """A degenerate step and its square are homotopic, but the one
    deformation between them passes through a path of length 2."""
    P = posets["circle2"]
    b = edge("a1", "a1", "a1")
    p, q = Path((b,)), Path((b, b))
    unknown = homotopic(p, q, P, bound=1)
    assert unknown.status == "unknown"
    assert not unknown and unknown.certificate == ()
    yes = homotopic(p, q, P, bound=2)
    assert yes.status == "yes" and yes.certificate == (p, q)


def test_homotopy_bound_holds_for_both_endpoints(posets):
    """Every path of a certificate, p and q included, is within the
    bound, so the verdict does not depend on which loop comes first."""
    P = posets["circle2"]
    b, a = edge("o1", "a1", "o1"), edge("a1", "a1", "a1")
    p = Path((b, a, a, reverse(b)))
    degen = degenerate_loop(Simplex0("o1"))
    for bound in (0, 3):
        assert homotopic(p, degen, P, bound).status == "unknown"
        assert homotopic(degen, p, P, bound).status == "unknown"
    assert homotopic(p, p, P, 3).status == "unknown"
    yes, back = homotopic(p, degen, P, 4), homotopic(degen, p, P, 4)
    assert yes.status == back.status == "yes"
    assert max(map(len, yes.certificate + back.certificate)) == 4
    assert len(yes.certificate) == len(back.certificate)


def with_a_disjoint_edge(P):
    """P beside a component of its own, the edge zz1 < zz2."""
    return build_poset(P.elements + ("zz1", "zz2"),
                       P.pairs() + (("zz1", "zz2"),), name=P.name + "-zz")


@pytest.mark.parametrize("name", ["circle2", "twoloop"])
def test_homotopic_answers_on_a_poset_with_several_components(posets, name):
    """A component the paths do not reach changes no verdict and no
    certificate: the relator lattice of a spanning forest is the direct
    sum over the components."""
    P = posets[name]
    Q = with_a_disjoint_edge(P)
    assert not is_pathwise_connected(Q)
    loops = enumerate_loops(P, P.elements[0], 4)
    rng, statuses = random.Random(12), set()
    for _ in range(150):
        p, q = rng.choice(loops), rng.choice(loops)
        alone = homotopic(p, q, P, 4)
        beside = homotopic(parse_path_text(p.encode(), Q),
                           parse_path_text(q.encode(), Q), Q, 4)
        assert beside == alone
        statuses.add(alone.status)
    assert statuses == {"yes", "no", "unknown"}


def test_pi1_circle_is_infinite_cyclic(posets):
    pres, words = pi1_presentation(posets["circle2"], "a1")
    assert len(pres.generators) == 3
    assert len(pres.relators) == 42
    assert pres.abelian_invariants() == [0]


def test_pi1_twoloop_is_free_of_rank_two(posets):
    pres, _ = pi1_presentation(posets["twoloop"], "m1")
    assert pres.abelian_invariants() == [0, 0]


def test_pi1_chain_is_trivial(posets):
    pres, _ = pi1_presentation(posets["chain3"], "x1")
    assert pres.abelian_invariants() == []


def test_abelian_invariants_of_the_minimal_sphere_stay_small():
    """S0 * S0 * S0, the 6-point minimal model of S^2 (McCord): 1,548
    relators, so a rows x rows transform would take about 19 MB."""
    levels = (("a0", "a1"), ("b0", "b1"), ("c0", "c1"))
    P = build_poset(
        [x for level in levels for x in level],
        [(lo, hi) for low, high in zip(levels, levels[1:])
         for lo in low for hi in high],
        name="s2-minimal",
    )
    pres, _ = pi1_presentation(P, "a0")
    assert (len(pres.generators), len(pres.relators)) == (21, 1548)
    assert "lattice" not in vars(pres)
    tracemalloc.start()
    try:
        assert pres.abelian_invariants() == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_presentation_is_factorised_once(posets, monkeypatch):
    """Ten homotopy queries and the invariants share one Smith form."""
    P = posets["twoloop"]
    monkeypatch.delitem(complex_of(P).presentations, "M1", raising=False)
    monkeypatch.setattr(complex_of(P), "pi1", None)
    calls = []
    factorise = smith.smith_normal_form
    monkeypatch.setattr(smith, "smith_normal_form",
                        lambda matrix: calls.append(1) or factorise(matrix))
    loops = enumerate_loops(P, "M1", 4)
    verdicts = [homotopic(loops[0], q, P, 4).status for q in loops[::17]]
    assert set(verdicts) == {"yes", "no", "unknown"}
    assert pi1_presentation(P, "M1")[0].abelian_invariants() == [0, 0]
    assert len(calls) == 1


def test_presentation_letters_are_signed_generator_indices():
    square = Presentation(("x",), (((0, 1), (0, 1)),))
    assert square.abelian_invariants() == [2]
    assert enumerate_homs(square, cyclic_group(2)) == (("g0",), ("g1",))
    assert enumerate_homs(square, cyclic_group(3)) == (("g0",),)
    for letter in ((0, 2), (1, 1), (-1, 1), (0, 0)):
        with pytest.raises(BadParameter, match="relator letter"):
            Presentation(("x",), (((0, 1), letter),))


def test_pi1_requires_connectivity():
    P = build_poset(["x", "y"], [], name="dots")
    with pytest.raises(NotConnected):
        pi1_presentation(P, "x")


def test_presentation_is_kept_on_the_complex(posets):
    """One presentation per base point, owned by the poset's `Complex`;
    an equal poset built again owns an equal one of its own."""
    P = posets["circle2"]
    first = pi1_presentation(P, "a1")
    assert pi1_presentation(P, "a1") is first
    assert complex_of(P).presentations["a1"] is first
    again = pi1_presentation(generate("circle", 2), "a1")
    assert again is not first and again[0] == first[0]
    assert again[1].edge_words == first[1].edge_words
    assert pi1_presentation(P, "a2") is not first


def test_base_points_share_one_presentation(posets, monkeypatch):
    """The presentation and the edge words do not depend on the base
    point: every base of a poset gets the same objects, and the relator
    lattice is factorised once per poset."""
    calls = []
    factorise = smith.smith_normal_form
    monkeypatch.setattr(smith, "smith_normal_form",
                        lambda matrix: calls.append(1) or factorise(matrix))
    for name, P in posets.items():
        K = complex_of(P)
        monkeypatch.setattr(K, "presentations", {})
        monkeypatch.setattr(K, "pi1", None)
        first, words = pi1_presentation(P, P.elements[0])
        for a in P.elements:
            presentation, other = pi1_presentation(P, a)
            assert presentation is first
            assert other.edge_words is words.edge_words
            assert presentation.lattice is first.lattice
            assert other.tree_path(a).start.element == a
        assert len(calls) == list(posets).index(name) + 1


def test_tree_paths_reach_every_element(posets):
    P = posets["circle2"]
    _, words = pi1_presentation(P, "a1")
    for a in P.elements:
        p = words.tree_path(a)
        assert p.start.element == "a1" and p.end.element == a


def test_word_map_refuses_foreign_points_and_steps(posets):
    _, words = pi1_presentation(posets["circle2"], "a1")
    with pytest.raises(NoSuchSimplex) as caught:
        words.tree_path("zz")
    assert str(caught.value) == "zz is not a 0-simplex of circle2"
    step = complex_of(posets["chain3"])[1].simplices[0]
    with pytest.raises(NoSuchSimplex) as caught:
        words.path_word(Path((step,)))
    assert str(caught.value) == (
        f"{step.encode()} is not a 1-simplex of circle2")


def test_hom_counts(posets):
    pres, _ = pi1_presentation(posets["circle2"], "a1")
    assert len(enumerate_homs(pres, cyclic_group(2))) == 2
    assert len(enumerate_homs(pres, cyclic_group(3))) == 3
    assert len(enumerate_homs(pres, symmetric_group(3))) == 6
    assert count_hom_classes(pres, cyclic_group(3)) == 3
    assert count_hom_classes(pres, symmetric_group(3)) == 3


def test_hom_enumeration_limit(posets):
    pres, _ = pi1_presentation(posets["circle2"], "a1")
    with pytest.raises(SearchLimitExceeded):
        enumerate_homs(pres, symmetric_group(3), limit=10)


def test_words_evaluate_consistently(posets):
    P = posets["circle2"]
    G = symmetric_group(3)
    pres, words = pi1_presentation(P, "a1")
    sigma = enumerate_homs(pres, G)[-1]
    _, winding = circle_paths()
    w = words.path_word(winding)
    assert word_value(invert_word(w), sigma, G) == G.inv(word_value(w, sigma, G))
    assert invert_word(invert_word(w)) == w
    double = words.path_word(compose(winding, winding))
    assert word_value(double, sigma, G) == G.mul(
        word_value(w, sigma, G), word_value(w, sigma, G)
    )


def test_word_value_refuses_values_outside_the_group_and_missing_values():
    with pytest.raises(MissingValue) as caught:
        word_value(((0, 1),), ("zz",), cyclic_group(2))
    assert str(caught.value) == "'zz' is not an element of Z2"
    with pytest.raises(BadParameter) as caught:
        word_value(((1, 1),), ("g1",), cyclic_group(3))
    assert str(caught.value) == (
        "letter 1 names a generator without a value (1 given)")
