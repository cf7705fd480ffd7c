import re

import pytest
from hypothesis import example, given, strategies as st

from posetbundle.errors import (
    BadParameter,
    DiamondUndefined,
    DotUndefined,
    MalformedTable,
    Mismatch,
    MissingValue,
    NoIdentity,
    NotAssociative,
)
from posetbundle.groups import (
    Arrow2G,
    Arrow3G,
    FiniteGroup,
    GroupHom,
    InnerAut,
    ad,
    compose_2g,
    compose_3g,
    cyclic_group,
    format_group_text,
    hom_compose,
    identity_aut,
    one_arrows_2g,
    parse_group_text,
    symmetric_group,
    trivial_group,
    unit_2g,
)
from strategies import TEXT_NAMES

S3 = symmetric_group(3)
Z6 = cyclic_group(6)


def test_standard_constructions():
    assert len(trivial_group()) == 1
    assert len(cyclic_group(4)) == 4
    assert cyclic_group(4).is_abelian()
    assert len(S3) == 6
    assert not S3.is_abelian()
    assert S3.center() == ("123",)
    assert S3.identity == "123"


def test_group_axioms_checked():
    bad = {(g, h): "e" for g in "ex" for h in "ex"}
    with pytest.raises(NoIdentity):
        # constant table: 'x' has no identity acting on it
        parse_group_text("group g\nelems e x\ntable\ne: e e\nx: e e\n")
    bad_assoc = "group g\nelems e a b\ntable\ne: e a b\na: a e a\nb: b a e\n"
    with pytest.raises(MalformedTable):
        parse_group_text(bad_assoc)
    del bad


def test_subgroup_generated():
    rotations = S3.subgroup_generated(["231"])
    assert rotations == ("123", "231", "312")
    assert S3.subgroup_generated([]) == ("123",)
    assert S3.subgroup_generated(["213", "132"]) == S3.elements


def test_centralizer_and_conjugation():
    assert S3.centralizer(S3.elements) == ("123",)
    assert set(S3.conjugate_subset(("123", "231", "312"), "213")) == {
        "123", "231", "312"
    }
    for g in S3.elements:
        for h in S3.elements:
            assert S3.conjugate(g, S3.conjugate(S3.inv(g), h)) == h


def test_normal_closure():
    closure = S3.normal_closure_in(S3.elements, ["213"])
    assert closure == S3.elements  # transpositions generate S3 normally
    assert S3.normal_closure_in(S3.elements, []) == ("123",)


def test_subgroup_extraction():
    A3 = S3.subgroup(("123", "231", "312"), name="A3")
    assert len(A3) == 3 and A3.is_abelian()
    # Not closed: the constructor names the first product outside.
    with pytest.raises(MalformedTable) as caught:
        S3.subgroup(("123", "213", "231"))
    assert str(caught.value) == "product '213'*'231' = '132' not an element"


def test_inner_automorphisms_modulo_center():
    Z3 = cyclic_group(3)
    assert ad(Z3, "g1") == identity_aut(Z3)  # abelian: all inner trivial
    reps = {ad(S3, g) for g in S3.elements}
    assert len(reps) == 6  # trivial center: faithful
    tau = ad(S3, "213")
    assert tau.compose(tau.inverse()).is_identity()
    for h in S3.elements:
        assert tau(h) == S3.conjugate("213", h)


def test_one_arrows_2g():
    assert len(one_arrows_2g(S3)) == 6
    assert len(one_arrows_2g(cyclic_group(4))) == 1


def one_arrows_by_pairwise_scan(G):
    """Oracle: keep (e, ad(g)) for each g, in element order, unless it
    equals a kept one."""
    seen = []
    for g in G.elements:
        tau = ad(G, g)
        if all(tau != existing.tau for existing in seen):
            seen.append(Arrow2G(G.identity, tau))
    return tuple(seen)


@pytest.mark.parametrize("G", [S3, symmetric_group(4), cyclic_group(4)],
                         ids=["S3", "S4", "Z4"])
def test_one_arrows_2g_keep_the_first_representatives_in_order(G):
    # Arrow2G equality ignores the representative; the repr shows it.
    assert repr(one_arrows_2g(G)) == repr(one_arrows_by_pairwise_scan(G))


def test_compose_2g_laws():
    x = Arrow2G("213", ad(S3, "231"))
    y = Arrow2G("132", ad(S3, "312"))
    z = compose_2g(x, y, "times")
    assert z.g == S3.mul("213", ad(S3, "231")("132"))
    assert z.tau == ad(S3, "231").compose(ad(S3, "312"))
    # diamond needs ad(h) gamma = tau
    h = "213"
    ok = Arrow2G("123", ad(S3, h).compose(ad(S3, "231")))
    w = compose_2g(ok, Arrow2G(h, ad(S3, "231")), "diamond")
    assert w.g == h and w.tau == ad(S3, "231")
    with pytest.raises(DiamondUndefined):
        compose_2g(x, y, "diamond")
    with pytest.raises(Mismatch):
        compose_2g(x, y, "what")
    u = unit_2g(S3)
    assert compose_2g(u, x, "times").g == x.g


def test_compose_3g_laws():
    Z4 = cyclic_group(4)
    tau = identity_aut(Z4)
    x = Arrow3G("g1", tau, tau)
    y = Arrow3G("g2", tau, tau)
    assert compose_3g(x, y, "times").g == "g3"
    assert compose_3g(x, y, "diamond").g == "g3"
    assert compose_3g(x, y, "dot").g == "g3"
    # dot needs equal components; build a mismatch in S3 x S3 style
    s_tau = ad(S3, "231")
    a = Arrow3G("123", s_tau, identity_aut(S3))
    b = Arrow3G("123", identity_aut(S3), identity_aut(S3))
    with pytest.raises(DotUndefined):
        compose_3g(a, b, "dot")
    with pytest.raises(DiamondUndefined):
        compose_3g(b, a, "diamond")
    with pytest.raises(Mismatch):
        Arrow3G("213", s_tau, s_tau)  # non-central top component


def test_group_hom():
    Z2 = cyclic_group(2)
    sign = GroupHom.from_dict(
        S3, Z2,
        {g: ("g0" if g in ("123", "231", "312") else "g1") for g in S3.elements},
    )
    assert sign("213") == "g1"
    assert not sign.is_injective()
    ident = GroupHom.identity(S3)
    assert hom_compose(sign, ident)("213") == "g1"
    with pytest.raises(Mismatch):
        hom_compose(ident, sign)
    with pytest.raises(Mismatch):
        # g1 has order 2 but its image has order 3
        GroupHom.from_dict(Z2, cyclic_group(3), {"g0": "g0", "g1": "g1"})


def test_inclusion_hom():
    A3 = S3.subgroup(("123", "231", "312"), name="A3")
    inc = GroupHom.inclusion(A3, S3)
    assert inc.is_injective()
    assert inc("231") == "231"


def test_text_round_trip():
    for G in (cyclic_group(3), S3):
        H = parse_group_text(format_group_text(G))
        assert H.elements == tuple(
            [G.identity] + [g for g in G.elements if g != G.identity]
        )
        for g in G.elements:
            for h in G.elements:
                assert H.mul(g, h) == G.mul(g, h)


@pytest.mark.parametrize("elements, name, bad", [
    (("e",), "my#x", "my#x"),
    (("e",), "", ""),
    (("a b",), "G", "a b"),
    (("a#",), "G", "a#"),
    (("a:b",), "G", "a:b"),
    (("",), "G", ""),
], ids=["hash-name", "empty-name", "space", "hash", "colon", "empty"])
def test_names_the_group_format_cannot_write_back_are_rejected(
        elements, name, bad):
    (g,) = elements
    with pytest.raises(BadParameter, match=re.escape(repr(bad))):
        FiniteGroup(elements, {(g, g): g}, name=name)


@given(st.lists(TEXT_NAMES, min_size=1, max_size=3, unique=True), TEXT_NAMES)
@example(["e", "a b"], "G")
@example(["e", "a#"], "G")
@example(["e", "a:b"], "G")
@example(["e", ""], "G")
@example(["e"], "my#x")
def test_a_group_is_rejected_or_round_trips_through_text(names, name):
    """The cyclic group on `names`, the first being the identity."""
    n = len(names)
    table = {(g, h): names[(i + j) % n]
             for i, g in enumerate(names) for j, h in enumerate(names)}
    try:
        G = FiniteGroup(names, table, name=name)
    except BadParameter:
        return
    H = parse_group_text(format_group_text(G))
    assert H == G and H.name == G.name


def test_parse_rejects_corrupted_tables():
    text = format_group_text(cyclic_group(3))
    corrupted = text.replace("g1 g2 g0", "g1 g1 g0")
    with pytest.raises(NotAssociative):
        parse_group_text(corrupted)
    with pytest.raises(MalformedTable):
        parse_group_text("group g\nelems e\n")  # no table
    with pytest.raises(NoIdentity):
        parse_group_text(
            "group g\nelems a e\ntable\na: e a\ne: a e\n"
        )  # identity not listed first


def test_parse_rejects_unknown_and_repeated_rows():
    text = format_group_text(cyclic_group(2))
    with pytest.raises(MalformedTable, match="unknown element"):
        parse_group_text(text + "x: g0 g1\n")
    with pytest.raises(MalformedTable, match="repeated"):
        parse_group_text(text + "g1: g1 g0\n")
    with pytest.raises(MalformedTable):
        parse_group_text("group g\ntable\ne: e\n")  # rows before elems


def test_parse_rejects_repeated_header_and_elems_lines():
    """A second header or elems line is an error, not the one kept."""
    text = format_group_text(cyclic_group(2))
    with pytest.raises(MalformedTable, match="repeated group header: "
                                             "'group other'"):
        parse_group_text(text.replace("elems", "group other\nelems"))
    with pytest.raises(MalformedTable, match="repeated elems line: "
                                             "'elems g0 x'"):
        parse_group_text(text.replace("table", "elems g0 x\ntable"))


def test_parse_errors_give_the_line():
    text = "# Z2\ngroup z2\nelems e a\ntable\ne: e a\nb: a e\n"
    with pytest.raises(MalformedTable) as caught:
        parse_group_text(text)
    assert str(caught.value) == "table row for unknown element: 'b: a e' " \
                                "(line 6)"
    with pytest.raises(MalformedTable) as caught:
        parse_group_text("group z2\nelems e a\n")  # about no one line
    assert str(caught.value) == "missing or short table row for 'e'"


def test_homomorphisms_look_up_without_rebuilding():
    phi = GroupHom.identity(S3)
    assert [phi(g) for g in S3.elements] == list(S3.elements)
    assert phi == GroupHom.identity(S3)
    assert hash(phi) == hash(GroupHom.identity(S3))
    assert phi.as_dict() == dict(phi.mapping)
    assert phi.as_dict() is not phi.as_dict()
    with pytest.raises(MissingValue) as caught:
        phi("nope")
    assert str(caught.value) == "'nope' is not an element of S3"


Z3 = cyclic_group(3)


@pytest.mark.parametrize("op, name", [
    (lambda: Z3.mul("zz", "g1"), "zz"),
    (lambda: Z3.mul("g1", "zz"), "zz"),
    (lambda: Z3.inv("zz"), "zz"),
    (lambda: Z3.product("g1", "zz"), "zz"),
    (lambda: Z3.conjugate("zz", "g1"), "zz"),
    (lambda: Z3.subgroup_generated(["zz"]), "zz"),
    (lambda: Z3.centralizer(["zz"]), "zz"),
    (lambda: Z3.conjugate_subset(["g1"], "zz"), "zz"),
    (lambda: Z3.normal_closure_in(Z3.elements, ["zz"]), "zz"),
    (lambda: Z3.subgroup(["zz"]), "zz"),
    (lambda: InnerAut(Z3, "zz"), "zz"),
    (lambda: InnerAut(Z3, "g1").compose(InnerAut(S3, "123")), "123"),
], ids=["mul", "mul-right", "inv", "product", "conjugate",
        "subgroup_generated", "centralizer", "conjugate_subset",
        "normal_closure_in", "subgroup", "InnerAut", "InnerAut.compose"])
def test_a_name_outside_the_group_is_a_missing_value(op, name):
    with pytest.raises(MissingValue) as caught:
        op()
    assert str(caught.value) == f"{name!r} is not an element of Z3"


@given(st.sampled_from(S3.elements), st.sampled_from(S3.elements),
       st.sampled_from(S3.elements))
def test_conjugation_is_a_homomorphism(g, h, k):
    assert S3.conjugate(g, S3.mul(h, k)) == S3.mul(
        S3.conjugate(g, h), S3.conjugate(g, k)
    )


@given(st.sampled_from(Z6.elements), st.sampled_from(Z6.elements))
def test_abelian_inverse_of_product(g, h):
    assert Z6.inv(Z6.mul(g, h)) == Z6.mul(Z6.inv(g), Z6.inv(h))


TOP = Arrow3G(S3.identity, identity_aut(S3), identity_aut(S3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: FiniteGroup(["e", "e"], {("e", "e"): "e"}), MalformedTable,
     "duplicate group elements"),
    (lambda: compose_2g(unit_2g(S3), unit_2g(S3), "plus"), Mismatch,
     "unknown 2G law 'plus'"),
    (lambda: compose_3g(TOP, TOP, "plus"), Mismatch, "unknown 3G law 'plus'"),
    (lambda: GroupHom(Z6, Z6, (("g0", "g0"),)).validate(), Mismatch,
     "homomorphism not total on its source"),
    (lambda: GroupHom.from_dict(S3, Z6, dict.fromkeys(S3.elements, "x")),
     Mismatch, "image 'x' not in target group"),
], ids=["repeated-element", "2g-law", "3g-law", "not-total", "outside"])
def test_group_constructions_refuse_malformed_input(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
