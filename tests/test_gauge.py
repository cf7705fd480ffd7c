import random

import pytest

from posetbundle.acceptance import full_image_cocycle, winding_cocycle
from posetbundle.cochains import (Morphism1, enumerate_cocycles,
                                  find_morphism, is_morphism,
                                  trivial_cochain1)
from posetbundle.connections import (
    construct_nonflat,
    curvature,
    enumerate_connections,
    induced_cocycle,
    is_connection,
)
from posetbundle.errors import (Mismatch, MissingValue, UnknownElement,
                                WrongCocycle)
from posetbundle.gauge import (
    GaugeTransformation,
    gauge_act,
    gauge_group,
    gauge_group_raw,
    is_gauge_transformation,
)
from posetbundle.groups import cyclic_group, symmetric_group
from posetbundle.poset import generate
from posetbundle.simplicial import enumerate_simplices

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def test_morphism_lookups_name_the_missing_element(posets):
    z = trivial_cochain1(posets["circle2"], Z2)
    for f in (gauge_group(z)[0], find_morphism(z, z)):
        assert f("a1") == Z2.identity
        with pytest.raises(UnknownElement) as caught:
            f("zz")
        assert str(caught.value) == "'zz' is not an element of circle2"
    partial = Morphism1(z, z, (("a1", Z2.identity),))
    with pytest.raises(MissingValue, match="no value at 'a2'"):
        partial("a2")


def test_gauge_group_sizes(posets):
    assert len(gauge_group(trivial_cochain1(posets["circle2"], S3))) == 6
    assert len(gauge_group(winding_cocycle(posets["circle2"], Z3, "g1"))) == 3
    assert len(gauge_group(full_image_cocycle(posets["twoloop"], S3))) == 1


def test_gauge_group_matches_oracle(posets):
    P = posets["circle2"]
    for z in (
        trivial_cochain1(P, Z2),
        winding_cocycle(P, Z2, "g1"),
        winding_cocycle(P, S3, "213"),
    ):
        assert set(gauge_group(z)) == set(gauge_group_raw(z))


def test_gauge_group_raw_does_not_nest_per_simplex():
    """|G|^|P| = 1 passes any limit, so the raw scan meets complexes of
    any size: chain80 has 173,880 1-simplices, and a scan that nested one
    iterator per 1-simplex would overflow the C stack."""
    G = cyclic_group(1)
    (f,) = gauge_group_raw(trivial_cochain1(generate("chain", 80), G))
    assert set(f.as_dict().values()) == {G.identity}


def test_gauge_group_is_a_group(posets):
    z = winding_cocycle(posets["circle2"], S3, "231")
    gg = gauge_group(z)
    identity = next(
        f for f in gg
        if all(g == S3.identity for _, g in f.assignment)
    )
    for f in gg:
        assert is_gauge_transformation(z, f.as_dict())
        assert f.compose(f.inverse()) == identity
        for g in gg:
            assert f.compose(g) in gg


def test_wrong_cocycle_rejected(posets):
    P = posets["circle2"]
    from posetbundle.cochains import Cochain1

    non = Cochain1(P, Z2, {b: "g1" for b in enumerate_simplices(P, 1)})
    with pytest.raises(WrongCocycle):
        gauge_group(non)


def test_mixed_bundles_rejected(posets):
    P = posets["circle2"]
    f = gauge_group(trivial_cochain1(P, S3))[1]
    g = gauge_group(winding_cocycle(P, S3, "231"))[0]
    with pytest.raises(Mismatch):
        f.compose(g)


def test_gauge_action_on_connections(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    u, _ = construct_nonflat(z, g="g1")
    for f in gauge_group(z):
        out = gauge_act(f, u)
        assert is_connection(out)
        # the bundle moves by the same action
        assert induced_cocycle(out) == gauge_act(f, z)
        # a gauge transformation of z fixes z itself
        assert gauge_act(f, z) == z
        # curvature transforms by conjugation at the last vertex
        w, w1 = curvature(u), curvature(out)
        for c in enumerate_simplices(P, 2):
            v2 = c.face0.face0.element
            assert w1(c) == Z3.product(f(v2), w(c), Z3.inv(f(v2)))


def test_gauge_action_conjugates_curvature_nonabelian(posets):
    P = posets["circle2"]
    z = trivial_cochain1(P, S3)
    u, _ = construct_nonflat(z, g="213")
    w = curvature(u)
    for f in gauge_group(z):
        out = gauge_act(f, u)
        assert is_connection(out)
        w1 = curvature(out)
        for c in enumerate_simplices(P, 2):
            v2 = c.face0.face0.element
            assert w1(c) == S3.product(f(v2), w(c), S3.inv(f(v2)))


def test_gauge_action_is_an_action(posets):
    P = posets["circle2"]
    rng = random.Random(12)
    z = winding_cocycle(P, S3, "213")
    gg = gauge_group(z)
    u = z
    for _ in range(5):
        f = rng.choice(gg)
        g = rng.choice(gg)
        assert gauge_act(f, gauge_act(g, u)) == gauge_act(f.compose(g), u)


def test_gauge_act_accepts_plain_mappings(posets):
    P = posets["chain3"]
    u = trivial_cochain1(P, Z3)
    mapping = {a: "g1" for a in P.elements}
    assert gauge_act(mapping, u) == u  # constant map conjugates trivially


def test_gauge_act_accepts_any_morphism(posets):
    z = winding_cocycle(posets["circle2"], S3, "213")
    u, _ = construct_nonflat(z)
    m = find_morphism(z, z)
    assert type(m) is Morphism1
    assert gauge_act(m, u) == gauge_act(GaugeTransformation(z, m.assignment), u)
    for f in gauge_group(z):
        plain = Morphism1(z, z, f.assignment)
        assert gauge_act(plain, u) == gauge_act(f, u) == gauge_act(f.as_dict(), u)


def test_morphism_checks_accept_any_morphism(posets):
    """`is_gauge_transformation` and `is_morphism` take a `Morphism1` as
    `gauge_act` does: every gauge transformation, and every morphism to
    the cocycles in the gauge orbit of z and to the others."""
    P = posets["circle2"]
    z = winding_cocycle(P, S3, "231")
    for f in gauge_group(z):
        assert is_gauge_transformation(z, f)
    rng = random.Random(5)
    orbit = [gauge_act({a: rng.choice(S3.elements) for a in P.elements}, z)
             for _ in range(10)]
    for z1 in orbit + list(enumerate_cocycles(P, S3)[::37]):
        m = find_morphism(z, z1)
        assert m is not None or z1 not in orbit
        if m is not None:
            assert is_morphism(m, z, z1)


def test_gauge_transformations_are_morphisms_to_the_bundle(posets):
    z = winding_cocycle(posets["circle2"], S3, "231")
    for f in gauge_group(z):
        assert isinstance(f, Morphism1)
        assert f.cocycle is f.source is f.target is z
        assert GaugeTransformation(z, f.assignment) == f
        assert [f(a) for a, _ in f.assignment] == [g for _, g in f.assignment]
        assert repr(f).startswith("GaugeTransformation(source=")


def test_composition_is_pointwise_in_order(posets):
    """On the trivial bundle over S3 the gauge group is S3 itself, so the
    order of the pointwise product shows."""
    P = posets["circle2"]
    z = trivial_cochain1(P, S3)
    u, _ = construct_nonflat(z, g="213")
    gg = gauge_group(z)
    for f in gg:
        for g in gg:
            fg = f.compose(g)
            assert all(fg(a) == S3.mul(f(a), g(a)) for a in P.elements)
            assert gauge_act(f, gauge_act(g, u)) == gauge_act(fg, u)


def test_gauge_act_needs_every_element(posets):
    u = trivial_cochain1(posets["circle2"], Z2)
    with pytest.raises(MissingValue) as caught:
        gauge_act({}, u)
    assert str(caught.value) == (
        "assignment misses elements: ['a1', 'a2', 'o1', 'o2']")
