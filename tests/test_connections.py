import itertools
import random

import pytest

from posetbundle import connections
from posetbundle.acceptance import (
    full_image_cocycle,
    random_connection,
    winding_cocycle,
)
from posetbundle.cochains import (
    Cochain1,
    are_equivalent,
    associated_cocycle,
    classify_cocycles,
    coboundary,
    coboundary0,
    coboundary1,
    coboundary2,
    coboundary_from_assignment,
    cocycle_from_hom,
    enumerate_cocycles,
    find_morphism,
    format_assignment_text,
    format_cochain_text,
    identity_failures,
    is_cocycle,
    is_morphism,
    is_path_independent,
    morphisms,
    parse_assignment_text,
    pushforward,
    random_cochain0,
    random_cochain1,
    tree_transport,
    trivial_cochain1,
)
from posetbundle.connections import (
    ambrose_singer_reduce,
    central_decompose,
    central_part,
    construct_from_cochain,
    construct_nonflat,
    curvature,
    enumerate_connections,
    enumerate_loops,
    holonomy,
    holonomy_by_loops,
    holonomy_conjugacy_check,
    holonomy_generators,
    induced_cocycle,
    is_adapted,
    is_central,
    is_connection,
    is_flat,
    restricted_holonomy,
    star_compose,
    star_inverse,
    transport_between,
)
from posetbundle.errors import (
    Mismatch,
    MixedCocycles,
    NoSuchSimplex,
    NotAConnection,
    NotCentral,
    PreconditionViolated,
    TrivialGroup,
    UnknownElement,
    WrongCocycle,
)
from posetbundle.gauge import (
    gauge_act,
    gauge_group,
    gauge_group_raw,
    is_gauge_transformation,
)
from posetbundle.groups import (
    GroupHom,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from posetbundle.paths import (
    count_hom_classes,
    enumerate_homs,
    hom_class_representatives,
    pi1_presentation,
)
from posetbundle.poset import generate
from posetbundle.simplicial import (
    complex_of,
    enumerate_simplices,
    is_degenerate,
    is_inflating,
    reverse,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
S3 = symmetric_group(3)


def sample_connections(P, G, seed, count):
    rng = random.Random(seed)
    return [random_connection(P, G, rng) for _ in range(count)]


def test_chain_connections_are_flat(posets):
    P = posets["chain3"]
    found = enumerate_connections(P, Z2)
    assert len(found) == 4
    # with no doubly non-inflating simplices a connection is its own bundle
    assert set(found) == set(enumerate_cocycles(P, Z2))
    for u in found:
        assert is_flat(u)
        assert induced_cocycle(u) == u


def test_circle_connection_count(posets):
    P = posets["circle2"]
    found = enumerate_connections(P, Z2)
    assert len(found) == 64
    bundles = {induced_cocycle(u) for u in found}
    assert len(bundles) == 16
    for z in bundles:
        fibre = enumerate_connections(P, Z2, z=z)
        assert len(fibre) == 4
        assert all(is_adapted(u, z) for u in fibre)
    assert set(enumerate_cocycles(P, Z2)) == bundles


def test_connection_axioms(posets):
    P = posets["circle2"]
    for u in sample_connections(P, S3, 1, 5):
        assert is_connection(u)
        for b in enumerate_simplices(P, 1):
            assert u(reverse(b)) == S3.inv(u(b))
    non = Cochain1(
        P, Z2,
        {b: "g1" for b in enumerate_simplices(P, 1)},
    )
    assert not is_connection(non)
    with pytest.raises(NotAConnection):
        curvature(non)


def free_edge(P):
    """The first 1-simplex inflating in neither orientation."""
    edges = complex_of(P)[1]
    return edges.simplices[edges.free_classes[0][0]]


def test_construct_from_cochain(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    twist = {b: Z3.identity for b in enumerate_simplices(P, 1)}
    b = free_edge(P)
    twist[b] = "g2"
    twist[reverse(b)] = "g1"
    u = construct_from_cochain(Cochain1(P, Z3, twist), z)
    assert is_connection(u)
    with pytest.raises(PreconditionViolated):
        # twist nontrivial on an inflating simplex
        inflating = next(
            d for d in enumerate_simplices(P, 1)
            if is_inflating(P, d) and not is_degenerate(d)
        )
        bad = dict.fromkeys(enumerate_simplices(P, 1), Z3.identity)
        bad[inflating] = "g1"
        construct_from_cochain(Cochain1(P, Z3, bad), z)
    with pytest.raises(PreconditionViolated):
        construct_from_cochain(
            Cochain1(P, Z3, twist),
            Cochain1(P, Z3, {d: "g1" for d in enumerate_simplices(P, 1)}),
        )


def test_construct_nonflat(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    u, witness = construct_nonflat(z, g="g1")
    assert is_connection(u) and not is_flat(u)
    assert witness is not None
    assert curvature(u)(witness) != Z3.identity
    assert induced_cocycle(u) == z
    with pytest.raises(NoSuchSimplex):
        construct_nonflat(trivial_cochain1(posets["chain3"], Z3))
    with pytest.raises(TrivialGroup):
        construct_nonflat(trivial_cochain1(P, trivial_group()))
    with pytest.raises(TrivialGroup):
        construct_nonflat(z, g=Z3.identity)
    with pytest.raises(NoSuchSimplex):
        inflating = next(
            d for d in enumerate_simplices(P, 1) if is_inflating(P, d)
        )
        construct_nonflat(z, b=inflating)


# Each function that takes a bundle checks it, the one check on its
# caller's input that its result relies on.
@pytest.mark.parametrize("call, error, message", [
    (construct_nonflat, WrongCocycle,
     "nonflat construction starts from a 1-cocycle"),
    (lambda z: construct_from_cochain(trivial_cochain1(z.poset, Z3), z),
     PreconditionViolated, "the base of a connection must be a 1-cocycle"),
    (lambda z: enumerate_connections(z.poset, Z3, z), PreconditionViolated,
     "the base of a connection must be a 1-cocycle"),
    (lambda z: associated_cocycle(z, GroupHom.identity(Z3)), Mismatch,
     "the associated construction starts from a cocycle"),
    (gauge_group, WrongCocycle, "gauge groups are attached to 1-cocycles"),
], ids=["construct_nonflat", "construct_from_cochain",
        "enumerate_connections", "associated_cocycle", "gauge_group"])
def test_a_bundle_that_is_no_cocycle_is_refused(posets, call, error,
                                                message):
    P = posets["circle2"]
    z = Cochain1(P, Z3, dict.fromkeys(enumerate_simplices(P, 1), "g1"))
    assert not is_cocycle(z)
    with pytest.raises(error) as caught:
        call(z)
    assert str(caught.value) == message


def test_construct_nonflat_needs_a_1_simplex(posets):
    P = posets["circle2"]
    c = enumerate_simplices(P, 2)[5]
    with pytest.raises(NoSuchSimplex) as caught:
        construct_nonflat(winding_cocycle(P, Z3, "g1"), b=c)
    assert str(caught.value) == f"{c.encode()} is not a 1-simplex of circle2"


def test_is_adapted_refuses_cochains_over_different_groups(posets):
    P = posets["circle2"]
    with pytest.raises(Mismatch) as caught:
        is_adapted(trivial_cochain1(P, Z2), trivial_cochain1(P, Z3))
    assert str(caught.value) == (
        "cochains live over different posets or groups")


@pytest.mark.parametrize("op", [construct_from_cochain, star_compose])
def test_cochains_over_different_groups_are_one_mismatch(posets, op):
    P = posets["circle2"]
    with pytest.raises(Mismatch) as caught:
        op(trivial_cochain1(P, Z2), trivial_cochain1(P, Z3))
    assert str(caught.value) == (
        "cochains live over different posets or groups")


@pytest.mark.parametrize("name, group", [("circle2", "z2"), ("chain3", "z3"),
                                         ("circle2", "s3")])
def test_enumerate_connections_needs_a_bundle_over_its_base(posets, groups,
                                                            name, group):
    z = winding_cocycle(posets["circle2"], Z3, "g1")
    with pytest.raises(Mismatch) as caught:
        enumerate_connections(posets[name], groups[group], z)
    assert str(caught.value) == (
        "cochains live over different posets or groups")


def test_curvature_properties(posets):
    P = posets["circle2"]
    for u in sample_connections(P, S3, 2, 4):
        w = curvature(u)
        for c in enumerate_simplices(P, 2):
            # the exact local identity behind the curvature
            assert S3.mul(w(c), u(c.face1)) == S3.mul(u(c.face0), u(c.face2))
            if is_inflating(P, c) or is_degenerate(c):
                assert w(c) == S3.identity
        # Bianchi: the curvature is a 2-cocycle
        dw = coboundary2(w)
        assert all(g == S3.identity for g in dw.values.values())


def test_transport_composes(posets):
    P = posets["twoloop"]
    for u in sample_connections(P, Z3, 3, 3):
        for o in ("M1", "M2", "M3"):
            below = [a for a in P.elements if P.leq(a, o)]
            for a in below:
                for a1 in below:
                    for a2 in below:
                        assert Z3.mul(
                            transport_between(u, o, a2, a1),
                            transport_between(u, o, a1, a),
                        ) == transport_between(u, o, a2, a)


def test_transport_from_a_point_not_below_is_no_such_simplex(posets):
    u = random_connection(posets["circle2"], Z3, random.Random(0))
    with pytest.raises(NoSuchSimplex) as caught:
        transport_between(u, "a1", "o1", "a1")
    assert str(caught.value) == "(a1;a1,o1) is not a 1-simplex of circle2"


def test_induced_cocycle_agrees_on_inflating_simplices(posets):
    P = posets["circle2"]
    for u in sample_connections(P, S3, 4, 4):
        z = induced_cocycle(u)
        assert is_cocycle(z)
        assert is_adapted(u, z)


def test_central_decomposition(posets):
    P = posets["circle2"]
    for u in sample_connections(P, Z3, 5, 4):
        assert is_central(u)  # abelian coefficients: always central
        z, chi = central_decompose(u)
        for b in enumerate_simplices(P, 1):
            assert u(b) == Z3.mul(z(b), chi(b))
        assert chi == central_part(u)


def test_noncentral_rejected(posets):
    P = posets["circle2"]
    z = full_image_cocycle(posets["twoloop"], S3)
    u, _ = construct_nonflat(z, g="231")
    if not is_central(u):
        with pytest.raises(NotCentral):
            central_decompose(u)
        with pytest.raises(NotCentral):
            star_inverse(u)
    del P


def test_star_group_laws(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    connections = enumerate_connections(P, Z3, z=z)
    assert connections
    for u in connections[:6]:
        # z itself is the star unit on its own bundle
        assert star_compose(u, z) == u
        assert star_compose(z, u) == u
        assert star_compose(u, star_inverse(u)) == z
    u, u1 = connections[0], connections[-1]
    assert star_compose(u, u1) == star_compose(u1, u)
    other = trivial_cochain1(P, Z3)
    with pytest.raises(MixedCocycles):
        star_compose(u, other)


def test_holonomy_winding(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    assert holonomy(z, "a1") == ("g0", "g1", "g2")
    assert restricted_holonomy(z, "a1") == ("g0",)  # flat
    assert holonomy(trivial_cochain1(P, Z3), "a1") == ("g0",)


def test_holonomy_matches_loop_oracle(posets):
    P = posets["circle2"]
    for u in sample_connections(P, S3, 6, 3):
        assert holonomy(u, "a1") == holonomy_by_loops(u, "a1", 6)


def test_restricted_holonomy_of_nonflat_twist(posets):
    P = posets["circle2"]
    u, _ = construct_nonflat(trivial_cochain1(P, Z2), g="g1")
    assert "g1" in restricted_holonomy(u, "a1")


def test_ambrose_singer_reduction(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, S3, "231")  # winds through a 3-cycle
    u1, f, H = ambrose_singer_reduce(z, "a1")
    assert set(H.elements) == set(holonomy(z, "a1"))
    assert all(g in H for g in u1.values.values())
    assert is_connection(u1)
    assert is_morphism(f.as_dict(), f.source, z)
    # reduction of a flat winding cocycle lands in A3
    assert set(H.elements) == {"123", "231", "312"}


def test_holonomy_conjugacy(posets):
    P = posets["circle2"]
    for u in sample_connections(P, S3, 7, 3):
        g = holonomy_conjugacy_check(u, "a1", "o2")
        assert S3.conjugate_subset(holonomy(u, "a1"), g) == holonomy(u, "o2")


def test_holonomy_conjugacy_catches_a_wrong_transport(posets, monkeypatch):
    """The winding bundle through 213 has the non-normal holonomy
    {123, 213} at a1 and at o2, so a tree transport that sends o2 to 231
    does not conjugate one onto the other."""
    z = winding_cocycle(posets["circle2"], S3, "213")
    assert holonomy(z, "a1") == holonomy(z, "o2") == ("123", "213")
    tree_transport = connections.tree_transport
    monkeypatch.setattr(connections, "tree_transport",
                        lambda u, a0: {**tree_transport(u, a0), "o2": "231"})
    with pytest.raises(Mismatch) as caught:
        holonomy_conjugacy_check(z, "a1", "o2")
    assert str(caught.value) == (
        "transport along the tree failed to conjugate the holonomy")


def test_base_points_outside_the_poset_are_unknown_elements(posets):
    P = posets["circle2"]
    z = winding_cocycle(P, Z3, "g1")
    for call in (lambda: holonomy_conjugacy_check(z, "a1", "zz"),
                 lambda: transport_between(z, "zz", "a1", "a1"),
                 lambda: transport_between(z, "o1", "a1", "zz"),
                 # o, then a1, then a, all before any 1-simplex lookup
                 lambda: transport_between(z, "zz", "yy", "xx"),
                 lambda: transport_between(z, "o1", "zz", "yy"),
                 lambda: transport_between(z, "a1", "o1", "zz"),
                 lambda: enumerate_loops(P, "zz", 2),
                 lambda: holonomy_by_loops(z, "zz", 4)):
        with pytest.raises(UnknownElement) as caught:
            call()
        assert str(caught.value) == "'zz' is not an element of circle2"


def test_holonomy_layer_builds_no_simplex_objects():
    # Connections, curvature and holonomy read the id tables only, so on
    # a fresh poset's complex dimensions 1 and 2 build no simplex objects.
    P = generate("circle", 2)
    u = random_connection(P, S3, random.Random(5))
    a0, a1 = P.elements[0], P.elements[-1]
    curvature(u)
    assert is_adapted(u, induced_cocycle(u))
    holonomy(u, a0)
    restricted_holonomy(u, a0)
    holonomy_conjugacy_check(u, a0, a1)
    ambrose_singer_reduce(u, a0)
    K = complex_of(P)
    assert [n for n in (1, 2) if "simplices" in vars(K[n])] == []


def _pi1(P):
    return pi1_presentation(P, "a1")[0]


def _unit(P):
    return dict.fromkeys(P.elements, Z2.identity)


# The public cochain, connection, gauge and pi1 functions, on a connection
# u over circle2 and its bundle z.  Left out are those that take simplex
# objects in or hand them out: the `values` and `tau` views,
# `extend_to_path`, `parse_cochain_text` (it looks its simplices up by
# object), `construct_nonflat` (its witness), `enumerate_loops`,
# `holonomy_by_loops`, `homotopic` and `deformations`.
ID_ONLY = {
    "trivial_cochain1": lambda P, u, z: trivial_cochain1(P, Z2),
    "random_cochain0": lambda P, u, z: random_cochain0(P, Z2, random.Random()),
    "random_cochain1": lambda P, u, z: random_cochain1(P, Z2, random.Random()),
    "coboundary_from_assignment":
        lambda P, u, z: coboundary_from_assignment(P, Z2, _unit(P)),
    "pushforward": lambda P, u, z: pushforward(GroupHom.identity(Z2), u),
    "associated_cocycle":
        lambda P, u, z: associated_cocycle(z, GroupHom.identity(Z2)),
    "coboundary0":
        lambda P, u, z: coboundary0(random_cochain0(P, Z2, random.Random())),
    "coboundary1": lambda P, u, z: coboundary1(u),
    "coboundary2": lambda P, u, z: coboundary2(coboundary1(u)),
    "coboundary": lambda P, u, z: coboundary(u),
    "is_cocycle": lambda P, u, z: is_cocycle(u),
    "identity_failures": lambda P, u, z: list(identity_failures(u)),
    "tree_transport": lambda P, u, z: tree_transport(u, "a1"),
    "is_path_independent": lambda P, u, z: is_path_independent(u),
    "is_morphism": lambda P, u, z: is_morphism(_unit(P), z, z),
    "morphisms": lambda P, u, z: list(morphisms(z, z)),
    "find_morphism": lambda P, u, z: find_morphism(z, z),
    "are_equivalent": lambda P, u, z: are_equivalent(z, z),
    "cocycle_from_hom": lambda P, u, z: cocycle_from_hom(
        P, Z2, (Z2.identity,) * len(_pi1(P).generators)),
    "enumerate_cocycles": lambda P, u, z: enumerate_cocycles(P, Z2),
    "classify_cocycles": lambda P, u, z: classify_cocycles(P, Z2),
    "format_cochain_text": lambda P, u, z: format_cochain_text(u),
    "parse_assignment_text": lambda P, u, z: parse_assignment_text(
        format_assignment_text(_unit(P)), P, Z2),
    "is_connection": lambda P, u, z: is_connection(u),
    "curvature": lambda P, u, z: curvature(u),
    "is_flat": lambda P, u, z: is_flat(u),
    "transport_between": lambda P, u, z: transport_between(u, "o1", "a1", "a2"),
    "induced_cocycle": lambda P, u, z: induced_cocycle(u),
    "is_adapted": lambda P, u, z: is_adapted(u, z),
    "construct_from_cochain": lambda P, u, z: construct_from_cochain(
        trivial_cochain1(P, Z2), z),
    "central_decompose": lambda P, u, z: central_decompose(u),
    "central_part": lambda P, u, z: central_part(u),
    "is_central": lambda P, u, z: is_central(u),
    "star_compose": lambda P, u, z: star_compose(u, u),
    "star_inverse": lambda P, u, z: star_inverse(u),
    "holonomy_generators": lambda P, u, z: holonomy_generators(u, "a1"),
    "holonomy": lambda P, u, z: holonomy(u, "a1"),
    "restricted_holonomy": lambda P, u, z: restricted_holonomy(u, "a1"),
    "ambrose_singer_reduce": lambda P, u, z: ambrose_singer_reduce(u, "a1"),
    "holonomy_conjugacy_check":
        lambda P, u, z: holonomy_conjugacy_check(u, "a1", "o2"),
    "enumerate_connections": lambda P, u, z: enumerate_connections(P, Z2, z),
    "is_gauge_transformation":
        lambda P, u, z: is_gauge_transformation(z, _unit(P)),
    "gauge_group": lambda P, u, z: gauge_group(z),
    "gauge_group_raw": lambda P, u, z: gauge_group_raw(z),
    "gauge_act": lambda P, u, z: gauge_act(_unit(P), u),
    "pi1_presentation": lambda P, u, z: _pi1(P),
    "enumerate_homs": lambda P, u, z: enumerate_homs(_pi1(P), Z2),
    "hom_class_representatives":
        lambda P, u, z: hom_class_representatives(_pi1(P), Z2),
    "count_hom_classes": lambda P, u, z: count_hom_classes(_pi1(P), Z2),
}


def test_public_functions_build_no_simplex_objects():
    """Inside the library a simplex is an id: on a fresh complex, no
    dimension builds its simplex objects for a function that neither
    takes nor hands out one; each call gets a fresh poset."""
    built = {}
    for name, call in ID_ONLY.items():
        P = generate("circle", 2)
        u = random_connection(P, Z2, random.Random(5))
        call(P, u, induced_cocycle(u))
        cells = complex_of(P)._cells
        dims = [n for n in sorted(cells) if "simplices" in vars(cells[n])]
        if dims:
            built[name] = dims
    assert built == {}


def test_a_reversal_only_change_is_no_connection(posets):
    # b is inflating in neither orientation, so no inflating 2-simplex
    # reads it: the change breaks reversal only.
    P = posets["circle2"]
    u = sample_connections(P, Z3, 7, 1)[0]
    b = free_edge(P)
    values = dict(u.values)
    values[b] = Z3.mul(values[b], "g1")
    assert is_connection(u) and not is_connection(Cochain1(P, Z3, values))


def inflating_scan_tables(P):
    """The id of the reverse of every 1-simplex and the face ids of every
    inflating 2-simplex, found through the simplex objects."""
    edges = complex_of(P)[1]
    return ([edges.id_of(reverse(b)) for b in edges.simplices],
            [tuple(map(edges.id_of, c.faces))
             for c in enumerate_simplices(P, 2) if is_inflating(P, c)])


@pytest.mark.parametrize("name, group", [("chain2", "z2"), ("chain3", "z2"),
                                         ("vee", "z2"), ("chain2", "s3")])
def test_functor_test_decides_every_connection(posets, groups, name, group):
    """All 1-cochains against a scan of reversal on every 1-simplex and
    the identity on every inflating 2-simplex; over S3 as well, since Z2
    cannot see the order of a product."""
    P, G = posets[name], groups[group]
    rows, inv = G.rows, G.inverses
    reverses, triangles = inflating_scan_tables(P)
    for x in itertools.product(range(len(G)), repeat=len(reverses)):
        assert is_connection(Cochain1._of(P, G, x)) == (
            all(x[r] == inv[g] for g, r in zip(x, reverses))
            and all(rows[x[b0]][x[b2]] == x[b1] for b0, b1, b2 in triangles))


def test_connection_queries_glue_no_2_simplices():
    # Deciding a connection reads the 1-simplex tables only, so none of
    # these queries glues dimension 2 on a fresh poset's complex.
    P = generate("circle", 3)
    z = trivial_cochain1(P, Z2)
    found = enumerate_connections(P, Z2, z)
    u, u1 = found[1], found[-1]
    assert is_connection(u) and not is_flat(u1)
    assert induced_cocycle(u) == z
    assert central_decompose(u)[0] == z
    assert is_connection(star_compose(u, u1))
    assert construct_from_cochain(z, z) == z
    assert 2 not in complex_of(P)._cells


def test_noncentral_connection_is_rejected_by_every_central_operation(posets):
    z = full_image_cocycle(posets["twoloop"], S3)
    u, _ = construct_nonflat(z, g="231")
    assert not is_central(u)
    for op in (central_decompose, central_part, star_inverse,
               lambda v: star_compose(v, v)):
        with pytest.raises(NotCentral):
            op(u)
