"""Lookups of enumerated simplices: the legs behind the induced cocycle,
the reversal class tables, and inputs that name simplices or
elements outside the poset or group."""

import random

import pytest

from posetbundle import cli
from posetbundle.acceptance import random_connection, standard_posets
from posetbundle.cochains import Cochain1, trivial_cochain1
from posetbundle.connections import (
    construct_from_cochain,
    construct_nonflat,
    enumerate_connections,
    induced_cocycle,
    transport_between,
)
from posetbundle.errors import (
    MissingValue,
    NoSuchSimplex,
    PreconditionViolated,
)
from posetbundle.groups import cyclic_group, format_group_text, symmetric_group
from posetbundle.paths import Path, homotopic
from posetbundle.poset import build_poset, format_poset_text
from posetbundle.simplicial import (
    Simplex0,
    Simplex1,
    complex_of,
    enumerate_simplices,
    enumerated,
    is_inflating,
    parse_simplex1,
    reverse,
)

FOREIGN_EDGE = "(o9;a1,a2)"


def transported(u):
    """The induced cocycle by the transport formula."""
    return {
        b: transport_between(u, b.support, b.face0.element, b.face1.element)
        for b in enumerate_simplices(u.poset, 1)
    }


def test_induced_cocycle_matches_transport_on_every_z2_connection(posets):
    us = enumerate_connections(posets["circle2"], cyclic_group(2))
    assert len(us) == 64
    for u in us:
        assert induced_cocycle(u).values == transported(u)


def test_induced_cocycle_matches_transport_on_sampled_s3_connections(posets):
    rng = random.Random(5)
    for P in (posets["circle2"], posets["twoloop"]):
        for _ in range(30):
            u = random_connection(P, symmetric_group(3), rng)
            assert induced_cocycle(u).values == transported(u)


# Three points below one: the reversal classes interleave in simplex
# order, so class order and simplex order differ.
TRIPOD = build_poset(["a", "b", "c", "o"],
                     [("a", "o"), ("b", "o"), ("c", "o")])


@pytest.mark.parametrize("poset_name", ["chain2", "chain3", "vee", "circle2",
                                        "twoloop", "tripod"])
def test_noninflating_helpers_match_their_definitions(posets, poset_name):
    """The class tables: each class {b, reverse(b)} once, as the pair
    (representative, reverse) whose representative has the smaller sort
    key, in sort key order of the representatives; a class is free iff
    neither member inflates."""
    P = TRIPOD if poset_name == "tripod" else posets[poset_name]
    cells, edges = complex_of(P)[1], enumerate_simplices(P, 1)
    classes = [(edges[i], edges[j]) for i, j in cells.classes]
    assert classes == [(b, enumerated(P, reverse(b))) for b in edges
                       if b.sort_key() <= reverse(b).sort_key()]
    keys = [rep.sort_key() for rep, _ in classes]
    assert keys == sorted(keys)
    assert all(rep.sort_key() <= rev.sort_key() and rev == reverse(rep)
               for rep, rev in classes)
    assert [(edges[i], edges[j]) for i, j in cells.free_classes] == [
        (rep, rev) for rep, rev in classes
        if not is_inflating(P, rep) and not is_inflating(P, rev)
    ]
    free = sorted(k for pair in cells.free_classes for k in pair)
    assert [edges[k] for k in free] == [
        b for b in edges
        if not is_inflating(P, b) and not is_inflating(P, reverse(b))
    ]


def test_construct_from_cochain_rejects_twists_on_inflating_classes(posets):
    P, G = posets["circle2"], cyclic_group(2)
    z = trivial_cochain1(P, G)
    cells, edges = complex_of(P)[1], enumerate_simplices(P, 1)
    for i, j in cells.classes:
        twist = {b: G.identity for b in edges}
        twist[edges[j]] = "g1"
        v = Cochain1(P, G, twist)
        if (i, j) in cells.free_classes:
            construct_from_cochain(v, z)
        else:
            with pytest.raises(PreconditionViolated):
                construct_from_cochain(v, z)


def test_construct_nonflat_rejects_foreign_edges_and_elements(posets):
    P, G = posets["circle2"], cyclic_group(2)
    z = trivial_cochain1(P, G)
    with pytest.raises(NoSuchSimplex):
        construct_nonflat(z, parse_simplex1(FOREIGN_EDGE))
    with pytest.raises(MissingValue):
        construct_nonflat(z, g="g7")
    edges = complex_of(P)[1]
    b = edges.simplices[edges.free_classes[0][0]]
    u, witness = construct_nonflat(z, parse_simplex1(b.encode()))
    assert (u, witness) == construct_nonflat(z, b) == construct_nonflat(z)
    assert witness is not None
    for b in edges.simplices:
        if is_inflating(P, b) or is_inflating(P, reverse(b)):
            with pytest.raises(NoSuchSimplex):
                construct_nonflat(z, b)


def test_homotopic_rejects_foreign_steps(posets):
    P = posets["circle2"]
    foreign = Path((parse_simplex1("(zz;a1,a2)"),))
    step = Path((Simplex1("o1", Simplex0("a1"), Simplex0("a2")),))
    for p, q in ((foreign, foreign), (step, foreign), (foreign, step)):
        with pytest.raises(NoSuchSimplex):
            homotopic(p, q, P, 4)


@pytest.fixture
def files(tmp_path):
    (tmp_path / "circle2.poset").write_text(
        format_poset_text(standard_posets()["circle2"])
    )
    (tmp_path / "z2.group").write_text(format_group_text(cyclic_group(2)))
    (tmp_path / "foreign.path").write_text("(zz;a1,a2)\n")
    (tmp_path / "step.path").write_text("(o1;a1,a2)\n")
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["homotopic", "circle2.poset", "foreign.path", "foreign.path"],
    ["homotopic", "circle2.poset", "step.path", "step.path", "--bound", "-3"],
    ["nonflat", "circle2.poset", "z2.group", "--edge", FOREIGN_EDGE],
    ["nonflat", "circle2.poset", "z2.group", "--g", "g7"],
])
def test_cli_rejects_foreign_inputs_without_a_traceback(files, capsys, argv):
    argv = [str(files / a) if a.endswith((".poset", ".group", ".path"))
            else a for a in argv]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_cli_homotopic_accepts_a_zero_bound(files, capsys):
    """Bound 0 is a valid input; no path fits in it, so even a path
    against itself is "unknown" (exit 1), and "yes" at bound 1."""
    step = str(files / "step.path")
    args = ["homotopic", str(files / "circle2.poset"), step, step, "--bound"]
    assert cli.run(args + ["0"]) == 1
    assert "status: unknown" in capsys.readouterr().out
    assert cli.run(args + ["1"]) == 0
    assert "status: yes" in capsys.readouterr().out
