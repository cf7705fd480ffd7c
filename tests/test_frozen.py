"""The contract of the immutable value classes: reprs, equality and
hashing by class and fields, no assignment, cached properties, and
argument checks in the constructors that have them."""

import itertools

import pytest

from posetbundle.acceptance import CriterionResult, winding_cocycle
from posetbundle.cochains import Morphism1
from posetbundle.errors import EndpointMismatch, Mismatch
from posetbundle.gauge import GaugeTransformation
from posetbundle.groups import (Arrow2G, Arrow3G, GroupHom, InnerAut,
                                cyclic_group, symmetric_group)
from posetbundle.paths import HomotopyVerdict, Path, Presentation
from posetbundle.poset import OpenSet
from posetbundle.simplicial import Simplex0, Simplex1

S3, Z3 = symmetric_group(3), cyclic_group(3)
STEP = Simplex1("o1", Simplex0("o1"), Simplex0("a1"))


def winding(circle2):
    return winding_cocycle(circle2, Z3, "g1")


ASSIGNMENT = (("a1", "g0"), ("a2", "g0"), ("o1", "g0"), ("o2", "g0"))
Z3_GROUP = "FiniteGroup('Z3', order 3)"
S3_GROUP = "FiniteGroup('S3', order 6)"
S3_AUT = f"InnerAut(group={S3_GROUP}, representative='213', canonical='213')"
COCHAIN = "Cochain1(over circle2, values in Z3)"

# name: (makes the value over the circle2 poset, repr recorded with dataclasses)
VALUES = {
    "Path": (lambda P: Path((STEP,)),
             "Path(steps=(Simplex1((o1;o1,a1)),))"),
    "HomotopyVerdict": (lambda P: HomotopyVerdict("no"),
                        "HomotopyVerdict(status='no', certificate=())"),
    "Presentation": (lambda P: Presentation(("x",), (((0, 1),),)),
                     "Presentation(generators=('x',), "
                     "relators=(((0, 1),),))"),
    "OpenSet": (lambda P: OpenSet(("a1", "o1", "o2")),
                "OpenSet(members=('a1', 'o1', 'o2'))"),
    "InnerAut": (lambda P: InnerAut(Z3, "g2"),
                 f"InnerAut(group={Z3_GROUP}, representative='g2', "
                 "canonical='g0')"),
    "Arrow2G": (lambda P: Arrow2G("123", InnerAut(S3, "213")),
                f"Arrow2G(g='123', tau={S3_AUT})"),
    "Arrow3G": (lambda P: Arrow3G("123", InnerAut(S3, "213"),
                                  InnerAut(S3, "132")),
                f"Arrow3G(g='123', tau={S3_AUT}, gamma=InnerAut(group="
                f"{S3_GROUP}, representative='132', canonical='132'))"),
    "GroupHom": (lambda P: GroupHom.identity(Z3),
                 f"GroupHom(source={Z3_GROUP}, target={Z3_GROUP}, mapping="
                 "(('g0', 'g0'), ('g1', 'g1'), ('g2', 'g2')))"),
    "Morphism1": (lambda P: Morphism1(winding(P), winding(P), ASSIGNMENT),
                  f"Morphism1(source={COCHAIN}, target={COCHAIN}, "
                  f"assignment={ASSIGNMENT!r})"),
    "GaugeTransformation": (lambda P: GaugeTransformation(winding(P),
                                                          ASSIGNMENT),
                            f"GaugeTransformation(source={COCHAIN}, "
                            f"target={COCHAIN}, assignment={ASSIGNMENT!r})"),
    "CriterionResult": (lambda P: CriterionResult(1, "name", True, "detail"),
                        "CriterionResult(number=1, name='name', "
                        "passed=True, detail='detail')"),
}


@pytest.fixture
def circle2(posets):
    return posets["circle2"]


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_unchanged(circle2, name):
    build, expected = VALUES[name]
    value = build(circle2)
    assert type(value).__name__ == name
    assert repr(value) == expected


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values_and_hashes(circle2, name):
    build, _ = VALUES[name]
    a, b = build(circle2), build(circle2)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_of_different_classes_are_unequal(circle2):
    values = [build(circle2) for build, _ in VALUES.values()]
    for a, b in itertools.combinations(values, 2):
        assert a != b and b != a
    z = winding(circle2)
    assert Morphism1(z, z, ASSIGNMENT) != GaugeTransformation(z, ASSIGNMENT)
    assert Path((STEP,)) != (STEP,)


def test_unequal_fields_give_unequal_values():
    assert Path((STEP,)) != Path((STEP, Simplex1("o1", Simplex0("o1"),
                                                   Simplex0("o1"))))
    assert HomotopyVerdict("no") != HomotopyVerdict("unknown")
    assert CriterionResult(1, "n", True, "d") != CriterionResult(1, "n",
                                                                 False, "d")


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(circle2, name):
    value = VALUES[name][0](circle2)
    fields = list(vars(value))
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == VALUES[name][1]


def test_inner_aut_compares_the_canonical_representative():
    # In an abelian group every inner automorphism is the identity.
    assert InnerAut(Z3, "g2") == InnerAut(Z3, "g1")
    assert hash(InnerAut(Z3, "g2")) == hash(InnerAut(Z3, "g1"))
    assert InnerAut(S3, "213") != InnerAut(S3, "132")
    with pytest.raises(TypeError):
        InnerAut(Z3, "g2", "g0")


def test_cached_properties_are_kept(circle2):
    presentation = Presentation(("x",), (((0, 1), (0, 1)),))
    assert presentation.lattice is presentation.lattice
    assert presentation.abelian_invariants() == [2]
    hom = GroupHom.identity(S3)
    assert hom("213") == "213" and hom._lookup is hom._lookup
    for name in ("Morphism1", "GaugeTransformation"):
        build = VALUES[name][0]
        f = build(circle2)
        assert f("o1") == "g0" and f._lookup is f._lookup
        # A cached property is not a field.
        assert f == build(circle2) and hash(f) == hash(build(circle2))


def test_constructors_check_their_arguments():
    with pytest.raises(EndpointMismatch):
        Path(())
    with pytest.raises(EndpointMismatch):
        Path((STEP, STEP))
    with pytest.raises(Mismatch, match="not central"):
        Arrow3G("213", InnerAut(S3, "123"), InnerAut(S3, "123"))
    assert HomotopyVerdict("yes", (1,)).certificate == (1,)
    # The inherited constructor takes every field, in order.
    with pytest.raises(ValueError):
        Presentation(("x",))
    with pytest.raises(ValueError):
        OpenSet(("a1",), ("o1",))
    with pytest.raises(ValueError):
        GroupHom(S3, S3)
    with pytest.raises(ValueError):
        Morphism1(None, None, (), ())
    # GaugeTransformation keeps its own (cocycle, assignment) constructor.
    with pytest.raises(TypeError):
        GaugeTransformation(None)
