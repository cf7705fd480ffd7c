"""The acceptance suite: one test per criterion, each contributing its
pass/fail line to the terminal summary (see conftest.py)."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path as FilePath

import pytest

import posetbundle
from posetbundle import acceptance, cochains
from posetbundle.acceptance import (CRITERIA_COUNT, _CRITERIA,
                                    full_image_cocycle, run_criterion,
                                    winding_cocycle)
from posetbundle.cochains import (Cochain1, Cochain2, is_cocycle,
                                  random_cochain1)
from posetbundle.connections import induced_cocycle
from posetbundle.groups import cyclic_group, symmetric_group
from posetbundle.paths import (Path, _neighbours, deformations,
                               pi1_presentation)
from posetbundle.poset import generate
from posetbundle.simplicial import complex_of, permute2

# filled as tests run; printed by the pytest_terminal_summary hook
RESULTS = {}

_IDS = [f"{num:02d}-{name}" for num, name, _ in _CRITERIA]

# The detail of each criterion at the default seed; the same under every
# string hash seed.
DETAILS = {
    1: '32 exhaustive + 500 random cochains, all trivial',
    2: 'circle2 Z2:2 Z3:3 S3:3; chains collapse to 1',
    3: '2080 cochains agree with the brute-force scan',
    4: '4 connections on chain3 x Z2, all flat and untwisted',
    5: 'Z2: w=g1 at o1; S3: w=132 at o1; winding bundle also twisted',
    6: '200 samples, unique agreement among 16 cocycles',
    7: ('64 connections over 16 bundles (fibre sizes [4]), all abelian '
        'groups under star'),
    8: '30 sampled connections, all 3-simplices balanced',
    9: 'flat fixture reduces into A3, nonflat into hol(circle2,a1)',
    10: 'sizes 6/3/1 as predicted; raw scan agrees on 115 bundles',
    11: '30 sampled connections, symmetries exact',
    12: '55 one-step pairs plus BFS layers, all invariant',
}


@pytest.mark.parametrize("number", range(1, CRITERIA_COUNT + 1), ids=_IDS)
def test_criterion(number):
    result = run_criterion(number)
    RESULTS[number] = result
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == DETAILS[number]


# The criteria share their fixture posets, and so the tables each poset's
# complex builds on first use: run backwards from a fresh interpreter,
# where the last criteria build those tables, each gives the same detail.
BACKWARDS = """
import json
from posetbundle.acceptance import CRITERIA_COUNT, run_criterion
results = [run_criterion(n) for n in range(CRITERIA_COUNT, 0, -1)]
print(json.dumps({r.number: [r.passed, r.detail] for r in results}))
"""


def test_criteria_do_not_depend_on_run_order():
    env = dict(os.environ,
               PYTHONPATH=str(FilePath(posetbundle.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", BACKWARDS],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == {
        str(n): [True, detail] for n, detail in DETAILS.items()}


def test_standard_groups_are_built_once():
    """Like the posets, the fixture groups are built once: every call
    hands out the objects the criteria read."""
    first, again = acceptance.standard_groups(), acceptance.standard_groups()
    assert first == {"z2": cyclic_group(2), "z3": cyclic_group(3),
                     "s3": symmetric_group(3)}
    assert all(again[key] is G for key, G in first.items())


# The failure branches of the twelve criteria never run on a passing
# suite; these faults must reach them.


def _unbalanced(imbalances):
    """`cochains._imbalances`, the 3-simplex test that `coboundary2` and
    `is_cocycle` of a 2-cochain share, with the 3-simplex of id 0 unbalanced
    (its value a non-unit) before the others."""
    def unbalanced(w):
        G = w.group
        yield 0, next(g for g in range(len(G)) if g != G.unit)
        yield from ((i, g) for i, g in imbalances(w) if i != 0)
    return unbalanced


def test_criterion_1_catches_a_nontrivial_second_coboundary(monkeypatch):
    monkeypatch.setattr(cochains, "_imbalances",
                        _unbalanced(cochains._imbalances))
    assert acceptance.criterion_1(random.Random(0)) == (
        False, "exhaustive failure at cochain #0")


def test_criterion_2_catches_a_wrong_hom_class_count(monkeypatch):
    count_hom_classes = acceptance.count_hom_classes
    monkeypatch.setattr(acceptance, "count_hom_classes",
                        lambda pres, G: count_hom_classes(pres, G) + 1)
    assert acceptance.criterion_2(random.Random(0)) == (
        False, "circle2 x Z2: 2 classes, 3 hom classes, expected 2")


def test_criterion_3_catches_a_missing_witness(monkeypatch):
    """The first cochain scanned, the unit one, is a coboundary."""
    monkeypatch.setattr(acceptance, "is_path_independent", lambda u: None)
    assert acceptance.criterion_3(random.Random(0)) == (
        False, "mismatch on chain2 after 0 cochains")


def test_criterion_4_catches_a_nonflat_connection(monkeypatch):
    monkeypatch.setattr(acceptance.cn, "is_flat", lambda u: False)
    assert acceptance.criterion_4(random.Random(0)) == (
        False, "found a nonflat or twisted connection on chain3")


def test_criterion_5_catches_a_moved_bundle(monkeypatch):
    monkeypatch.setattr(
        acceptance.cn, "induced_cocycle",
        lambda u: random_cochain1(u.poset, u.group, random.Random(1)))
    assert acceptance.criterion_5(random.Random(0)) == (
        False, "induced cocycle moved off z over Z2")


def test_criterion_9_catches_a_holonomy_group_too_large(monkeypatch):
    ambrose_singer_reduce = acceptance.cn.ambrose_singer_reduce
    S3 = symmetric_group(3)

    def all_of_s3(u, a0):
        u1, f, _ = ambrose_singer_reduce(u, a0)
        return u1, f, S3

    monkeypatch.setattr(acceptance.cn, "ambrose_singer_reduce", all_of_s3)
    assert acceptance.criterion_9(random.Random(0)) == (
        False, "holonomy is ('123', '132', '213', '231', '312', '321'), "
               "expected the 3-cycles")


def _refuse_paths(monkeypatch):
    def refuse(cls, steps):
        raise AssertionError("criterion 12 built a Path")

    monkeypatch.setattr(Path, "_of", classmethod(refuse))


def test_criterion_12_catches_a_non_cocycle(monkeypatch):
    """A cochain that is not a cocycle splits a pair that the search
    reached by deformations, and the split fails the criterion on the
    step ids alone: no `Path` is built."""
    enumerate_cocycles = acceptance.enumerate_cocycles

    def with_a_non_cocycle(P, G):
        u = random_cochain1(P, G, random.Random(0))
        assert not is_cocycle(u)
        return enumerate_cocycles(P, G) + (u,)

    monkeypatch.setattr(acceptance, "enumerate_cocycles", with_a_non_cocycle)
    _refuse_paths(monkeypatch)
    assert acceptance.criterion_12(random.Random(0)) == (
        False, "cocycle split a homotopic pair on circle2")


def test_criterion_12_builds_no_path_when_nothing_splits(monkeypatch):
    _refuse_paths(monkeypatch)
    assert acceptance.criterion_12(random.Random(0)) == (True, DETAILS[12])


def test_criterion_10_catches_a_missing_transformation(monkeypatch):
    """A gauge group short of its last transformation on chain2, the
    first poset that criterion 10 compares with the raw scan."""
    gauge_group = acceptance.gauge_group

    def short(z):
        group = gauge_group(z)
        return group[:-1] if z.poset.name == "chain2" else group

    monkeypatch.setattr(acceptance, "gauge_group", short)
    assert acceptance.criterion_10(random.Random(0)) == (
        False, "raw disagreement on chain2 x Z2")


def test_criterion_11_catches_a_changed_curvature_value(monkeypatch):
    """A curvature changed at its first 2-simplex whose swap is another
    2-simplex breaks the orientation symmetry on the first poset."""
    curvature = acceptance.cn.curvature

    def changed(u):
        w = curvature(u)
        cells = w.cells
        i = next(i for i, c in enumerate(cells.simplices)
                 if cells.ids[permute2(c, (1, 0, 2))] != i)
        ids = list(w.ids)
        ids[i] = next(g for g in range(len(w.group)) if g != ids[i])
        return Cochain2._of(w.poset, w.group, tuple(ids), w.tau_ids)

    monkeypatch.setattr(acceptance.cn, "curvature", changed)
    assert acceptance.criterion_11(random.Random(0)) == (
        False, "orientation symmetry failed on circle2")


def test_criterion_6_catches_a_repeated_cocycle(monkeypatch):
    """The bundle of the first sampled connection, listed twice among
    the cocycles, agrees with it twice."""
    P, G = generate("circle", 2), cyclic_group(2)
    z = induced_cocycle(acceptance.random_connection(P, G, random.Random(0)))
    enumerate_cocycles = acceptance.enumerate_cocycles
    monkeypatch.setattr(acceptance, "enumerate_cocycles",
                        lambda P, G: enumerate_cocycles(P, G) + (z,))
    assert acceptance.criterion_6(random.Random(0)) == (
        False, "sample 0: 2 cocycles agree")


def test_criterion_7_catches_a_curvature_off_chi(monkeypatch):
    """Every curvature value times the non-unit of Z2 misses chi^-1 at
    the pinch simplex of the first 1-simplex."""
    curvature = acceptance.cn.curvature

    def shifted(u):
        w, G = curvature(u), u.group
        rows, other = G.rows, next(g for g in range(len(G)) if g != G.unit)
        return Cochain2._of(w.poset, G, tuple(rows[g][other] for g in w.ids),
                            w.tau_ids)

    monkeypatch.setattr(acceptance.cn, "curvature", shifted)
    assert acceptance.criterion_7(random.Random(0)) == (
        False, "curvature of the pinch simplex missed chi")


def test_criterion_7_catches_a_decomposition_that_does_not_recompose(
        monkeypatch):
    central_decompose = acceptance.cn.central_decompose

    def changed(u):
        z, chi = central_decompose(u)
        G, ids = chi.group, list(chi.ids)
        ids[0] = next(g for g in range(len(G)) if g != ids[0])
        return z, Cochain1._of(chi.poset, G, tuple(ids))

    monkeypatch.setattr(acceptance.cn, "central_decompose", changed)
    assert acceptance.criterion_7(random.Random(0)) == (
        False, "decomposition does not recompose")


def test_criterion_8_catches_an_unbalanced_3_simplex(monkeypatch):
    monkeypatch.setattr(cochains, "_imbalances",
                        _unbalanced(cochains._imbalances))
    assert acceptance.criterion_8(random.Random(0)) == (
        False, "Bianchi failed on circle2 x Z2")


@pytest.mark.parametrize("name, n, start",
                         [("circle", 2, "a1"), ("chain", 3, "x1")])
def test_criterion_12_neighbours_are_the_deformations(name, n, start):
    """The set of step id neighbours that criterion 12 searches from
    each seed, sorted, is the ids of its `deformations` in their order:
    the criterion does not depend on the order, `deformations` does."""
    P = generate(name, n)
    K = complex_of(P)
    _, words = pi1_presentation(P, start)
    seeds = [r for r in words.tree if len(r) <= 2]
    assert seeds
    for r in seeds:
        p = Path(tuple(K[1].simplices[i] for i in r))
        assert sorted(_neighbours(r, K[2].deformations, len(r) + 1)) == [
            tuple(map(K[1].ids.__getitem__, q.steps))
            for q in deformations(p, P)]


@pytest.mark.parametrize("call, message", [
    (lambda: run_criterion(13), "no acceptance criterion 13"),
    (lambda: run_criterion(0), "no acceptance criterion 0"),
    (lambda: winding_cocycle(generate("chain", 2), cyclic_group(3), "g1"),
     "no cocycle on chain2 winds through 'g1'"),
    (lambda: full_image_cocycle(generate("chain", 2), cyclic_group(3)),
     "no surjective homomorphism onto Z3 from chain2"),
], ids=["criterion-13", "criterion-0", "winding", "full-image"])
def test_acceptance_helpers_refuse_what_they_cannot_build(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
