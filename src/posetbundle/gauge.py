"""Gauge transformations of a principal bundle and their action on
connections."""

from __future__ import annotations

from .cochains import (Cochain1, Morphism1, _act, _point_ids, is_cocycle,
                       is_morphism, morphisms)
from .errors import Mismatch, WrongCocycle, check_limit


class GaugeTransformation(Morphism1):
    """A symmetry of a bundle: a morphism from the cocycle to itself, a
    point assignment with z(b) f(start) = f(end) z(b) for every
    1-simplex b."""

    def __init__(self, cocycle: Cochain1, assignment):
        super().__init__(cocycle, cocycle, assignment)

    @property
    def cocycle(self) -> Cochain1:
        return self.source

    def compose(self, other: "GaugeTransformation") -> "GaugeTransformation":
        if self.cocycle != other.cocycle:
            raise Mismatch("gauge transformations of different bundles")
        G = self.cocycle.group
        return GaugeTransformation(self.cocycle, tuple(
            (a, G.mul(g, other(a))) for a, g in self.assignment))

    def inverse(self) -> "GaugeTransformation":
        G = self.cocycle.group
        return GaugeTransformation(self.cocycle, tuple(
            (a, G.inv(g)) for a, g in self.assignment))


def is_gauge_transformation(z: Cochain1, f) -> bool:
    return is_morphism(f, z, z)


def gauge_group(z: Cochain1):
    """All gauge transformations of the bundle z, in deterministic order:
    the morphisms z -> z, one per admissible value at the base point."""
    if not is_cocycle(z):
        raise WrongCocycle("gauge groups are attached to 1-cocycles")
    return tuple(GaugeTransformation(z, f) for f in morphisms(z, z))


def gauge_group_raw(z: Cochain1, limit=10 ** 6):
    """Oracle: the point assignments (element ids in element order) that
    fix z, f(end) z(b) f(start)^-1 = z(b) on every 1-simplex b, in
    `itertools.product` order, once |G|^|P| is within the limit.  Depth
    first, never reading the tree transport: points take values in id
    order and each 1-simplex is tested once its later endpoint has one."""
    P, G = z.poset, z.group
    n, m = len(P), len(G)
    check_limit(m ** n, limit, f"{m}^{n} assignments")
    rows, inv = G.rows, G.inverses
    tests = [[] for _ in range(n)]  # (z(b), end, start) by later endpoint
    for g, (end, start) in zip(z.ids, z.cells.faces):
        tests[max(end, start)].append((g, end, start))
    found, f, k = [], [-1] * n, 0
    while k >= 0:  # f[:k] passed its tests; k steps back when f[k] runs out
        if k == n:
            found.append(tuple(f))
        elif f[k] + 1 < m:
            f[k] += 1
            for g, end, start in tests[k]:
                if rows[rows[f[end]][g]][inv[f[start]]] != g:
                    break
            else:
                k += 1
            continue
        else:
            f[k] = -1
        k -= 1
    name = G.elements.__getitem__
    return tuple(GaugeTransformation(z, tuple(zip(P.elements, map(name, f))))
                 for f in found)


def gauge_act(f, u: Cochain1) -> Cochain1:
    """The action on 1-cochains: b -> f(end) u(b) f(start)^-1.

    Accepts a Morphism1 (a GaugeTransformation, or z -> z from
    `find_morphism`) or a plain element -> group mapping.
    """
    t = _point_ids(u.poset, u.group, f)
    return Cochain1._of(u.poset, u.group,
                        _act(u.group, u.cells.faces, u.ids, t))
