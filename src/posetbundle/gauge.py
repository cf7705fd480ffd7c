"""Gauge transformations of a principal bundle and their action on
connections."""

from __future__ import annotations

import itertools

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
    """Oracle: scan every point assignment, a tuple of element ids in
    element order, in `itertools.product` order, and keep those that fix
    z: f(end) z(b) f(start)^-1 = z(b) for every 1-simplex b.  The limit is
    checked before the scan; an assignment is dropped at its first
    failing 1-simplex, and assignments are made one at a time, so memory
    does not grow with |G|^|P|."""
    P, G = z.poset, z.group
    check_limit(len(G) ** len(P), limit, f"{len(G)}^{len(P)} assignments")
    rows, inv = G.rows, G.inverses
    edges = tuple(zip(z.ids, z.cells.faces))

    def fixes(f):
        for g, (end, start) in edges:
            if rows[rows[f[end]][g]][inv[f[start]]] != g:
                return False
        return True

    name = G.elements.__getitem__
    return tuple(GaugeTransformation(z, tuple(zip(P.elements, map(name, f))))
                 for f in filter(fixes, itertools.product(range(len(G)),
                                                          repeat=len(P))))


def gauge_act(f, u: Cochain1) -> Cochain1:
    """The action on 1-cochains: b -> f(end) u(b) f(start)^-1.

    Accepts a Morphism1 (a GaugeTransformation, or z -> z from
    `find_morphism`) or a plain element -> group mapping.
    """
    t = _point_ids(u.poset, u.group, f)
    return Cochain1._of(u.poset, u.group,
                        _act(u.group, u.cells.faces, u.ids, t))
