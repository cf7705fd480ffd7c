"""Gauge transformations of a principal bundle and their action on
connections."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .cochains import (Cochain1, _act, _point_ids, is_cocycle, is_morphism,
                       morphisms)
from .errors import Mismatch, SearchLimitExceeded, WrongCocycle


@dataclass(frozen=True)
class GaugeTransformation:
    """A symmetry of a bundle: a point assignment commuting with the
    cocycle, z(b) f(start) = f(end) z(b) for every 1-simplex b."""

    cocycle: Cochain1
    assignment: tuple  # sorted (element, group element) pairs

    def as_dict(self):
        return dict(self.assignment)

    @cached_property
    def _lookup(self):
        return dict(self.assignment)

    def __call__(self, element):
        return self._lookup[element]

    def compose(self, other: "GaugeTransformation") -> "GaugeTransformation":
        if self.cocycle != other.cocycle:
            raise Mismatch("gauge transformations of different bundles")
        G = self.cocycle.group
        f, g = self.as_dict(), other.as_dict()
        return GaugeTransformation(
            self.cocycle,
            tuple(sorted((a, G.mul(f[a], g[a])) for a in f)),
        )

    def inverse(self) -> "GaugeTransformation":
        G = self.cocycle.group
        return GaugeTransformation(
            self.cocycle,
            tuple(sorted((a, G.inv(g)) for a, g in self.assignment)),
        )


def is_gauge_transformation(z: Cochain1, f) -> bool:
    return is_morphism(f, z, z)


def gauge_group(z: Cochain1):
    """All gauge transformations of the bundle z, in deterministic order:
    the morphisms z -> z, one per admissible value at the base point."""
    if not is_cocycle(z):
        raise WrongCocycle("gauge groups are attached to 1-cocycles")
    return tuple(GaugeTransformation(z, f) for f in morphisms(z, z))


def gauge_group_raw(z: Cochain1, limit=10 ** 6):
    """Oracle: filter every point assignment."""
    P, G = z.poset, z.group
    if len(G) ** len(P) > limit:
        raise SearchLimitExceeded(
            f"{len(G)}^{len(P)} assignments exceed the limit {limit}"
        )
    out = []
    for choice in itertools.product(G.elements, repeat=len(P)):
        f = dict(zip(P.elements, choice))
        if is_gauge_transformation(z, f):
            out.append(GaugeTransformation(z, tuple(sorted(f.items()))))
    return tuple(out)


def gauge_act(f, u: Cochain1) -> Cochain1:
    """The action on 1-cochains: b -> f(end) u(b) f(start)^-1.

    Accepts a GaugeTransformation or a plain element -> group mapping.
    """
    mapping = f.as_dict() if isinstance(f, GaugeTransformation) else dict(f)
    t = _point_ids(u.poset, u.group, mapping)
    return Cochain1._of(u.poset, u.group,
                        _act(u.group, u.cells.faces, u.ids, t))
