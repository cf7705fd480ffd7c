"""Finite groups via Cayley tables, inner automorphisms, and the
2-/3-category composition laws used as non-Abelian coefficients."""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    DiamondUndefined,
    DotUndefined,
    MalformedTable,
    Mismatch,
    MissingValue,
    NoIdentity,
    NoInverse,
    NotAssociative,
    content_lines,
    located,
)
from .frozen import Frozen


class FiniteGroup:
    """A finite group over string symbols, backed by its Cayley table.

    All axioms (associativity, identity, inverses) are checked at
    construction; downstream code trusts the table.  The table is kept
    over element ids (positions in `elements`), which the named
    operations translate to and from, a name outside the group being a
    `MissingValue`: `index` maps a name to its id,
    `rows[g][h]` is the id of g h, `inverses[g]` the id of g^-1, `unit`
    the id of the identity and `coset_rep[g]` the id of the first
    element of the coset g Z(G).
    """

    __slots__ = ("name", "elements", "identity", "index", "rows", "inverses",
                 "unit", "coset_rep", "_center", "_hash")

    def __init__(self, elements, table, name="group"):
        self.name = name
        self.elements = elems = tuple(elements)
        self.index = index = {g: i for i, g in enumerate(elems)}
        if len(index) != len(elems):
            raise MalformedTable("duplicate group elements")
        rows = []
        for g in elems:
            row = []
            for h in elems:
                try:
                    gh = table[(g, h)]
                except KeyError:
                    raise MalformedTable(f"missing product {g!r}*{h!r}") from None
                if gh not in index:
                    raise MalformedTable(f"product {g!r}*{h!r} = {gh!r} not an element")
                row.append(index[gh])
            rows.append(tuple(row))
        self.rows = rows = tuple(rows)
        ids = range(len(elems))
        for g in ids:
            for h in ids:
                for k in ids:
                    if rows[rows[g][h]][k] != rows[g][rows[h][k]]:
                        a, b, c = elems[g], elems[h], elems[k]
                        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
        unit = next((e for e in ids if all(rows[e][g] == g == rows[g][e]
                                           for g in ids)), None)
        if unit is None:
            raise NoIdentity("table has no two-sided identity")
        self.unit, self.identity = unit, elems[unit]
        inverses = []
        for g in ids:
            inv = next((h for h in ids if rows[g][h] == unit == rows[h][g]),
                       None)
            if inv is None:
                raise NoInverse(f"{elems[g]!r} has no inverse")
            inverses.append(inv)
        self.inverses = tuple(inverses)
        center = [g for g in ids if all(rows[g][h] == rows[h][g] for h in ids)]
        self.coset_rep = tuple(min(rows[g][z] for z in center) for g in ids)
        self._center = tuple(elems[g] for g in center)
        self._hash = hash((elems, rows))

    # -- basic operations -------------------------------------------------

    def _missing(self, error):
        """The `MissingValue` for the name whose lookup in `index` raised
        the `KeyError` error."""
        return MissingValue(f"{error.args[0]!r} is not an element of "
                            f"{self.name}")

    def mul(self, g, h):
        try:
            return self.elements[self.rows[self.index[g]][self.index[h]]]
        except KeyError as error:
            raise self._missing(error) from None

    def inv(self, g):
        try:
            return self.elements[self.inverses[self.index[g]]]
        except KeyError as error:
            raise self._missing(error) from None

    def product(self, *factors):
        out = self.identity
        for g in factors:
            out = self.mul(out, g)
        return out

    def conjugate(self, g, h):
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def center(self):
        return self._center

    def is_abelian(self):
        return len(self._center) == len(self.elements)

    def is_trivial(self):
        return len(self.elements) == 1

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.index

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order {len(self.elements)})"

    # -- derived subsets --------------------------------------------------

    def subgroup_generated(self, generators):
        """The subgroup generated by a subset, in element order: the orbit
        of the unit under right multiplication by the generators.  In a
        finite group the monoid a set generates is already a subgroup."""
        try:
            gens = {self.index[g] for g in generators}
        except KeyError as error:
            raise self._missing(error) from None
        members, frontier = {self.unit}, [self.unit]
        for h in frontier:
            for g in gens:
                if (hg := self.rows[h][g]) not in members:
                    members.add(hg)
                    frontier.append(hg)
        return tuple(g for i, g in enumerate(self.elements) if i in members)

    def centralizer(self, subset):
        return tuple(
            g for g in self.elements
            if all(self.mul(g, h) == self.mul(h, g) for h in subset)
        )

    def conjugate_subset(self, subset, g):
        conj = {self.conjugate(g, h) for h in subset}
        return tuple(h for h in self.elements if h in conj)

    def normal_closure_in(self, ambient, generators):
        """Normal closure of `generators` inside the subgroup `ambient`:
        the subgroup generated by their conjugates a h a^-1, a in
        `ambient`."""
        return self.subgroup_generated(
            {self.conjugate(a, h) for a in ambient for h in set(generators)})

    def subgroup(self, members, name=None):
        """The sub-Cayley-table group on a closed subset."""
        members = tuple(members)
        table = {}
        member_set = set(members)
        for g in members:
            for h in members:
                gh = self.mul(g, h)
                if gh not in member_set:
                    raise MalformedTable(f"subset not closed: {g!r}*{h!r}")
                table[(g, h)] = gh
        return FiniteGroup(members, table, name=name or f"{self.name}-sub")


# -- standard constructions ----------------------------------------------


def trivial_group():
    return FiniteGroup(("e",), {("e", "e"): "e"}, name="1")


def cyclic_group(n: int, name=None):
    """Z_n written multiplicatively with elements g0..g{n-1} (g0 = e)."""
    elems = [f"g{i}" for i in range(n)]
    table = {
        (f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)
    }
    return FiniteGroup(elems, table, name=name or f"Z{n}")


def symmetric_group(n: int, name=None):
    """S_n on {1..n}; elements are one-line permutation words like '132'."""
    perms = sorted(itertools.permutations(range(1, n + 1)))
    def label(p):
        return "".join(str(i) for i in p)
    table = {}
    for p in perms:
        for q in perms:
            # (p q)(i) = p(q(i))
            pq = tuple(p[q[i] - 1] for i in range(n))
            table[(label(p), label(q))] = label(pq)
    return FiniteGroup([label(p) for p in perms], table, name=name or f"S{n}")


# -- inner automorphisms and the categories 2G, 3G -----------------------


class InnerAut(Frozen):
    """ad(g): h -> g h g^-1, carried by a canonical coset representative.

    Two representatives define the same inner automorphism iff they
    differ by a central element; the canonical representative is the
    first element of the coset g Z(G) in the group's element order.
    """

    group: FiniteGroup
    representative: str
    canonical: str

    def __init__(self, group, representative):
        try:
            c = group.elements[group.coset_rep[group.index[representative]]]
        except KeyError as error:
            raise group._missing(error) from None
        self.__dict__.update(group=group, representative=representative, canonical=c)

    def __eq__(self, other):
        if not isinstance(other, InnerAut):
            return NotImplemented
        return self.group == other.group and self.canonical == other.canonical

    def __hash__(self):
        return hash((self.group, self.canonical))

    def __call__(self, h):
        return self.group.conjugate(self.representative, h)

    def compose(self, other: "InnerAut") -> "InnerAut":
        return InnerAut(self.group, self.group.mul(self.representative,
                                                   other.representative))

    def inverse(self) -> "InnerAut":
        return InnerAut(self.group, self.group.inv(self.representative))

    def is_identity(self):
        G = self.group
        return self.canonical == G.elements[G.coset_rep[G.unit]]


def ad(G: FiniteGroup, g) -> InnerAut:
    return InnerAut(G, g)


def identity_aut(G: FiniteGroup) -> InnerAut:
    return InnerAut(G, G.identity)


class Arrow2G(Frozen):
    g: str
    tau: InnerAut


class Arrow3G(Frozen):
    g: str  # must be central
    tau: InnerAut
    gamma: InnerAut

    def __init__(self, g, tau, gamma):
        if g not in tau.group.center():
            raise Mismatch(f"{g!r} is not central")
        self.__dict__.update(g=g, tau=tau, gamma=gamma)


def compose_2g(x: Arrow2G, y: Arrow2G, law: str) -> Arrow2G:
    """The two composition laws of 2G.

    times: (g, tau) x (h, gamma) = (g tau(h), tau gamma), always defined.
    diamond: (g, tau) <> (h, gamma) = (g h, gamma), defined when
    ad(h) gamma = tau.
    """
    G = x.tau.group
    if law == "times":
        return Arrow2G(G.mul(x.g, x.tau(y.g)), x.tau.compose(y.tau))
    if law == "diamond":
        if ad(G, y.g).compose(y.tau) != x.tau:
            raise DiamondUndefined("side condition ad(h) gamma = tau fails")
        return Arrow2G(G.mul(x.g, y.g), y.tau)
    raise Mismatch(f"unknown 2G law {law!r}")


def compose_3g(x: Arrow3G, y: Arrow3G, law: str) -> Arrow3G:
    """The three composition laws of 3G (times < diamond < dot)."""
    G = x.tau.group
    gg = G.mul(x.g, y.g)
    if law == "times":
        gamma = x.gamma.compose(x.tau).compose(y.gamma).compose(x.tau.inverse())
        return Arrow3G(gg, x.tau.compose(y.tau), gamma)
    if law == "diamond":
        if x.tau != y.gamma.compose(y.tau):
            raise DiamondUndefined("side condition tau = gamma' tau' fails")
        return Arrow3G(gg, y.tau, x.gamma.compose(y.gamma))
    if law == "dot":
        if x.tau != y.tau or x.gamma != y.gamma:
            raise DotUndefined("dot requires equal tau and gamma components")
        return Arrow3G(gg, x.tau, x.gamma)
    raise Mismatch(f"unknown 3G law {law!r}")


def unit_2g(G: FiniteGroup) -> Arrow2G:
    return Arrow2G(G.identity, identity_aut(G))


def one_arrows_2g(G: FiniteGroup):
    """The 1-arrows of 2G: pairs (e, tau)."""
    seen = []
    for g in G.elements:
        tau = ad(G, g)
        if all(tau != existing.tau for existing in seen):
            seen.append(Arrow2G(G.identity, tau))
    return tuple(seen)


# -- group homomorphisms --------------------------------------------------


class GroupHom(Frozen):
    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple  # sorted (element, image) pairs

    def __init__(self, source, target, mapping):
        self.__dict__.update(source=source, target=target, mapping=mapping)

    @classmethod
    def from_dict(cls, source, target, mapping):
        hom = cls(source, target, tuple(sorted(mapping.items())))
        hom.validate()
        return hom

    @classmethod
    def identity(cls, G):
        return cls.from_dict(G, G, {g: g for g in G.elements})

    @classmethod
    def inclusion(cls, sub: FiniteGroup, G: FiniteGroup):
        return cls.from_dict(sub, G, {g: g for g in sub.elements})

    def as_dict(self):
        return dict(self.mapping)

    def validate(self):
        m = self.as_dict()
        if set(m) != set(self.source.elements):
            raise Mismatch("homomorphism not total on its source")
        for g in self.source.elements:
            if m[g] not in self.target:
                raise Mismatch(f"image {m[g]!r} not in target group")
        for g in self.source.elements:
            for h in self.source.elements:
                if m[self.source.mul(g, h)] != self.target.mul(m[g], m[h]):
                    raise Mismatch(f"not a homomorphism at ({g!r}, {h!r})")

    @cached_property
    def _lookup(self):
        return dict(self.mapping)

    def __call__(self, g):
        try:
            return self._lookup[g]
        except KeyError as error:
            raise self.source._missing(error) from None

    def is_injective(self):
        m = self.as_dict()
        return len(set(m.values())) == len(m)


def hom_compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """Pointwise composite outer . inner, validated."""
    if inner.target != outer.source:
        raise Mismatch("homomorphism targets/sources do not line up")
    return GroupHom.from_dict(
        inner.source, outer.target, {g: outer(inner(g)) for g in inner.source.elements}
    )


# -- textual format -------------------------------------------------------


def parse_group_text(text: str) -> FiniteGroup:
    """Parse the Cayley-table group format.

    ``group <name>`` / ``elems <e> <g1> ...`` (first listed is the
    identity) / ``table`` followed by one row per element:
    ``<g>: <g*e> <g*g1> ...`` in the elems order.
    """
    name = None
    elems = None
    rows = {}
    in_table = False
    for number, line, raw in content_lines(text):
        with located(f" (line {number})"):
            fields = line.split()
            if in_table:
                head, _, rest = line.partition(":")
                g = head.strip()
                if elems is None:
                    raise MalformedTable("table rows before the elems line")
                if g not in elems:
                    raise MalformedTable(f"table row for unknown element: {raw!r}")
                if g in rows:
                    raise MalformedTable(f"repeated table row for {g!r}: {raw!r}")
                rows[g] = rest.split()
            elif fields[0] == "group":
                if len(fields) != 2:
                    raise MalformedTable(f"bad group header: {raw!r}")
                if name is not None:
                    raise MalformedTable(f"repeated group header: {raw!r}")
                name = fields[1]
            elif fields[0] == "elems":
                if elems is not None:
                    raise MalformedTable(f"repeated elems line: {raw!r}")
                elems = fields[1:]
            elif fields[0] == "table":
                in_table = True
            else:
                raise MalformedTable(f"unrecognized group line: {raw!r}")
    if name is None or elems is None:
        raise MalformedTable("missing group header or elems line")
    table = {}
    for g in elems:
        if g not in rows or len(rows[g]) != len(elems):
            raise MalformedTable(f"missing or short table row for {g!r}")
        for h, gh in zip(elems, rows[g]):
            table[(g, h)] = gh
    G = FiniteGroup(elems, table, name=name)
    if G.identity != elems[0]:
        raise NoIdentity("first listed element is not the identity")
    return G


def format_group_text(G: FiniteGroup) -> str:
    elems = [G.identity] + [g for g in G.elements if g != G.identity]
    lines = [f"group {G.name}", "elems " + " ".join(elems), "table"]
    for g in elems:
        lines.append(f"{g}: " + " ".join(G.mul(g, h) for h in elems))
    return "\n".join(lines) + "\n"
