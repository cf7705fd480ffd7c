"""Group-valued cochains on the simplices of a poset.

Degrees 0..3 are implemented.  A 1-cochain assigns a group element to
every 1-simplex; a 2-cochain carries an inner-automorphism component on
1-simplices next to its group component on 2-simplices, and a 3-cochain
a central group component on 3-simplices.  Coboundaries, the cocycle
conditions, morphisms of 1-cocycles, and exhaustive enumeration and
classification of 1-cocycles live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadParameter,
    CentralityViolation,
    MissingValue,
    Mismatch,
    SearchLimitExceeded,
)
from .groups import FiniteGroup, GroupHom, ad
from .paths import (
    Path,
    based_loops,
    enumerate_homs,
    hom_class_representatives,
    pi1_presentation,
    word_value,
)
from .poset import Poset, base_point
from .simplicial import enumerate_simplices, parse_simplex1


def _check_total(P, G, values, n):
    expected = enumerate_simplices(P, n)
    if set(values) != set(expected):
        raise MissingValue(
            f"a {n}-cochain must assign a value to every {n}-simplex of "
            f"{P.name}"
        )
    for d, g in values.items():
        if g not in G:
            raise MissingValue(f"{g!r} (value at {d.encode()}) is not in {G.name}")


class _Cochain:
    """What the cochain types share: a poset, a group, values keyed by
    the simplices of one dimension and, in degrees 2 and 3, an
    automorphism component `tau` (None below).  Equality compares all
    four within one type; the hash covers the values."""

    __slots__ = ("poset", "group", "values")
    dim = None
    tau = None

    def __init__(self, P: Poset, G: FiniteGroup, values):
        self.poset = P
        self.group = G
        self.values = dict(values)
        _check_total(P, G, self.values, self.dim)

    def __call__(self, d):
        return self.values[d]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.poset, self.group, self.tau, self.values) == (
            other.poset, other.group, other.tau, other.values
        )

    def __hash__(self):
        return hash((self.poset, self.group, frozenset(self.values.items())))


class Cochain0(_Cochain):
    """An assignment of group elements to the points of a poset."""

    __slots__ = ()
    dim = 0

    def at(self, element: str):
        """Value at a point given by its element name."""
        for a, g in self.values.items():
            if a.element == element:
                return g
        raise MissingValue(f"no value at {element!r}")


class Cochain1(_Cochain):
    """An assignment of group elements to the 1-simplices of a poset."""

    __slots__ = ()
    dim = 1

    def __repr__(self):
        return f"Cochain1(over {self.poset.name}, values in {self.group.name})"


class Cochain2(_Cochain):
    """A 2-cochain: inner automorphisms on 1-simplices, group elements on
    2-simplices, intertwined so that conjugation by the 2-face value
    carries the automorphism of boundary 1 to the composite of the
    automorphisms of boundaries 0 and 2."""

    __slots__ = ("tau",)
    dim = 2

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        self.tau = dict(tau)
        if set(self.tau) != set(enumerate_simplices(P, 1)):
            raise MissingValue(
                "the automorphism component must cover every 1-simplex"
            )
        super().__init__(P, G, values)
        for c in enumerate_simplices(P, 2):
            left = ad(G, self.values[c]).compose(self.tau[c.face1])
            right = self.tau[c.face0].compose(self.tau[c.face2])
            if left != right:
                raise Mismatch(
                    f"2-cochain component at {c.encode()} does not intertwine "
                    "the automorphism components of its faces"
                )


class Cochain3(_Cochain):
    """A 3-cochain: the automorphism component of a 2-cochain together
    with central group elements on 3-simplices."""

    __slots__ = ("tau",)
    dim = 3

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        self.tau = dict(tau)
        super().__init__(P, G, values)
        center = set(G.center())
        for d, g in self.values.items():
            if g not in center:
                raise CentralityViolation(
                    f"3-cochain value {g!r} at {d.encode()} is not central"
                )


# -- constructions ---------------------------------------------------------


def trivial_cochain1(P: Poset, G: FiniteGroup) -> Cochain1:
    return Cochain1(P, G, {b: G.identity for b in enumerate_simplices(P, 1)})


def random_cochain0(P: Poset, G: FiniteGroup, rng) -> Cochain0:
    return Cochain0(
        P, G, {a: rng.choice(G.elements) for a in enumerate_simplices(P, 0)}
    )


def random_cochain1(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    return Cochain1(
        P, G, {b: rng.choice(G.elements) for b in enumerate_simplices(P, 1)}
    )


def coboundary_from_assignment(P: Poset, G: FiniteGroup, f) -> Cochain1:
    """The coboundary of the 0-cochain given by element name -> group
    element."""
    v = Cochain0(P, G, {a: f[a.element] for a in enumerate_simplices(P, 0)})
    return coboundary0(v)


def pushforward(phi: GroupHom, u: Cochain1) -> Cochain1:
    """Apply a group homomorphism to every value."""
    if phi.source != u.group:
        raise Mismatch("homomorphism source does not match the cochain group")
    return Cochain1(u.poset, phi.target, {b: phi(g) for b, g in u.values.items()})


def associated_cocycle(z: Cochain1, action: GroupHom) -> Cochain1:
    """Push a cocycle forward along an action homomorphism.

    Cocycle-ness is preserved by any homomorphism; the result is checked
    anyway as a guard."""
    if not is_cocycle(z):
        raise Mismatch("the associated construction starts from a cocycle")
    out = pushforward(action, z)
    if not is_cocycle(out):  # pragma: no cover - guards a library invariant
        raise Mismatch("pushforward of a cocycle failed the cocycle identity")
    return out


# -- coboundaries ----------------------------------------------------------


def coboundary0(v: Cochain0) -> Cochain1:
    """(dv)(b) = v(end) v(start)^-1."""
    G = v.group
    return Cochain1(
        v.poset,
        G,
        {
            b: G.mul(v(b.face0), G.inv(v(b.face1)))
            for b in enumerate_simplices(v.poset, 1)
        },
    )


def coboundary1(u: Cochain1) -> Cochain2:
    """(du)(c) = u(b0) u(b2) u(b1)^-1, with automorphism component ad(u)."""
    G = u.group
    tau = {b: ad(G, u(b)) for b in enumerate_simplices(u.poset, 1)}
    values = {
        c: G.product(u(c.face0), u(c.face2), G.inv(u(c.face1)))
        for c in enumerate_simplices(u.poset, 2)
    }
    return Cochain2(u.poset, G, tau, values)


def coboundary2(w: Cochain2) -> Cochain3:
    """(dw)(d) = w(f0) w(f2) (tau(w(f3)) w(f1))^-1, conjugating by the
    automorphism of the rear edge (the common boundary 0 of faces 0 and 1).
    """
    G = w.group
    values = {}
    for d in enumerate_simplices(w.poset, 3):
        f0, f1, f2, f3 = d.faces
        twisted = G.mul(w.tau[f0.face0](w(f3)), w(f1))
        values[d] = G.product(w(f0), w(f2), G.inv(twisted))
    return Cochain3(w.poset, G, w.tau, values)


def coboundary(cochain):
    if isinstance(cochain, Cochain0):
        return coboundary0(cochain)
    if isinstance(cochain, Cochain1):
        return coboundary1(cochain)
    if isinstance(cochain, Cochain2):
        return coboundary2(cochain)
    raise BadParameter("no coboundary implemented above degree 2")


# -- cocycle conditions ----------------------------------------------------


def is_cocycle(cochain) -> bool:
    """The kernel condition in each implemented degree."""
    if isinstance(cochain, Cochain0):
        return all(
            cochain(b.face0) == cochain(b.face1)
            for b in enumerate_simplices(cochain.poset, 1)
        )
    if isinstance(cochain, Cochain1):
        failures = identity_failures(
            cochain, enumerate_simplices(cochain.poset, 2)
        )
        return next(failures, None) is None
    if isinstance(cochain, Cochain2):
        G = cochain.group
        for d in enumerate_simplices(cochain.poset, 3):
            f0, f1, f2, f3 = d.faces
            lhs = G.mul(cochain(f0), cochain(f2))
            rhs = G.mul(cochain.tau[f0.face0](cochain(f3)), cochain(f1))
            if lhs != rhs:
                return False
        return True
    raise BadParameter("cocycle condition implemented for degrees 0-2")


def identity_failures(u: Cochain1, simplices):
    """The 2-simplices c among `simplices` where the cocycle identity
    u(c0) u(c2) = u(c1) fails, lazily and in order."""
    values, mul = u.values, u.group.mul
    return (
        c for c in simplices
        if mul(values[c.face0], values[c.face2]) != values[c.face1]
    )


def cocycle_violations(z: Cochain1):
    """The 2-simplices where the 1-cocycle identity fails, for reporting."""
    return tuple(identity_failures(z, enumerate_simplices(z.poset, 2)))


# -- paths and path independence -------------------------------------------


def extend_to_path(u: Cochain1, p: Path):
    """The ordered product of values along a path (first step rightmost)."""
    G = u.group
    value = G.identity
    for b in p.steps:
        value = G.mul(u(b), value)
    return value


def tree_transport(u: Cochain1, a0: str):
    """T_u(a) = u(tree path to a) for every point a (element -> group
    element): the product of u along the path from a0 to a in the
    spanning tree of `pi1_presentation(P, a0)`."""
    _, words = pi1_presentation(u.poset, a0)
    return {a: extend_to_path(u, words.tree_path(a)) for a in u.poset.elements}


def is_path_independent(u: Cochain1):
    """Whether the extension of u to paths depends only on endpoints.

    Returns a witness 0-cochain v with dv = u when it does (this is
    exactly the coboundary condition), otherwise None.
    """
    P, G = u.poset, u.group
    f = tree_transport(u, base_point(P))
    for b in enumerate_simplices(P, 1):
        if G.mul(u(b), f[b.face1.element]) != f[b.face0.element]:
            return None
    return Cochain0(P, G, {a: f[a.element] for a in enumerate_simplices(P, 0)})


# -- morphisms of 1-cocycles -----------------------------------------------


@dataclass(frozen=True)
class Morphism1:
    """A morphism of 1-cochains: a family f with
    f(end) source(b) = target(b) f(start) for every 1-simplex b."""

    source: Cochain1
    target: Cochain1
    assignment: tuple  # sorted (element, group element) pairs

    def as_dict(self):
        return dict(self.assignment)

    def __call__(self, element):
        return self.as_dict()[element]


def is_morphism(f, source: Cochain1, target: Cochain1) -> bool:
    G = source.group
    return all(
        G.mul(f[b.face0.element], source(b))
        == G.mul(target(b), f[b.face1.element])
        for b in enumerate_simplices(source.poset, 1)
    )


def morphisms(v1: Cochain1, v: Cochain1):
    """The morphisms v1 -> v, lazily, as sorted (element, group element)
    assignments.

    A morphism of cochains over a connected poset is fixed by its value
    at the base point a0: f(a) = T_v(a) f(a0) T_v1(a)^-1 with T the tree
    transport.  Each seed value f(a0), in group element order, is
    transported and checked against every 1-simplex.
    """
    if v1.poset != v.poset or v1.group != v.group:
        raise Mismatch("cochains live over different posets or groups")
    P, G = v.poset, v.group
    a0 = base_point(P)
    t = tree_transport(v, a0)
    t1 = t if v1 is v else tree_transport(v1, a0)
    for seed in G.elements:
        f = {a: G.product(t[a], seed, G.inv(t1[a])) for a in P.elements}
        f[a0] = seed
        if is_morphism(f, v1, v):
            yield tuple(sorted(f.items()))


def find_morphism(v1: Cochain1, v: Cochain1):
    """A morphism v1 -> v if one exists, else None."""
    assignment = next(morphisms(v1, v), None)
    return None if assignment is None else Morphism1(v1, v, assignment)


def are_equivalent(z: Cochain1, z1: Cochain1) -> bool:
    """Cocycle morphisms over a group are invertible, so existence in one
    direction is equivalence."""
    return find_morphism(z, z1) is not None


# -- enumeration and classification ----------------------------------------


def _twisted_loop_values(loops, loop_values, f, G):
    """z(b) = f(end) g f(start)^-1 for each based loop (b, _, _) in
    `loops` and its value g in `loop_values`."""
    return tuple(
        G.mul(G.mul(f[b.face0.element], g), G.inv(f[b.face1.element]))
        for (b, _, _), g in zip(loops, loop_values)
    )


def cocycle_from_hom(P, G, words, sigma, f):
    """The 1-cocycle built from a fundamental-group homomorphism and a
    points assignment f (element -> G) with f = identity at the base
    point: z(b) = f(end) sigma([loop through b]) f(start)^-1."""
    loops = based_loops(P, words.base)
    loop_values = [word_value(word, sigma, G) for _, _, word in loops]
    values = _twisted_loop_values(loops, loop_values, f, G)
    return Cochain1(P, G, dict(zip(enumerate_simplices(P, 1), values)))


def enumerate_cocycles(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """All 1-cocycles of P with values in G, in deterministic order.

    A cocycle is the same thing as a fundamental-group homomorphism
    together with a free choice of group element at every point other
    than the base point, so the enumeration ranges over those pairs.
    The value of each based loop is computed once per homomorphism;
    each point assignment only multiplies in its endpoint values.
    """
    a0 = base_point(P)
    presentation, _ = pi1_presentation(P, a0)
    homs = enumerate_homs(presentation, G, limit=limit)
    others = [a for a in P.elements if a != a0]
    if len(homs) * len(G) ** len(others) > limit:
        raise SearchLimitExceeded(
            f"{len(homs)} homomorphisms x {len(G)}^{len(others)} point "
            f"assignments exceed the limit {limit}"
        )
    loops = based_loops(P, a0)
    simplices = enumerate_simplices(P, 1)
    out = []
    seen = set()
    for sigma in homs:
        loop_values = [word_value(word, sigma, G) for _, _, word in loops]
        for choice in itertools.product(G.elements, repeat=len(others)):
            f = dict(zip(others, choice))
            f[a0] = G.identity
            values = _twisted_loop_values(loops, loop_values, f, G)
            if values not in seen:
                seen.add(values)
                out.append(Cochain1(P, G, dict(zip(simplices, values))))
    return tuple(out)


def enumerate_cocycles_raw(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """Brute-force oracle: filter every map on 1-simplices."""
    simplices = enumerate_simplices(P, 1)
    if len(G) ** len(simplices) > limit:
        raise SearchLimitExceeded(
            f"{len(G)}^{len(simplices)} maps exceed the limit {limit}"
        )
    out = []
    for assignment in itertools.product(G.elements, repeat=len(simplices)):
        z = Cochain1(P, G, dict(zip(simplices, assignment)))
        if is_cocycle(z):
            out.append(z)
    return tuple(out)


def classify_cocycles(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """Representatives of the equivalence classes of 1-cocycles.

    Over a connected poset the classes are the conjugation orbits of
    fundamental-group homomorphisms.  Each class is represented by the
    cocycle of the first homomorphism of its orbit, trivial on the
    spanning tree, in `enumerate_homs` order.  A disconnected poset
    raises `NotConnected`.
    """
    presentation, words = pi1_presentation(P, base_point(P))
    f = {a: G.identity for a in P.elements}
    return tuple(
        cocycle_from_hom(P, G, words, sigma, f)
        for sigma in hom_class_representatives(presentation, G, limit=limit)
    )


# -- textual format --------------------------------------------------------


def parse_cochain_text(text: str, P: Poset, G: FiniteGroup) -> Cochain1:
    """Parse the 1-cochain format: a header line
    ``cochain <name> over <poset> values <group>`` followed by one
    ``(<support>;<end>,<start>) = <element>`` line per 1-simplex."""
    header = None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            fields = line.split()
            if (
                len(fields) != 6
                or fields[0] != "cochain"
                or fields[2] != "over"
                or fields[4] != "values"
            ):
                raise BadParameter(f"bad cochain header: {raw!r}")
            if fields[3] != P.name:
                raise Mismatch(
                    f"cochain is over {fields[3]!r}, not {P.name!r}"
                )
            if fields[5] != G.name:
                raise Mismatch(
                    f"cochain takes values in {fields[5]!r}, not {G.name!r}"
                )
            header = fields[1]
            continue
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise BadParameter(f"bad cochain line: {raw!r}")
        b = parse_simplex1(lhs)
        if b in values:
            raise BadParameter(f"repeated value for {b.encode()}: {raw!r}")
        values[b] = rhs.strip()
    if header is None:
        raise BadParameter("missing cochain header")
    return Cochain1(P, G, values)


def format_cochain_text(u: Cochain1, name="u") -> str:
    lines = [f"cochain {name} over {u.poset.name} values {u.group.name}"]
    for b in enumerate_simplices(u.poset, 1):
        lines.append(f"{b.encode()} = {u(b)}")
    return "\n".join(lines) + "\n"


def parse_assignment_text(text: str, P: Poset, G: FiniteGroup):
    """Parse ``<element> = <group element>`` lines into a total map on
    the points of P."""
    f = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise BadParameter(f"bad assignment line: {raw!r}")
        a, g = lhs.strip(), rhs.strip()
        P.check_element(a)
        if g not in G:
            raise MissingValue(f"{g!r} is not in {G.name}")
        f[a] = g
    missing = [a for a in P.elements if a not in f]
    if missing:
        raise MissingValue(f"assignment misses elements: {missing}")
    return f


def format_assignment_text(f) -> str:
    return "\n".join(f"{a} = {g}" for a, g in sorted(f.items())) + "\n"
