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
from .groups import FiniteGroup, GroupHom, InnerAut, ad, identity_aut
from .paths import (
    Path,
    based_loops,
    enumerate_homs,
    pi1_presentation,
    word_value,
)
from .poset import Poset, base_point
from .simplicial import (
    enumerate_simplices,
    is_degenerate,
    parse_simplex1,
    reverse,
)


def _check_total(P, G, values, n, what):
    expected = enumerate_simplices(P, n)
    if set(values) != set(expected):
        raise MissingValue(
            f"{what} must assign a value to every {n}-simplex of {P.name}"
        )
    for d, g in values.items():
        if g not in G:
            raise MissingValue(f"{g!r} (value at {d.encode()}) is not in {G.name}")


def _frozen(values):
    return tuple(sorted(values.items(), key=lambda kv: kv[0].sort_key()))


class Cochain0:
    """An assignment of group elements to the points of a poset."""

    __slots__ = ("poset", "group", "values")

    def __init__(self, P: Poset, G: FiniteGroup, values):
        self.poset = P
        self.group = G
        self.values = dict(values)
        _check_total(P, G, self.values, 0, "a 0-cochain")

    def __call__(self, a):
        return self.values[a]

    def at(self, element: str):
        """Value at a point given by its element name."""
        for a, g in self.values.items():
            if a.element == element:
                return g
        raise MissingValue(f"no value at {element!r}")

    def __eq__(self, other):
        if not isinstance(other, Cochain0):
            return NotImplemented
        return (self.poset, self.group, self.values) == (
            other.poset, other.group, other.values
        )

    def __hash__(self):
        return hash((self.poset, self.group, _frozen(self.values)))


class Cochain1:
    """An assignment of group elements to the 1-simplices of a poset."""

    __slots__ = ("poset", "group", "values")

    def __init__(self, P: Poset, G: FiniteGroup, values):
        self.poset = P
        self.group = G
        self.values = dict(values)
        _check_total(P, G, self.values, 1, "a 1-cochain")

    def __call__(self, b):
        return self.values[b]

    def __eq__(self, other):
        if not isinstance(other, Cochain1):
            return NotImplemented
        return (self.poset, self.group, self.values) == (
            other.poset, other.group, other.values
        )

    def __hash__(self):
        return hash((self.poset, self.group, _frozen(self.values)))

    def __repr__(self):
        return f"Cochain1(over {self.poset.name}, values in {self.group.name})"


class Cochain2:
    """A 2-cochain: inner automorphisms on 1-simplices, group elements on
    2-simplices, intertwined so that conjugation by the 2-face value
    carries the automorphism of boundary 1 to the composite of the
    automorphisms of boundaries 0 and 2."""

    __slots__ = ("poset", "group", "tau", "values")

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        self.poset = P
        self.group = G
        self.tau = dict(tau)
        self.values = dict(values)
        expected = enumerate_simplices(P, 1)
        if set(self.tau) != set(expected):
            raise MissingValue(
                "the automorphism component must cover every 1-simplex"
            )
        _check_total(P, G, self.values, 2, "a 2-cochain")
        for c in enumerate_simplices(P, 2):
            left = ad(G, self.values[c]).compose(self.tau[c.face1])
            right = self.tau[c.face0].compose(self.tau[c.face2])
            if left != right:
                raise Mismatch(
                    f"2-cochain component at {c.encode()} does not intertwine "
                    "the automorphism components of its faces"
                )

    def __call__(self, c):
        return self.values[c]

    def __eq__(self, other):
        if not isinstance(other, Cochain2):
            return NotImplemented
        return (self.poset, self.group, self.tau, self.values) == (
            other.poset, other.group, other.tau, other.values
        )

    def __hash__(self):
        return hash((self.poset, self.group, _frozen(self.tau),
                     _frozen(self.values)))


class Cochain3:
    """A 3-cochain: the automorphism component of a 2-cochain together
    with central group elements on 3-simplices."""

    __slots__ = ("poset", "group", "tau", "values")

    def __init__(self, P: Poset, G: FiniteGroup, tau, values):
        self.poset = P
        self.group = G
        self.tau = dict(tau)
        self.values = dict(values)
        _check_total(P, G, self.values, 3, "a 3-cochain")
        center = set(G.center())
        for d, g in self.values.items():
            if g not in center:
                raise CentralityViolation(
                    f"3-cochain value {g!r} at {d.encode()} is not central"
                )

    def __call__(self, d):
        return self.values[d]

    def __eq__(self, other):
        if not isinstance(other, Cochain3):
            return NotImplemented
        return (self.poset, self.group, self.tau, self.values) == (
            other.poset, other.group, other.tau, other.values
        )

    def __hash__(self):
        return hash((self.poset, self.group, _frozen(self.tau),
                     _frozen(self.values)))


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


def is_path_independent(u: Cochain1):
    """Whether the extension of u to paths depends only on endpoints.

    Returns a witness 0-cochain v with dv = u when it does (this is
    exactly the coboundary condition), otherwise None.
    """
    P, G = u.poset, u.group
    a0 = base_point(P)
    _, words = pi1_presentation(P, a0)
    f = {a: extend_to_path(u, words.tree_path(a.element))
         for a in enumerate_simplices(P, 0)}
    for b in enumerate_simplices(P, 1):
        if G.mul(u(b), f[b.face1]) != f[b.face0]:
            return None
    return Cochain0(P, G, f)


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


def find_morphism(v1: Cochain1, v: Cochain1):
    """A morphism v1 -> v if one exists, else None.

    Morphisms of cochains over a connected poset are determined by their
    value at one point, propagated along a spanning tree via
    f(end) = v(b) f(start) v1(b)^-1; each seed value is propagated and
    checked against every 1-simplex.
    """
    if v1.poset != v.poset or v1.group != v.group:
        raise Mismatch("cochains live over different posets or groups")
    P, G = v.poset, v.group
    a0 = base_point(P)
    _, words = pi1_presentation(P, a0)
    for seed in G.elements:
        f = {a0: seed}
        for a in P.elements:
            if a in f:
                continue
            value = seed
            for b in words.tree_path(a).steps:
                value = G.product(v(b), value, G.inv(v1(b)))
            f[a] = value
        if is_morphism(f, v1, v):
            return Morphism1(v1, v, tuple(sorted(f.items())))
    return None


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


def cocycle_from_hom(P, G, presentation, words, sigma, f):
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


def _edge_classes(P: Poset):
    """Reverse-pair classes of 1-simplices, keyed by canonical member."""
    classes = {}
    for b in enumerate_simplices(P, 1):
        rb = reverse(b)
        rep = b if b.sort_key() <= rb.sort_key() else rb
        classes.setdefault(rep, set()).add(b)
    return classes


def classify_cocycles(P: Poset, G: FiniteGroup, limit=10 ** 6):
    """Representatives of the equivalence classes of 1-cocycles.

    Every cocycle is equivalent to one that is trivial on a spanning
    tree, and every cocycle is already trivial on degenerate 1-simplices
    and on loops at a point (both follow from the cocycle identity on
    suitable 2-simplices).  Only the remaining edge classes carry a free
    value; candidates are filtered by the cocycle identity and then
    deduplicated by morphism search.
    """
    a0 = base_point(P)
    _, words = pi1_presentation(P, a0)  # raises NotConnected early
    tree = set()
    for a in P.elements:
        for b in words.tree_path(a).steps:
            tree.add(b)
            tree.add(reverse(b))
    free = []
    fixed = {}
    for rep, members in sorted(_edge_classes(P).items(),
                               key=lambda kv: kv[0].sort_key()):
        if is_degenerate(rep) or rep == reverse(rep) or rep in tree:
            for b in members:
                fixed[b] = G.identity
        else:
            free.append(rep)
    if len(G) ** len(free) > limit:
        raise SearchLimitExceeded(
            f"{len(G)}^{len(free)} gauge-fixed candidates exceed the "
            f"limit {limit}"
        )
    representatives = []
    for choice in itertools.product(G.elements, repeat=len(free)):
        values = dict(fixed)
        for rep, g in zip(free, choice):
            values[rep] = g
            values[reverse(rep)] = G.inv(g)
        z = Cochain1(P, G, values)
        if not is_cocycle(z):
            continue
        if all(find_morphism(z, seen) is None for seen in representatives):
            representatives.append(z)
    return tuple(representatives)


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
