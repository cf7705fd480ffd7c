"""Finite posets: construction, order predicates and the fundamental covering.

`Poset` is the one constructor, and it validates its input; `build_poset`
is another name for it.  The order relation is stored densely (a boolean
matrix over the sorted element identifiers); the order predicates test
a greatest element and the number of order pairs, not every pair.  Posets
here are small by design, ~30 elements at most; simplex enumeration
dominates the cost of everything downstream.
"""

from __future__ import annotations

from .errors import (
    AntisymmetryViolation,
    BadParameter,
    DuplicateElement,
    UnknownElement,
    check_limit,
    check_name,
    content_lines,
    located,
)
from .frozen import Frozen


class Poset:
    """A finite poset over string identifiers, built from generating pairs.

    Takes the reflexive-transitive closure (the up-set of each element,
    found by search).  A name the text formats cannot write back
    (`errors.check_name`) or a relation that is not a pair is a
    `BadParameter`, a repeated element a `DuplicateElement`, a pair
    naming an element not listed an `UnknownElement`, and a cycle an
    `AntisymmetryViolation` for its first pair in sorted order.
    Immutable after construction.  Iteration order over elements is the
    sorted identifier order, so every enumeration built on top of a poset
    is reproducible.
    """

    __slots__ = ("name", "elements", "_index", "_leq", "_hash")

    def __init__(self, elements, relations, name="poset"):
        check_name(name, "poset name")
        above = {}
        for x in elements:
            check_name(x, "poset element", "#();,=")
            if x in above:
                raise DuplicateElement(f"duplicate element {x!r}")
            above[x] = []
        for pair in relations:
            try:
                lo, hi = pair
            except (TypeError, ValueError):
                raise BadParameter(f"relation {pair!r} is not a pair") from None
            for x in (lo, hi):
                if x not in above:
                    raise UnknownElement(
                        f"relation references unknown element {x!r}")
            above[lo].append(hi)
        up = {}
        for x in above:  # the up-set of x: everything a search from x reaches
            up[x] = reached = {x}
            stack = [x]
            while stack:
                for y in above[stack.pop()]:
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        self.name = name
        self.elements = tuple(sorted(above))
        for lo in self.elements:
            for hi in sorted(up[lo]):
                if lo != hi and lo in up[hi]:
                    raise AntisymmetryViolation(
                        f"{lo!r} <= {hi!r} and {hi!r} <= {lo!r}")
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._leq = tuple(tuple(y in up[x] for y in self.elements)
                          for x in self.elements)
        self._hash = hash((self.elements, self._leq))

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._leq == other._leq

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({self.name!r}, {len(self.elements)} elements)"

    def check_element(self, x):
        if x not in self._index:
            raise UnknownElement(f"{x!r} is not an element of {self.name}")

    def leq(self, lo, hi) -> bool:
        self.check_element(lo)
        self.check_element(hi)
        return self._leq[self._index[lo]][self._index[hi]]

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def down_set(self, x):
        """All y with y <= x, in sorted order."""
        self.check_element(x)
        i = self._index[x]
        return tuple(y for j, y in enumerate(self.elements) if self._leq[j][i])

    def up_set(self, x):
        """All y with x <= y, in sorted order."""
        self.check_element(x)
        i = self._index[x]
        return tuple(y for j, y in enumerate(self.elements) if self._leq[i][j])

    def pairs(self):
        """All ordered pairs (lo, hi) with lo <= hi."""
        out = []
        for i, x in enumerate(self.elements):
            for j, y in enumerate(self.elements):
                if self._leq[i][j]:
                    out.append((x, y))
        return tuple(out)


class OpenSet(Frozen):
    """An upward-closed subset of a poset (an Alexandroff open set)."""

    members: tuple

    def __contains__(self, x):
        return x in self.members


build_poset = Poset


def base_point(P: Poset) -> str:
    """The default base point: the first element in sorted order."""
    if not P.elements:
        raise BadParameter(f"poset {P.name!r} has no elements, so no base point")
    return P.elements[0]


def is_directed(P: Poset) -> bool:
    """True iff every pair of elements has a common upper bound: for a
    finite poset, iff it is empty or has a greatest element."""
    return not P.elements or any(len(P.down_set(x)) == len(P)
                                 for x in P.elements)


def is_totally_ordered(P: Poset) -> bool:
    """True iff every pair of elements is comparable: by antisymmetry,
    iff the order has one pair per element and per 2-subset."""
    return len(P.pairs()) == len(P) * (len(P) + 1) // 2


def is_pathwise_connected(P: Poset) -> bool:
    """Connectivity of the comparability graph.

    Equivalent to nonemptiness of every path set K(a0, a1): each
    comparability edge carries a 1-simplex through the larger element.
    """
    if not P.elements:
        return True
    seen = {P.elements[0]}
    frontier = [P.elements[0]]
    while frontier:
        x = frontier.pop()
        for y in P.elements:
            if y not in seen and P.comparable(x, y):
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(P.elements)


def fundamental_open(P: Poset, a) -> OpenSet:
    """The basic open set {x | a <= x} of the fundamental covering."""
    return OpenSet(P.up_set(a))


# The most elements `generate` builds; the order matrix is quadratic in them.
GENERATE_LIMIT = 500


def generate(kind: str, n: int, name=None) -> Poset:
    """Fixture posets: chain(n), vee, circle(n).

    chain(n): x1 <= ... <= xn.  vee: a1, a2 <= o (n ignored).
    circle(n): a_1..a_n, o_1..o_n with a_i <= o_i and a_{i mod n + 1} <= o_i;
    its comparability graph is a 2n-cycle.  An n that is not an int is a
    `BadParameter`, and more than `GENERATE_LIMIT` elements a
    `SearchLimitExceeded`, both raised before any work starts.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadParameter(f"n must be an int, got {n!r}")
    size = {"chain": n, "circle": 2 * n}.get(kind, 3)
    check_limit(size, GENERATE_LIMIT, f"the {size} elements of {kind} {n}")
    if kind == "chain":
        if n < 1:
            raise BadParameter("chain requires n >= 1")
        elems = [f"x{i}" for i in range(1, n + 1)]
        rels = [(f"x{i}", f"x{i + 1}") for i in range(1, n)]
        return build_poset(elems, rels, name=name or f"chain{n}")
    if kind == "vee":
        return build_poset(
            ["a1", "a2", "o"], [("a1", "o"), ("a2", "o")], name=name or "vee"
        )
    if kind == "circle":
        if n < 2:
            raise BadParameter("circle requires n >= 2")
        elems = [f"a{i}" for i in range(1, n + 1)] + [f"o{i}" for i in range(1, n + 1)]
        rels = []
        for i in range(1, n + 1):
            rels.append((f"a{i}", f"o{i}"))
            rels.append((f"a{i % n + 1}", f"o{i}"))
        return build_poset(elems, rels, name=name or f"circle{n}")
    raise BadParameter(f"unknown poset kind {kind!r}")


def parse_poset_text(text: str) -> Poset:
    """Parse the line-oriented poset format.

    line 1: ``poset <name>``; then ``elem <id> ...`` lines; then
    ``le <lower> <upper>`` lines.  ``#`` starts a comment.
    """
    name = None
    elements = []
    relations = {}  # the le lines in file order, a set for the repeat check
    for number, line, raw in content_lines(text):
        with located(f" (line {number})"):
            fields = line.split()
            if fields[0] == "poset":
                if len(fields) != 2:
                    raise BadParameter(f"bad poset header: {raw!r}")
                if name is not None:
                    raise BadParameter(f"repeated poset header after "
                                       f"{name!r}: {raw!r}")
                name = fields[1]
            elif fields[0] == "elem":
                for x in fields[1:]:
                    check_name(x, "poset element", "#();,=")
                elements.extend(fields[1:])
            elif fields[0] == "le":
                if len(fields) != 3:
                    raise BadParameter(f"bad le line: {raw!r}")
                if (fields[1], fields[2]) in relations:
                    raise BadParameter(f"repeated le line: {raw!r}")
                relations[fields[1], fields[2]] = None
            else:
                raise BadParameter(f"unrecognized poset line: {raw!r}")
    if name is None:
        raise BadParameter("missing 'poset <name>' header")
    return build_poset(elements, relations, name=name)


def format_poset_text(P: Poset) -> str:
    lines = [f"poset {P.name}", "elem " + " ".join(P.elements)]
    for lo, hi in P.pairs():
        if lo != hi:
            lines.append(f"le {lo} {hi}")
    return "\n".join(lines) + "\n"
