"""Finite posets: construction, order predicates and the fundamental covering.

`Poset` is the one constructor, and it validates its input; `build_poset`
is another name for it.  The order is stored as bit rows over the sorted
element ids: bit j of `up[i]` is set iff element i <= element j, and of
`down[i]` iff element j <= element i.  Every reader tests, ANDs, counts
or walks these rows, so thousands of elements close in milliseconds;
simplex enumeration dominates the cost of everything downstream.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count

from .errors import (
    AntisymmetryViolation,
    BadParameter,
    DuplicateElement,
    UnknownElement,
    check_limit,
    check_name,
    content_lines,
    located,
    split_fields,
)
from .frozen import Frozen


def row_ids(row):
    """The ids of the set bits of an order row, in increasing order."""
    return compress(count(), map("1".__eq__, reversed(bin(row))))


class Poset:
    """A finite poset over string identifiers, built from generating pairs.

    Takes the reflexive-transitive closure: one pass ORs the rows along a
    depth-first finishing order, repeated on a cyclic input until nothing
    changes.  A name the text formats cannot write back
    (`errors.check_name`) or a relation that is not a pair is a
    `BadParameter`, a repeated element a `DuplicateElement`, a pair
    naming an element not listed an `UnknownElement`, and a cycle an
    `AntisymmetryViolation` for its first pair in sorted order (the
    least x with others in `up[x] & down[x]`, and the least of those).
    Immutable but for the complex it owns (`simplicial.complex_of`).
    Iteration order over elements is the sorted identifier order, so
    every enumeration built on top of a poset is reproducible.
    """

    __slots__ = ("name", "elements", "_index", "up", "down", "_hash",
                 "_complex")

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
        self.name = name
        self.elements = tuple(sorted(above))
        index = self._index = {x: i for i, x in enumerate(self.elements)}
        succ = [[index[y] for y in above[x]] for x in self.elements]
        order, seen, stack = [], bytearray(len(succ)), list(range(len(succ)))
        while stack:  # depth first; ~x on the stack finishes x
            x = stack.pop()
            if x < 0:
                order.append(~x)
            elif not seen[x]:
                seen[x] = 1
                stack += ~x, *succ[x]
        up = [1 << x for x in range(len(succ))]
        down = up[:]
        while True:
            rows = up + down
            for x in order:
                up[x] = reduce(int.__or__, map(up.__getitem__, succ[x]), up[x])
            for x in reversed(order):
                for y in succ[x]:
                    down[y] |= down[x]
            # After one pass only a cycle leaves others in `up & down`.
            loops = [(u & d) ^ (1 << x)
                     for x, (u, d) in enumerate(zip(up, down))]
            if not any(loops) or rows == up + down:
                break
        for x, loop in enumerate(loops):
            if loop:
                lo, hi = self.elements[x], self.elements[next(row_ids(loop))]
                raise AntisymmetryViolation(
                    f"{lo!r} <= {hi!r} and {hi!r} <= {lo!r}")
        self.up, self.down = tuple(up), tuple(down)
        self._hash = hash((self.elements, self.up))
        self._complex = None

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self.up == other.up

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({self.name!r}, {len(self.elements)} elements)"

    def id_of(self, x) -> int:
        """The rank of x in `elements`, the id of its point in the complex;
        `UnknownElement` if x is not an element."""
        try:
            return self._index[x]
        except KeyError:
            raise UnknownElement(f"{x!r} is not an element of {self.name}") \
                from None

    def check_element(self, x):
        self.id_of(x)

    def leq(self, lo, hi) -> bool:
        return self.up[self.id_of(lo)] >> self.id_of(hi) & 1 == 1

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def _named(self, row):
        return tuple(map(self.elements.__getitem__, row_ids(row)))

    def down_set(self, x):
        """All y with y <= x, in sorted order."""
        return self._named(self.down[self.id_of(x)])

    def up_set(self, x):
        """All y with x <= y, in sorted order."""
        return self._named(self.up[self.id_of(x)])

    def pairs(self):
        """All ordered pairs (lo, hi) with lo <= hi."""
        return tuple((x, y) for x, row in zip(self.elements, self.up)
                     for y in self._named(row))

    def __reduce__(self):
        # Through __init__: the kept hash is of strings, which differ
        # from one process to the next, and the complex stays behind.
        return Poset, (self.elements, self.pairs(), self.name)


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
    finite poset, iff it is empty or has a greatest element, one in
    every up-set."""
    return not P.elements or reduce(int.__and__, P.up) != 0


def is_totally_ordered(P: Poset) -> bool:
    """True iff every pair of elements is comparable: by antisymmetry,
    iff the order has one pair per element and per 2-subset."""
    return sum(map(int.bit_count, P.up)) == len(P) * (len(P) + 1) // 2


def is_pathwise_connected(P: Poset) -> bool:
    """Connectivity of the comparability graph: a search on `up | down`.

    Equivalent to nonemptiness of every path set K(a0, a1): each
    comparability edge carries a 1-simplex through the larger element.
    """
    seen, frontier = 0, [0] if P.elements else []
    while frontier:
        x = frontier.pop()
        new = (P.up[x] | P.down[x]) & ~seen
        seen |= new
        frontier.extend(row_ids(new))
    return seen.bit_count() == len(P)


def fundamental_open(P: Poset, a) -> OpenSet:
    """The basic open set {x | a <= x} of the fundamental covering."""
    return OpenSet(P.up_set(a))


# The most elements `generate` builds; its text lists every order pair.
GENERATE_LIMIT = 500


def generate(kind: str, n: int) -> Poset:
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
        return build_poset(elems, rels, name=f"chain{n}")
    if kind == "vee":
        return build_poset(
            ["a1", "a2", "o"], [("a1", "o"), ("a2", "o")], name="vee"
        )
    if kind == "circle":
        if n < 2:
            raise BadParameter("circle requires n >= 2")
        elems = [f"a{i}" for i in range(1, n + 1)] + [f"o{i}" for i in range(1, n + 1)]
        rels = []
        for i in range(1, n + 1):
            rels.append((f"a{i}", f"o{i}"))
            rels.append((f"a{i % n + 1}", f"o{i}"))
        return build_poset(elems, rels, name=f"circle{n}")
    raise BadParameter(f"unknown poset kind {kind!r}")


def parse_poset_text(text: str) -> Poset:
    """Parse the line-oriented poset format.

    line 1: ``poset <name>``; then ``elem <id> ...`` lines; then
    ``le <lower> <upper>`` lines.  ``#`` starts a comment.
    """
    name = None
    elements = {}  # in file order, a set for the repeat check
    relations = {}  # le pair -> its line number, in file order
    for number, line, raw in content_lines(text):
        with located(f" (line {number})"):
            fields = split_fields(line)
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
                for x in fields[1:]:
                    if x in elements:
                        raise DuplicateElement(f"duplicate element {x!r}")
                    elements[x] = None
            elif fields[0] == "le":
                if len(fields) != 3:
                    raise BadParameter(f"bad le line: {raw!r}")
                if (fields[1], fields[2]) in relations:
                    raise BadParameter(f"repeated le line: {raw!r}")
                relations[fields[1], fields[2]] = number
            else:
                raise BadParameter(f"unrecognized poset line: {raw!r}")
    if name is None:
        raise BadParameter("missing 'poset <name>' header")
    for pair, number in relations.items():
        for x in pair:
            if x not in elements:
                raise UnknownElement(f"relation references unknown element "
                                     f"{x!r} (line {number})")
    return build_poset(elements, relations, name=name)


def format_poset_text(P: Poset) -> str:
    lines = [f"poset {P.name}", "elem " + " ".join(P.elements)]
    for lo, hi in P.pairs():
        if lo != hi:
            lines.append(f"le {lo} {hi}")
    return "\n".join(lines) + "\n"
