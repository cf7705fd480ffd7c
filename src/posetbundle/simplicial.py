"""Singular simplices of a poset up to dimension 3.

A simplex is a support element together with compatible faces; this is
the finite normal form of an order-preserving map from the subset-poset
of {0..n} into the base poset.  Equality is structural.  Vertex i of a
1-simplex b is read as: boundary 1 is the start point, boundary 0 the
endpoint.

The enumerated complex is face-shared: `enumerate_simplices` glues
dimension n from the cached dimension n-1, so the faces of an
enumerated simplex are the enumerated objects one dimension down.
Every simplex computes its hash once, at construction, so simplices
are cheap dictionary keys (cochains are dictionaries keyed by them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BadParameter, IndexOutOfRange, UnsupportedDimension
from .poset import Poset


class _Simplex:
    """Shared identity of the simplex classes.

    The hash is computed once, in ``__post_init__``, from the support and
    the (already hashed) faces.  Equality is structural: a freshly built
    simplex equals the enumerated one with the same data, and a hash
    mismatch settles most unequal pairs without recursing into faces.
    """

    __slots__ = ()

    def _cache_hash(self):
        object.__setattr__(self, "_hash", hash(self._key()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._key() == other._key()

    def __reduce__(self):
        # Unpickle through __init__: string hashes, and with them the
        # cached hash, differ from one interpreter process to the next.
        return type(self), self._key()


@dataclass(frozen=True, eq=False, slots=True)
class Simplex0(_Simplex):
    element: str
    _hash: int = field(init=False, repr=False)

    dim = 0

    def __post_init__(self):
        self._cache_hash()

    def _key(self):
        return (self.element,)

    def encode(self):
        return self.element

    def sort_key(self):
        return (self.element,)


class _Positive(_Simplex):
    """A simplex of dimension >= 1: a support and its faces."""

    __slots__ = ()

    def _set_faces(self, faces):
        object.__setattr__(self, "faces", faces)
        self._cache_hash()

    def _key(self):
        return (self.support,) + self.faces

    def encode(self):
        faces = ",".join(f.encode() for f in self.faces)
        return f"({self.support};{faces})"

    def sort_key(self):
        return (self.support,) + tuple(f.sort_key() for f in self.faces)


@dataclass(frozen=True, eq=False, slots=True)
class Simplex1(_Positive):
    support: str
    face0: Simplex0  # endpoint
    face1: Simplex0  # start point
    faces: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    dim = 1

    def __post_init__(self):
        self._set_faces((self.face0, self.face1))


@dataclass(frozen=True, eq=False, slots=True)
class Simplex2(_Positive):
    support: str
    face0: Simplex1
    face1: Simplex1
    face2: Simplex1
    faces: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    dim = 2

    def __post_init__(self):
        c0, c1, c2 = self.face0, self.face1, self.face2
        ok = (
            c0.face0 == c1.face0
            and c0.face1 == c2.face0
            and c1.face1 == c2.face1
        )
        if not ok:
            raise BadParameter(f"incompatible faces for 2-simplex: {c0}, {c1}, {c2}")
        self._set_faces((c0, c1, c2))


@dataclass(frozen=True, eq=False, slots=True)
class Simplex3(_Positive):
    support: str
    face0: Simplex2
    face1: Simplex2
    face2: Simplex2
    face3: Simplex2
    faces: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    dim = 3

    def __post_init__(self):
        d0, d1, d2, d3 = self.face0, self.face1, self.face2, self.face3
        ok = (
            d0.face0 == d1.face0
            and d0.face1 == d2.face0
            and d0.face2 == d3.face0
            and d1.face1 == d2.face1
            and d1.face2 == d3.face1
            and d2.face2 == d3.face2
        )
        if not ok:
            raise BadParameter("incompatible faces for 3-simplex")
        self._set_faces((d0, d1, d2, d3))


def boundary(d, i):
    """The i-th face of a simplex of dimension >= 1."""
    if d.dim == 0:
        raise IndexOutOfRange("a 0-simplex has no boundary")
    if not 0 <= i <= d.dim:
        raise IndexOutOfRange(f"boundary index {i} out of range for dim {d.dim}")
    return d.faces[i]


def support(d) -> str:
    return d.element if d.dim == 0 else d.support


def degeneracy(d, i):
    """The degenerate (n+1)-simplex s_i(d); supports are preserved."""
    if d.dim == 0:
        if i != 0:
            raise IndexOutOfRange("degeneracy index for a 0-simplex must be 0")
        return Simplex1(d.element, d, d)
    if d.dim == 1:
        if i == 0:
            return Simplex2(d.support, d, d, degeneracy(d.face1, 0))
        if i == 1:
            return Simplex2(d.support, degeneracy(d.face0, 0), d, d)
        raise IndexOutOfRange("degeneracy index for a 1-simplex must be 0 or 1")
    if d.dim == 2:
        if i == 0:
            return Simplex3(
                d.support, d, d, degeneracy(d.face1, 0), degeneracy(d.face2, 0)
            )
        if i == 1:
            return Simplex3(
                d.support, degeneracy(d.face0, 0), d, d, degeneracy(d.face2, 1)
            )
        if i == 2:
            return Simplex3(
                d.support, degeneracy(d.face0, 1), degeneracy(d.face1, 1), d, d
            )
        raise IndexOutOfRange("degeneracy index for a 2-simplex must be 0, 1 or 2")
    raise UnsupportedDimension("degeneracies are implemented for dimensions 0-2")


def is_degenerate(d) -> bool:
    """True iff d equals some s_i of a lower simplex.

    If d = s_i(d'), then d' appears among the faces of d, so scanning
    degeneracies of the faces is a complete check.
    """
    if d.dim == 0:
        return False
    if d.dim == 1:
        return d.face0 == d.face1 and d.face0.element == d.support
    return any(
        degeneracy(boundary(d, j), i) == d
        for j in range(d.dim + 1)
        for i in range(d.dim)
    )


def is_inflating(P: Poset, d) -> bool:
    """A 1-simplex is inflating when its start lies below its end;
    higher simplices, when all their faces are."""
    if d.dim == 0:
        return True
    if d.dim == 1:
        return P.leq(d.face1.element, d.face0.element)
    return all(is_inflating(P, boundary(d, i)) for i in range(d.dim + 1))


def reverse(b: Simplex1) -> Simplex1:
    """Same support, swapped endpoints; an involution."""
    return Simplex1(b.support, b.face1, b.face0)


@lru_cache(maxsize=None)
def reversal_classes(P: Poset):
    """The classes {b, reverse(b)} of 1-simplices as (representative,
    reverse) pairs, in sort key order of the representative, which is the
    member with the smaller sort key.  A self-reverse class (a loop at a
    point) is a pair (b, b).  Both members are the enumerated objects,
    so dictionaries keyed by them match enumerated keys by identity.
    Cached per poset, like the simplices."""
    simplices = _simplices(P, 1)
    enumerated = {b: b for b in simplices}
    out = []
    for b in simplices:
        rb = enumerated[reverse(b)]
        if b.sort_key() <= rb.sort_key():
            out.append((b, rb))
    return tuple(out)


# Orientation action on 2-simplices.  Keys are vertex permutations
# (sigma(0), sigma(1), sigma(2)): vertex k of the result is vertex
# sigma(k) of the input.  Face formulas are closed-form; R marks a
# reversed face.
_PERM2_FACES = {
    (0, 1, 2): ((0, False), (1, False), (2, False)),
    (1, 0, 2): ((1, False), (0, False), (2, True)),
    (2, 1, 0): ((2, True), (1, True), (0, True)),
    (0, 2, 1): ((0, True), (2, False), (1, False)),
    (2, 0, 1): ((2, False), (0, True), (1, True)),
    (1, 2, 0): ((1, True), (2, True), (0, False)),
}


def permute2(c: Simplex2, sigma) -> Simplex2:
    """The orientation (vertex permutation) action on a 2-simplex."""
    sigma = tuple(sigma)
    if sigma not in _PERM2_FACES:
        raise BadParameter(f"{sigma!r} is not a permutation of (0, 1, 2)")
    faces = []
    for idx, reversed_ in _PERM2_FACES[sigma]:
        face = boundary(c, idx)
        faces.append(reverse(face) if reversed_ else face)
    return Simplex2(c.support, *faces)


EVEN_PERMUTATIONS = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
ODD_PERMUTATIONS = ((1, 0, 2), (2, 1, 0), (0, 2, 1))


_SIMPLEX_CLASSES = (Simplex0, Simplex1, Simplex2, Simplex3)


def _check_dimension(n):
    if n < 0 or n > 3:
        raise UnsupportedDimension(f"dimension {n} not supported (0..3)")


def enumerate_simplices(P: Poset, n: int, inflating_only: bool = False):
    """All n-simplices of P in deterministic (sort key) order.

    Dimension n is glued from the cached dimension n-1, so every face of
    an enumerated simplex is the very object enumerated one dimension
    down, and each simplex hashes once.  Repeated calls return the same
    cached tuple; `inflating_only` filters it.
    """
    _check_dimension(n)
    if inflating_only:
        return _inflating_simplices(P, n)
    return _simplices(P, n)


@lru_cache(maxsize=None)
def _inflating_simplices(P: Poset, n: int):
    if n <= 1:
        return tuple(d for d in _simplices(P, n) if is_inflating(P, d))
    inflating_faces = set(_inflating_simplices(P, n - 1))
    return tuple(
        d for d in _simplices(P, n)
        if all(f in inflating_faces for f in d.faces)
    )


@lru_cache(maxsize=None)
def _simplices(P: Poset, n: int):
    """Glue n-simplices from (n-1)-simplices by the simplicial identities.

    An n-simplex with support x is a tuple of faces f_0..f_n, each an
    (n-1)-simplex with support <= x, such that face i of f_k is face k-1
    of f_i for all i < k (for n >= 2; for n = 1 any two points below x
    are the faces).  Candidates for f_k are looked up by their first k
    faces.  Choosing the faces in the order of dimension n-1 yields the
    simplices in sort key order.
    """
    if n == 0:
        return tuple(Simplex0(x) for x in P.elements)
    lower = _simplices(P, n - 1)
    by_support = {}
    for f in lower:
        by_support.setdefault(support(f), []).append(f)
    make = _SIMPLEX_CLASSES[n]
    out = []
    for x in P.elements:
        # `lower` is sorted by support first, so concatenating the groups
        # in element order keeps candidates in the order of `lower`.
        candidates = [
            f for y in P.down_set(x) for f in by_support.get(y, ())
        ]
        by_prefix = [{} for _ in range(n + 1)]
        for f in candidates:
            for k in range(n + 1):
                key = f.faces[:k] if n >= 2 else ()
                by_prefix[k].setdefault(key, []).append(f)

        def glue(faces):
            k = len(faces)
            if k == n + 1:
                out.append(make(x, *faces))
                return
            key = tuple(f.faces[k - 1] for f in faces) if n >= 2 else ()
            for f in by_prefix[k].get(key, ()):
                faces.append(f)
                glue(faces)
                faces.pop()

        glue([])
    return tuple(out)


def enumerate_simplices_raw(P: Poset, n: int, inflating_only: bool = False):
    """Brute-force oracle for `enumerate_simplices`.

    Runs over the monotone maps from the nonempty subsets of {0..n} into
    P, which are exactly the singular n-simplices, builds each simplex
    from scratch and sorts by sort key.
    """
    _check_dimension(n)
    subsets = [
        subset
        for size in range(1, n + 2)
        for subset in itertools.combinations(range(n + 1), size)
    ]

    def build(values, indices):
        if len(indices) == 1:
            return Simplex0(values[indices])
        faces = [build(values, indices[:k] + indices[k + 1:])
                 for k in range(len(indices))]
        return _SIMPLEX_CLASSES[len(indices) - 1](values[indices], *faces)

    results = []

    def assign(pos, values):
        if pos == len(subsets):
            results.append(build(values, tuple(range(n + 1))))
            return
        subset = subsets[pos]
        if len(subset) == 1:
            candidates = P.elements
        else:
            lower = [values[subset[:k] + subset[k + 1:]]
                     for k in range(len(subset))]
            candidates = [
                x for x in P.elements if all(P.leq(lo, x) for lo in lower)
            ]
        for x in candidates:
            values[subset] = x
            assign(pos + 1, values)
        values.pop(subset, None)

    assign(0, {})
    if inflating_only:
        results = [d for d in results if is_inflating(P, d)]
    results.sort(key=lambda d: d.sort_key())
    return tuple(results)


def validate_supports(P: Poset, d) -> bool:
    """Check that every face support sits below the simplex support."""
    if d.dim == 0:
        return d.element in P
    if support(d) not in P:
        return False
    return all(
        P.leq(support(boundary(d, i)), support(d)) and validate_supports(P, boundary(d, i))
        for i in range(d.dim + 1)
    )


def parse_simplex1(text: str) -> Simplex1:
    """Parse the textual encoding ``(<support>;<face0>,<face1>)``."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise BadParameter(f"bad 1-simplex encoding: {text!r}")
    body = text[1:-1]
    try:
        sup, faces = body.split(";")
        f0, f1 = faces.split(",")
    except ValueError:
        raise BadParameter(f"bad 1-simplex encoding: {text!r}") from None
    return Simplex1(sup.strip(), Simplex0(f0.strip()), Simplex0(f1.strip()))
