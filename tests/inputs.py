"""Seeded random 1-cochains that the tests and tests/digest.py share.

Each kind is made to break one part of the functor tests of
`is_cocycle` and `is_connection`, so a check that skips a part is told
apart from one that reads them all.  They read only the public tables
and constructors, so tests/digest.py can run them against another tree
of the library.
"""

from posetbundle.acceptance import random_connection
from posetbundle.cochains import Cochain1
from posetbundle.simplicial import complex_of


def gathered_through_legs(P, G, rng):
    """The ids of z(b) = g(s, end)^-1 g(s, start), read through the legs
    of each 1-simplex b with support s, for a random g on the leg ids
    with g(s, s) = e.  z inverts under reversal and passes every leg
    test, and it fails a chain test whenever g is not a functor."""
    cells = complex_of(P)[1]
    rows, inv = G.rows, G.inverses
    g = {i: G.unit if cells.degenerate[i] else rng.randrange(len(G))
         for i in sorted({i for leg in cells.legs for i in leg})}
    return [rows[inv[g[e]]][g[s]] for e, s in cells.legs]


CONNECTION_KINDS = ("connection", "reversal", "inflating", "non_functor")


def near_a_connection(P, G, rng, kind):
    """A random connection u, changed according to `kind`:
    - "connection": unchanged;
    - "reversal": one free value changed without its reverse, which
      breaks reversal only;
    - "inflating": the value of an inflating 1-simplex that is no leg
      changed, and its reverse with it, which breaks its leg identity
      (on a poset of height below 3, where every such value is on a leg,
      a leg's value, which breaks an identity unless the change gives a
      functor again);
    - "non_functor": `gathered_through_legs` with u's free values kept,
      which breaks a chain identity only, whenever g is not a functor.
    A change that P or G leaves no room for (no free class, no class of
    two members, a trivial G) leaves u as it is."""
    u = random_connection(P, G, rng)
    cells, x = u.cells, list(u.ids)

    def other(g):
        return rng.choice([h for h in range(len(G)) if h != g])

    if kind == "reversal" and cells.free_classes and len(G) > 1:
        i, _ = rng.choice(cells.free_classes)
        x[i] = other(x[i])
    elif kind == "inflating" and len(G) > 1:
        free = set(cells.free_classes)
        legs = {i for leg in cells.legs for i in leg}
        pinned = [(i, j) for i, j in cells.classes
                  if i != j and (i, j) not in free]
        if pinned:
            i, j = rng.choice([c for c in pinned if not legs & set(c)]
                              or pinned)
            x[i] = other(x[i])
            x[j] = G.inverses[x[i]]
    elif kind == "non_functor":
        z = gathered_through_legs(P, G, rng)
        for i, j in cells.free_classes:
            z[i], z[j] = x[i], x[j]
        x = z
    return Cochain1._of(P, G, tuple(x))
