"""Seeded inputs that the tests and tests/digest.py share: random
1-cochains, and the CLI invocations of the golden outputs with the files
they read.

Each kind of cochain is made to break one part of the functor tests of
`is_cocycle` and `is_connection`, so a check that skips a part is told
apart from one that reads them all.  They read only the public tables
and constructors, so tests/digest.py can run them against another tree
of the library.  Nothing here imports pytest: tests/digest.py runs
without the test dependencies.
"""

import contextlib
import io

from posetbundle import cli
from posetbundle.acceptance import (random_connection, standard_posets,
                                    write_fixtures as write_suite_fixtures)
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


PATH_FILES = {
    "circle2-yes-p.path": "(o1;o1,a1);(o1;a1,a2);(o1;a2,a2);(o1;a2,o1)",
    "circle2-yes-q.path": "(o1;o1,a1);(o1;a1,a2);(o2;a2,a2);(o1;a2,o1)",
    "circle2-no-p.path": "(o1;o1,a1);(o1;a1,o1);(o1;o1,o1);(o1;o1,o1)",
    "circle2-no-q.path": "(o1;o1,a2);(o2;a2,a1);(o2;a1,a1);(o1;a1,o1)",
    "twoloop-yes-p.path": "(M1;M1,m2);(M2;m2,m2);(M1;m2,m2);(M1;m2,M1)",
    "twoloop-yes-q.path": "(M1;M1,m2);(M2;m2,M2);(M2;M2,m2);(M1;m2,M1)",
    "twoloop-no-p.path": "(M1;M1,M1);(M1;M1,m1);(M1;m1,m2);(M1;m2,M1)",
    "twoloop-no-q.path": "(M1;M1,m1);(M3;m1,m2);(M1;m2,m1);(M1;m1,M1)",
}

# The CLI invocations of tests/cli_golden.json: the shapes the
# benchmark's `cli` workload runs.
INVOCATIONS = (
    "validate circle2.poset",
    "--format json validate chain3.poset",
    "gen circle 3",
    "gen chain 3 -o gen-chain3.poset",
    "simplices circle2.poset --dim 1",
    "--format json simplices vee.poset --dim 2",
    "pi1 circle2.poset",
    "--format json pi1 twoloop.poset --base M1",
    "group-validate s3.group",
    "check-cocycle circle2.poset z3.group winding-z3.cochain",
    "check-cocycle twoloop.poset s3.group fullimage-s3.cochain",
    "classify-cocycles circle2.poset z3.group",
    "classify-cocycles circle2.poset s3.group",
    "curvature circle2.poset z3.group winding-z3.cochain",
    "curvature twoloop.poset s3.group fullimage-s3.cochain",
    "induce circle2.poset z3.group winding-z3.cochain",
    "holonomy circle2.poset z3.group winding-z3.cochain",
    "holonomy twoloop.poset s3.group fullimage-s3.cochain --restricted",
    "nonflat circle2.poset z3.group --cocycle winding-z3.cochain",
    "--format json nonflat twoloop.poset s3.group",
    "reduce circle2.poset z3.group winding-z3.cochain",
    "reduce twoloop.poset s3.group fullimage-s3.cochain",
    "gauge-group circle2.poset z3.group winding-z3.cochain",
    "--format json gauge-group twoloop.poset s3.group fullimage-s3.cochain",
    "gauge-act circle2.poset z3.group winding-z3.cochain --transform g1.assign",
    "homotopic circle2.poset circle2-yes-p.path circle2-yes-q.path --bound 5",
    "homotopic circle2.poset circle2-no-p.path circle2-no-q.path --bound 5",
    "--format json homotopic twoloop.poset twoloop-yes-p.path "
    "twoloop-yes-q.path --bound 5",
    "homotopic twoloop.poset twoloop-no-p.path twoloop-no-q.path --bound 5",
    "dd-check circle2.poset z3.group winding-z3.cochain",
    "--format json dd-check circle2.poset z3.group winding-z3.cochain",
    "simplices circle2.poset --dim 3",
    "simplices circle2.poset --dim 3 --inflating",
    "--format json simplices circle2.poset --dim 3 --limit 5",
)


def write_fixtures(directory):
    """Write the files the invocations read into `directory`: the `suite`
    fixtures of `acceptance.write_fixtures` plus a gauge transformation
    and path files."""
    write_suite_fixtures(directory)
    (directory / "g1.assign").write_text(
        "".join(f"{a} = g1\n" for a in standard_posets()["circle2"].elements)
    )
    for name, text in PATH_FILES.items():
        (directory / name).write_text(text + "\n")


def invoke(invocation):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(invocation.split())
    return [code, out.getvalue(), err.getvalue()]
