"""One sha256 per part of the library's ordered outputs, on the five
standard fixtures x Z2, Z3 and S3.

Two trees that print the same digests compute the same tables, verdicts,
presentations, homomorphisms, cocycles, connections, cochain texts,
holonomy groups, homotopy certificates, acceptance details, CLI
outputs, the CLI's input errors and its help and usage texts, in the
same order.  Run it in each tree and compare:

    PYTHONPATH=src python tests/digest.py

The outputs are written as canonical reprs of tuples of ints, strings and
booleans, so the digests do not depend on the hash seed;
tests/test_digest.py checks them against the checked-in
tests/digest_golden.txt, in process and under two fixed seeds.
"""

import hashlib
import os
import random
import sys
import tempfile
from pathlib import Path

from posetbundle import cli
from posetbundle.acceptance import (random_cocycle, random_connection,
                                    run_all, standard_groups, standard_posets)
from posetbundle.cochains import (Cochain1, classify_cocycles,
                                  enumerate_cocycles, format_cochain_text,
                                  identity_failures, is_cocycle,
                                  random_cochain1)
from posetbundle.connections import (ambrose_singer_reduce, construct_nonflat,
                                     enumerate_loops, holonomy,
                                     induced_cocycle, is_connection,
                                     restricted_holonomy)
from posetbundle.errors import PosetBundleError
from posetbundle.paths import (enumerate_homs, hom_class_representatives,
                               homotopic, pi1_presentation)
from posetbundle.poset import base_point
from posetbundle.simplicial import complex_of

from inputs import (CONNECTION_KINDS, INVOCATIONS, invoke, near_a_connection,
                    write_fixtures)

# Cocycle enumerations larger than this (twoloop x S3) are recorded as
# the error.  Homomorphism searches get room for twoloop x S3 (6^5).
LIMIT = 2000
HOM_LIMIT = 10 ** 4
SAMPLES = 12
# Homotopy queries: pairs of loops of length <= 4 at the base point,
# QUERIES per poset, searched within bound 5.
HOMOTOPY_POSETS = ("circle2", "twoloop", "chain3", "vee")
QUERIES = 20

# The command that reads a file of each kind, against the files that
# `inputs.write_fixtures` writes.
READERS = {
    "poset": "validate {}",
    "group": "group-validate {}",
    "cochain": "check-cocycle circle2.poset z3.group {}",
    "assign": "gauge-act circle2.poset z3.group winding-z3.cochain "
              "--transform {}",
    "path": "homotopic circle2.poset {} circle2-yes-q.path",
}
Z3_COCHAIN = "cochain u over circle2 values Z3\n"
# Malformed input files, one for each error branch of the five readers;
# a text of None is a file that is not there.  The errors found at the
# end of a file (a missing header, an empty path file, a cochain or
# assignment missing a value, steps that do not chain) name no line.
INPUT_ERRORS = {
    "missing.poset": None,
    "empty.poset": "",
    "no-header.poset": "# a comment\nelem a b\n",
    "header.poset": "poset\nelem a\n",
    "two-headers.poset": "poset p\nposet q\n",
    "element.poset": "poset p\nelem a b(c\n",
    "le.poset": "poset p\nelem a b\nle a\n",
    "repeated-le.poset": "poset p\nelem a b\nle a b\nle a b\n",
    "line.poset": "poset p\nelem a\nfoo bar\n",
    "duplicate.poset": "poset p\nelem a a\n",
    "unknown.poset": "poset p\nelem a\nle a z\n",
    "cycle.poset": "poset p\nelem x y\nle x y\nle y x\n",
    "no-elems.group": "group g\n",
    "header.group": "group\nelems e\n",
    "two-headers.group": "group g\ngroup h\n",
    "two-elems.group": "group g\nelems e\nelems e\n",
    "element.group": "group g\nelems e a:b\n",
    "line.group": "group g\nfoo\n",
    "rows-first.group": "group g\ntable\ne: e\n",
    "unknown-row.group": "group g\nelems e\ntable\nx: e\n",
    "repeated-row.group": "group g\nelems e\ntable\ne: e\ne: e\n",
    "short-row.group": "group g\nelems e a\ntable\ne: e a\na: a\n",
    "duplicate.group": "group g\nelems e e\ntable\ne: e e\n",
    "product.group": "group g\nelems e a\ntable\ne: e a\na: a b\n",
    "associative.group":
        "group g\nelems e a b\ntable\ne: e a b\na: a e e\nb: b e e\n",
    "no-identity.group": "group g\nelems e a\ntable\ne: e e\na: a a\n",
    "no-inverse.group": "group g\nelems e z\ntable\ne: e z\nz: z z\n",
    "identity.group": "group g\nelems a e\ntable\na: e a\ne: a e\n",
    "empty.cochain": "# a comment\n",
    "header.cochain": "cochain u over circle2\n",
    "poset.cochain": "cochain u over chain2 values z3\n",
    "group.cochain": "cochain u over circle2 values s3\n",
    "line.cochain": Z3_COCHAIN + "(o1;o1,a1) g1\n",
    "simplex.cochain": Z3_COCHAIN + "(o1;o1) = g1\n",
    "no-simplex.cochain": Z3_COCHAIN + "(o9;o1,a1) = g1\n",
    "repeated.cochain": Z3_COCHAIN + "(o1;o1,a1) = g1\n(o1;o1,a1) = g2\n",
    "value.cochain": Z3_COCHAIN + "(o1;o1,a1) = g7\n",
    "missing-value.cochain": Z3_COCHAIN + "(o1;o1,a1) = g1\n",
    "line.assign": "a1 g1\n",
    "element.assign": "zz = g1\n",
    "repeated.assign": "a1 = g1\na1 = g2\n",
    "value.assign": "a1 = g7\n",
    "missing-value.assign": "a1 = g1\n",
    "empty.path": "",
    "comment.path": "# no steps\n\n",
    "stray.path": "(o1;o1,a1) x\n",
    "paren.path": "# one step\n((o1;o1,a1)\n",
    "simplex.path": "(o1;o1)\n",
    "no-simplex.path": "(o1;o1,a1)\n(o9;o1,a1)\n",
    "unchained.path": "(o2;o2,a2);(o1;o1,a1)\n",
}


def _cells():
    groups = standard_groups()
    for P in standard_posets().values():
        for G in groups.values():
            yield P, G, random.Random(f"{P.name}/{G.name}")


def _outcome(f, *args):
    """f(*args), or the name of the library error it raises."""
    try:
        return f(*args)
    except PosetBundleError as caught:
        return type(caught).__name__


def _tables():
    for P in standard_posets().values():
        K = complex_of(P)
        yield P.name, tuple((K[n].support, K[n].faces) for n in range(3))


def _cocycle_checks():
    """Random cochains, random cocycles and cocycles with one value
    changed: each with its verdict and its failing 2-simplices."""
    for P, G, rng in _cells():
        for _ in range(SAMPLES):
            z = random_cocycle(P, G, rng)
            ids = list(z.ids)
            ids[rng.randrange(len(ids))] = rng.randrange(len(G))
            for u in (random_cochain1(P, G, rng), z,
                      Cochain1._of(P, G, tuple(ids))):
                yield u.ids, is_cocycle(u), tuple(
                    map(complex_of(P)[2].encode, identity_failures(u)))


def _connection_checks():
    """`is_connection` on random connections and on each kind of
    `inputs.near_a_connection`."""
    for P, G, rng in _cells():
        for _ in range(SAMPLES):
            for kind in CONNECTION_KINDS:
                u = near_a_connection(P, G, rng, kind)
                yield u.ids, is_connection(u)


def _presentation(P):
    return pi1_presentation(P, base_point(P))


def _pi1_presentations():
    """The presentation at the base point and its words: the word of
    each 1-simplex and the spanning tree's steps to each point."""
    for P in standard_posets().values():
        presentation, words = _presentation(P)
        yield (P.name, presentation.generators, presentation.relators,
               words.edge_words, words.tree)


def _homs():
    for P, G, _ in _cells():
        presentation = _presentation(P)[0]
        yield tuple(_outcome(f, presentation, G, HOM_LIMIT)
                    for f in (enumerate_homs, hom_class_representatives))


def _cocycles():
    def ids(cocycles):
        return tuple(z.ids for z in cocycles)

    for P, G, _ in _cells():
        yield (P.name, G.name,
               _outcome(lambda: ids(enumerate_cocycles(P, G, LIMIT))),
               ids(classify_cocycles(P, G)))


def _connections():
    """Induced cocycles of random connections, and the nonflat
    connection of a random cocycle with its witness."""
    def nonflat(z):
        u, witness = construct_nonflat(z)
        return u.ids, witness and witness.encode()

    for P, G, rng in _cells():
        for _ in range(SAMPLES):
            yield induced_cocycle(random_connection(P, G, rng)).ids
        yield _outcome(nonflat, random_cocycle(P, G, rng))


def _text():
    """`format_cochain_text` of random cochains, cocycles and
    connections."""
    for P, G, rng in _cells():
        for _ in range(SAMPLES):
            for make in (random_cochain1, random_cocycle, random_connection):
                yield format_cochain_text(make(P, G, rng))


def _holonomy():
    """Holonomy, restricted holonomy and the Ambrose-Singer reduction at
    the base point, on random connections and on the nonflat connection
    of a random cocycle."""
    def at_base(u):
        a0 = base_point(u.poset)
        reduced, morphism, H = ambrose_singer_reduce(u, a0)
        return (u.ids, holonomy(u, a0), restricted_holonomy(u, a0),
                H.name, H.elements, reduced.ids, morphism.assignment)

    for P, G, rng in _cells():
        for _ in range(SAMPLES):
            yield at_base(random_connection(P, G, rng))
        yield _outcome(lambda: at_base(construct_nonflat(
            random_cocycle(P, G, rng))[0]))


def _homotopy():
    """The verdict of `homotopic` on seeded pairs of loops, with the
    encoding of each path of a "yes" certificate."""
    posets = standard_posets()
    for name in HOMOTOPY_POSETS:
        P = posets[name]
        loops = enumerate_loops(P, base_point(P), 4)
        rng = random.Random(f"homotopy/{name}")
        for _ in range(QUERIES):
            p, q = rng.choice(loops), rng.choice(loops)
            verdict = homotopic(p, q, P, 5)
            yield (p.encode(), q.encode(), verdict.status,
                   tuple(path.encode() for path in verdict.certificate))


def _acceptance():
    for r in run_all():
        yield r.number, r.name, r.passed, r.detail


def _cli():
    """Exit code, stdout and stderr of each golden CLI invocation, run in
    process in a directory that `inputs.write_fixtures` fills."""
    return _in_fixtures(INVOCATIONS)


def _input_errors():
    """Exit code, stdout and stderr of the command that reads each file
    of `INPUT_ERRORS`."""
    return _in_fixtures(
        [READERS[name.rsplit(".", 1)[1]].format(name) for name in INPUT_ERRORS],
        {name: text for name, text in INPUT_ERRORS.items() if text is not None})


def _help():
    """Exit code, stdout and stderr of `--help`, of `<command> -h` for
    every command, and of every command but `suite` (which runs the
    criteria) with no arguments: its usage error."""
    names = [row[0] for row in cli.COMMANDS]
    return [(i, invoke(i)) for i in ["--help", *(f"{n} -h" for n in names),
                                     *(n for n in names if n != "suite")]]


def _in_fixtures(invocations, files=None):
    """(invocation, (exit code, stdout, stderr)) for each invocation, run
    in process in a directory that `inputs.write_fixtures` fills and
    that holds `files` (name -> text)."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        for name, text in (files or {}).items():
            (Path(tmp) / name).write_text(text)
        os.chdir(tmp)
        try:
            return [(i, invoke(i)) for i in invocations]
        finally:
            os.chdir(here)


PARTS = {
    "tables": _tables,
    "cocycle_checks": _cocycle_checks,
    "connection_checks": _connection_checks,
    "pi1_presentation": _pi1_presentations,
    "homs": _homs,
    "cocycles": _cocycles,
    "connections": _connections,
    "text": _text,
    "holonomy": _holonomy,
    "acceptance": _acceptance,
    "homotopy": _homotopy,
    "cli": _cli,
    "input_errors": _input_errors,
    "help": _help,
}


def digests():
    """Part name -> sha256 hex digest of the repr of its outputs."""
    return {name: hashlib.sha256(repr(tuple(part())).encode()).hexdigest()
            for name, part in PARTS.items()}


def main():
    for name, digest in digests().items():
        sys.stdout.write(f"{name} {digest}\n")


if __name__ == "__main__":
    main()
