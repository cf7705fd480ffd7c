"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/workloads.py --workload atlas --seed 7 --pass-index 0 --trace 0

bench/run.py starts this file once per pass with the checkout's `src`
first on PYTHONPATH, so no library cache is warm when a pass begins.
A pass sets up its inputs, runs its ops one at a time (closed loop,
one op in flight), stops the clock, checks every result against
bench/goldens.json and prints one JSON line for the runner.  With
--trace 1 it also records a span around each call into the library and
reports per-layer totals.  Why each workload looks the way it does is
in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from measure import (REFERENCE_START_S, Calibration, NullTracer, Tracer,
                     bare_interpreter, cpu_seconds, self_time_by_name)

BENCH = Path(__file__).resolve().parent
GOLDENS = BENCH / "goldens.json"
HOMOTOPY_BOUND = 5
LOOP_MAX_LEN = 4


class Ops:
    """Runs and times ops, keeps their results, and records failures.

    An op that raises is counted as failed and the pass goes on; a
    wrong result is reported later through `check`.
    """

    def __init__(self, tracer, calibration=None):
        self.tracer = tracer
        self.latency = []
        self.results = {}
        self.index = {}
        self.problems = {}
        self.calibration = calibration or Calibration()

    def run(self, label, span, thunk, name_by=None):
        i = len(self.latency)
        self.index[label] = i
        self.tracer.op = i
        t0 = time.perf_counter()
        result = None
        try:
            with self.tracer.span(span) as sp:
                result = thunk()
            if name_by is not None:
                sp.name = name_by(result)
        except Exception as exc:  # a failing op is counted, not fatal
            self.problems[i] = f"{span}: {type(exc).__name__}: {exc}"
        self.latency.append(time.perf_counter() - t0)
        self.results[label] = result
        self.calibration.sample(self.latency[-1])
        return result

    def check(self, label, ok, message):
        i = self.index[label]
        if not ok and i not in self.problems:
            self.problems[i] = message


# -- suite -----------------------------------------------------------------

# Criteria 1 and 7 take 32 s and 18 s here, each longer than a whole run
# may take; their layers are covered by the atlas workload.
SUITE_CRITERIA = (2, 3, 4, 5, 6, 8, 9, 10, 11, 12)


class Suite:
    min_ops = 1
    pass_seconds = 3.8

    def __init__(self, seed, pass_index, golden):
        from posetbundle import acceptance

        self.acceptance = acceptance
        self.seed = seed
        self.golden = golden["suite"]

    def run(self, ops):
        for n in SUITE_CRITERIA:
            ops.run(n, f"acceptance.c{n:02d}",
                    lambda n=n: self.acceptance.run_criterion(n, self.seed))

    def verify(self, ops):
        for n in SUITE_CRITERIA:
            r = ops.results[n]
            expected = self.golden[str(n)]
            ops.check(n, r is not None and r.passed and r.detail == expected,
                      f"criterion {n}: {r and r.line()!r} != {expected!r}")

    def layers(self, ops, tracer):
        return {}


# -- atlas -----------------------------------------------------------------

# (poset, group) cells of the sweep.  Six cells of the full 4 x 3 grid
# are left out to keep a pass near five seconds: circle3 x S3 and
# twoloop x S3 (enumerate_cocycles alone takes 40 s and 32 s), circle4 x
# Z3 (9 s), circle4 x S3 (7 s), twoloop x Z3 and circle3 x Z3 (about 2 s
# each).  circle2 x S3 stays, though larger than the last two, as the
# one non-abelian cell and the one where enumerate_cocycles dominates.
ATLAS_CELLS = (
    ("circle2", "z2"), ("circle2", "z3"), ("circle2", "s3"),
    ("circle3", "z2"),
    ("circle4", "z2"),
    ("twoloop", "z2"),
)
ATLAS_DROPPED = ("circle3xs3", "twoloopxs3", "circle4xz3", "circle4xs3",
                 "twoloopxz3", "circle3xz3")
ATLAS_SAMPLES_PER_CLASS = 1


def atlas_posets():
    from posetbundle import acceptance
    from posetbundle.poset import generate

    return {
        "circle2": generate("circle", 2),
        "circle3": generate("circle", 3),
        "circle4": generate("circle", 4),
        "twoloop": acceptance.two_loop_poset(),
    }


def atlas_groups():
    from posetbundle.groups import cyclic_group, symmetric_group

    return {"z2": cyclic_group(2), "z3": cyclic_group(3),
            "s3": symmetric_group(3)}


def curvature_support(w):
    """The number of 2-simplices where the curvature w is not trivial."""
    from posetbundle.simplicial import enumerate_simplices

    e = w.group.identity
    return sum(w(c) != e for c in enumerate_simplices(w.poset, 2))


def connection_signature(u, a0):
    """What the goldens record for one connection: curvature support,
    holonomy order and restricted holonomy order."""
    from posetbundle import connections as cn

    return (f"{curvature_support(cn.curvature(u))}/"
            f"{len(cn.holonomy(u, a0))}/{len(cn.restricted_holonomy(u, a0))}")


class Atlas:
    min_ops = 1
    pass_seconds = 4.9

    def __init__(self, seed, pass_index, golden):
        from posetbundle import cochains, connections, gauge, paths
        from posetbundle import simplicial

        self.ch, self.cn, self.gauge = cochains, connections, gauge
        self.paths, self.simplicial = paths, simplicial
        self.posets = atlas_posets()
        self.groups = atlas_groups()
        self.rng = random.Random(seed)
        self.golden = golden["atlas"]
        self.picks = {}

    def run(self, ops):
        for pname, P in self.posets.items():
            a0 = P.elements[0]
            for n in range(4):
                ops.run((pname, "simplices", n), f"simplicial.enum_d{n}",
                        lambda: self.simplicial.enumerate_simplices(P, n))
            pi1 = ops.run((pname, "pi1"), "paths.pi1",
                          lambda: self.paths.pi1_presentation(P, a0))
            pres = pi1[0] if pi1 else None
            ops.run((pname, "abinv"), "smith.abelian_invariants",
                    lambda: pres.abelian_invariants())
            for gname in (g for p, g in ATLAS_CELLS if p == pname):
                G, cell = self.groups[gname], f"{pname}x{gname}"
                ops.run((cell, "homs"), "paths.homs",
                        lambda: self.paths.enumerate_homs(pres, G))
                ops.run((cell, "hom_classes"), "paths.hom_classes",
                        lambda: self.paths.count_hom_classes(pres, G))
                reps = ops.run((cell, "classes"), "cochains.classify",
                               lambda: self.ch.classify_cocycles(P, G)) or ()
                zs = ops.run((cell, "cocycles"),
                             "cochains.enumerate_cocycles",
                             lambda: self.ch.enumerate_cocycles(P, G)) or ()
                ops.run((cell, "is_cocycle"), "cochains.is_cocycle",
                        lambda: [self.ch.is_cocycle(z) for z in zs])
                for r, z in enumerate(reps):
                    self._class(ops, cell, r, P, G, z, a0)

    def _class(self, ops, cell, r, P, G, z, a0):
        ops.run((cell, r, "gauge"), "gauge.group",
                lambda: self.gauge.gauge_group(z))
        us = ops.run((cell, r, "connections"), "connections.enumerate",
                     lambda: self.cn.enumerate_connections(P, G, z)) or ()
        picks = sorted(self.rng.sample(range(len(us)),
                                       min(ATLAS_SAMPLES_PER_CLASS, len(us))))
        self.picks[(cell, r)] = picks
        for j in picks:
            u = us[j]
            key = (cell, r, j)
            ops.run(key + ("d1",), "cochains.d1", lambda: self.ch.coboundary(u))
            w = ops.run(key + ("curvature",), "connections.curvature",
                        lambda: self.cn.curvature(u))
            ops.run(key + ("induced",), "connections.induced",
                    lambda: self.cn.induced_cocycle(u))
            ops.run(key + ("bianchi",), "cochains.d2",
                    lambda: self.ch.coboundary(w))
            ops.run(key + ("holonomy",), "connections.holonomy",
                    lambda: self.cn.holonomy(u, a0))
            ops.run(key + ("restricted",), "connections.restricted_holonomy",
                    lambda: self.cn.restricted_holonomy(u, a0))

    def verify(self, ops):
        res = ops.results
        for pname in self.posets:
            g = self.golden[pname]
            for n in range(4):
                got = res[(pname, "simplices", n)]
                ops.check((pname, "simplices", n),
                          got is not None and len(got) == g["simplices"][n],
                          f"{pname} dim {n} simplex count")
            pi1 = res[(pname, "pi1")]
            ops.check((pname, "pi1"), pi1 is not None
                      and [len(pi1[0].generators), len(pi1[0].relators)]
                      == g["presentation"], f"{pname} presentation size")
            ops.check((pname, "abinv"),
                      res[(pname, "abinv")] == g["abelian_invariants"],
                      f"{pname} abelian invariants")
        for pname, gname in ATLAS_CELLS:
            cell, G = f"{pname}x{gname}", self.groups[gname]
            g = self.golden[cell]
            for what in ("homs", "classes", "cocycles"):
                got = res[(cell, what)]
                ops.check((cell, what), got is not None
                          and len(got) == g[what], f"{cell} {what} count")
            ops.check((cell, "hom_classes"),
                      res[(cell, "hom_classes")] == g["classes"],
                      f"{cell} hom classes differ from cocycle classes")
            ops.check((cell, "is_cocycle"),
                      all(res[(cell, "is_cocycle")] or [False]),
                      f"{cell} enumerated a non-cocycle")
            reps = res[(cell, "classes")] or ()
            for r, z in enumerate(reps):
                gg = res[(cell, r, "gauge")]
                ops.check((cell, r, "gauge"), gg is not None
                          and len(gg) == g["gauge"][r], f"{cell} gauge order")
                us = res[(cell, r, "connections")]
                ops.check((cell, r, "connections"), us is not None
                          and len(us) == g["connections"][r],
                          f"{cell} connection count")
                for j in self.picks.get((cell, r), ()):
                    self._verify_connection(ops, cell, r, j, z, G, g)

    def _verify_connection(self, ops, cell, r, j, z, G, g):
        key = (cell, r, j)
        res = ops.results
        w = res[key + ("curvature",)]
        ops.check(key + ("d1",), w is not None and res[key + ("d1",)] == w,
                  f"{cell} d1 differs from the curvature")
        ops.check(key + ("induced",), res[key + ("induced",)] == z,
                  f"{cell} induced cocycle is not the class representative")
        x = res[key + ("bianchi",)]
        ops.check(key + ("bianchi",), x is not None and all(
            v == G.identity for v in x.values.values()),
            f"{cell} Bianchi identity failed")
        hol, rhol = res[key + ("holonomy",)], res[key + ("restricted",)]
        nontrivial, order, rorder = g["signatures"][r][j].split("/")
        ops.check(key + ("holonomy",), hol is not None
                  and len(hol) == int(order), f"{cell} holonomy order")
        ops.check(key + ("restricted",), rhol is not None
                  and len(rhol) == int(rorder)
                  and set(rhol) <= set(hol or ()),
                  f"{cell} restricted holonomy")
        ops.check(key + ("curvature",), w is not None
                  and curvature_support(w) == int(nontrivial),
                  f"{cell} curvature support")

    def layers(self, ops, tracer):
        res = ops.results
        counts = {f"simplicial.count_d{n}": 0 for n in range(4)}
        for pname in self.posets:
            for n in range(4):
                counts[f"simplicial.count_d{n}"] += len(
                    res[(pname, "simplices", n)] or ())
        found = candidates = 0
        totals = {"cochains.cocycles": 0, "cochains.classes": 0,
                  "connections.count": 0, "gauge.order_sum": 0}
        for pname, gname in ATLAS_CELLS:
            cell = f"{pname}x{gname}"
            pres = (res[(pname, "pi1")] or [None])[0]
            found += len(res[(cell, "homs")] or ())
            if pres is not None:
                candidates += len(self.groups[gname]) ** len(pres.generators)
            totals["cochains.cocycles"] += len(res[(cell, "cocycles")] or ())
            reps = res[(cell, "classes")] or ()
            totals["cochains.classes"] += len(reps)
            for r in range(len(reps)):
                totals["connections.count"] += len(
                    res[(cell, r, "connections")] or ())
                totals["gauge.order_sum"] += len(res[(cell, r, "gauge")] or ())
        counts.update(totals)
        counts["paths.homs_accept_ratio"] = found / candidates if candidates else 0
        return counts


# -- homotopy --------------------------------------------------------------

HOMOTOPY_PAIRS_PER_POSET = 14
# Share of "yes" verdicts among the pairs of a pass: 108 of 168, the
# mix measured on random twoloop pairs at the parent commit.  The
# median op is then a "yes" query, which runs the deformation search.
YES_SHARE = 108 / 168


def homotopy_posets():
    from posetbundle import acceptance
    from posetbundle.poset import generate

    return {"circle2": generate("circle", 2),
            "twoloop": acceptance.two_loop_poset()}


def stratum(verdict, steps):
    """Pool pairs are drawn per stratum so that every seed gets the same
    mix of cheap and expensive queries: a "yes" costs about in
    proportion to its certificate length, a "no" almost nothing."""
    return f"yes{steps:02d}" if verdict == "yes" else verdict


def allocate(sizes, total):
    """Split `total` over strata in proportion to their sizes, rounding
    by largest remainder (ties go to the first stratum by name)."""
    pool = sum(sizes.values())
    exact = {k: total * n / pool for k, n in sizes.items()}
    share = {k: int(v) for k, v in exact.items()}
    left = total - sum(share.values())
    for k in sorted(exact, key=lambda k: (share[k] - exact[k], k))[:left]:
        share[k] += 1
    return share


def draw_pairs(pool, seed, per_poset, pass_index):
    """The pairs of pass `pass_index` of a run: (poset, base, p, q,
    verdict, steps).  Per poset, YES_SHARE of the pairs are "yes" pairs,
    split over the certificate lengths in proportion to the pool.  The
    passes of a run deal out one seeded shuffle of each stratum, going
    round again once it is used up, so a run covers its strata evenly
    and its median depends little on the seed."""
    drawn = []
    for pname in sorted(pool):
        strata = {}
        for entry in pool[pname]:
            strata.setdefault(stratum(entry[3], entry[4]), []).append(entry)
        yes = round(per_poset * YES_SHARE)
        share = allocate({k: len(v) for k, v in strata.items() if k != "no"},
                         yes)
        share["no"] = per_poset - yes
        for key in sorted(strata):
            deck = strata[key][:]
            random.Random(f"{seed}/{pname}/{key}").shuffle(deck)
            first = pass_index * share[key]
            for i in range(first, first + share[key]):
                drawn.append([pname] + list(deck[i % len(deck)]))
    random.Random(f"{seed}/{pass_index}").shuffle(drawn)
    return drawn


def certificate_ok(chain, p, q, P):
    """Replay a "yes" certificate: it runs from p to q, and each path is
    one elementary deformation of the one before, within the bound."""
    from posetbundle.paths import deformations

    if not chain or chain[0].steps != p.steps or chain[-1].steps != q.steps:
        return False
    return all(
        len(b) <= HOMOTOPY_BOUND
        and b.steps in {d.steps for d in deformations(a, P)}
        for a, b in zip(chain, chain[1:])
    )


class Homotopy:
    min_ops = 100
    pass_seconds = 2.7

    def __init__(self, seed, pass_index, golden):
        from posetbundle import connections as cn
        from posetbundle import paths, smith

        self.paths, self.smith = paths, smith
        self.posets = homotopy_posets()
        pool = golden["homotopy"]
        loops = {}
        for pname, entries in pool.items():
            for base in sorted({e[0] for e in entries}):
                for p in cn.enumerate_loops(self.posets[pname], base,
                                            LOOP_MAX_LEN):
                    loops[(pname, p.encode())] = p
        self.queries = [
            (pname, self.posets[pname], loops[(pname, p)], loops[(pname, q)],
             verdict, steps)
            for pname, base, p, q, verdict, steps
            in draw_pairs(pool, seed, HOMOTOPY_PAIRS_PER_POSET, pass_index)
        ]

    def run(self, ops):
        homotopic = self.paths.homotopic
        for i, (_, P, p, q, _, _) in enumerate(self.queries):
            ops.run(i, "paths.homotopic",
                    lambda: homotopic(p, q, P, HOMOTOPY_BOUND),
                    name_by=lambda v: f"paths.homotopic_{v.status}")

    def verify(self, ops):
        for i, (pname, P, p, q, verdict, _) in enumerate(self.queries):
            v = ops.results[i]
            ops.check(i, v is not None and v.status == verdict,
                      f"{pname} {p.encode()} ~ {q.encode()}: "
                      f"{v and v.status} != {verdict}")
            if v is not None and v.status == "yes":
                ops.check(i, certificate_ok(v.certificate, p, q, P),
                          f"{pname}: invalid certificate")

    def layers(self, ops, tracer):
        counts = {"paths.verdict_yes": 0, "paths.verdict_no": 0,
                  "paths.verdict_unknown": 0}
        for i in range(len(self.queries)):
            v = ops.results[i]
            if v is not None:
                counts[f"paths.verdict_{v.status}"] += 1
        for pname, base in sorted({(q[0], q[2].start.element)
                                   for q in self.queries}):
            pres, _ = self.paths.pi1_presentation(self.posets[pname], base)
            matrix = pres.exponent_matrix()
            with tracer.span("smith.snf"):
                self.smith.smith_normal_form(matrix)
        return counts


# -- cli -------------------------------------------------------------------

# One pass runs each invocation once, in a seeded order.  Most cost
# about one interpreter start and import; the last five, each about
# three times that, are 15 of the 102 ops of a run, so the 90th
# percentile falls inside their group rather than on its edge.
CLI_INVOCATIONS = (
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


def cli_command(invocation):
    args = invocation.split()
    return args[2] if args[0] == "--format" else args[0]


def write_cli_fixtures(directory, pool):
    """The `suite` fixture files, plus path and transform files."""
    from posetbundle import acceptance
    from posetbundle.cochains import format_cochain_text
    from posetbundle.groups import format_group_text
    from posetbundle.poset import format_poset_text

    directory.mkdir(parents=True, exist_ok=True)
    posets = acceptance.standard_posets()
    groups = acceptance.standard_groups()
    for name, P in posets.items():
        (directory / f"{name}.poset").write_text(format_poset_text(P))
    for name, G in groups.items():
        (directory / f"{name}.group").write_text(format_group_text(G))
    winding = acceptance.winding_cocycle(posets["circle2"], groups["z3"], "g1")
    full = acceptance.full_image_cocycle(posets["twoloop"], groups["s3"])
    (directory / "winding-z3.cochain").write_text(
        format_cochain_text(winding, name="winding-z3"))
    (directory / "fullimage-s3.cochain").write_text(
        format_cochain_text(full, name="fullimage-s3"))
    (directory / "g1.assign").write_text(
        "".join(f"{a} = g1\n" for a in posets["circle2"].elements))
    for name, text in homotopic_path_files(pool).items():
        (directory / name).write_text(text + "\n")


def homotopic_path_files(pool):
    """Path files for the homotopic invocations: per pool poset, the "yes"
    pair with the shortest certificate and the first "no" pair."""
    files = {}
    for pname, entries in sorted(pool.items()):
        yes = min((e for e in entries if e[3] == "yes"),
                  key=lambda e: (e[4], e))
        no = min(e for e in entries if e[3] == "no")
        for verdict, entry in (("yes", yes), ("no", no)):
            files[f"{pname}-{verdict}-p.path"] = entry[1]
            files[f"{pname}-{verdict}-q.path"] = entry[2]
    return files


class Cli:
    min_ops = 100
    pass_seconds = 6.9
    # Each op is a process of its own, so the machine is sampled with a
    # bare interpreter start: it tracks the ops' speed better than
    # Python work in the benchmark's process between them.
    reference = (bare_interpreter, REFERENCE_START_S)

    def __init__(self, seed, pass_index, golden):
        self.golden = golden["cli"]
        self.workdir = BENCH / ".work" / f"cli-{os.getpid()}"
        write_cli_fixtures(self.workdir, golden["homotopy"])
        self.order = list(CLI_INVOCATIONS)
        random.Random(seed * 1000 + pass_index).shuffle(self.order)
        self.python = sys.executable
        self.env = library_env(BENCH.parent)

    def run(self, ops):
        for inv in self.order:
            ops.run(inv, f"cli.{cli_command(inv)}",
                    lambda: self.invoke(inv.split()))

    def invoke(self, args):
        return subprocess.run(
            [self.python, "-m", "posetbundle.cli", *args], cwd=self.workdir,
            env=self.env, capture_output=True, timeout=120, check=False)

    def verify(self, ops):
        for inv in self.order:
            r = ops.results[inv]
            got = r and [r.returncode, digest(r.stdout), digest(r.stderr)]
            ops.check(inv, got == self.golden[inv],
                      f"cli {inv}: {got} != {self.golden[inv]}")

    def layers(self, ops, tracer):
        from posetbundle.cochains import format_cochain_text, parse_cochain_text
        from posetbundle.groups import (cyclic_group, parse_group_text,
                                        symmetric_group)
        from posetbundle.poset import parse_poset_text

        texts = {p.name: p.read_text() for p in self.workdir.iterdir()}
        posets, groups = {}, {}
        for name in sorted(n for n in texts if n.endswith(".poset")):
            with tracer.span("poset.parse"):
                posets[name[:-6]] = parse_poset_text(texts[name])
        for name in sorted(n for n in texts if n.endswith(".group")):
            with tracer.span("groups.parse"):
                groups[name[:-6]] = parse_group_text(texts[name])
        for name, P, G in (("winding-z3", "circle2", "z3"),
                           ("fullimage-s3", "twoloop", "s3")):
            with tracer.span("cochains.parse"):
                z = parse_cochain_text(texts[f"{name}.cochain"], posets[P],
                                       groups[G])
            with tracer.span("cochains.format"):
                format_cochain_text(z, name=name)
        for build in (lambda: cyclic_group(2), lambda: cyclic_group(3),
                      lambda: symmetric_group(3)):
            with tracer.span("groups.build"):
                build()
        values = {}
        for _ in range(3):
            for name, code in (("cli.bare", "pass"),
                               ("cli.import", "import posetbundle.cli")):
                with tracer.span(name) as sp:
                    subprocess.run([self.python, "-c", code], env=self.env,
                                   check=True, timeout=60)
                values.setdefault(name, []).append(sp.end - sp.start)
        values = {"cli.import_ms": 1000 * (median(values["cli.import"])
                                           - median(values["cli.bare"]))}
        by_command = {}
        for s in tracer.spans:
            if s.name.startswith("cli.") and s.name[4:] in {
                    cli_command(i) for i in CLI_INVOCATIONS}:
                by_command.setdefault(s.name, []).append(s.end - s.start)
        for name, times in by_command.items():
            values[f"{name}_ms"] = 1000 * median(times)
        return values

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def library_env(root):
    """The environment of every process that imports the library: the
    checkout's own source and a fixed hash seed."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {"suite": Suite, "atlas": Atlas, "homotopy": Homotopy, "cli": Cli}


# Reference-kernel stretch run at the start and at the end of set-up, to
# measure the machine's speed over set-up itself.
SETUP_CALIBRATION_S = 0.02


def main(argv=None):
    setup_calibration = Calibration()
    setup_calibration.run_for(SETUP_CALIBRATION_S)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, then exit without running the ops")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    golden = json.loads(GOLDENS.read_text())
    workload = WORKLOADS[args.workload](args.seed, args.pass_index, golden)
    setup_calibration.run_for(SETUP_CALIBRATION_S)
    setup = {"setup_calibration_s": setup_calibration.seconds,
             "setup_slowdown": setup_calibration.slowdown()}
    ops = Ops(tracer, Calibration(*getattr(workload, "reference", ())))
    try:
        first_op = time.monotonic()
        if args.setup_only:
            print(json.dumps({"first_op_monotonic": first_op, **setup}))
            return
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with tracer.span("pass"):
            workload.run(ops)
        wall = time.perf_counter() - t0 - ops.calibration.seconds
        cpu = cpu_seconds() - cpu0 - ops.calibration.cpu_seconds
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        workload.verify(ops)
        layers = {}
        if tracer.enabled:
            layers = workload.layers(ops, tracer)
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    finally:
        if hasattr(workload, "close"):
            workload.close()
    print(json.dumps({
        "first_op_monotonic": first_op,
        **setup,
        "wall_s": wall,
        "slowdown": ops.calibration.slowdown(),
        "op_slowdown": ops.calibration.op_slowdowns(),
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "latency_s": ops.latency,
        "op_labels": [str(label) for label in ops.index],
        "attempted": len(ops.latency),
        "failed": len(ops.problems),
        "problems": [ops.problems[i] for i in sorted(ops.problems)][:20],
        "span_self_s": self_time_by_name(tracer.spans),
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
