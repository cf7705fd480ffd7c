"""Record bench/goldens.json: the expected outputs every pass checks.

    python3 bench/make_goldens.py

Run it only on a commit whose outputs are trusted.  While recording it
cross-checks the fast library operations against the brute-force
oracles (gauge_group_raw, holonomy_by_loops, certificate replay and
cocycle separation of homotopy verdicts); the timed runs never call the
oracles.  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import workloads as wl

ROOT = wl.BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from posetbundle import acceptance, cochains as ch  # noqa: E402
from posetbundle import connections as cn, gauge, paths  # noqa: E402
from posetbundle.groups import cyclic_group  # noqa: E402
from posetbundle.simplicial import enumerate_simplices  # noqa: E402

POOL_SEED = 20261017
POOL_PER_BASE = 48
POOL_BASES = {"circle2": ("o1", "o2"), "twoloop": ("M1", "M2", "M3")}
# Cells small enough for holonomy_by_loops over every connection.
HOLONOMY_ORACLE_CELLS = ("circle2xz2", "circle2xz3", "twoloopxz2")
ORACLE_LOOP_LEN = 4


def require(ok, what):
    if not ok:
        raise RuntimeError(f"golden check failed: {what}")


def suite_goldens():
    out = {}
    for n in wl.SUITE_CRITERIA:
        a, b = (acceptance.run_criterion(n, seed) for seed in (1, 2))
        require(a.passed and b.passed, (a.line(), b.line()))
        require(a.detail == b.detail, f"criterion {n} detail depends on seed")
        out[str(n)] = a.detail
    return out


def atlas_goldens():
    posets, groups = wl.atlas_posets(), wl.atlas_groups()
    out = {}
    for pname, P in posets.items():
        pres, _ = paths.pi1_presentation(P, P.elements[0])
        out[pname] = {
            "simplices": [len(enumerate_simplices(P, n)) for n in range(4)],
            "presentation": [len(pres.generators), len(pres.relators)],
            "abelian_invariants": pres.abelian_invariants(),
        }
    for pname, gname in wl.ATLAS_CELLS:
        P, G, cell = posets[pname], groups[gname], f"{pname}x{gname}"
        a0 = P.elements[0]
        pres, _ = paths.pi1_presentation(P, a0)
        homs = paths.enumerate_homs(pres, G)
        reps = ch.classify_cocycles(P, G)
        require(len(reps) == paths.count_hom_classes(pres, G), cell)
        zs = ch.enumerate_cocycles(P, G)
        # a cocycle is a homomorphism plus a free value off the base point
        require(len(zs) == len(homs) * len(G) ** (len(P) - 1), cell)
        require(all(ch.is_cocycle(z) for z in zs), cell)
        entry = {"homs": len(homs), "classes": len(reps), "cocycles": len(zs),
                 "gauge": [], "connections": [], "signatures": []}
        for z in reps:
            gg = gauge.gauge_group(z)
            require(gg == gauge.gauge_group_raw(z), cell)
            entry["gauge"].append(len(gg))
            us = cn.enumerate_connections(P, G, z)
            entry["connections"].append(len(us))
            entry["signatures"].append(
                [wl.connection_signature(u, a0) for u in us])
            if cell in HOLONOMY_ORACLE_CELLS:
                for u in us:
                    require(cn.holonomy(u, a0) == cn.holonomy_by_loops(
                        u, a0, ORACLE_LOOP_LEN), cell)
        out[cell] = entry
    return out


def separated(P, p, q):
    """Whether some Z2- or Z3-valued cocycle tells p from q, which
    proves them not homotopic (cocycles are homotopy invariant)."""
    for G in (cyclic_group(2), cyclic_group(3)):
        for z in ch.classify_cocycles(P, G):
            if ch.extend_to_path(z, p) != ch.extend_to_path(z, q):
                return True
    return False


def homotopy_pool():
    posets = wl.homotopy_posets()
    rng = random.Random(POOL_SEED)
    pool = {}
    for pname, bases in POOL_BASES.items():
        P = posets[pname]
        entries = []
        for base in bases:
            loops = cn.enumerate_loops(P, base, wl.LOOP_MAX_LEN)
            for _ in range(POOL_PER_BASE):
                p, q = rng.choice(loops), rng.choice(loops)
                v = paths.homotopic(p, q, P, wl.HOMOTOPY_BOUND)
                steps = 0
                if v.status == "yes":
                    require(wl.certificate_ok(v.certificate, p, q, P),
                            p.encode())
                    steps = len(v.certificate) - 1
                elif v.status == "no":
                    require(separated(P, p, q), (p.encode(), q.encode()))
                entries.append([base, p.encode(), q.encode(), v.status, steps])
        pool[pname] = entries
    return pool


def cli_goldens(pool):
    workdir = wl.BENCH / ".work" / "goldens"
    wl.write_cli_fixtures(workdir, pool)
    env = wl.library_env(ROOT)
    out = {}
    try:
        for inv in wl.CLI_INVOCATIONS:
            r = subprocess.run(
                [sys.executable, "-m", "posetbundle.cli", *inv.split()],
                cwd=workdir, env=env, capture_output=True, timeout=120,
                check=False)
            require(r.returncode in (0, 1), (inv, r.stderr))
            out[inv] = [r.returncode, wl.digest(r.stdout), wl.digest(r.stderr)]
    finally:
        wl.shutil.rmtree(workdir, ignore_errors=True)
    return out


def main():
    goldens = {"suite": suite_goldens(), "atlas": atlas_goldens(),
               "homotopy": homotopy_pool()}
    goldens["cli"] = cli_goldens(goldens["homotopy"])
    wl.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.GOLDENS}")


if __name__ == "__main__":
    main()
