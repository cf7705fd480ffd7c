"""Command-line front end: file loading, dispatch, deterministic reports.

Exit codes: 0 for success / true verdicts, 1 for false verdicts,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path as FilePath

from . import acceptance
from . import connections as cn
from .cochains import (
    classify_cocycles,
    coboundary,
    enumerate_cocycles,
    format_cochain_text,
    format_assignment_text,
    is_cocycle,
    cocycle_violations,
    parse_assignment_text,
    parse_cochain_text,
    trivial_cochain1,
)
from .errors import PosetBundleError, UsageError
from .gauge import gauge_act, gauge_group, is_gauge_transformation
from .groups import format_group_text, parse_group_text
from .paths import Path, homotopic, pi1_presentation
from .poset import (
    base_point,
    format_poset_text,
    generate,
    is_directed,
    is_pathwise_connected,
    is_totally_ordered,
    parse_poset_text,
)
from .simplicial import enumerate_simplices, parse_simplex1


def _read(path):
    try:
        return FilePath(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_poset(path):
    return parse_poset_text(_read(path))


def _load_group(path):
    return parse_group_text(_read(path))


def _load_cochain(path, P, G):
    return parse_cochain_text(_read(path), P, G)


def _parse_path(text) -> Path:
    """Path files list 1-simplices, first step written last."""
    chunks = re.findall(r"\([^()]*\)", text)
    if not chunks:
        raise UsageError("path file contains no 1-simplices")
    return Path(tuple(parse_simplex1(c) for c in reversed(chunks)))


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    # In text mode a "cochain" payload goes to stdout verbatim so it can be
    # redirected into a file; any remaining report lines go to stderr.
    stream = sys.stdout
    if "cochain" in report:
        sys.stdout.write(report.pop("cochain"))
        stream = sys.stderr
    for key, value in report.items():
        if isinstance(value, (list, tuple)):
            print(f"{key}:", file=stream)
            for item in value:
                print(f"  {item}", file=stream)
        else:
            print(f"{key}: {value}", file=stream)


# -- commands --------------------------------------------------------------


def cmd_validate(args):
    P = _load_poset(args.poset)
    report = {
        "poset": P.name,
        "elements": len(P),
        "order-pairs": len(P.pairs()),
        "directed": is_directed(P),
        "totally-ordered": is_totally_ordered(P),
        "pathwise-connected": is_pathwise_connected(P),
    }
    return 0, report


def cmd_gen(args):
    P = generate(args.kind, args.n)
    text = format_poset_text(P)
    if args.output:
        FilePath(args.output).write_text(text)
        return 0, {"wrote": args.output, "poset": P.name}
    sys.stdout.write(text)
    return 0, None


def cmd_simplices(args):
    P = _load_poset(args.poset)
    simplices = enumerate_simplices(P, args.dim, inflating_only=args.inflating)
    shown = [d.encode() for d in simplices[: args.limit]]
    report = {
        "poset": P.name,
        "dim": args.dim,
        "inflating-only": args.inflating,
        "count": len(simplices),
        "simplices": shown,
    }
    if len(simplices) > args.limit:
        report["truncated-at"] = args.limit
    return 0, report


def cmd_pi1(args):
    P = _load_poset(args.poset)
    base = args.base or base_point(P)
    pres, _ = pi1_presentation(P, base)
    return 0, {
        "poset": P.name,
        "base": base,
        "generators": list(pres.generators),
        "relators": len(pres.relators),
        "abelian-invariants": pres.abelian_invariants(),
    }


def cmd_homotopic(args):
    P = _load_poset(args.poset)
    p = _parse_path(_read(args.path1))
    q = _parse_path(_read(args.path2))
    verdict = homotopic(p, q, P, args.bound)
    report = {
        "poset": P.name,
        "bound": args.bound,
        "status": verdict.status,
    }
    if verdict.status == "yes":
        report["certificate-steps"] = len(verdict.certificate) - 1
    return (0 if verdict.status == "yes" else 1), report


def cmd_group_validate(args):
    G = _load_group(args.group)
    return 0, {
        "group": G.name,
        "order": len(G),
        "identity": G.identity,
        "abelian": G.is_abelian(),
        "center": list(G.center()),
    }


def cmd_check_cocycle(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    z = _load_cochain(args.cochain, P, G)
    ok = is_cocycle(z)
    report = {"poset": P.name, "group": G.name, "cocycle": ok}
    if not ok:
        report["violations"] = [
            c.encode() for c in cocycle_violations(z)[: args.limit]
        ]
    return (0 if ok else 1), report


def cmd_classify_cocycles(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    reps = classify_cocycles(P, G, limit=args.limit)
    return 0, {
        "poset": P.name,
        "group": G.name,
        "classes": len(reps),
        "representatives": [
            " ".join(f"{b.encode()}={z(b)}" for b in enumerate_simplices(P, 1)
                     if z(b) != G.identity) or "(trivial)"
            for z in reps
        ],
    }


def cmd_dd_check(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    x = coboundary(coboundary(u))
    ok = all(g == G.identity for g in x.values.values())
    return (0 if ok else 1), {
        "poset": P.name,
        "group": G.name,
        "second-coboundary-trivial": ok,
    }


def cmd_curvature(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    w = cn.curvature(u)
    nontrivial = [
        f"{c.encode()} -> {w(c)}"
        for c in enumerate_simplices(P, 2)
        if w(c) != G.identity
    ]
    return 0, {
        "poset": P.name,
        "group": G.name,
        "flat": not nontrivial,
        "nontrivial-values": nontrivial[: args.limit],
        "nontrivial-count": len(nontrivial),
    }


def cmd_induce(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    z = cn.induced_cocycle(u)
    return 0, {"cochain": format_cochain_text(z, name="induced")}


def cmd_holonomy(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    base = args.base or base_point(P)
    report = {
        "poset": P.name,
        "group": G.name,
        "base": base,
        "holonomy": list(cn.holonomy(u, base)),
    }
    if args.restricted:
        report["restricted-holonomy"] = list(cn.restricted_holonomy(u, base))
    return 0, report


def cmd_nonflat(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    if args.cocycle:
        z = _load_cochain(args.cocycle, P, G)
    else:
        z = trivial_cochain1(P, G)
    b = parse_simplex1(args.edge) if args.edge else None
    u, witness = cn.construct_nonflat(z, b, args.g)
    return 0, {
        "cochain": format_cochain_text(u, name="nonflat"),
        "witness": witness.encode() if witness else "(none)",
        "flat": cn.is_flat(u),
    }


def cmd_reduce(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    base = args.base or base_point(P)
    u1, f, H = cn.ambrose_singer_reduce(u, base)
    return 0, {
        "cochain": format_cochain_text(u1, name="reduced"),
        "base": base,
        "holonomy": list(H.elements),
        "morphism": [f"{a} = {g}" for a, g in f.assignment],
    }


def cmd_gauge_group(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    z = _load_cochain(args.cochain, P, G)
    gg = gauge_group(z)
    return 0, {
        "poset": P.name,
        "group": G.name,
        "size": len(gg),
        "transformations": [
            " ".join(f"{a}={g}" for a, g in t.assignment) for t in gg
        ],
    }


def cmd_gauge_act(args):
    P = _load_poset(args.poset)
    G = _load_group(args.group)
    u = _load_cochain(args.cochain, P, G)
    f = parse_assignment_text(_read(args.transform), P, G)
    z = cn.induced_cocycle(u)
    if not is_gauge_transformation(z, f):
        raise UsageError(
            "the transform file is not a gauge transformation of the "
            "connection's bundle"
        )
    out = gauge_act(f, u)
    return 0, {"cochain": format_cochain_text(out, name="transformed")}


def _write_fixtures(directory):
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, P in acceptance.standard_posets().items():
        path = directory / f"{name}.poset"
        if not path.exists():
            path.write_text(format_poset_text(P))
            written.append(path.name)
    for name, G in acceptance.standard_groups().items():
        path = directory / f"{name}.group"
        if not path.exists():
            path.write_text(format_group_text(G))
            written.append(path.name)
    cochains = {
        "winding-z3": (
            acceptance.standard_posets()["circle2"],
            acceptance.standard_groups()["z3"],
            lambda P, G: acceptance.winding_cocycle(P, G, "g1"),
        ),
        "fullimage-s3": (
            acceptance.standard_posets()["twoloop"],
            acceptance.standard_groups()["s3"],
            acceptance.full_image_cocycle,
        ),
    }
    for name, (P, G, build) in cochains.items():
        path = directory / f"{name}.cochain"
        if not path.exists():
            path.write_text(format_cochain_text(build(P, G), name=name))
            written.append(path.name)
    return written


def cmd_suite(args):
    directory = FilePath(args.fixtures)
    written = _write_fixtures(directory)
    problems = []
    posets = {}
    groups = {}
    for path in sorted(directory.glob("*.poset")):
        try:
            posets[path.stem] = parse_poset_text(path.read_text())
        except PosetBundleError as exc:
            problems.append(f"{path.name}: {exc}")
    for path in sorted(directory.glob("*.group")):
        try:
            groups[path.stem] = parse_group_text(path.read_text())
        except PosetBundleError as exc:
            problems.append(f"{path.name}: {exc}")
    fixture_pairs = {"winding-z3": ("circle2", "z3"),
                     "fullimage-s3": ("twoloop", "s3")}
    for path in sorted(directory.glob("*.cochain")):
        pair = fixture_pairs.get(path.stem)
        if pair is None or pair[0] not in posets or pair[1] not in groups:
            continue
        try:
            z = parse_cochain_text(path.read_text(), posets[pair[0]],
                                   groups[pair[1]])
            if not is_cocycle(z):
                problems.append(f"{path.name}: not a cocycle")
        except PosetBundleError as exc:
            problems.append(f"{path.name}: {exc}")
    if written:
        print(f"fixtures written: {' '.join(sorted(written))}")
    if problems:
        print("fixture validation [FAIL]")
        for problem in problems:
            print(f"  {problem}")
        return 1, None
    print("fixture validation [PASS]")
    results = acceptance.run_all(seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"suite: {len(results) - len(failed)}/{len(results)} criteria passed")
    return (0 if not failed else 1), None


# -- dispatch --------------------------------------------------------------


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posetbundle",
        description="Non-Abelian cohomology of finite posets: simplices, "
        "cocycles, connections, holonomy and gauge transformations.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check a poset file")
    p.add_argument("poset")

    p = add("gen", cmd_gen, help="generate a fixture poset")
    p.add_argument("kind", choices=("chain", "vee", "circle"))
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output")

    p = add("simplices", cmd_simplices, help="enumerate singular simplices")
    p.add_argument("poset")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--inflating", action="store_true")
    p.add_argument("--limit", type=_nonnegative_int, default=100)

    p = add("pi1", cmd_pi1, help="present the fundamental group")
    p.add_argument("poset")
    p.add_argument("--base")

    p = add("homotopic", cmd_homotopic, help="bounded homotopy test")
    p.add_argument("poset")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--bound", type=int, default=6)

    p = add("group-validate", cmd_group_validate, help="check a group file")
    p.add_argument("group")

    for name, fn in (
        ("check-cocycle", cmd_check_cocycle),
        ("dd-check", cmd_dd_check),
        ("curvature", cmd_curvature),
        ("induce", cmd_induce),
        ("gauge-group", cmd_gauge_group),
    ):
        p = add(name, fn)
        p.add_argument("poset")
        p.add_argument("group")
        p.add_argument("cochain")
        p.add_argument("--limit", type=_nonnegative_int, default=100)

    p = add("classify-cocycles", cmd_classify_cocycles)
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--limit", type=_nonnegative_int, default=10 ** 6)

    p = add("holonomy", cmd_holonomy)
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("cochain")
    p.add_argument("--base")
    p.add_argument("--restricted", action="store_true")

    p = add("nonflat", cmd_nonflat)
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("--cocycle")
    p.add_argument("--edge")
    p.add_argument("--g")

    p = add("reduce", cmd_reduce)
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("cochain")
    p.add_argument("--base")

    p = add("gauge-act", cmd_gauge_act)
    p.add_argument("poset")
    p.add_argument("group")
    p.add_argument("cochain")
    p.add_argument("--transform", required=True)

    p = add("suite", cmd_suite, help="run the acceptance criteria")
    p.add_argument("--fixtures", default="fixtures")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosetBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        _emit(report, args.format)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
