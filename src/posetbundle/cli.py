"""Command-line front end: a table of commands, input loading, dispatch
and deterministic reports.

Every command is one row of `COMMANDS`: its name, its handler, the input
files it loads (poset, group, cochain), its further arguments and its
help.  `run` parses the arguments, loads every input file into the
object it describes and hands the result to the handler, which only
builds the report.

Exit codes: 0 for success / true verdicts, 1 for false verdicts,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path as FilePath

from . import acceptance
from . import connections as cn
from .cochains import (
    classify_cocycles,
    coboundary,
    cocycle_violations,
    format_cochain_text,
    is_cocycle,
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


def _parse_path(text) -> Path:
    """Path files list 1-simplices, first step written last."""
    chunks = re.findall(r"\([^()]*\)", text)
    if not chunks:
        raise UsageError("path file contains no 1-simplices")
    return Path(tuple(parse_simplex1(c) for c in reversed(chunks)))


# How each kind of input file becomes an object; a cochain or an
# assignment is read against the poset and group loaded before it.
LOADERS = {
    "poset": lambda text, args: parse_poset_text(text),
    "group": lambda text, args: parse_group_text(text),
    "cochain": lambda text, args: parse_cochain_text(text, args.poset,
                                                     args.group),
    "path": lambda text, args: _parse_path(text),
    "assignment": lambda text, args: parse_assignment_text(text, args.poset,
                                                           args.group),
}


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
#
# Handlers receive the parsed arguments with every input file already
# loaded and return (exit code, report); a report of None prints nothing.


def cmd_validate(args):
    P = args.poset
    return 0, {
        "poset": P.name,
        "elements": len(P),
        "order-pairs": len(P.pairs()),
        "directed": is_directed(P),
        "totally-ordered": is_totally_ordered(P),
        "pathwise-connected": is_pathwise_connected(P),
    }


def cmd_gen(args):
    P = generate(args.kind, args.n)
    text = format_poset_text(P)
    if args.output:
        FilePath(args.output).write_text(text)
        return 0, {"wrote": args.output, "poset": P.name}
    sys.stdout.write(text)
    return 0, None


def cmd_simplices(args):
    P = args.poset
    simplices = enumerate_simplices(P, args.dim, inflating_only=args.inflating)
    report = {
        "poset": P.name,
        "dim": args.dim,
        "inflating-only": args.inflating,
        "count": len(simplices),
        "simplices": [d.encode() for d in simplices[: args.limit]],
    }
    if len(simplices) > args.limit:
        report["truncated-at"] = args.limit
    return 0, report


def cmd_pi1(args):
    P = args.poset
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
    verdict = homotopic(args.path1, args.path2, args.poset, args.bound)
    report = {
        "poset": args.poset.name,
        "bound": args.bound,
        "status": verdict.status,
    }
    if verdict.status == "yes":
        report["certificate-steps"] = len(verdict.certificate) - 1
    return (0 if verdict.status == "yes" else 1), report


def cmd_group_validate(args):
    G = args.group
    return 0, {
        "group": G.name,
        "order": len(G),
        "identity": G.identity,
        "abelian": G.is_abelian(),
        "center": list(G.center()),
    }


def _header(args):
    return {"poset": args.poset.name, "group": args.group.name}


def cmd_check_cocycle(args):
    ok = is_cocycle(args.cochain)
    report = {**_header(args), "cocycle": ok}
    if not ok:
        report["violations"] = [
            c.encode() for c in cocycle_violations(args.cochain)[: args.limit]
        ]
    return (0 if ok else 1), report


def cmd_classify_cocycles(args):
    P, G = args.poset, args.group
    reps = classify_cocycles(P, G, limit=args.limit)
    return 0, {
        **_header(args),
        "classes": len(reps),
        "representatives": [
            " ".join(f"{b.encode()}={z(b)}" for b in enumerate_simplices(P, 1)
                     if z(b) != G.identity) or "(trivial)"
            for z in reps
        ],
    }


def cmd_dd_check(args):
    x = coboundary(coboundary(args.cochain))
    ok = all(g == args.group.identity for g in x.values.values())
    return (0 if ok else 1), {**_header(args), "second-coboundary-trivial": ok}


def cmd_curvature(args):
    w = cn.curvature(args.cochain)
    nontrivial = [
        f"{c.encode()} -> {w(c)}"
        for c in enumerate_simplices(args.poset, 2)
        if w(c) != args.group.identity
    ]
    return 0, {
        **_header(args),
        "flat": not nontrivial,
        "nontrivial-values": nontrivial[: args.limit],
        "nontrivial-count": len(nontrivial),
    }


def cmd_induce(args):
    z = cn.induced_cocycle(args.cochain)
    return 0, {"cochain": format_cochain_text(z, name="induced")}


def cmd_holonomy(args):
    u = args.cochain
    base = args.base or base_point(args.poset)
    report = {**_header(args), "base": base,
              "holonomy": list(cn.holonomy(u, base))}
    if args.restricted:
        report["restricted-holonomy"] = list(cn.restricted_holonomy(u, base))
    return 0, report


def cmd_nonflat(args):
    z = args.cocycle or trivial_cochain1(args.poset, args.group)
    b = parse_simplex1(args.edge) if args.edge else None
    u, witness = cn.construct_nonflat(z, b, args.g)
    return 0, {
        "cochain": format_cochain_text(u, name="nonflat"),
        "witness": witness.encode() if witness else "(none)",
        "flat": cn.is_flat(u),
    }


def cmd_reduce(args):
    base = args.base or base_point(args.poset)
    u1, f, H = cn.ambrose_singer_reduce(args.cochain, base)
    return 0, {
        "cochain": format_cochain_text(u1, name="reduced"),
        "base": base,
        "holonomy": list(H.elements),
        "morphism": [f"{a} = {g}" for a, g in f.assignment],
    }


def cmd_gauge_group(args):
    gg = gauge_group(args.cochain)
    return 0, {
        **_header(args),
        "size": len(gg),
        "transformations": [
            " ".join(f"{a}={g}" for a, g in t.assignment) for t in gg
        ],
    }


def cmd_gauge_act(args):
    u, f = args.cochain, args.transform
    if not is_gauge_transformation(cn.induced_cocycle(u), f):
        raise UsageError(
            "the transform file is not a gauge transformation of the "
            "connection's bundle"
        )
    return 0, {"cochain": format_cochain_text(gauge_act(f, u),
                                              name="transformed")}


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


def _fixture_problems(directory):
    """What is wrong with the fixture files, one line per file."""
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
    return problems


def cmd_suite(args):
    """Write and validate the fixtures, then run the acceptance criteria.

    Text mode prints as it goes, since the criteria take a while; JSON
    mode returns one report of the fixtures and the criteria.
    """
    directory = FilePath(args.fixtures)
    written = sorted(_write_fixtures(directory))
    problems = _fixture_problems(directory)
    text = args.format == "text"
    if text:
        if written:
            print(f"fixtures written: {' '.join(written)}")
        print(f"fixture validation [{'FAIL' if problems else 'PASS'}]")
        for problem in problems:
            print(f"  {problem}")
    results = () if problems else acceptance.run_all(seed=args.seed)
    passed = sum(r.passed for r in results)
    if text and not problems:
        for result in results:
            print(result.line())
        print(f"suite: {passed}/{len(results)} criteria passed")
    code = 0 if not problems and passed == len(results) else 1
    if text:
        return code, None
    return code, {
        "fixtures-written": written,
        "fixture-problems": problems,
        "criteria": [asdict(r) for r in results],
        "passed": passed,
    }


# -- the command table -----------------------------------------------------


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def arg(*flags, load=None, **kwargs):
    """An argument: argparse flags and options, and the `LOADERS` kind
    that turns the named file into an object, if it names one."""
    return flags, load, kwargs


BASE = arg("--base")
LIMIT = arg("--limit", type=_nonnegative_int, default=100)

# name, handler, input files loaded in order, further arguments, help
# (None: the command is not listed in --help)
COMMANDS = (
    ("validate", cmd_validate, "poset", (), "check a poset file"),
    ("gen", cmd_gen, "", (arg("kind", choices=("chain", "vee", "circle")),
                          arg("n", type=int), arg("-o", "--output")),
     "generate a fixture poset"),
    ("simplices", cmd_simplices, "poset",
     (arg("--dim", type=int, default=1),
      arg("--inflating", action="store_true"), LIMIT),
     "enumerate singular simplices"),
    ("pi1", cmd_pi1, "poset", (BASE,), "present the fundamental group"),
    ("homotopic", cmd_homotopic, "poset",
     (arg("path1", load="path"), arg("path2", load="path"),
      arg("--bound", type=int, default=6)),
     "bounded homotopy test"),
    ("group-validate", cmd_group_validate, "group", (), "check a group file"),
    ("check-cocycle", cmd_check_cocycle, "poset group cochain", (LIMIT,),
     None),
    ("dd-check", cmd_dd_check, "poset group cochain", (), None),
    ("curvature", cmd_curvature, "poset group cochain", (LIMIT,), None),
    ("induce", cmd_induce, "poset group cochain", (), None),
    ("gauge-group", cmd_gauge_group, "poset group cochain", (), None),
    ("classify-cocycles", cmd_classify_cocycles, "poset group",
     (arg("--limit", type=_nonnegative_int, default=10 ** 6),), None),
    ("holonomy", cmd_holonomy, "poset group cochain",
     (BASE, arg("--restricted", action="store_true")), None),
    ("nonflat", cmd_nonflat, "poset group",
     (arg("--cocycle", load="cochain"), arg("--edge"), arg("--g")), None),
    ("reduce", cmd_reduce, "poset group cochain", (BASE,), None),
    ("gauge-act", cmd_gauge_act, "poset group cochain",
     (arg("--transform", required=True, load="assignment"),), None),
    ("suite", cmd_suite, "",
     (arg("--fixtures", default="fixtures"),
      arg("--seed", type=int, default=acceptance.DEFAULT_SEED)),
     "run the acceptance criteria"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="posetbundle",
        description="Non-Abelian cohomology of finite posets: simplices, "
        "cocycles, connections, holonomy and gauge transformations.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, inputs, extra, help_ in COMMANDS:
        p = sub.add_parser(name, **({"help": help_} if help_ else {}))
        loads = []
        for flags, load, kwargs in [arg(kind, load=kind)
                                    for kind in inputs.split()] + list(extra):
            action = p.add_argument(*flags, **kwargs)
            if load:
                loads.append((action.dest, load))
        p.set_defaults(fn=fn, loads=loads)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for dest, load in args.loads:
            path = getattr(args, dest)
            if path is not None:
                setattr(args, dest, LOADERS[load](_read(path), args))
        code, report = args.fn(args)
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
