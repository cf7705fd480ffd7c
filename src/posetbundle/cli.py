"""Command-line front end: a table of commands, input loading, dispatch
and deterministic reports.

Every command is one row of `COMMANDS`: its name, its handler, its
arguments and its help; the argument of an input file names its loader.
`run` parses argv against the table (`parse`), loads the input files in
row order, each into the object it describes, and hands the result to
the handler, which only builds the report.

Exit codes: 0 for success / true verdicts, 1 for false verdicts,
2 for usage, input or output errors.  An input error ends with the
file it came from and, when it is about one line, the line number.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from itertools import compress, islice
from pathlib import Path as FilePath
from types import SimpleNamespace

from .errors import PosetBundleError, UsageError, located

# Each handler and loader imports the library modules it uses, and a
# library module imports at its top only what it runs, never a name it
# needs only in annotations; so a command compiles only the modules it
# runs (tests/test_imports.py lists them), and `suite` alone loads
# `acceptance`.


@contextmanager
def _os_errors(doing):
    """Report an `OSError`, a file that is not text in the locale's
    encoding, or a path holding NUL (a `ValueError` "embedded null
    byte"), raised inside as the usage error "cannot <doing>: <the
    error>", such as "cannot read x.poset: ..."."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot {doing}: {exc}") from None
    except ValueError as exc:
        if str(exc) != "embedded null byte":
            raise
        raise UsageError(f"cannot {doing}: {exc}") from None


def _load_poset(text, args):
    from .poset import parse_poset_text
    return parse_poset_text(text)


def _load_group(text, args):
    from .groups import parse_group_text
    return parse_group_text(text)


def _load_cochain(text, args):
    from .cochains import parse_cochain_text
    return parse_cochain_text(text, args.poset, args.group)


def _load_assignment(text, args):
    from .cochains import parse_assignment_text
    return parse_assignment_text(text, args.poset, args.group)


def _load_path(text, args):
    from .paths import parse_path_text
    return parse_path_text(text, args.poset)


def _emit(report, fmt):
    if fmt == "json":
        import json
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


def _base(args):
    """The `--base` point, or the poset's base point without one."""
    from .poset import base_point
    return base_point(args.poset) if args.base is None else args.base


def cmd_validate(args):
    from .poset import is_directed, is_pathwise_connected, is_totally_ordered

    P = args.poset
    return 0, {
        "poset": P.name,
        "elements": len(P),
        "order-pairs": sum(map(int.bit_count, P.up)),
        "directed": is_directed(P),
        "totally-ordered": is_totally_ordered(P),
        "pathwise-connected": is_pathwise_connected(P),
    }


def cmd_gen(args):
    from .poset import format_poset_text, generate

    P = generate(args.kind, args.n)
    text = format_poset_text(P)
    if args.output is not None:
        with _os_errors(f"write {args.output}"):
            FilePath(args.output).write_text(text)
        return 0, {"wrote": args.output, "poset": P.name}
    if args.format == "json":
        return 0, {"poset": P.name, "text": text}
    sys.stdout.write(text)
    return 0, None


def cmd_simplices(args):
    from .simplicial import complex_of

    P = args.poset
    cells = complex_of(P)[args.dim]
    ids = range(len(cells.support))
    if args.inflating:
        ids = list(compress(ids, cells.inflating))
    report = {
        "poset": P.name,
        "dim": args.dim,
        "inflating-only": args.inflating,
        "count": len(ids),
        "simplices": [cells.encode(i) for i in ids[: args.limit]],
    }
    if len(ids) > args.limit:
        report["truncated-at"] = args.limit
    return 0, report


def cmd_pi1(args):
    from .paths import pi1_presentation

    base = _base(args)
    pres, _ = pi1_presentation(args.poset, base)
    return 0, {
        "poset": args.poset.name,
        "base": base,
        "generators": list(pres.generators),
        "relators": len(pres.relators),
        "abelian-invariants": pres.abelian_invariants(),
    }


def cmd_homotopic(args):
    from .paths import homotopic

    verdict = homotopic(args.path1, args.path2, args.poset, args.bound, args.limit)
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
    from .cochains import identity_failures, is_cocycle
    from .simplicial import complex_of

    ok = is_cocycle(args.cochain)
    report = {**_header(args), "cocycle": ok}
    if not ok:
        report["violations"] = list(map(
            complex_of(args.poset)[2].encode,
            islice(identity_failures(args.cochain), args.limit)))
    return (0 if ok else 1), report


def cmd_classify_cocycles(args):
    from .cochains import classify_cocycles

    G = args.group
    reps = classify_cocycles(args.poset, G, limit=args.limit)
    return 0, {
        **_header(args),
        "classes": len(reps),
        "representatives": [
            " ".join(f"{z.cells.encode(i)}={G.elements[g]}"
                     for i, g in enumerate(z.ids) if g != G.unit)
            or "(trivial)"
            for z in reps
        ],
    }


def cmd_dd_check(args):
    from .cochains import coboundary, is_cocycle

    ok = is_cocycle(coboundary(args.cochain))
    return (0 if ok else 1), {**_header(args), "second-coboundary-trivial": ok}


def cmd_curvature(args):
    from . import connections as cn

    G = args.group
    w = cn.curvature(args.cochain)
    nontrivial = [f"{w.cells.encode(i)} -> {G.elements[g]}"
                  for i, g in enumerate(w.ids) if g != G.unit]
    return 0, {
        **_header(args),
        "flat": not nontrivial,
        "nontrivial-values": nontrivial[: args.limit],
        "nontrivial-count": len(nontrivial),
    }


def cmd_induce(args):
    from . import connections as cn
    from .cochains import format_cochain_text

    z = cn.induced_cocycle(args.cochain)
    return 0, {"cochain": format_cochain_text(z, name="induced")}


def cmd_holonomy(args):
    from . import connections as cn

    u, base = args.cochain, _base(args)
    report = {**_header(args), "base": base,
              "holonomy": list(cn.holonomy(u, base))}
    if args.restricted:
        report["restricted-holonomy"] = list(cn.restricted_holonomy(u, base))
    return 0, report


def cmd_nonflat(args):
    from . import connections as cn
    from .cochains import format_cochain_text, trivial_cochain1
    from .simplicial import parse_simplex1

    z = args.cocycle or trivial_cochain1(args.poset, args.group)
    b = None if args.edge is None else parse_simplex1(args.edge)
    u, witness = cn.construct_nonflat(z, b, args.g)
    return 0, {
        "cochain": format_cochain_text(u, name="nonflat"),
        "witness": witness.encode(),
        "flat": cn.is_flat(u),
    }


def cmd_reduce(args):
    from . import connections as cn
    from .cochains import format_cochain_text

    base = _base(args)
    u1, f, H = cn.ambrose_singer_reduce(args.cochain, base)
    return 0, {
        "cochain": format_cochain_text(u1, name="reduced"),
        "base": base,
        "holonomy": list(H.elements),
        "morphism": [f"{a} = {g}" for a, g in f.assignment],
    }


def cmd_gauge_group(args):
    from .gauge import gauge_group

    gg = gauge_group(args.cochain)
    return 0, {
        **_header(args),
        "size": len(gg),
        "transformations": [
            " ".join(f"{a}={g}" for a, g in t.assignment) for t in gg
        ],
    }


def cmd_gauge_act(args):
    from . import connections as cn
    from .cochains import format_cochain_text
    from .gauge import gauge_act, is_gauge_transformation

    u, f = args.cochain, args.transform
    if not is_gauge_transformation(cn.induced_cocycle(u), f):
        raise UsageError(
            "the transform file is not a gauge transformation of the "
            "connection's bundle"
        )
    return 0, {"cochain": format_cochain_text(gauge_act(f, u),
                                              name="transformed")}


def cmd_suite(args):
    """Write and validate the fixtures, then run the acceptance criteria.

    Text mode prints as it goes, each criterion's line as soon as that
    criterion has run; JSON mode returns one report of the fixtures and
    the criteria.
    """
    from . import acceptance

    if not args.fixtures:  # `FilePath("")` is the working directory
        raise UsageError("--fixtures '' names no directory")
    directory = FilePath(args.fixtures)
    with _os_errors(f"write {directory}"):
        written = sorted(acceptance.write_fixtures(directory))
    problems = acceptance.fixture_problems(directory)
    text = args.format == "text"
    if text:
        if written:
            print(f"fixtures written: {' '.join(written)}")
        print(f"fixture validation [{'FAIL' if problems else 'PASS'}]")
        for problem in problems:
            print(f"  {problem}")
    results = []
    if not problems:
        seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
        for result in acceptance.run_all(seed=seed):
            results.append(result)
            if text:
                print(result.line(), flush=True)
    passed = sum(r.passed for r in results)
    if text and not problems:
        print(f"suite: {passed}/{len(results)} criteria passed")
    code = 0 if not problems and passed == len(results) else 1
    if text:
        return code, None
    return code, {
        "fixtures-written": written,
        "fixture-problems": problems,
        "criteria": [vars(r) for r in results],
        "passed": passed,
    }


# -- the command table -----------------------------------------------------


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"not an integer: {text!r}") from None
    if value < 0:
        raise UsageError(f"must be >= 0, got {value}")
    return value


def arg(*flags, load=None, **kwargs):
    """An argument: its flags (or its name, for a positional), how `parse`
    takes it (`type`, `choices`, `default`, `required`, or
    `action="store_true"` for a flag), and for an input file `load`, which
    makes its object from (text, args) with the inputs before it loaded."""
    return flags, load, kwargs


BASE = arg("--base")
LIMIT = arg("--limit", type=_nonnegative_int, default=100)
SEARCH_LIMIT = arg("--limit", type=_nonnegative_int, default=10 ** 6)
POSET = arg("poset", load=_load_poset)
GROUP = arg("group", load=_load_group)
COCHAIN = (POSET, GROUP, arg("cochain", load=_load_cochain))

# name, handler, arguments (input files load in this order), help
COMMANDS = (
    ("validate", cmd_validate, (POSET,), "check a poset file"),
    ("gen", cmd_gen, (arg("kind", choices=("chain", "vee", "circle")),
                      arg("n", type=int), arg("-o", "--output")),
     "generate a fixture poset"),
    ("simplices", cmd_simplices,
     (POSET, arg("--dim", type=int, default=1),
      arg("--inflating", action="store_true"), LIMIT),
     "enumerate singular simplices"),
    ("pi1", cmd_pi1, (POSET, BASE), "present the fundamental group"),
    ("homotopic", cmd_homotopic,
     (POSET, arg("path1", load=_load_path), arg("path2", load=_load_path),
      arg("--bound", type=_nonnegative_int, default=6), SEARCH_LIMIT),
     "bounded homotopy test"),
    ("group-validate", cmd_group_validate, (GROUP,), "check a group file"),
    ("check-cocycle", cmd_check_cocycle, (*COCHAIN, LIMIT),
     "check the cocycle identity"),
    ("dd-check", cmd_dd_check, COCHAIN,
     "check that the second coboundary is trivial"),
    ("curvature", cmd_curvature, (*COCHAIN, LIMIT),
     "curvature of a connection"),
    ("induce", cmd_induce, COCHAIN, "the cocycle a connection induces"),
    ("gauge-group", cmd_gauge_group, COCHAIN,
     "gauge group of a cocycle's bundle"),
    ("classify-cocycles", cmd_classify_cocycles, (POSET, GROUP, SEARCH_LIMIT),
     "one cocycle of each class"),
    ("holonomy", cmd_holonomy,
     (*COCHAIN, BASE, arg("--restricted", action="store_true")),
     "holonomy group of a connection"),
    ("nonflat", cmd_nonflat,
     (POSET, GROUP, arg("--cocycle", load=_load_cochain), arg("--edge"),
      arg("--g")),
     "build a connection that is not flat"),
    ("reduce", cmd_reduce, (*COCHAIN, BASE),
     "Ambrose-Singer reduction of a connection"),
    ("gauge-act", cmd_gauge_act,
     (*COCHAIN, arg("--transform", required=True, load=_load_assignment)),
     "apply a gauge transformation to a connection"),
    ("suite", cmd_suite,
     (arg("--fixtures", default="fixtures"), arg("--seed", type=int)),
     "run the acceptance criteria"),
)


# -- parsing ---------------------------------------------------------------
#
# `parse` reads argv against the rows of `COMMANDS` by the rules of the
# argparse module it replaced, whose import and parser set-up cost more
# than most commands spend on their own work.  `--format` goes before
# the command.  The command's positionals come in order, and its options
# before, between or after them, as `--name value`, `--name=value`, a
# unique prefix of a long name, `-o value` or `-ovalue`.  A token that
# names no option is a positional if it is `-`, does not begin with `-`,
# reads as a negative number or holds a space; any other is an unknown
# option.  After `--`, every token is a positional.  Where no bytecode is
# written (`PYTHONDONTWRITEBYTECODE`), every command compiles each line
# below again, so the parser is kept short.

PROG = "posetbundle"
DESCRIPTION = ("Non-Abelian cohomology of finite posets: simplices, cocycles,\n"
               "connections, holonomy and gauge transformations.")
HELP = arg("-h", "--help", action="help")
COMMAND = arg("command", choices=tuple(row[0] for row in COMMANDS))
TOP = (arg("--format", choices=("text", "json"), default="text"), COMMAND)


def _dest(spec):
    return spec[0][-1].lstrip("-").replace("-", "_")


def _split(specs):
    """The positionals of `specs`, and each option by each of its flags."""
    return ([s for s in specs if s[0][0][0] != "-"],
            {f: s for s in (HELP, *specs) for f in s[0] if f[0] == "-"})


def _usage(prog, specs):
    """The usage line as argparse writes it: options first."""
    options, positionals = ["[-h]"], []
    for spec in specs:
        flags, _, kwargs = spec
        meta = _dest(spec).upper() if flags[0][0] == "-" else flags[0]
        if "choices" in kwargs:
            meta = "{" + ",".join(kwargs["choices"]) + "}"
        if spec is COMMAND:
            meta = "COMMAND ..."
        if flags[0][0] != "-":
            positionals.append(meta)
            continue
        word = flags[0] if "action" in kwargs else f"{flags[0]} {meta}"
        options.append(word if kwargs.get("required") else f"[{word}]")
    return " ".join(["usage:", prog, *options, *positionals])


def _option(token, options):
    """How `token` reads among `options`: None for a positional, else
    the spec of the option it names (None for an unknown option) and
    the value it carries after `=` or after a one-letter flag."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token in options or token == "--":
        return options.get(token), None
    if eq and name in options:
        return options[name], value
    if token[:2] == "--":
        matches = [flag for flag in options if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match "
                             f"{', '.join(matches)}")
        if matches:
            return options[matches[0]], value if eq else None
    elif token[:2] in options:
        return options[token[:2]], token[2:]
    if " " in token or re.match(r"-\d+$|-\d*\.\d+$", token):
        return None
    return None, None


def _value(spec, text):
    """`text` converted and checked as the value of `spec`."""
    flags, _, kwargs = spec
    try:
        value = kwargs.get("type", str)(text)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"argument {'/'.join(flags)}: {exc}") from None
    if value not in kwargs.get("choices", (value,)):
        raise UsageError(f"argument {'/'.join(flags)}: invalid choice: "
                         f"{value!r} (choose from "
                         f"{', '.join(kwargs['choices'])})")
    return value


def parse(argv):
    """The row of `COMMANDS` that `argv` names and the parsed arguments,
    or None once the help that argv asks for is printed.  A usage error
    raises a `UsageError` whose text is a usage line and an error line."""
    prog, specs, row, args = PROG, TOP, None, SimpleNamespace()
    tokens, strays, ended = list(argv), [], False
    positionals, options = _split(specs)
    try:
        while tokens:
            token = tokens.pop(0)
            if token == "--" and row and not ended:
                ended = True
                continue
            found = None if ended else _option(token, options)
            if found is None and positionals:
                spec = positionals.pop(0)
                setattr(args, _dest(spec), _value(spec, token))
                if spec is COMMAND:
                    # The command's own arguments follow it.
                    row = next(r for r in COMMANDS if r[0] == token)
                    prog, specs = f"{PROG} {token}", row[2]
                    positionals, options = _split(specs)
            elif found is None or found[0] is None:
                strays.append(token)
            else:
                spec, value = found
                flags, _, kwargs = spec
                action = kwargs.get("action")
                if action and value is not None:
                    raise UsageError(f"argument {'/'.join(flags)}: ignored "
                                     f"explicit argument {value!r}")
                if action == "help":
                    print(_usage(prog, specs), "", row[3] if row else
                          DESCRIPTION, sep="\n")
                    if not row:
                        print("", *(f"  {r[0]:<19}{r[3]}" for r in COMMANDS),
                              sep="\n")
                    return None
                if not action and value is None:
                    if not tokens or _option(tokens[0], options) is not None:
                        raise UsageError(f"argument {'/'.join(flags)}: "
                                         "expected one argument")
                    value = tokens.pop(0)
                setattr(args, _dest(spec),
                        True if action else _value(spec, value))
        missing = positionals + [s for s in specs if s[2].get("required")
                                 and not hasattr(args, _dest(s))]
        if missing:
            raise UsageError("the following arguments are required: "
                             + ", ".join("/".join(s[0]) for s in missing))
        if strays:
            raise UsageError(f"unrecognized arguments: {' '.join(strays)}")
    except UsageError as exc:
        raise UsageError(f"{_usage(prog, specs)}\n{prog}: error: {exc}") \
            from None
    for spec in (*TOP, *specs):
        if not hasattr(args, _dest(spec)):
            setattr(args, _dest(spec), spec[2].get(
                "default", False if "action" in spec[2] else None))
    return row, args


def run(argv=None) -> int:
    try:
        parsed = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    if parsed is None:
        return 0
    row, args = parsed
    try:
        for spec in row[2]:
            path = getattr(args, _dest(spec))
            if spec[1] and path is not None:
                with _os_errors(f"read {path}"):
                    text = FilePath(path).read_text()
                with located(f" in {path}"):
                    setattr(args, _dest(spec), spec[1](text, args))
        code, report = row[1](args)
    except PosetBundleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        _emit(report, args.format)
    return code


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early: an output error.  Pointing
        # stdout at devnull keeps the exit-time flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
