import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetbundle
from posetbundle import acceptance, cli
from posetbundle.acceptance import (
    CriterionResult,
    standard_posets,
    winding_cocycle,
)
from posetbundle.cochains import format_cochain_text, parse_cochain_text
from posetbundle.groups import cyclic_group, format_group_text, symmetric_group
from posetbundle.poset import GENERATE_LIMIT, format_poset_text, generate

Z3 = cyclic_group(3)
SRC = str(Path(posetbundle.__file__).parents[1])

EXPECTED_COMMANDS = {
    "validate", "gen", "simplices", "pi1", "homotopic", "group-validate",
    "check-cocycle", "classify-cocycles", "dd-check", "curvature", "induce",
    "holonomy", "nonflat", "reduce", "gauge-group", "gauge-act", "suite",
}


@pytest.fixture
def workspace(tmp_path):
    P = standard_posets()["circle2"]
    (tmp_path / "circle2.poset").write_text(format_poset_text(P))
    (tmp_path / "chain3.poset").write_text(
        format_poset_text(standard_posets()["chain3"])
    )
    (tmp_path / "z3.group").write_text(format_group_text(Z3))
    z = winding_cocycle(P, Z3, "g1")
    (tmp_path / "winding.cochain").write_text(
        format_cochain_text(z, name="winding")
    )
    return tmp_path


def run(args):
    return cli.run([str(a) for a in args])


def test_dispatch_covers_every_command(capsys):
    """Each row of the table names a command, its `cmd_` handler and a
    help line; `--help` lists them all, and each command's own help
    begins with its usage."""
    assert {row[0] for row in cli.COMMANDS} == EXPECTED_COMMANDS
    for name, fn, _, help_ in cli.COMMANDS:
        assert fn is getattr(cli, "cmd_" + name.replace("-", "_"))
        assert help_
    assert run(["--help"]) == 0
    listed = [line.split(None, 1) for line in capsys.readouterr().out.
              splitlines() if line[:2] == "  " and line[2] != "-"]
    assert listed == [[name, help_] for name, _, _, help_ in cli.COMMANDS]
    for command in EXPECTED_COMMANDS:
        assert run([command, "-h"]) == 0
        assert capsys.readouterr().out.startswith(
            f"usage: posetbundle {command} [-h]")


def test_gen_and_validate(tmp_path, capsys):
    out = tmp_path / "c.poset"
    assert run(["gen", "circle", "3", "-o", out]) == 0
    assert run(["validate", out]) == 0
    text = capsys.readouterr().out
    assert "pathwise-connected: True" in text


def test_gen_checks_its_size_before_any_work(capsys):
    assert GENERATE_LIMIT == 500
    for kind, n in (("circle", 99999999999), ("chain", 100000),
                    ("circle", 251), ("chain", 501)):
        assert run(["gen", kind, n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed the limit 500" in captured.err
    assert run(["gen", "circle", 250]) == 0
    assert capsys.readouterr().out.startswith("poset circle250\n")
    assert run(["gen", "chain", 400]) == 0
    assert capsys.readouterr().out.startswith("poset chain400\n")


def test_json_gen_reports_the_poset_text(tmp_path, capsys):
    assert run(["--format", "json", "gen", "circle", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "poset": "circle2", "text": format_poset_text(generate("circle", 2))}
    out = tmp_path / "c.poset"
    assert run(["--format", "json", "gen", "vee", "1", "-o", out]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "wrote": str(out), "poset": "vee"}


@pytest.mark.parametrize("argv", [
    ["gen", "circle", "2", "-o", "{tmp}"],
    ["gen", "circle", "2", "-o", "{tmp}/file/x.poset"],
    ["suite", "--fixtures", "{tmp}/file/sub"],
    ["gen", "circle", "2", "-o", ""],
])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    """An output path that cannot be written (a directory, or a path
    through a file) exits 2 with an error line, as an unreadable input
    does, not 1 with a traceback."""
    (tmp_path / "file").write_text("")
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {argv[-1]}: ")


@pytest.mark.parametrize("argv, doing", [
    (["validate", "a\x00b"], "read"),
    (["gen", "chain", "2", "-o", "a\x00b"], "write"),
    (["--format", "json", "suite", "--fixtures", "a\x00b"], "write"),
])
def test_path_holding_nul_is_usage_error(tmp_path, capsys, monkeypatch, argv,
                                         doing):
    """No process argv holds NUL, but an in-process caller's can: the
    path's `ValueError` exits 2 with an error line, not a traceback."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot {doing} a\x00b: embedded null byte\n")


def test_undecodable_input_is_usage_error(workspace, capsys):
    """An input file whose bytes are not text exits 2 with an error line
    naming it, not with a `UnicodeDecodeError` traceback."""
    data = (workspace / "z3.group").read_bytes()
    (workspace / "bad.group").write_bytes(data[:5] + b"\xff" + data[5:])
    assert run(["group-validate", workspace / "bad.group"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read "
                                   f"{workspace / 'bad.group'}: ")


@pytest.mark.parametrize("argv, message", [
    (["pi1", "circle2.poset", "--base", ""],
     "'' is not an element of circle2"),
    (["holonomy", "circle2.poset", "z3.group", "winding.cochain", "--base", ""],
     "'' is not an element of circle2"),
    (["reduce", "circle2.poset", "z3.group", "winding.cochain", "--base", ""],
     "'' is not an element of circle2"),
    (["nonflat", "circle2.poset", "z3.group", "--edge", ""],
     "bad 1-simplex encoding: ''"),
])
def test_empty_option_values_are_checked_not_defaulted(workspace, capsys,
                                                      monkeypatch, argv,
                                                      message):
    """An empty `--base` or `--edge` is a value that fails its check; only
    a missing option means the default."""
    monkeypatch.chdir(workspace)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_validate_missing_file_is_usage_error(tmp_path):
    assert run(["validate", tmp_path / "nope.poset"]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_simplices_counts(workspace, capsys):
    assert run(["simplices", workspace / "circle2.poset", "--dim", "2",
                "--limit", "5"]) == 0
    text = capsys.readouterr().out
    assert "count: 108" in text
    assert "truncated-at: 5" in text


def test_simplices_reads_the_id_tables(workspace, capsys, monkeypatch):
    """`simplices` counts and encodes from the id tables: it prints the
    enumerated simplices and builds no simplex object."""
    from posetbundle import simplicial

    P = standard_posets()["circle2"]
    expected = [[d.encode() for d in simplicial.enumerate_simplices(P, n)
                 if not inflating or simplicial.is_inflating(P, d)]
                for n in range(4) for inflating in (False, True)]

    def refuse(cells):
        raise AssertionError("simplex objects built")

    monkeypatch.setattr(simplicial.Cells, "simplices", property(refuse))
    for n, inflating in itertools.product(range(4), (False, True)):
        args = ["--format", "json", "simplices", workspace / "circle2.poset",
                "--dim", n, "--limit", 7] + ["--inflating"] * inflating
        assert run(args) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == len(expected[2 * n + inflating])
        assert report["simplices"] == expected[2 * n + inflating][:7]


def test_reports_name_simplices_by_id(tmp_path, monkeypatch):
    """`classify-cocycles` and `pi1` build no simplex objects, and
    `curvature` and `check-cocycle` on a cochain that is no cocycle build
    none of dimension 2: they name simplices through the id tables.  Only
    the cochain file's parser builds objects, of dimensions 0 and 1.
    `pi1` reads its invariants from the order complex (`Complex.nerve`)
    and factorises no relator lattice.  Each command parses a fresh
    poset, whose complex is read after it."""
    from posetbundle import poset
    from posetbundle.connections import construct_nonflat
    from posetbundle.simplicial import complex_of

    P, S3 = standard_posets()["circle2"], symmetric_group(3)
    u, _ = construct_nonflat(winding_cocycle(P, S3, "213"), None, None)
    (tmp_path / "p.poset").write_text(format_poset_text(P))
    (tmp_path / "s3.group").write_text(format_group_text(S3))
    (tmp_path / "u.cochain").write_text(format_cochain_text(u))
    monkeypatch.chdir(tmp_path)
    parsed, parse = [], poset.parse_poset_text
    monkeypatch.setattr(poset, "parse_poset_text",
                        lambda text: parsed.append(parse(text)) or parsed[-1])
    for command, code, built in (
            (["classify-cocycles", "p.poset", "s3.group"], 0, []),
            (["pi1", "p.poset"], 0, []),
            (["curvature", "p.poset", "s3.group", "u.cochain"], 0, [0, 1]),
            (["check-cocycle", "p.poset", "s3.group", "u.cochain",
              "--limit", "3"], 1, [0, 1])):
        assert run(command) == code
        K = complex_of(parsed.pop())
        assert [n for n in sorted(K._cells)
                if "simplices" in vars(K._cells[n])] == built
        if command[0] == "pi1":
            assert "lattice" not in vars(K.pi1[0]) and K.nerve is not None


def test_negative_limit_is_usage_error(workspace):
    poset, group = workspace / "circle2.poset", workspace / "z3.group"
    assert run(["simplices", poset, "--limit", "-1"]) == 2
    assert run(["classify-cocycles", poset, group, "--limit", "-1"]) == 2
    assert run(["check-cocycle", poset, group, workspace / "winding.cochain",
                "--limit", "-1"]) == 2
    assert run(["simplices", poset, "--limit", "0"]) == 0


def test_empty_poset_is_an_input_error(tmp_path, capsys):
    poset = tmp_path / "empty.poset"
    poset.write_text("poset empty\n")
    group = tmp_path / "z3.group"
    group.write_text(format_group_text(Z3))
    cochain = tmp_path / "empty.cochain"
    cochain.write_text("cochain c over empty values Z3\n")
    capsys.readouterr()
    for args in (["pi1", poset], ["classify-cocycles", poset, group],
                 ["holonomy", poset, group, cochain],
                 ["reduce", poset, group, cochain],
                 ["gauge-group", poset, group, cochain]):
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_pi1_report(workspace, capsys):
    assert run(["pi1", workspace / "circle2.poset", "--base", "a1"]) == 0
    text = capsys.readouterr().out
    assert "relators: 42" in text


def test_homotopic_exit_codes(workspace, tmp_path):
    (tmp_path / "trivial.path").write_text("(o1;a1,o1);(o1;o1,a1)\n")
    (tmp_path / "degen.path").write_text("(a1;a1,a1)\n")
    (tmp_path / "winding.path").write_text(
        "(o2;a1,o2);(o2;o2,a2);(o1;a2,o1);(o1;o1,a1)\n"
    )
    poset = workspace / "circle2.poset"
    assert run(["homotopic", poset, tmp_path / "trivial.path",
                tmp_path / "degen.path", "--bound", "4"]) == 0
    assert run(["homotopic", poset, tmp_path / "winding.path",
                tmp_path / "degen.path", "--bound", "4"]) == 1


def test_homotopic_on_a_poset_with_several_components(tmp_path, capsys):
    """A poset need not be connected for a homotopy query."""
    (tmp_path / "two.poset").write_text(
        format_poset_text(standard_posets()["circle2"])
        + "elem zz1 zz2\nle zz1 zz2\n")
    (tmp_path / "loop.path").write_text("(o1;a1,o1);(o1;o1,a1)\n")
    assert run(["homotopic", tmp_path / "two.poset", tmp_path / "loop.path",
                tmp_path / "loop.path"]) == 0
    assert "status: yes" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "(o1;a1,a2)(o1;a1,a2\n",
    "junk (o1;a1,a2) XYZ\n",
    "(o1;a1,a2), (o1;a2,a1)\n",
    "",
])
def test_path_file_rejects_text_outside_simplices(workspace, tmp_path,
                                                  capsys, text):
    (tmp_path / "bad.path").write_text(text)
    (tmp_path / "ok.path").write_text("(o1;a1,a2)\n")
    poset = workspace / "circle2.poset"
    for order in (("bad", "ok"), ("ok", "bad")):
        assert run(["homotopic", poset] + [tmp_path / f"{n}.path"
                                           for n in order]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: path file ")
        assert "Traceback" not in err


def test_path_file_separators(workspace, tmp_path):
    """Steps may be separated by `;`, spaces or line breaks, and `#`
    starts a comment."""
    (tmp_path / "lines.path").write_text(
        "# out and back\n(o1;a1,o1)\n  (o1;o1,a1)  # first step\n")
    (tmp_path / "semi.path").write_text("(o1;a1,o1);(o1;o1,a1)")
    assert run(["homotopic", workspace / "circle2.poset",
                tmp_path / "lines.path", tmp_path / "semi.path"]) == 0


def test_group_validate(workspace, capsys):
    assert run(["group-validate", workspace / "z3.group"]) == 0
    assert "abelian: True" in capsys.readouterr().out
    corrupted = workspace / "bad.group"
    corrupted.write_text(
        format_group_text(Z3).replace("g1 g2 g0", "g1 g1 g0")
    )
    assert run(["group-validate", corrupted]) == 2


def test_repeated_group_header_is_an_input_error(workspace, capsys):
    repeated = workspace / "repeated.group"
    repeated.write_text(format_group_text(Z3).replace(
        "elems", "group other\nelems"))
    assert run(["group-validate", repeated]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_input_errors_name_the_file_and_line(tmp_path, capsys):
    """Exit 2 and the `error: ` prefix; the message ends with the line,
    for an error about one line, and the file."""
    bad = tmp_path / "bad.poset"
    bad.write_text("poset p\nelem x y\nfoo bar\n")
    assert run(["validate", bad]) == 2
    assert capsys.readouterr().err == (
        f"error: unrecognized poset line: 'foo bar' (line 3) in {bad}\n")
    semi = tmp_path / "semi.poset"
    semi.write_text("poset semi\nelem a;b\n")
    assert run(["validate", semi]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad poset element 'a;b': ")
    assert err.endswith(f" (line 2) in {semi}\n")
    colon = tmp_path / "colon.group"
    colon.write_text("group g\nelems e a:b\ntable\n")
    assert run(["group-validate", colon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad group element 'a:b': ")
    assert err.endswith(f" (line 2) in {colon}\n")
    cyclic = tmp_path / "cyclic.poset"
    cyclic.write_text("poset p\nelem x y\nle x y\nle y x\n")
    assert run(["validate", cyclic]) == 2
    assert capsys.readouterr().err == (
        f"error: 'x' <= 'y' and 'y' <= 'x' in {cyclic}\n")


def test_path_file_errors_give_the_line(workspace, tmp_path, capsys):
    (tmp_path / "ok.path").write_text("(o1;a1,a2)\n")
    bad = tmp_path / "bad.path"
    bad.write_text("# a path\n(o1;a1,o1)\n(o1;o1,a1) junk\n")
    assert run(["homotopic", workspace / "circle2.poset", bad,
                tmp_path / "ok.path"]) == 2
    assert capsys.readouterr().err == (
        "error: path file has text outside 1-simplices: 'junk' "
        f"(line 3) in {bad}\n")
    bad.write_text("(o1;a1,o1)\n\n(o9;o1,a1)\n")
    assert run(["homotopic", workspace / "circle2.poset", bad,
                tmp_path / "ok.path"]) == 2
    assert capsys.readouterr().err.endswith(f"(line 3) in {bad}\n")


def test_check_cocycle_exit_codes(workspace, capsys):
    args = ["check-cocycle", workspace / "circle2.poset",
            workspace / "z3.group", workspace / "winding.cochain"]
    assert run(args) == 0
    text = (workspace / "winding.cochain").read_text()
    lines = text.splitlines()
    # flip one non-identity constraint: set a degenerate edge to g1
    broken = [lines[0]] + [
        line.replace("= g0", "= g1", 1) if "(a1;a1,a1)" in line else line
        for line in lines[1:]
    ]
    assert "(a1;a1,a1) = g1" in broken
    (workspace / "broken.cochain").write_text("\n".join(broken) + "\n")
    args[-1] = workspace / "broken.cochain"
    capsys.readouterr()
    assert run(args) == 1
    out = capsys.readouterr().out
    violations = out.split("violations:\n")[1].splitlines()
    assert violations and all(v.startswith("  (") for v in violations)
    # Its degenerate value g1 is not its own inverse in Z3, so the same
    # cochain is no connection.
    for command in ("curvature", "induce", "holonomy"):
        assert run([command, *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a connection" in err
        assert "Traceback" not in err


def test_main_exits_with_the_code_of_run(workspace, capsys, monkeypatch):
    """`main` reads `sys.argv` and exits 0 on success, 1 on a negative
    verdict and 2 on a usage error."""
    text = (workspace / "winding.cochain").read_text()
    broken = text.replace("(a1;a1,a1) = g0", "(a1;a1,a1) = g1")
    assert broken != text
    (workspace / "broken.cochain").write_text(broken)
    check = ["check-cocycle", workspace / "circle2.poset",
             workspace / "z3.group"]
    for args, code in [(check + [workspace / "winding.cochain"], 0),
                       (check + [workspace / "broken.cochain"], 1),
                       (["validate"], 2)]:
        monkeypatch.setattr(sys, "argv", ["posetbundle", *map(str, args)])
        with pytest.raises(SystemExit) as caught:
            cli.main()
        assert caught.value.code == code
    captured = capsys.readouterr()
    assert "cocycle: False" in captured.out and "error:" in captured.err


def test_main_treats_a_closed_stdout_as_an_output_error(workspace,
                                                        tmp_path,
                                                        monkeypatch):
    """A reader that closes the pipe early makes the flush raise
    `BrokenPipeError`: `main` points stdout's descriptor at devnull and
    exits 2.  The stand-in's descriptor is a temporary file's, so the
    runner's own descriptors stay as they are."""
    with open(tmp_path / "stdout", "w") as target:

        class ClosedPipe:
            def write(self, text):
                return len(text)

            def flush(self):
                raise BrokenPipeError

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "argv", ["posetbundle", "group-validate",
                                          str(workspace / "z3.group")])
        with pytest.raises(SystemExit) as caught:
            cli.main()
        assert caught.value.code == 2
        assert os.path.samestat(os.fstat(target.fileno()),
                                os.stat(os.devnull))


def test_homotopic_limit_is_an_input_error(workspace, tmp_path, capsys):
    """The loop at a1 through o1 and then o2 meets the degenerate loop
    once the search holds 24 paths within bound 3; a limit of 23 ends
    the search with exit 2 and one line."""
    (tmp_path / "loop.path").write_text("(o2;a1,a1);(o1;a1,a1)\n")
    (tmp_path / "degen.path").write_text("(a1;a1,a1)\n")
    args = ["homotopic", workspace / "circle2.poset", tmp_path / "loop.path",
            tmp_path / "degen.path", "--bound", "3", "--limit"]
    assert run(args + ["24"]) == 0
    assert "certificate-steps: 3" in capsys.readouterr().out
    assert run(args + ["23"]) == 2
    assert capsys.readouterr().err == (
        "error: paths of length <= 3 searched exceed the limit 23\n")


def test_classify_limit_is_an_input_error(tmp_path, capsys):
    """The homomorphism search of `classify-cocycles` checks its limit
    before it starts: exit 2, the bound's message after `error:` and no
    traceback."""
    (tmp_path / "twoloop.poset").write_text(
        format_poset_text(standard_posets()["twoloop"]))
    (tmp_path / "s3.group").write_text(format_group_text(symmetric_group(3)))
    assert run(["classify-cocycles", tmp_path / "twoloop.poset",
                tmp_path / "s3.group", "--limit", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 6^5 = 7776 assignments exceed the limit 10\n"
    assert "Traceback" not in err


def test_homotopic_unknown_verdict(workspace, tmp_path, capsys):
    """Exit 1 for "unknown" too, with no certificate length."""
    (tmp_path / "once.path").write_text("(a1;a1,a1)\n")
    (tmp_path / "twice.path").write_text("(a1;a1,a1);(a1;a1,a1)\n")
    args = ["homotopic", workspace / "circle2.poset", tmp_path / "once.path",
            tmp_path / "twice.path", "--bound"]
    assert run(args + ["1"]) == 1
    out = capsys.readouterr().out
    assert "status: unknown" in out and "certificate-steps" not in out
    assert run(args + ["2"]) == 0
    assert "status: yes" in capsys.readouterr().out


def test_check_cocycle_value_errors_give_the_line(workspace, capsys):
    lines = (workspace / "winding.cochain").read_text().splitlines()
    assert lines[1].startswith("(a1;a1,a1) = ")
    bad = workspace / "bad.cochain"
    args = ["check-cocycle", workspace / "circle2.poset",
            workspace / "z3.group", bad]
    bad.write_text("\n".join([lines[0], "(a1;a1,a1) = g9"] + lines[2:]))
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: 'g9' (value at (a1;a1,a1)) is not in Z3 (line 2) in {bad}\n")
    bad.write_text("\n".join(lines + ["(o9;a1,a1) = g0"]))
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: (o9;a1,a1) is not a 1-simplex of circle2 "
        f"(line {len(lines) + 1}) in {bad}\n")

def test_classify_cocycles(workspace, capsys):
    assert run(["classify-cocycles", workspace / "circle2.poset",
                workspace / "z3.group"]) == 0
    assert "classes: 3" in capsys.readouterr().out


def test_dd_check_and_curvature(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group",
            workspace / "winding.cochain"]
    assert run(["dd-check", *base]) == 0
    assert run(["curvature", *base]) == 0
    assert "flat: True" in capsys.readouterr().out


def test_induce_round_trip(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group",
            workspace / "winding.cochain"]
    assert run(["induce", *base]) == 0
    text = capsys.readouterr().out
    P = standard_posets()["circle2"]
    z = parse_cochain_text(text, P, Z3)
    assert z == winding_cocycle(P, Z3, "g1")


def test_nonflat_and_holonomy(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group"]
    assert run(["nonflat", *base, "--cocycle", workspace / "winding.cochain",
                "--g", "g1"]) == 0
    captured = capsys.readouterr()
    P = standard_posets()["circle2"]
    u = parse_cochain_text(captured.out, P, Z3)
    (workspace / "nonflat.cochain").write_text(format_cochain_text(u))
    assert "witness:" in captured.err
    assert run(["holonomy", *base, workspace / "nonflat.cochain",
                "--base", "a1", "--restricted"]) == 0
    text = capsys.readouterr().out
    assert "g1" in text and "restricted-holonomy" in text
    # chain posets have no doubly non-inflating simplex
    assert run(["nonflat", workspace / "chain3.poset",
                workspace / "z3.group"]) == 2


def test_reduce(workspace, capsys):
    assert run(["reduce", workspace / "circle2.poset", workspace / "z3.group",
                workspace / "winding.cochain", "--base", "a1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("cochain reduced over circle2")
    assert "holonomy:" in captured.err


def test_gauge_group_and_act(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group",
            workspace / "winding.cochain"]
    assert run(["gauge-group", *base]) == 0
    assert "size: 3" in capsys.readouterr().out
    P = standard_posets()["circle2"]
    (workspace / "f.assign").write_text(
        "\n".join(f"{a} = g1" for a in P.elements) + "\n"
    )
    assert run(["gauge-act", *base, "--transform", workspace / "f.assign"]) == 0
    out = capsys.readouterr().out
    assert parse_cochain_text(out, P, Z3) == winding_cocycle(P, Z3, "g1")
    # a non-commuting assignment is rejected as input error
    s3 = workspace / "s3.group"
    s3.write_text(format_group_text(symmetric_group(3)))
    bad = workspace / "bad.assign"
    bad.write_text("\n".join(f"{a} = g2" for a in P.elements[:1])
                   + "\n" + "\n".join(f"{a} = g0" for a in P.elements[1:])
                   + "\n")
    # partial constant map that does not commute with the winding cocycle
    assert run(["gauge-act", *base, "--transform", bad]) == 2


@pytest.mark.parametrize("name,text", [
    ("dup-header.poset", "poset a\nelem x y\nposet b\nle x y\n"),
    ("dup-le.poset", "poset p\nelem x y\nle x y\nle x y\n"),
], ids=["header", "le"])
def test_repeated_poset_lines_are_input_errors(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text)
    assert run(["validate", tmp_path / name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: repeated") and "Traceback" not in err


def test_repeated_assignment_line_is_an_input_error(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group",
            workspace / "winding.cochain"]
    P = standard_posets()["circle2"]
    (workspace / "f.assign").write_text(
        "\n".join(f"{a} = g0" for a in P.elements) + "\na1 = g2\n"
    )
    assert run(["gauge-act", *base, "--transform", workspace / "f.assign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: repeated value for a1")


def test_json_format(workspace, capsys):
    assert run(["--format", "json", "pi1", workspace / "circle2.poset"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relators"] == 42
    assert run(["--format", "json", "induce", workspace / "circle2.poset",
                workspace / "z3.group", workspace / "winding.cochain"]) == 0
    report = json.loads(capsys.readouterr().out)
    P = standard_posets()["circle2"]
    assert parse_cochain_text(report["cochain"], P, Z3) is not None


def test_suite_rejects_corrupted_fixture(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    bad = format_group_text(Z3).replace("g1 g2 g0", "g1 g1 g0")
    (fixtures / "z3.group").write_text(bad)
    assert run(["suite", "--fixtures", fixtures]) == 1
    out = capsys.readouterr().out
    assert "fixture validation [FAIL]" in out
    assert "z3.group" in out


def test_suite_names_the_line_and_file_of_a_fixture_problem(tmp_path,
                                                            capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "chain2.poset").write_text("poset chain2\nelem x1 x2\nwat\n")
    P = standard_posets()["circle2"]
    broken = format_cochain_text(winding_cocycle(P, Z3, "g1"),
                                 name="winding-z3")
    broken = broken.replace("(o1;a1,a2) = g0", "(o1;a1,a2) = g1")
    (fixtures / "winding-z3.cochain").write_text(broken)
    assert run(["suite", "--fixtures", fixtures]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "fixture validation [FAIL]",
        "  unrecognized poset line: 'wat' (line 3) in chain2.poset",
        "  not a cocycle in winding-z3.cochain",
    ]


@pytest.mark.parametrize("command", ["validate", "simplices"])
def test_closed_stdout_is_an_output_error(workspace, command):
    """A reader that closes the pipe early gets exit code 2 and no
    traceback, not the exit code of a false verdict."""
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "posetbundle.cli", command,
             str(workspace / "circle2.poset")],
            stdout=write, stderr=subprocess.PIPE, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write)
    assert out.returncode == 2
    assert b"Traceback" not in out.stderr


def test_double_dash_ends_the_options(workspace, capsys, monkeypatch):
    """After `--` every token is a positional, a file named like an
    option included; the parser differential leaves `--` out."""
    monkeypatch.chdir(workspace)
    Path("-x.poset").write_text(Path("circle2.poset").read_text())
    assert run(["validate", "--", "-x.poset"]) == 0
    assert run(["validate", "-x.poset"]) == 2
    assert run(["simplices", "--", "circle2.poset", "--limit", "3"]) == 2
    assert "unrecognized arguments: --limit 3" in capsys.readouterr().err


def test_limit_is_rejected_where_unused(workspace, capsys):
    base = [workspace / "circle2.poset", workspace / "z3.group",
            workspace / "winding.cochain"]
    for command in ("dd-check", "induce", "gauge-group"):
        assert run([command, *base]) == 0
        assert run([command, *base, "--limit", "5"]) == 2
        assert "unrecognized arguments: --limit" in capsys.readouterr().err


STUB_RESULTS = (
    CriterionResult(1, "first", True, "fine"),
    CriterionResult(2, "second", False, "broken"),
)


def test_empty_fixtures_directory_is_usage_error(tmp_path, capsys,
                                                 monkeypatch):
    """`--fixtures ""` names no directory: it is refused, not read as the
    working directory, so no fixture is written and no criterion runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(acceptance, "run_all", lambda seed: STUB_RESULTS)
    assert run(["suite", "--fixtures", ""]) == 2
    assert capsys.readouterr() == ("", "error: --fixtures '' names no "
                                       "directory\n")
    assert list(tmp_path.iterdir()) == []


def test_suite_text_and_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda seed: STUB_RESULTS)
    fixtures = tmp_path / "fx"
    assert run(["suite", "--fixtures", fixtures]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fixtures written: chain2.poset chain3.poset")
    assert lines[1:] == [
        "fixture validation [PASS]",
        "criterion  1 [PASS] first: fine",
        "criterion  2 [FAIL] second: broken",
        "suite: 1/2 criteria passed",
    ]
    assert run(["--format", "json", "suite", "--fixtures", fixtures]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "fixtures-written": [],
        "fixture-problems": [],
        "criteria": [
            {"number": 1, "name": "first", "passed": True, "detail": "fine"},
            {"number": 2, "name": "second", "passed": False,
             "detail": "broken"},
        ],
        "passed": 1,
    }
    monkeypatch.setattr(acceptance, "run_all",
                        lambda seed: STUB_RESULTS[:1])
    assert run(["--format", "json", "suite", "--fixtures", fixtures]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] == 1


def test_suite_prints_each_criterion_as_it_finishes(tmp_path, capsys,
                                                     monkeypatch):
    printed = []

    def lazily(seed):
        for result in STUB_RESULTS:
            printed.append(capsys.readouterr().out.splitlines())
            yield result

    monkeypatch.setattr(acceptance, "run_all", lazily)
    assert run(["suite", "--fixtures", tmp_path / "fx"]) == 1
    assert printed[0][-1] == "fixture validation [PASS]"
    assert printed[1] == ["criterion  1 [PASS] first: fine"]
    assert capsys.readouterr().out.splitlines() == [
        "criterion  2 [FAIL] second: broken",
        "suite: 1/2 criteria passed",
    ]


def test_suite_json_reports_fixture_problems(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda seed: STUB_RESULTS)
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    bad = format_group_text(Z3).replace("g1 g2 g0", "g1 g1 g0")
    (fixtures / "z3.group").write_text(bad)
    assert run(["--format", "json", "suite", "--fixtures", fixtures]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "z3.group" not in report["fixtures-written"]
    assert "chain2.poset" in report["fixtures-written"]
    assert [p.split()[-1] for p in report["fixture-problems"]] == [
        "z3.group"
    ]
    assert report["criteria"] == [] and report["passed"] == 0
