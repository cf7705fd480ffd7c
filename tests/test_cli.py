import json

import pytest

from posetbundle import cli
from posetbundle.acceptance import (
    CriterionResult,
    standard_posets,
    winding_cocycle,
)
from posetbundle.cochains import format_cochain_text, parse_cochain_text
from posetbundle.groups import cyclic_group, format_group_text, symmetric_group
from posetbundle.poset import format_poset_text

Z3 = cyclic_group(3)

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


def test_dispatch_covers_every_command():
    parser = cli.build_parser()
    actions = [
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    ]
    subcommands = set(actions[-1].choices)
    assert subcommands == EXPECTED_COMMANDS


def test_gen_and_validate(tmp_path, capsys):
    out = tmp_path / "c.poset"
    assert run(["gen", "circle", "3", "-o", out]) == 0
    assert run(["validate", out]) == 0
    text = capsys.readouterr().out
    assert "pathwise-connected: True" in text


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


def test_group_validate(workspace, capsys):
    assert run(["group-validate", workspace / "z3.group"]) == 0
    assert "abelian: True" in capsys.readouterr().out
    corrupted = workspace / "bad.group"
    corrupted.write_text(
        format_group_text(Z3).replace("g1 g2 g0", "g1 g1 g0")
    )
    assert run(["group-validate", corrupted]) == 2


def test_check_cocycle_exit_codes(workspace):
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
    (workspace / "broken.cochain").write_text("\n".join(broken) + "\n")
    args[-1] = workspace / "broken.cochain"
    assert run(args) == 1


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


def test_suite_text_and_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.acceptance, "run_all", lambda seed: STUB_RESULTS)
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
    monkeypatch.setattr(cli.acceptance, "run_all",
                        lambda seed: STUB_RESULTS[:1])
    assert run(["--format", "json", "suite", "--fixtures", fixtures]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] == 1


def test_suite_json_reports_fixture_problems(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.acceptance, "run_all", lambda seed: STUB_RESULTS)
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    bad = format_group_text(Z3).replace("g1 g2 g0", "g1 g1 g0")
    (fixtures / "z3.group").write_text(bad)
    assert run(["--format", "json", "suite", "--fixtures", fixtures]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "z3.group" not in report["fixtures-written"]
    assert "chain2.poset" in report["fixtures-written"]
    assert [p.split(":")[0] for p in report["fixture-problems"]] == [
        "z3.group"
    ]
    assert report["criteria"] == [] and report["passed"] == 0
