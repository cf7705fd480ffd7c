"""Golden outputs of the CLI on the `suite` fixtures.

Each invocation runs in-process through `cli.run` in a directory holding
the files `cli._write_fixtures` writes plus path and transform files; its
exit code, stdout and stderr must match `cli_golden.json` byte for byte.
The invocations are the shapes the benchmark's `cli` workload runs.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from posetbundle import cli
from posetbundle.acceptance import standard_posets

GOLDEN = Path(__file__).with_name("cli_golden.json")

PATH_FILES = {
    "circle2-yes-p.path": "(o1;o1,a1);(o1;a1,a2);(o1;a2,a2);(o1;a2,o1)",
    "circle2-yes-q.path": "(o1;o1,a1);(o1;a1,a2);(o1;a2,a2);(o1;a2,o1)",
    "circle2-no-p.path": "(o1;o1,a1);(o1;a1,o1);(o1;o1,o1);(o1;o1,o1)",
    "circle2-no-q.path": "(o1;o1,a2);(o2;a2,a1);(o2;a1,a1);(o1;a1,o1)",
    "twoloop-yes-p.path": "(M1;M1,m2);(M2;m2,m2);(M1;m2,m2);(M1;m2,M1)",
    "twoloop-yes-q.path": "(M1;M1,m2);(M2;m2,m2);(M1;m2,m2);(M1;m2,M1)",
    "twoloop-no-p.path": "(M1;M1,M1);(M1;M1,m1);(M1;m1,m2);(M1;m2,M1)",
    "twoloop-no-q.path": "(M1;M1,m1);(M3;m1,m2);(M1;m2,m1);(M1;m1,M1)",
}

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
    cli._write_fixtures(directory)
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


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(INVOCATIONS)


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_cli_output_is_golden(invocation, fixtures, golden, monkeypatch):
    monkeypatch.chdir(fixtures)
    assert invoke(invocation) == golden[invocation]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        os.chdir(tmp)
        recorded = {inv: invoke(inv) for inv in INVOCATIONS}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
