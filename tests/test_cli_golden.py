"""Golden outputs of the CLI on the `suite` fixtures.

Each invocation of `inputs.INVOCATIONS` runs in-process through
`cli.run` in a directory that `inputs.write_fixtures` fills; its exit
code, stdout and stderr must match `cli_golden.json` byte for byte.

To re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

from inputs import INVOCATIONS, invoke, write_fixtures

GOLDEN = Path(__file__).with_name("cli_golden.json")


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
