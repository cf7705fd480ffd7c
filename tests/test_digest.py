"""The output digests of `tests/digest.py` against the checked-in
`digest_golden.txt`, in process and under two hash seeds.

A change that alters an output on purpose regenerates the golden file,

    PYTHONPATH=src python tests/digest.py > tests/digest_golden.txt

and says which parts changed and why."""

import os
import subprocess
import sys
from pathlib import Path

import posetbundle

import digest

SRC = str(Path(posetbundle.__file__).parents[1])
GOLDEN = Path(__file__).with_name("digest_golden.txt")


def test_digests_match_the_golden_file():
    lines = "".join(f"{name} {value}\n"
                    for name, value in digest.digests().items())
    assert lines == GOLDEN.read_text()


def test_digests_agree_in_process_and_under_two_hash_seeds():
    expected = GOLDEN.read_text()
    for seed in ("0", "123"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, digest.__file__], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout == expected, f"PYTHONHASHSEED={seed}"
