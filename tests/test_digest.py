import os
import subprocess
import sys
from pathlib import Path

import posetbundle

import digest

SRC = str(Path(posetbundle.__file__).parents[1])


def test_digests_agree_in_process_and_under_two_hash_seeds():
    expected = "".join(f"{name} {value}\n"
                       for name, value in digest.digests().items())
    for seed in ("0", "123"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, digest.__file__], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout == expected, f"PYTHONHASHSEED={seed}"
