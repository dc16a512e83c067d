import os
import subprocess
import sys
from pathlib import Path

import pytest

from idstat import cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [["selftest"], ["evolve", "--points", "4096"]])
def test_closed_stdout_exits_without_traceback(argv):
    # The reader is gone before the first write: selftest's output fails
    # on the final flush, evolve's in the middle of printing.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "idstat", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == b""
