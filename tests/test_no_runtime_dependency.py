"""The package needs nothing outside the standard library: the whole command
chain runs in an isolated interpreter (python -I) in which any import of
mpmath fails."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MESSAGE = b"ALGORITHM checking relations"

CHAIN = [
    ["keygen", "--pisot", "--range", "0,2", "--k", "3", "--seed", "1", "--out", "k.json"],
    ["analyze", "k.json", "--json", "--out", "a.json"],
    ["encrypt", "k.json", "msg.txt", "--out", "c.rmc"],
    ["decrypt", "k.json", "c.rmc", "--out", "back.txt"],
    ["corrupt", "c.rmc", "--seed", "6", "--out", "bad.rmc"],
    ["detect", "k.json", "bad.rmc", "--out", "d.json"],
    ["correct", "k.json", "bad.rmc", "--out", "fixed.rmc", "--report", "r.json"],
]

SCRIPT = """
import sys
sys.modules["mpmath"] = None          # every import of mpmath now raises ImportError
sys.path.insert(0, sys.argv[1])
from rmcipher.cli import main
print([main(argv) for argv in eval(sys.argv[2])])
"""


def test_the_command_chain_runs_without_mpmath(tmp_path):
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    done = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(SRC), repr(CHAIN)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == repr([0] * len(CHAIN)), done.stdout + done.stderr
    assert (tmp_path / "back.txt").read_bytes() == MESSAGE
    assert (tmp_path / "bad.rmc").read_bytes() != (tmp_path / "c.rmc").read_bytes()
    assert '"pisot": "yes"' in (tmp_path / "a.json").read_text()
