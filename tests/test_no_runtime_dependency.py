"""The package needs nothing outside the standard library: the whole command
chain runs in an isolated interpreter (python -I) in which any import of
mpmath fails.  A command imports only the modules it runs, and the package
imports its public names only on first use."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rmcipher
from rmcipher import symmetric_key
from rmcipher.formats import save_key

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
print(sorted(sys.modules))
"""

# Modules that encrypt, decrypt and analyze (without --text) never need.
UNUSED_BY_THE_CIPHER = ["rmcipher.guard", "rmcipher.keygen", "csv", "dataclasses", "inspect"]


def _run(commands, cwd):
    """The exit codes of the commands, run in one fresh isolated interpreter,
    and the modules it had loaded after them."""
    done = subprocess.run([sys.executable, "-I", "-c", SCRIPT, str(SRC), repr(commands)],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, modules = done.stdout.splitlines()[-2:]
    return ast.literal_eval(codes), set(ast.literal_eval(modules))


def test_the_command_chain_runs_without_mpmath(tmp_path):
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    codes, modules = _run(CHAIN, tmp_path)
    assert codes == [0] * len(CHAIN)
    assert "dataclasses" not in modules
    assert (tmp_path / "back.txt").read_bytes() == MESSAGE
    assert (tmp_path / "bad.rmc").read_bytes() != (tmp_path / "c.rmc").read_bytes()
    assert '"pisot": "yes"' in (tmp_path / "a.json").read_text()


def test_the_cipher_commands_import_only_what_they_run(tmp_path):
    save_key(symmetric_key((1, 0, 1), (1, 0, 0), 29), tmp_path / "k.json")
    (tmp_path / "msg.txt").write_bytes(MESSAGE)
    codes, modules = _run([["encrypt", "k.json", "msg.txt", "--out", "c.rmc"],
                           ["decrypt", "k.json", "c.rmc", "--out", "back.txt"],
                           ["analyze", "k.json", "--json", "--out", "a.json"]], tmp_path)
    assert codes == [0, 0, 0]
    assert (tmp_path / "back.txt").read_bytes() == MESSAGE
    assert [name for name in UNUSED_BY_THE_CIPHER if name in modules] == []


def test_an_empty_encrypt_loads_no_kernel_module(tmp_path):
    # The set-up of every command ends before its first chunk: the packed
    # kernels import `array` only when they run.
    save_key(symmetric_key((1, 0, 1), (1, 0, 0), 29), tmp_path / "k.json")
    (tmp_path / "empty.txt").write_bytes(b"")
    codes, modules = _run([["encrypt", "k.json", "empty.txt", "--out", "c.rmc"]], tmp_path)
    assert codes == [0]
    assert "array" not in modules


def test_each_public_name_is_the_object_its_module_defines():
    for name in rmcipher.__all__:
        value = getattr(rmcipher, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_the_public_names_are_listed_and_star_imported():
    namespace: dict = {}
    exec("from rmcipher import *", namespace)
    assert set(rmcipher.__all__) <= set(namespace)
    assert set(rmcipher.__all__) <= set(dir(rmcipher))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rmcipher.no_such_name
