"""M_n = M_0 R**n by binary powering: agreement with stepping by R, the
inverse identity, the memory a compiled key takes, the bound on
ciphertext entry size, and two processes sharing one key file."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import rmcipher
from rmcipher import KeyContext, general_key, key_fingerprint, right_form_key, symmetric_key
from rmcipher.cli import main
from rmcipher.coding import MAX_ENTRY_DIGITS, MatrixBuilder, right_companion
from rmcipher.exactmat import det_exact, identity, mat_mul
from rmcipher.formats import load_key, save_key

TWO_FIB = ((1, 0, 1), (1, 0, 0))          # the bulk-k3 key's recurrence and seed
LAST_WRITABLE = 25885                     # its last index within MAX_ENTRY_DIGITS


@st.composite
def keys(draw):
    """A key of any kind with an invertible M_0; a_0 may be 0."""
    kind = draw(st.sampled_from(["symmetric", "general", "right_form"]))
    k = draw(st.integers(2, 4))
    small = st.integers(-3, 3)
    vector = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    square = st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k)
    if kind == "symmetric":
        key = symmetric_key(draw(st.lists(small, min_size=k, max_size=k)), draw(vector), 0)
    elif kind == "general":
        key = general_key(draw(square), draw(vector), 0)
    else:
        m0 = draw(st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k),
                           min_size=k, max_size=k))
        key = right_form_key(draw(st.lists(small, min_size=k, max_size=k)), m0, 0)
    assume(det_exact(key.initial()) != 0)
    return key


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(keys(), st.one_of(st.integers(0, 300), st.just(2000)))
@example(symmetric_key(*TWO_FIB, 0), 2000)
@example(general_key([[1, 2], [3, 4]], (1, 0), 0), 2000)
@example(right_form_key((-4, 0, 5), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 0), 2000)
def test_powering_equals_stepping_and_inverts(key, n):
    builder = MatrixBuilder(key)
    r = right_companion(key.recurrence())
    stepped = key.initial()
    for _ in range(n):
        stepped = mat_mul(stepped, r)
    m = builder.matrix(n)
    assert m == stepped
    if key.recurrence().a0 == 0:
        if n > 0:
            with pytest.raises(ValueError, match="not backward-extendable"):
                builder.inverse(n)
        return
    eye = [[Fraction(v) for v in row] for row in identity(key.order)]
    assert mat_mul(builder.inverse(n), m) == eye


def test_compiled_key_holds_only_m_n():
    # The old per-row caches held about 3n big integers to read 9 of them.
    key = symmetric_key(*TWO_FIB, 20000)
    tracemalloc.start()
    try:
        ctx = KeyContext(key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(sys.getsizeof(v) for row in ctx.matrix for v in row)
    assert peak < 10 * own


def test_last_writable_index_round_trips_and_the_next_is_refused(tmp_path, capsys):
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"\xff" * 9 + b"ALGORITHM")     # 0xFF block: entries 255 * column sums
    keyfile, cfile, back = tmp_path / "key.json", tmp_path / "c.rmc", tmp_path / "back.bin"
    save_key(symmetric_key(*TWO_FIB, LAST_WRITABLE), keyfile)
    assert main(["encrypt", str(keyfile), str(msg), "--out", str(cfile)]) == 0
    assert max(len(v) for v in cfile.read_text().split()[6:]) == MAX_ENTRY_DIGITS
    assert main(["decrypt", str(keyfile), str(cfile), "--out", str(back)]) == 0
    assert back.read_bytes() == msg.read_bytes()
    capsys.readouterr()

    save_key(symmetric_key(*TWO_FIB, LAST_WRITABLE + 1), keyfile)
    refused = tmp_path / "refused.rmc"
    assert main(["encrypt", str(keyfile), str(msg), "--out", str(refused)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load key {keyfile}: ")
    assert not refused.exists()


@pytest.mark.parametrize("index", [LAST_WRITABLE + 1, 10 ** 6, 10 ** 100],
                         ids=["next", "1e6", "1e100"])
def test_keygen_refuses_an_index_no_ciphertext_fits(tmp_path, capsys, index):
    out = tmp_path / "key.json"
    assert main(["keygen", "--method", "right-form", "--coeffs", "1,0,1", "--seed", "3",
                 "--index", str(index), "--out", str(out)]) == 2
    assert "4300 decimal digits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["sieve", "right-form --coeffs 1,0,1"])
def test_keygen_writes_the_index_it_is_given(tmp_path, method):
    keyfile, msg, cfile, back = (tmp_path / name for name in ("key.json", "msg.txt", "c.rmc",
                                                                "back.txt"))
    assert main(["keygen", "--method", *method.split(), "--seed", "3", "--index", "77",
                 "--out", str(keyfile)]) == 0
    key = load_key(keyfile)                       # checks the fingerprint it carries
    assert key.index == 77
    assert json.loads(keyfile.read_text())["fingerprint"] == key_fingerprint(key)
    msg.write_bytes(b"ALGORITHM checking relations")
    assert main(["encrypt", str(keyfile), str(msg), "--out", str(cfile)]) == 0
    assert main(["decrypt", str(keyfile), str(cfile), "--out", str(back)]) == 0
    assert back.read_bytes() == msg.read_bytes()


def test_two_processes_share_one_key_file(tmp_path):
    keyfile, msg = tmp_path / "key.json", tmp_path / "msg.bin"
    save_key(symmetric_key(*TWO_FIB, 29), keyfile)
    msg.write_bytes(bytes(range(256)) * 64)
    serial = tmp_path / "serial.rmc"
    assert main(["encrypt", str(keyfile), str(msg), "--out", str(serial)]) == 0
    src = str(Path(rmcipher.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = [tmp_path / f"c{i}.rmc" for i in range(2)]
    procs = [subprocess.Popen([sys.executable, "-m", "rmcipher.cli", "encrypt", str(keyfile),
                               str(msg), "--out", str(out)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for out in outs]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    for out in outs:
        assert out.read_bytes() == serial.read_bytes()
