"""Streamed `rmc encrypt`/`rmc decrypt`: round trips, byte-identical
ciphertext against a naive product, and the ranking of faults."""

import random
from fractions import Fraction

import pytest

from rmcipher import (KeyContext, coding_matrix, coding_matrix_inverse, decrypt, digitize,
                      encrypt, general_key, key_fingerprint, right_form_key, symmetric_key)
from rmcipher.cli import main
from rmcipher.cipher import TABLE_ROWS
from rmcipher.formats import READ_HINT, cipher_from_text, read_cipher, save_key


def _shift_plus_identity(k):
    return [[1 if j in (i, (i + 1) % k) else 0 for j in range(k)] for i in range(k)]


def _bidiagonal(k):
    return [[1 if j in (i - 1, i) else 0 for j in range(k)] for i in range(k)]


KEYS = {
    "symmetric-2": symmetric_key((1, 1), (1, 0), 12),
    "symmetric-3": symmetric_key((1, 0, 1), (1, 0, 0), 29),
    "symmetric-5": symmetric_key((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 30),
    "general-2": general_key([[1, 2], [3, 4]], (1, 0), 9),                 # denom 1536
    "general-3": general_key(_shift_plus_identity(3), (1, 0, 0), 20),
    "general-5": general_key(_shift_plus_identity(5), (1, 0, 0, 0, 0), 30),
    "right_form-2": right_form_key((1, 1), [[2, 1], [1, 1]], 12),
    "right_form-3": right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 29),
    "right_form-5": right_form_key((1, 1, 1, 1, 1), _bidiagonal(5), 30),
    "negative-3": symmetric_key((1, 1, -1), (1, 1, -1), 3),                # M_n < 0, denom 4
    "bigint-5": symmetric_key((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 200),
}


def _lengths(k):
    """Empty, one byte, one block but a byte, one block, and one row
    either side of the first chunk boundary."""
    return [0, 1, k * k - 1, k * k, (TABLE_ROWS - 1) * k, (TABLE_ROWS + 1) * k]


def _naive_text(key, data: bytes) -> str:
    """The RMCv1 text of data, from a triple-loop product with M_n."""
    k = key.order
    m = coding_matrix(key).entries
    length = len(data)
    data = data + bytes(-length % (k * k))
    rows = [list(data[r * k:(r + 1) * k]) for r in range(len(data) // k)]
    lines = [f"RMCv1 k={k} blocks={len(data) // (k * k)} len={length} "
             f"fp={key_fingerprint(key)}"]
    for p in rows:
        lines.append(" ".join(str(sum(p[t] * m[t][j] for t in range(k))) for j in range(k)))
    return "\n".join(lines) + "\n"


@pytest.fixture
def files(tmp_path):
    def make(key, data: bytes):
        keyfile, plain = tmp_path / "key.json", tmp_path / "plain.bin"
        save_key(key, keyfile)
        plain.write_bytes(data)
        return keyfile, plain
    return make


@pytest.mark.parametrize("name", sorted(KEYS))
def test_cli_round_trip_and_naive_ciphertext(name, files, tmp_path):
    key = KEYS[name]
    rng = random.Random(name)
    for length in _lengths(key.order):
        data = rng.randbytes(length)
        keyfile, plain = files(key, data)
        cfile, back = tmp_path / "c.rmc", tmp_path / "back.bin"
        assert main(["encrypt", str(keyfile), str(plain), "--out", str(cfile)]) == 0
        assert cfile.read_text() == _naive_text(key, data), (name, length)
        assert main(["decrypt", str(keyfile), str(cfile), "--out", str(back)]) == 0
        assert back.read_bytes() == data, (name, length)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_library_round_trip(name):
    key = KEYS[name]
    ctx = KeyContext(key)
    rng = random.Random(name)
    for length in _lengths(key.order):
        data = rng.randbytes(length)
        blocks, stored = digitize(data, key.order)
        blocks = encrypt(blocks, ctx)
        assert stored == length
        assert decrypt(blocks, ctx, stored) == data
        assert decrypt(blocks, ctx) == data + bytes(len(blocks) * key.order ** 2 - length)


def test_library_encrypt_matches_naive_product():
    key = KEYS["negative-3"]
    m = coding_matrix(key).entries
    blocks, _ = digitize(random.Random(7).randbytes(200), 3)
    naive = [[[sum(p[i][t] * m[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
             for p in blocks]
    assert encrypt(blocks, KeyContext(key)) == naive


def test_reader_chunks_and_whole_text_parse_agree(tmp_path):
    key = KEYS["symmetric-3"]
    text = _naive_text(key, random.Random(3).randbytes(3 * TABLE_ROWS * 3))
    path = tmp_path / "c.rmc"
    path.write_text(text)
    with open(path, "rb") as fh:
        header, chunks = read_cipher(fh)
        chunks = list(chunks)
    assert len(chunks) > 1 and all(len(c) % 9 == 0 for c in chunks)     # whole blocks
    whole, blocks = cipher_from_text(text)
    assert header.count == len(blocks) and header.order == whole.order == 3
    assert [v for c in chunks for v in c] == [v for b in blocks for row in b for v in row]


# ---------------------------------------------------------------------------
# faults
# ---------------------------------------------------------------------------

K3 = KEYS["symmetric-3"]


@pytest.fixture
def three_chunks(files, tmp_path):
    """Key file, ciphertext lines (header first) of a payload that spans
    three reader chunks, and the payload."""
    data = random.Random(11).randbytes(2 * TABLE_ROWS * 3 + 500)
    keyfile, plain = files(K3, data)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", str(keyfile), str(plain), "--out", str(cfile)]) == 0
    return keyfile, cfile.read_text().splitlines(), data


def _write_lines(tmp_path, lines):
    path = tmp_path / "bad.rmc"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _bump(lines, line, delta):
    """Add delta to the first entry of a line."""
    parts = lines[line].split()
    parts[0] = str(int(parts[0]) + delta)
    lines[line] = " ".join(parts)


def _out_of_alphabet(data: bytes, row: int, delta: int) -> int:
    """Plaintext entry (row, 0) after adding delta to ciphertext entry
    (row, 0), by exact rational arithmetic."""
    inv = coding_matrix_inverse(K3)
    plain = data + bytes(-len(data) % 9)
    return plain[row * 3] + Fraction(delta) * inv[0][0]


def test_corruption_in_last_chunk_names_block_and_entry(three_chunks, tmp_path, capsys):
    keyfile, lines, data = three_chunks
    row = len(lines) - 2                      # the last matrix row
    _bump(lines, row + 1, 10 ** 6)
    out = tmp_path / "out.bin"
    capsys.readouterr()
    assert main(["decrypt", str(keyfile), _write_lines(tmp_path, lines), "--out", str(out)]) == 3
    value = _out_of_alphabet(data, row, 10 ** 6)
    assert value.denominator == 1 and not 0 <= value <= 255
    assert capsys.readouterr().err == (
        f"error: corrupted ciphertext: block {row // 3}, entry ({row % 3}, 0): "
        f"plaintext value {value} outside [0, 255]\n")
    assert not out.exists()


def test_blank_lines_across_a_chunk_boundary(three_chunks, tmp_path, capsys):
    keyfile, lines, data = three_chunks
    lines[TABLE_ROWS - 3:TABLE_ROWS - 3] = [""] * 5 + ["   "]   # straddles line TABLE_ROWS
    out = tmp_path / "out.bin"
    assert main(["decrypt", str(keyfile), _write_lines(tmp_path, lines), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    # A corrupted entry after the blank lines is named by its matrix row.
    row = TABLE_ROWS + 5
    _bump(lines, row + 1 + 6, 10 ** 6)
    out.unlink()
    capsys.readouterr()
    assert main(["decrypt", str(keyfile), _write_lines(tmp_path, lines), "--out", str(out)]) == 3
    assert f"block {row // 3}, entry ({row % 3}, 0)" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_row_in_a_later_chunk_outranks_corruption(three_chunks, tmp_path, capsys):
    keyfile, lines, _ = three_chunks
    _bump(lines, 1, 10 ** 6)                  # block 0
    row = 2 * TABLE_ROWS + 4
    lines[row + 1] = "1 2"
    out = tmp_path / "out.bin"
    capsys.readouterr()
    path = _write_lines(tmp_path, lines)
    assert main(["decrypt", str(keyfile), path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load ciphertext {path}: block {row // 3} row {row % 3} "
        f"has 2 entries, wanted 3\n")
    assert not out.exists()


def test_line_count_outranks_corruption(three_chunks, tmp_path, capsys):
    keyfile, lines, _ = three_chunks
    _bump(lines, 1, 10 ** 6)
    out = tmp_path / "out.bin"
    capsys.readouterr()
    assert main(["decrypt", str(keyfile), _write_lines(tmp_path, lines[:-1]),
                 "--out", str(out)]) == 2
    assert "matrix lines, found" in capsys.readouterr().err
    assert not out.exists()


def test_fingerprint_mismatch_outranks_corruption(three_chunks, tmp_path, capsys):
    keyfile, lines, _ = three_chunks
    _bump(lines, 1, 10 ** 6)
    lines[0] = lines[0].rsplit("fp=", 1)[0] + "fp=0123456789abcdef"
    out = tmp_path / "out.bin"
    capsys.readouterr()
    assert main(["decrypt", str(keyfile), _write_lines(tmp_path, lines), "--out", str(out)]) == 2
    assert "fingerprint mismatch" in capsys.readouterr().err
    assert not out.exists()


NO_DOMINANT_ROOT = symmetric_key((1, 0), (1, 0), 10)     # X[n+2] = X[n]: roots +-1

# (command, key, its own fault, and a part of that fault's message)
OWN_FAULTS = [
    ("corrupt", K3, "magnitude", "magnitude must be positive"),
    ("detect", NO_DOMINANT_ROOT, "key", "dominant root"),
    ("correct", NO_DOMINANT_ROOT, "key", "dominant root"),
    ("decrypt", K3, "fingerprint", "fingerprint mismatch"),
    ("detect", K3, "fingerprint", "fingerprint mismatch"),
    ("correct", K3, "fingerprint", "fingerprint mismatch"),
]


def _own_fault_argv(command, keyfile, path, fault, out):
    argv = [command] if command == "corrupt" else [command, str(keyfile)]
    return argv + [path] + (["--magnitude", "0"] if fault == "magnitude" else []) + ["--out", out]


@pytest.mark.parametrize("command, key, fault, message", OWN_FAULTS)
def test_a_malformed_row_late_in_the_file_outranks_the_commands_own_fault(
        command, key, fault, message, files, tmp_path, capsys):
    keyfile, plain = files(key, random.Random(13).randbytes(READ_HINT))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", str(keyfile), str(plain), "--out", str(cfile)]) == 0
    assert cfile.stat().st_size > 2 * READ_HINT            # the reader takes several batches
    lines = cfile.read_text().splitlines()
    if fault == "fingerprint":
        lines[0] = lines[0].rsplit("fp=", 1)[0] + "fp=0123456789abcdef"
    out = tmp_path / "out"
    capsys.readouterr()
    # The command's own fault alone is reported as such...
    argv = _own_fault_argv(command, keyfile, _write_lines(tmp_path, lines), fault, str(out))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # ...and a malformed last row outranks it.
    k = key.order
    row = len(lines) - 2
    lines[row + 1] = " ".join(lines[row + 1].split()[1:])
    path = _write_lines(tmp_path, lines)
    assert main(_own_fault_argv(command, keyfile, path, fault, str(out))) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load ciphertext {path}: block {row // k} row {row % k} "
        f"has {k - 1} entries, wanted {k}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("decrypt", "--out"), ("corrupt", "--out"), ("detect", "--out"),
    ("correct", "--out"), ("correct", "--report")])
def test_an_unwritable_output_exits_2_with_the_bare_os_message(command, option, three_chunks,
                                                               tmp_path, capsys):
    keyfile, lines, _ = three_chunks
    out = tmp_path / "missing" / "out"
    with pytest.raises(OSError) as raised:
        open(out, "wb")
    argv = [command] if command == "corrupt" else [command, str(keyfile)]
    capsys.readouterr()
    assert main(argv + [_write_lines(tmp_path, lines), option, str(out)]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_missing_input_file_exits_2(files, tmp_path, capsys):
    keyfile, _ = files(K3, b"")
    assert main(["encrypt", str(keyfile), str(tmp_path / "none.bin")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")
