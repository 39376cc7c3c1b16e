"""The bulk kernels against references kept here: the three encrypt
kernels (packed slots, byte tables and multiplies) against a multiply
product, the packed decrypt kernel against the multiply kernel, and the
canonical-batch ciphertext parse against a per-line parse of the whole
text."""

import io
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rmcipher import KeyContext, encrypt, general_key, right_form_key, symmetric_key
from rmcipher import cipher, cli, formats
from rmcipher.cipher import TABLE_BITS, TABLE_ROWS, CorruptionError, decrypt_rows, encrypt_rows
from rmcipher.formats import CipherFormatError, read_cipher, save_key

KEYS = {
    "symmetric-3": symmetric_key((1, 0, 1), (1, 0, 0), 29),
    "general-3": general_key([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 0, 0), 20),  # denom 2**20
    "right_form-2": right_form_key((1, 1), [[2, 1], [1, 1]], 12),
    "negative-3": symmetric_key((1, 1, -1), (1, 1, -1), 3),                # M_n < 0, denom 4
    "bigint-5": symmetric_key((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 200),     # multi-limb
    # Products of 63 bits, the widest a signed 64-bit slot holds, then 64.
    "slot-edge-2": right_form_key((1, 1), [[2 ** 54, 2 ** 54], [2 ** 54, 2 ** 54 - 1]], 0),
    "past-slot-2": right_form_key((1, 1), [[2 ** 55, 2 ** 55], [2 ** 55, 2 ** 55 - 1]], 0),
}
CONTEXTS = {name: KeyContext(key) for name, key in KEYS.items()}
# The keys whose chunks the packed kernels take: encrypt, then decrypt.
PACKED_ENCRYPT = {"symmetric-3", "general-3", "right_form-2", "negative-3", "slot-edge-2"}
PACKED_DECRYPT = {"symmetric-3", "general-3", "right_form-2", "negative-3"}

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])


def test_each_key_takes_the_kernels_its_slot_facts_choose():
    assert {name for name, ctx in CONTEXTS.items() if ctx.product_bits < 64} == PACKED_ENCRYPT
    assert CONTEXTS["slot-edge-2"].product_bits == 63
    assert {name for name, ctx in CONTEXTS.items()
            if ctx.cipher_slot_bits is not None} == PACKED_DECRYPT
    assert [CONTEXTS[name].scaled_inverse[1] for name in ("symmetric-3", "general-3",
                                                          "negative-3")] == [1, 2 ** 20, 4]


# ---------------------------------------------------------------------------
# encrypt product
# ---------------------------------------------------------------------------

def _multiply_product(ctx: KeyContext, plain: bytes) -> list[int]:
    k, m = ctx.order, ctx.matrix
    return [sum(plain[r + t] * m[t][j] for t in range(k))
            for r in range(0, len(plain), k) for j in range(k)]


def _extreme_rows(ctx: KeyContext) -> bytes:
    """For each column j, the rows whose column-j product is the least and
    the greatest (the ends of ctx.entry_ranges[j])."""
    return bytes(255 if (c < 0) == low else 0
                 for col in ctx.columns for low in (True, False) for c in col)


def _encrypt_kernels(ctx: KeyContext, plain) -> list[list[int]]:
    """encrypt_rows by the key's own kernel, then by the packed kernel where
    the key's products fit, by multiplies and by byte tables."""
    results = [encrypt_rows(ctx, plain)]
    if ctx.product_bits < 64:
        results.append(cipher._packed_product(bytes(plain), ctx.columns, ctx.order))
    with mock.patch.object(cipher, "SLOTS", False):
        results.append(encrypt_rows(ctx, plain))
        with mock.patch.object(cipher, "TABLE_ROWS", 1):
            results.append(encrypt_rows(ctx, plain))
    return results


@SETTINGS
@given(st.sampled_from(sorted(KEYS)), st.data())
def test_encrypt_rows_equals_the_multiply_product(name, data):
    ctx = CONTEXTS[name]
    rows = data.draw(st.integers(0, 40))
    plain = data.draw(st.binary(min_size=rows * ctx.order, max_size=rows * ctx.order))
    expected = _multiply_product(ctx, plain)
    results = _encrypt_kernels(ctx, plain)
    assert results == [expected] * len(results)
    assert encrypt_rows(ctx, list(plain)) == expected


@pytest.mark.parametrize("name", sorted(KEYS))
def test_every_kernel_on_a_whole_chunk_with_the_extreme_rows(name):
    ctx = CONTEXTS[name]
    extremes = _extreme_rows(ctx)
    rows = TABLE_ROWS - 2 * ctx.order
    plain = extremes + random.Random(name).randbytes(rows * ctx.order)
    for chunk in (plain, extremes):
        results = _encrypt_kernels(ctx, chunk)
        assert results == [_multiply_product(ctx, chunk)] * len(results)
    ranges = ctx.entry_ranges
    assert [encrypt_rows(ctx, extremes)[r * ctx.order + r // 2] for r in range(2 * ctx.order)] \
        == [bound for pair in ranges for bound in pair]


def test_every_byte_of_every_table():
    ctx = CONTEXTS["bigint-5"]
    m = ctx.matrix
    assert all(ctx.byte_tables[j][t] == [b * m[t][j] for b in range(256)]
               for j in range(ctx.order) for t in range(ctx.order))
    for t in range(ctx.order):
        plain = bytes([b if u == t else 0 for b in range(256) for u in range(ctx.order)])
        with mock.patch.object(cipher, "TABLE_ROWS", 256):
            assert encrypt_rows(ctx, plain) == _multiply_product(ctx, plain)


@pytest.mark.parametrize("entry", [-1, 256, 10 ** 20])
def test_library_encrypt_refuses_entries_outside_the_alphabet(entry):
    block = [[1, 2, 3], [4, entry, 6], [7, 8, 9]]
    with pytest.raises(ValueError):
        encrypt([block], CONTEXTS["symmetric-3"])


def test_empty_encrypt_builds_no_tables(tmp_path, monkeypatch):
    # Only a key too wide for 64-bit slots builds tables: bigint-5's.
    keyfile, plain = tmp_path / "key.json", tmp_path / "plain.bin"
    save_key(KEYS["bigint-5"], keyfile)
    contexts = []
    load = cli._load_context
    monkeypatch.setattr(cli, "_load_context", lambda path: contexts.append(load(path)) or contexts[-1])
    # Empty, the most whole blocks short of a chunk, then one whole chunk of rows.
    for size, built in ((0, False), (5 * (TABLE_ROWS - 4), False), (5 * TABLE_ROWS, True)):
        plain.write_bytes(random.Random(size).randbytes(size))
        assert cli.main(["encrypt", str(keyfile), str(plain), "--out", str(tmp_path / "c.rmc")]) == 0
        assert ("byte_tables" in vars(contexts[-1])) == built
    ctx = KeyContext(KEYS["general-3"])
    assert encrypt([], ctx) == [] and encrypt_rows(ctx, b"") == []
    assert encrypt_rows(ctx, bytes(3 * TABLE_ROWS)) == [0] * 3 * TABLE_ROWS
    assert "byte_tables" not in vars(ctx)


def test_keys_wider_than_the_table_bound_multiply():
    ctx = KeyContext(symmetric_key((1, 0, 1), (1, 0, 0), 2000))
    assert max(abs(e) for row in ctx.matrix for e in row).bit_length() > TABLE_BITS
    plain = random.Random(4).randbytes(3 * TABLE_ROWS)
    assert encrypt_rows(ctx, plain) == _multiply_product(ctx, plain)
    assert "byte_tables" not in vars(ctx)


# ---------------------------------------------------------------------------
# decrypt product
# ---------------------------------------------------------------------------

def _decrypted(ctx: KeyContext, values: list, first_row: int):
    """decrypt_rows's bytes, or the text of its CorruptionError."""
    try:
        return decrypt_rows(ctx, values, first_row)
    except CorruptionError as exc:
        return str(exc)


def _entry_values(ctx: KeyContext, c: int) -> list[int]:
    """Values to put in place of a genuine entry c: near it, around the
    packed kernel's input bound 2**m and the int64 range, and far out."""
    m = ctx.cipher_slot_bits or 62
    return [0, -1, c + 1, c - 1, -c, 2 * c, 2 ** m - 1, -(2 ** m - 1), 2 ** m, -2 ** m,
            2 ** 63 - 1, -2 ** 63, 2 ** 63, 10 ** 400]


def _check_decrypt_kernels(ctx: KeyContext, values: list, first_row: int) -> None:
    """The packed kernel gives the multiply kernel's bytes, or refuses the
    chunk when the multiply kernel raises; decrypt_rows then raises the
    same CorruptionError."""
    result = _decrypted(ctx, values, first_row)
    with mock.patch.object(cipher, "SLOTS", False):
        expected = _decrypted(ctx, values, first_row)
    assert result == expected
    m = ctx.cipher_slot_bits
    if m is not None:
        packed = cipher._packed_plaintext(values, *ctx.scaled_inverse, m, ctx.order)
        assert packed == (expected if isinstance(expected, bytes) else None)


@SETTINGS
@given(st.sampled_from(sorted(KEYS)), st.data())
def test_packed_decrypt_agrees_with_the_multiply_kernel(name, data):
    ctx = CONTEXTS[name]
    rows = data.draw(st.integers(1, 40))
    plain = data.draw(st.binary(min_size=rows * ctx.order, max_size=rows * ctx.order))
    values = encrypt_rows(ctx, plain)
    first_row = data.draw(st.integers(0, 100))
    assert decrypt_rows(ctx, values, first_row) == plain
    at = data.draw(st.integers(0, len(values) - 1))
    values[at] = data.draw(st.sampled_from(_entry_values(ctx, values[at])))
    _check_decrypt_kernels(ctx, values, first_row)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_packed_decrypt_of_a_whole_chunk_with_one_entry_changed(name):
    ctx = CONTEXTS[name]
    rng = random.Random(name)
    plain = _extreme_rows(ctx) + rng.randbytes((TABLE_ROWS - 2 * ctx.order) * ctx.order)
    values = encrypt_rows(ctx, plain)
    _check_decrypt_kernels(ctx, values, 7)
    for at in (0, len(values) - 1, rng.randrange(len(values))):
        for value in _entry_values(ctx, values[at]):
            _check_decrypt_kernels(ctx, values[:at] + [value] + values[at + 1:], 7)


@pytest.mark.parametrize("name", sorted(KEYS))
@pytest.mark.parametrize("entry", [-1, 256, 511, 2 ** 16])
def test_packed_decrypt_refuses_a_plaintext_entry_outside_the_alphabet(name, entry):
    ctx = CONTEXTS[name]
    plain = list(random.Random(name).randbytes(40 * ctx.order))
    plain[37] = entry
    _check_decrypt_kernels(ctx, _multiply_product(ctx, plain), 0)


# ---------------------------------------------------------------------------
# ciphertext parse
# ---------------------------------------------------------------------------

def _reference_parse(text: str):
    """The body's values, or the message of the fault, by a per-line parse
    of the whole text: the line count, then the capacity, then the first
    malformed row.  The header is one the tests build, always well formed."""
    first, *lines = text.splitlines()
    fields = dict(part.split("=", 1) for part in first.split()[1:])
    k, count, length = int(fields["k"]), int(fields["blocks"]), int(fields["len"])
    rows = [parts for parts in map(str.split, lines) if parts]
    if len(rows) != count * k:
        return f"expected {count * k} matrix lines, found {len(rows)}"
    if count * k * k < length:
        return "declared length exceeds block capacity"
    values = []
    for r, parts in enumerate(rows):
        b, i = divmod(r, k)
        if len(parts) != k:
            return f"block {b} row {i} has {len(parts)} entries, wanted {k}"
        try:
            values += map(int, parts)
        except ValueError:
            return f"non-integer entry in block {b} row {i}"
    return values


def _parse(source):
    """The values or the fault of a ciphertext; a str is read as its UTF-8 bytes."""
    if isinstance(source, str):
        source = io.BytesIO(source.encode())
    try:
        header, chunks = read_cipher(source)
        return [v for chunk in chunks for v in chunk]
    except CipherFormatError as exc:
        return str(exc)


def _parse_file(text: str, path: Path):
    """As `rmc` reads a file: binary mode, whatever the locale."""
    path.write_bytes(text.encode())
    with open(path, "rb") as fh:
        return _parse(fh)


VARIANTS = ["tab", "double space", "leading space", "trailing space", "blank line",
            "all-space line", "crlf", "form feed", "plus sign", "arabic-indic digits",
            "fullwidth digits", "line separator", "short and long", "split entry", "letter"]


OTHER_WHITESPACE = "\t\x0b\x0c\r\x1c\x1f\x85\u2028\xa0"


def _split_first_entry(line: str, whitespace: str) -> str:
    first, sep, rest = line.partition(" ")
    return first + whitespace + "9" + sep + rest


def _drop_last_entry(line: str) -> str:
    return line.rpartition(" ")[0] + " "


def _mutate(lines: list[str], variant: str, rng: random.Random) -> None:
    """Apply one whitespace or entry variant to the body lines in place."""
    at = rng.randrange(len(lines))
    line = lines[at]
    if variant == "tab":
        lines[at] = line.replace(" ", "\t", 1)
    elif variant == "double space":
        lines[at] = line.replace(" ", "  ", 1)
    elif variant == "leading space":
        lines[at] = " " + line
    elif variant == "trailing space":
        lines[at] = line + " "
    elif variant == "blank line":
        lines.insert(at, "")
    elif variant == "all-space line":
        lines.insert(at, "   ")
    elif variant == "crlf":
        lines[at] = line + "\r"
    elif variant == "form feed":
        lines[at] = line.replace(" ", "\x0c", 1)
    elif variant == "plus sign":
        lines[at] = "+" + line.lstrip("-")
    elif variant == "arabic-indic digits":
        lines[at] = line.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    elif variant == "fullwidth digits":
        lines[at] = line.replace("1", "\uff11")
    elif variant == "line separator":
        lines[at] = line.replace(" ", "\u2028", 1)
    elif variant == "short and long":
        # One entry moves to the next line: the token count is unchanged.
        other = (at + 1) % len(lines)
        head, _, moved = line.rpartition(" ")
        lines[at], lines[other] = head, lines[other] + " " + moved
    elif variant == "split entry":
        # Other whitespace adds an entry to one line and its neighbour loses
        # one: both keep k - 1 spaces, and the token count is unchanged.
        other = min(at ^ 1, len(lines) - 1)
        lines[at] = _split_first_entry(line, rng.choice(OTHER_WHITESPACE))
        lines[other] = _drop_last_entry(lines[other])
    elif variant == "letter":
        lines[at] = line.replace((line.split() or [""])[-1], "x", 1)   # a blank line too


@pytest.fixture(scope="module")
def cipher_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "c.rmc"


@SETTINGS
@given(k=st.sampled_from([2, 3, 5]), blocks=st.integers(1, 12),
       variants=st.lists(st.sampled_from(VARIANTS), max_size=3), short=st.booleans(),
       final_lf=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_read_cipher_matches_a_per_line_parse(cipher_path, k, blocks, variants, short,
                                              final_lf, seed):
    rng = random.Random(seed)
    entry = [lambda: rng.randrange(256), lambda: rng.randrange(-10 ** 9, 10 ** 9),
             lambda: rng.randrange(10 ** 60)][seed % 3]
    lines = [" ".join(str(entry()) for _ in range(k)) for _ in range(blocks * k)]
    for variant in variants:
        _mutate(lines, variant, rng)
    if short:
        del lines[rng.randrange(len(lines))]
    text = "\n".join([f"RMCv1 k={k} blocks={blocks} len={blocks * k * k} fp=ab"] + lines)
    text += "\n" * final_lf
    expected = _reference_parse(text)
    # Batches of 64 characters, so faults fall in every batch.
    with mock.patch.object(formats, "READ_HINT", 64):
        assert _parse(text) == expected
        assert _parse_file(text, cipher_path) == expected


@pytest.mark.parametrize("whitespace", OTHER_WHITESPACE)
def test_other_whitespace_keeping_the_space_and_entry_counts(whitespace, cipher_path):
    lines = [_split_first_entry("10 20 30", whitespace), _drop_last_entry("40 50 60"), "1 2 3"]
    text = "\n".join(["RMCv1 k=3 blocks=1 len=9 fp=ab"] + lines) + "\n"
    expected = _reference_parse(text)
    assert _parse(text) == expected
    assert _parse_file(text, cipher_path) == expected


def test_canonical_batches_and_fallback_agree_across_batches():
    k = 3
    lines = [f"{r} {r + 1} {r + 2}" for r in range(0, 3 * 30, 3)]
    lines[17] = "1 2 3\x0c4 5 6"                # one line in the text, two rows
    lines[18] = "7 8 9"
    text = "\n".join(["RMCv1 k=3 blocks=10 len=90 fp=ab"] + lines[:29]) + "\n"
    expected = _reference_parse(text)
    assert isinstance(expected, list) and len(expected) == 30 * k
    with mock.patch.object(formats, "READ_HINT", 40):      # about five lines a batch
        assert _parse(text) == expected
    assert _parse(text) == expected


def _edge_texts() -> dict[str, str]:
    head = "RMCv1 k=3 blocks=4 len=36 fp=ab"
    canonical = "\n".join([head] + [f"{r} {-r} {7 * r}" for r in range(12)]) + "\n"
    long_line = "RMCv1 k=3 blocks=1 len=9 fp=ab\n1 2 " + "9" * 100_000 + "\n3 4 5\n6 7 8\n"
    return {
        "canonical": canonical,
        "no final line end": canonical[:-1],
        "header only": "RMCv1 k=3 blocks=0 len=0 fp=ab\n",
        "header only, no line end": "RMCv1 k=3 blocks=0 len=0 fp=ab",
        "header only, blocks declared": head + "\n",
        "trailing blank line": canonical + "\n",
        "trailing space-only line": canonical + "   \n",
        "trailing space-only line, no line end": canonical + "  ",
        "one line of 100 000 digits": long_line,
        "one line of 100 000 digits, k=1": "RMCv1 k=1 blocks=1 len=1 fp=ab\n" + "9" * 100_000,
        # An entry on an unterminated last line makes up the count of a short line.
        "short line made up by an unterminated last line":
            "RMCv1 k=2 blocks=1 len=4 fp=ab\n1 2\n3 \n4",
        "short row made up by an unterminated last line":
            "RMCv1 k=2 blocks=2 len=8 fp=ab\n1 2\n3 \n4 5\n6",
    }


@pytest.mark.parametrize("name", sorted(_edge_texts()))
def test_every_batch_size_reads_a_batch_edge_as_a_per_line_parse(name):
    text = _edge_texts()[name]
    expected = _reference_parse(text)
    for hint in range(1, 81):
        with mock.patch.object(formats, "READ_HINT", hint):
            assert _parse(text) == expected, hint


@pytest.mark.parametrize("separator", [b"\t", b"\r", b"\x0c"])
def test_other_whitespace_for_a_separator_leaves_the_canonical_path(separator):
    assert formats._canonical_values(b"1 2 3\n4 5 6\n", 3) == [1, 2, 3, 4, 5, 6]
    assert formats._canonical_values(b"1 2" + separator + b"3\n4 5 6\n", 3) is None
    # Two spaces a line and six entries in all: only the whitespace check refuses it.
    assert formats._canonical_values(b"1 2" + separator + b"9 3\n4 5 \n", 3) is None


def test_a_batch_without_a_final_line_end_leaves_the_canonical_path():
    # One space a line and four entries in all, the fourth on no counted line.
    assert formats._canonical_values(b"1 2\n3 \n4", 2) is None
    assert formats._canonical_values(b"1 2\n3 4", 2) is None


def test_form_feed_in_the_header_line_starts_the_body():
    text = "RMCv1 k=2 blocks=1 len=4 fp=ab\x0c1 2\n3 4\n"
    assert _reference_parse(text) == [1, 2, 3, 4]
    assert _parse(text) == [1, 2, 3, 4]


def test_an_undecodable_byte_is_named_by_its_offset_in_the_file():
    lines = [f"{r} {r + 1}" for r in range(40)]
    text = "\n".join(["RMCv1 k=2 blocks=20 len=80 fp=ab"] + lines).encode() + b"\n"
    codec = "'utf-8' codec can't decode"
    with mock.patch.object(formats, "READ_HINT", 40):      # the fault lies batches in
        assert (_parse(io.BytesIO(text[:200] + b"\xff" + text[201:]))
                == f"{codec} byte 0xff in position 200: invalid start byte")
        assert (_parse(io.BytesIO(text + b"\xe2\x82"))
                == f"{codec} bytes in position {len(text)}-{len(text) + 1}: unexpected end of data")


def test_a_lone_surrogate_is_undecodable_bytes():
    # A str can hold what no file does: cipher_from_text reads a text as its
    # UTF-8 bytes, so a lone surrogate faults as undecodable bytes.
    text = "RMCv1 k=2 blocks=1 len=4 fp=ab\n1 2\n3 \ud800\n"
    at = len(text.encode(errors="surrogatepass")) - 4
    with pytest.raises(CipherFormatError,
                       match=f"^'utf-8' codec can't decode byte 0xed in position {at}: "):
        formats.cipher_from_text(text)
