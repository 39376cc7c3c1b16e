import io
import json
import string
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcipher import general_key, key_fingerprint, right_form_key, symmetric_key
from rmcipher.cipher import split_blocks
from rmcipher.coding import KEY_FIELDS
from rmcipher.formats import (CipherFormatError, CipherHeader, ErrorModel,
                              FingerprintMismatchError, KeyFormatError, cipher_from_text,
                              cipher_header, cipher_to_text,
                              corrupt_blocks, format_rows, key_from_dict, key_to_dict, load_key,
                              read_cipher, records_to_json, require_valid,
                              save_key)


@pytest.mark.parametrize("key_builder", [
    lambda: symmetric_key((1, 0, 1), (1, 0, 0), 15),
    lambda: general_key([[1, 2], [3, 4]], (1, 0), 9),
    lambda: right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5),
])
def test_key_roundtrip(key_builder, tmp_path):
    key = key_builder()
    path = tmp_path / "key.json"
    save_key(key, path)
    assert load_key(path) == key


def test_key_file_uses_decimal_strings(tmp_path):
    key = symmetric_key((1, 0, 1), (10 ** 40, 0, 1), 10 ** 6)
    d = key_to_dict(key)
    assert d["initial_vector"][0] == str(10 ** 40)
    assert d["index"] == str(10 ** 6)
    path = tmp_path / "big.json"
    save_key(key, path)
    raw = json.loads(path.read_text())
    assert isinstance(raw["initial_vector"][0], str)
    assert load_key(path) == key


def test_key_fingerprint_mismatch_rejected():
    key = symmetric_key((1, 0, 1), (1, 0, 0), 15)
    d = key_to_dict(key)
    d["fingerprint"] = "0" * 16
    with pytest.raises(FingerprintMismatchError):
        key_from_dict(d)


def test_key_validation_on_parse():
    bad = symmetric_key((0, 1), (1, 0), 5)  # a_0 = 0: not invertible
    d = key_to_dict(bad)
    parsed = key_from_dict(d)                # parsing only parses
    assert parsed == bad
    with pytest.raises(KeyFormatError, match="invertible_transition"):
        require_valid(parsed)


def test_key_format_errors():
    with pytest.raises(KeyFormatError):
        key_from_dict({"format": "other"})
    with pytest.raises(KeyFormatError):
        key_from_dict({"format": "rmc-key-v1", "kind": "symmetric", "order": 3})
    with pytest.raises(KeyFormatError):
        key_from_dict({"format": "rmc-key-v1", "kind": "weird", "order": 3, "index": 1})
    d = key_to_dict(right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5))
    for kind in (["right_form"], {"a": 1}, 3, None):      # unhashable kinds too
        with pytest.raises(KeyFormatError, match="unknown key kind"):
            key_from_dict({**d, "kind": kind})


def test_key_fields_follow_the_field_table():
    for key in (symmetric_key((1, 0, 1), (1, 0, 0), 15), general_key([[1, 2], [3, 4]], (1, 0), 9),
                right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5)):
        d = key_to_dict(key)
        names = {name for _, name, _ in KEY_FIELDS[key.kind]}
        assert set(d) == {"format", "kind", "order", "index", "fingerprint"} | names
        for name in names:                    # each field is required
            with pytest.raises(KeyFormatError, match=f"missing key field '{name}'"):
                key_from_dict({f: v for f, v in d.items() if f != name})


def test_cipher_text_roundtrip(tmp_path):
    blocks = [[[60861, 41528, 28337], [68585, 46798, 31933], [68601, 46809, 31940]]]
    text = cipher_to_text(blocks, 9, 3, "ab" * 8)
    header, parsed = cipher_from_text(text)
    assert parsed == blocks
    assert header.length == 9 and header.order == 3 and header.fingerprint == "ab" * 8
    assert cipher_to_text(parsed, header.length, header.order, header.fingerprint) == text
    path = tmp_path / "c.rmc"
    path.write_text(cipher_to_text(blocks, 9, 3, "ab" * 8))
    with open(path, "rb") as fh:
        header, chunks = read_cipher(fh)
        assert split_blocks([v for chunk in chunks for v in chunk], header.order) == blocks


@pytest.mark.parametrize("order", [1, 2, 3])
def test_format_rows_writes_the_decimal_text_as_bytes(order):
    values = [-(10 ** 3999) - 7, 0, -1, 10 ** 3999 + 3, 255, -300]      # 4000 digits
    text = ((" ".join(["%d"] * order) + "\n") * (len(values) // order)) % tuple(values)
    assert format_rows(values, order) == text.encode()
    assert format_rows([], order) == b""


def test_cipher_header_only_for_empty_payload():
    text = cipher_to_text([], 0, 3, "00" * 8)
    assert text == "RMCv1 k=3 blocks=0 len=0 fp=" + "00" * 8 + "\n"
    header, parsed = cipher_from_text(text)
    assert parsed == [] and header.length == 0


def test_cipher_format_errors():
    with pytest.raises(CipherFormatError):
        cipher_from_text("")
    with pytest.raises(CipherFormatError):
        cipher_from_text("NOPE k=3 blocks=0 len=0 fp=x\n")
    with pytest.raises(CipherFormatError):
        cipher_from_text("RMCv1 k=3 blocks=1 len=9 fp=x\n1 2 3\n")
    with pytest.raises(CipherFormatError):
        cipher_from_text("RMCv1 k=2 blocks=1 len=9 fp=x\n1 2\n3 4\n")  # len > capacity
    with pytest.raises(CipherFormatError):
        cipher_from_text("RMCv1 k=2 blocks=1 len=3 fp=x\n1 two\n3 4\n")
    for header in ("k=0 blocks=-3 len=-1", "k=0 blocks=0 len=0", "k=-2 blocks=0 len=0",
                   "k=2 blocks=-1 len=0", "k=2 blocks=1 len=-7"):
        with pytest.raises(CipherFormatError, match="^malformed header: "):
            cipher_from_text(f"RMCv1 {header} fp=x\n1 2\n3 4\n")


FINGERPRINTS = st.text(string.ascii_letters + string.digits, min_size=1, max_size=16)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(k=st.integers(1, 10 ** 6), length=st.integers(0, 10 ** 40), fp=FINGERPRINTS)
def test_every_header_the_writer_writes_reads_back_unchanged(k, length, fp):
    blocks = -(-length // (k * k))
    header, _chunks = read_cipher(io.BytesIO(cipher_header(k, blocks, length, fp)))
    assert header == CipherHeader(k, blocks, length, fp)


FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
NUMBER_MUTATIONS = {
    "plus sign": lambda v: "+" + v,
    "minus sign": lambda v: "-" + v,
    "underscore": lambda v: v[0] + "_" + v[1:],
    "leading zero": lambda v: "0" + v,
    "full-width digit": lambda v: v[0].translate(FULLWIDTH) + v[1:],
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(k=st.integers(1, 5), length=st.integers(0, 200), fp=FINGERPRINTS,
       mutation=st.sampled_from(sorted(NUMBER_MUTATIONS) + ["extra token", "swapped fields",
                                                            "blocks off by one"]),
       field=st.integers(0, 2), down=st.booleans())
def test_a_header_the_writer_never_writes_is_refused(k, length, fp, mutation, field, down):
    blocks = -(-length // (k * k))
    text = cipher_header(k, blocks, length, fp).decode()
    header, chunks = read_cipher(io.BytesIO(text.encode() + format_rows([0] * (blocks * k * k), k)))
    assert header == CipherHeader(k, blocks, length, fp)
    assert sum(map(len, chunks)) == blocks * k * k
    tokens = text.split()
    count = blocks
    if mutation == "extra token":
        tokens.append("x=1")
    elif mutation == "swapped fields":
        tokens[field + 1], tokens[field + 2] = tokens[field + 2], tokens[field + 1]
    elif mutation == "blocks off by one":
        count = blocks - 1 if down and blocks else blocks + 1
        tokens[2] = f"blocks={count}"               # and rows enough for count blocks
    else:
        name, _, value = tokens[field + 1].partition("=")
        tokens[field + 1] = f"{name}={NUMBER_MUTATIONS[mutation](value)}"
    bad = (" ".join(tokens) + "\n").encode() + format_rows([0] * (count * k * k), k)
    with pytest.raises(CipherFormatError, match="^malformed header: "):
        _header, chunks = read_cipher(io.BytesIO(bad))
        list(chunks)


def test_error_model_zero_count_is_identity():
    blocks = [[[1, 2], [3, 4]]]
    model = ErrorModel(kind="replace_uniform", count=0, seed=4)
    corrupted, records = corrupt_blocks(blocks, model)
    assert corrupted == blocks and records == []


def test_error_model_distinct_positions_and_determinism():
    blocks = [[[100, 200, 300], [400, 500, 600], [700, 800, 900]]]
    model = ErrorModel(kind="replace_uniform", count=4, magnitude=50, seed=9)
    first, records1 = corrupt_blocks(blocks, model)
    second, records2 = corrupt_blocks(blocks, model)
    assert first == second and records1 == records2
    positions = [(r.row, r.col) for r in records1]
    assert len(set(positions)) == 4
    for r in records1:
        assert r.corrupted != r.original
        assert abs(r.corrupted - r.original) <= 50


def test_error_model_additive_bounds():
    blocks = [[[1000, 2000], [3000, 4000]]]
    model = ErrorModel(kind="additive_noise", count=2, magnitude=7, seed=13)
    _, records = corrupt_blocks(blocks, model)
    for r in records:
        assert 1 <= abs(r.corrupted - r.original) <= 7


def test_digit_transpose_can_produce_classic_swap():
    blocks = [[[580, 580], [580, 580]]]
    outcomes = set()
    for seed in range(20):
        model = ErrorModel(kind="digit_transpose", count=1, seed=seed)
        _, records = corrupt_blocks(blocks, model)
        outcomes.add(records[0].corrupted)
    assert 508 in outcomes or 850 in outcomes
    assert 580 not in outcomes


def test_digit_transpose_single_digit_falls_back():
    blocks = [[[7, 7], [7, 7]]]
    model = ErrorModel(kind="digit_transpose", count=1, seed=2)
    _, records = corrupt_blocks(blocks, model)
    assert records[0].corrupted != 7


def test_error_model_argument_checks():
    with pytest.raises(ValueError):
        ErrorModel(kind="bogus")
    with pytest.raises(ValueError):
        ErrorModel(count=-1)
    with pytest.raises(ValueError):
        ErrorModel(magnitude=0)


def test_a_huge_k_sizes_no_allocation_in_the_reader():
    data = b"RMCv1 k=1000000 blocks=1 len=0 fp=0\n" + b"1\n" * 200      # 436 bytes
    tracemalloc.start()
    try:
        _header, chunks = read_cipher(io.BytesIO(data))
        with pytest.raises(CipherFormatError, match="expected 1000000 matrix lines, found 200"):
            list(chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_records_to_json():
    blocks = [[[11, 22], [33, 44]]]
    model = ErrorModel(kind="replace_uniform", count=2, magnitude=5, seed=6)
    corrupted, records = corrupt_blocks(blocks, model)
    assert corrupted == [[[10, 17], [33, 44]]]
    assert records_to_json(records) == [
        {"block": 0, "row": 0, "col": 0, "original": "11", "corrupted": "10"},
        {"block": 0, "row": 0, "col": 1, "original": "22", "corrupted": "17"}]


def test_key_roundtrip_preserves_fingerprint(tmp_path):
    key = general_key([[0, 1, 1], [1, 2, 1], [0, 1, 0]], (0, 0, 1), 6)
    path = tmp_path / "key.json"
    save_key(key, path)
    raw = json.loads(path.read_text())
    assert raw["fingerprint"] == key_fingerprint(key)


GOLDEN_KEY_FILES = [
    (symmetric_key((1, 0, 1), (1, 0, 0), 15), """\
{
  "coefficients": [
    "1",
    "0",
    "1"
  ],
  "fingerprint": "4dd2eb75dd977f43",
  "format": "rmc-key-v1",
  "index": "15",
  "initial_vector": [
    "1",
    "0",
    "0"
  ],
  "kind": "symmetric",
  "order": 3
}
"""),
    (general_key([[1, 2], [3, 4]], (1, 0), 9), """\
{
  "fingerprint": "a8ef2f41b53d3e39",
  "format": "rmc-key-v1",
  "index": "9",
  "initial_vector": [
    "1",
    "0"
  ],
  "kind": "general",
  "left_matrix": [
    [
      "1",
      "2"
    ],
    [
      "3",
      "4"
    ]
  ],
  "order": 2
}
"""),
    (right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5), """\
{
  "coefficients": [
    "-4",
    "0",
    "5"
  ],
  "fingerprint": "5dd2604c0c428356",
  "format": "rmc-key-v1",
  "index": "5",
  "initial_matrix": [
    [
      "8",
      "2",
      "1"
    ],
    [
      "4",
      "0",
      "0"
    ],
    [
      "8",
      "2",
      "0"
    ]
  ],
  "kind": "right_form",
  "order": 3
}
"""),
]


@pytest.mark.parametrize("key,text", GOLDEN_KEY_FILES, ids=lambda v: getattr(v, "kind", ""))
def test_key_file_text_is_pinned(key, text, tmp_path):
    path = tmp_path / "key.json"
    save_key(key, path)
    assert path.read_text() == text
    assert load_key(path) == key
