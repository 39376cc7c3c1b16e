"""Key and ciphertext file formats, plus the error-injection channel model.

Key files are JSON ("rmc-key-v1"); every integer leaf is a decimal
string so arbitrarily large values survive any JSON reader.  Ciphertext
files have one grammar, the writer's, read as ASCII bytes: the header line

    RMCv1 k=<k> blocks=<B> len=<bytes> fp=<letters and digits>

exactly (single spaces, numbers with no sign, underscore or leading zero,
k >= 1, B = ceil(len / k**2)), then k lines of k entries -?[0-9]+ per
block, the plaintext zero-padded to whole blocks.  The writer puts one
space between entries and LF line ends; the reader also takes any ASCII
whitespace, CR and CRLF line ends, blank lines and an entry's leading
zeros.  The key index n never appears in a ciphertext file: it is secret
key material.  Fingerprints tie the two formats together and are checked
before any arithmetic is attempted.

The body is read a batch of whole lines at a time.  A batch as the writer
leaves it is parsed in whole-buffer byte operations, with no step per
line; any other batch goes through the per-line parse, which alone names
a malformed row, so both give the same values and faults.
"""

from __future__ import annotations

import io
import json
import random
import re
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .cipher import split_blocks
from .coding import (KEY_FIELDS, KEY_FORMAT, KINDS, CodingKey, KeyReport, canonical_key_dict,
                     key_fingerprint, validate_key)
from .exactmat import IntMatrix
from .records import FrozenRecord

CIPHER_MAGIC = "RMCv1"


class KeyFormatError(ValueError):
    pass


class CipherFormatError(ValueError):
    pass


class FingerprintMismatchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# key files
# ---------------------------------------------------------------------------

def key_to_dict(key: CodingKey) -> dict:
    """The key file's content: the canonical key fields and the fingerprint."""
    return {**canonical_key_dict(key), "fingerprint": key_fingerprint(key)}


def _int_array(values, rank: int, what: str) -> list:
    """A JSON list of integers (rank 1), or of such lists (rank 2); each
    integer a JSON integer or a decimal string.  Floats, booleans, null and
    a bare string are refused, not coerced."""
    if not isinstance(values, list):
        raise KeyFormatError(f"bad integer list in {what}")
    if rank > 1:
        return [_int_array(v, rank - 1, what) for v in values]
    if not all(type(v) is int or isinstance(v, str) for v in values):
        raise KeyFormatError(f"bad integer list in {what}")
    try:
        return [int(v) for v in values]
    except ValueError as exc:
        raise KeyFormatError(f"bad integer list in {what}") from exc


def key_from_dict(data: dict) -> CodingKey:
    """The key a key file's content describes; it parses, require_valid validates."""
    if not isinstance(data, dict):
        raise KeyFormatError("a key file must hold a JSON object")
    if data.get("format") != KEY_FORMAT:
        raise KeyFormatError(f"unsupported key format {data.get('format')!r}")
    kind = data.get("kind")
    try:
        order, index = _int_array([data["order"], data["index"]], 1, "order/index")
    except (KeyError, KeyFormatError) as exc:
        raise KeyFormatError("missing or malformed order/index") from exc
    if kind not in KINDS:          # a tuple test: kind may be unhashable
        raise KeyFormatError(f"unknown key kind {kind!r}")
    try:
        key = CodingKey(kind, order, index, **{attr: _int_array(data[name], rank, name)
                                               for attr, name, rank in KEY_FIELDS[kind]})
    except KeyError as exc:
        raise KeyFormatError(f"missing key field {exc}") from exc
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from exc
    if "fingerprint" in data:
        actual = key_fingerprint(key)
        if data["fingerprint"] != actual:
            raise FingerprintMismatchError(
                f"key fingerprint {data['fingerprint']} does not match content ({actual})")
    return key


def require_valid(key: CodingKey) -> KeyReport:
    """validate_key's report on the key, or KeyFormatError naming the hard
    checks that fail."""
    validation = validate_key(key)
    if not validation.ok:
        failures = [it.name for it in validation.items if it.hard and it.status == "fail"]
        raise KeyFormatError(f"key fails validation: {', '.join(failures)}")
    return validation


def key_text(key: CodingKey) -> str:
    return json.dumps(key_to_dict(key), indent=2, sort_keys=True) + "\n"


def save_key(key: CodingKey, path: Union[str, Path]) -> None:
    Path(path).write_text(key_text(key))


def read_json(path: Union[str, Path]):
    """The JSON value in a UTF-8 file; ValueError for bad JSON, bad UTF-8,
    an integer past int()'s digit limit, or nesting too deep to parse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def load_key(path: Union[str, Path]) -> CodingKey:
    """The key in a key file, parsed as key_from_dict parses; not validated."""
    try:
        data = read_json(path)
    except ValueError as exc:
        raise KeyFormatError(f"not a JSON key file: {exc}") from exc
    return key_from_dict(data)


# ---------------------------------------------------------------------------
# ciphertext files
# ---------------------------------------------------------------------------

READ_HINT = 1 << 15            # bytes a batch reads before it finishes its last line


class CipherHeader(NamedTuple):
    order: int
    count: int                 # blocks
    length: int
    fingerprint: str


def cipher_header(order: int, count: int, length: int, fingerprint: str) -> bytes:
    return f"{CIPHER_MAGIC} k={order} blocks={count} len={length} fp={fingerprint}\n".encode()


def format_rows(values: Sequence[int], order: int) -> bytes:
    """Matrix lines for flat row-major entries, order entries a line, as bytes."""
    return ((b" ".join([b"%d"] * order) + b"\n") * (len(values) // order)) % tuple(values)


def cipher_to_text(blocks: Sequence[IntMatrix], length: int, order: int,
                   fingerprint: str) -> str:
    values = list(chain.from_iterable(chain.from_iterable(blocks)))
    if len(values) != len(blocks) * order * order:
        raise ValueError(f"blocks must be {order} x {order}")
    return (cipher_header(order, len(blocks), length, fingerprint)
            + format_rows(values, order)).decode()


def read_cipher(fh: BinaryIO) -> tuple[CipherHeader, Iterator[list[int]]]:
    """The header of a ciphertext and an iterator over its matrix rows, a
    chunk of whole blocks at a time, each chunk a flat row-major list.  The
    binary file fh is read as ASCII bytes: the header line, then a batch of
    whole lines at a time; the lines are those bytes.splitlines() finds.

    A header not in the form cipher_header writes faults at once.  The
    iterator checks the whole body before it reports a fault, so the fault
    raised is the one a whole-file parse reports first: the line count,
    then a blocks count other than ceil(len / k**2), then the first
    malformed row.  Chunks before a fault may already have been yielded.
    """
    header = _parse_header(fh.readline().removesuffix(b"\n").removesuffix(b"\r"))
    return header, _read_rows(header, fh)


_HEADER_FIELDS = (("k", rb"k=([1-9][0-9]*)"), ("blocks", rb"blocks=(0|[1-9][0-9]*)"),
                  ("len", rb"len=(0|[1-9][0-9]*)"), ("fp", rb"fp=([0-9A-Za-z]+)"))
_ENTRY_BYTES = b"-0123456789"          # an entry is -?[0-9]+


def _parse_header(line: bytes) -> CipherHeader:
    """The header line, its line end stripped, in the form cipher_header
    writes: the magic and the four fields in order, single spaces between
    them and no other token, numbers with no sign, underscore or leading
    zero, and k >= 1.  A fault names the first field that breaks the form."""
    magic, *tokens = line.split(b" ")
    if magic != CIPHER_MAGIC.encode():
        raise CipherFormatError("missing RMCv1 header")
    fields = []
    for (name, pattern), token in zip(_HEADER_FIELDS, tokens + [b""] * 4):
        match = re.fullmatch(pattern, token)
        try:
            if match is None:
                raise ValueError
            fields.append(match[1].decode() if name == "fp" else int(match[1]))
        except ValueError:                  # no match, or past int()'s digit limit
            raise CipherFormatError(f"malformed header: bad {name} field {token!r}") from None
    if len(tokens) > 4:
        raise CipherFormatError(f"malformed header: {tokens[4]!r} after fp")
    return CipherHeader(*fields)


def _entries(tokens: Iterable[bytes]) -> list[int]:
    """The values of entries: ValueError at a token with a byte that is not
    a digit or '-', and int() refuses the others that are not -?[0-9]+ (and
    those past its digit limit)."""
    tokens = list(tokens)
    if b"".join(tokens).translate(None, _ENTRY_BYTES):
        raise ValueError("not an entry")
    return list(map(int, tokens))


def _canonical_values(data: bytes, k: int) -> Optional[list[int]]:
    """The entries of a batch, or None unless it ends in a line end, reads
    k - 1 spaces and a line end for each of its L line ends once its digits
    and '-' are deleted, and splits into kL entries that int() takes.  Then
    each line holds exactly k entries, each -?[0-9]+, as the per-line parse
    needs: every entry lies on one of the L lines and ends at a separator
    of its own, so a line holds at most k, and kL in all leaves none short.
    The separators are counted before their pattern is built, so a header's
    k never sizes more than the batch."""
    lines = data.count(b"\n")
    if (data[-1:] != b"\n" or len(separators := data.translate(None, _ENTRY_BYTES)) != k * lines
            or separators != (b" " * (k - 1) + b"\n") * lines
            or len(entries := data.split()) != k * lines):
        return None
    try:
        return list(map(int, entries))
    except ValueError:
        return None


def _read_rows(header: CipherHeader, fh: BinaryIO) -> Iterator[list[int]]:
    k = header.order
    rows = 0
    bad: Optional[tuple[list[list[bytes]], int]] = None   # chunk and first row of a fault
    carry: list[int] = []                                  # entries of a block not yet whole
    while data := fh.read(READ_HINT):
        data += fh.readline()                              # to its line end, however far
        values = _canonical_values(data, k) if bad is None else None
        if values is not None:
            rows += len(values) // k
        else:
            chunk = list(filter(None, map(bytes.split, data.splitlines())))  # no blank lines
            if bad is None:
                try:
                    if not {k}.issuperset(map(len, chunk)):
                        raise ValueError
                    values = _entries(chain.from_iterable(chunk))
                except ValueError:
                    bad = chunk, rows
            rows += len(chunk)
        if values:
            values[:0] = carry
            cut = len(values) - len(values) % (k * k)
            carry = values[cut:]
            del values[cut:]
            if values:
                yield values
    if rows != header.count * k:
        raise CipherFormatError(f"expected {header.count * k} matrix lines, found {rows}")
    if header.count != (blocks := -(-header.length // (k * k))):
        raise CipherFormatError(f"malformed header: blocks={header.count}, but "
                                f"len={header.length} fills {blocks} at k={k}")
    if bad is not None:
        raise _row_error(*bad, k)


def _row_error(chunk: list[list[bytes]], first_row: int, k: int) -> CipherFormatError:
    """The fault of the first malformed row of a chunk."""
    for r, parts in enumerate(chunk, first_row):
        b, i = divmod(r, k)
        if len(parts) != k:
            return CipherFormatError(f"block {b} row {i} has {len(parts)} entries, wanted {k}")
        try:
            _entries(parts)
        except ValueError:
            return CipherFormatError(f"non-integer entry in block {b} row {i}")
    raise AssertionError("chunk has no malformed row")


def cipher_from_text(text: str) -> tuple[CipherHeader, list[IntMatrix]]:
    """The header and the blocks of a whole ciphertext text, read as its
    UTF-8 bytes (a lone surrogate too), as read_cipher reads a file."""
    header, chunks = read_cipher(io.BytesIO(text.encode(errors="surrogatepass")))
    return header, split_blocks(list(chain.from_iterable(chunks)), header.order)


# ---------------------------------------------------------------------------
# error injection
# ---------------------------------------------------------------------------

MODEL_REPLACE = "replace_uniform"
MODEL_TRANSPOSE = "digit_transpose"
MODEL_ADDITIVE = "additive_noise"
MODELS = (MODEL_REPLACE, MODEL_TRANSPOSE, MODEL_ADDITIVE)


class ErrorModel(FrozenRecord):
    """Channel corruption model: positions are distinct within a block."""

    _fields = ("kind", "count", "magnitude", "seed")

    def __init__(self, kind: str = MODEL_REPLACE, count: int = 1, magnitude: int = 100,
                 seed: int = 0) -> None:
        if kind not in MODELS:
            raise ValueError(f"unknown error model {kind!r}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if magnitude < 1:
            raise ValueError("magnitude must be positive")
        vars(self).update(kind=kind, count=count, magnitude=magnitude, seed=seed)


class CorruptionRecord(NamedTuple):
    block: int
    row: int
    col: int
    original: int
    corrupted: int


def _transpose_digits(value: int, rng: random.Random) -> int:
    sign = -1 if value < 0 else 1
    digits = list(str(abs(value)))
    if len(digits) >= 2:
        positions = list(range(len(digits) - 1))
        rng.shuffle(positions)
        for p in positions:
            if digits[p] != digits[p + 1]:
                digits[p], digits[p + 1] = digits[p + 1], digits[p]
                return sign * int("".join(digits))
    return value + 1  # all digits equal: fall back to a minimal change


def _corrupt_value(value: int, model: ErrorModel, rng: random.Random) -> int:
    if model.kind == MODEL_TRANSPOSE:
        return _transpose_digits(value, rng)
    if model.kind == MODEL_ADDITIVE:
        delta = rng.randint(1, model.magnitude) * rng.choice((-1, 1))
        return value + delta
    lo = value - model.magnitude
    hi = value + model.magnitude
    new = rng.randint(lo, hi)
    while new == value:
        new = rng.randint(lo, hi)
    return new


def corrupt_blocks(blocks: Sequence[IntMatrix],
                   model: ErrorModel) -> tuple[list[IntMatrix], list[CorruptionRecord]]:
    """Corrupt `count` distinct entries per block, drawing from model.seed.

    Returns the corrupted blocks and a ground-truth record of every
    change (the sidecar content for audits)."""
    rng = random.Random(model.seed)
    out = [[list(row) for row in block] for block in blocks]
    records: list[CorruptionRecord] = []
    for b, block in enumerate(out):
        records += corrupt_block(block, b, model, rng)
    return out, records


def corrupt_block(block: IntMatrix, b: int, model: ErrorModel,
                  rng: random.Random) -> list[CorruptionRecord]:
    """Corrupts `count` distinct entries of block number b in place, drawing
    from rng; the records of the changes.  One rng threaded through the
    blocks in order gives the blocks corrupt_blocks gives."""
    k = len(block)
    positions = rng.sample([(i, j) for i in range(k) for j in range(k)], min(model.count, k * k))
    records = []
    for i, j in positions:
        original = block[i][j]
        block[i][j] = _corrupt_value(original, model, rng)
        records.append(CorruptionRecord(b, i, j, original, block[i][j]))
    return records


def records_to_json(records: Sequence[CorruptionRecord]) -> list[dict]:
    return [{"block": r.block, "row": r.row, "col": r.col,
             "original": str(r.original), "corrupted": str(r.corrupted)}
            for r in records]

