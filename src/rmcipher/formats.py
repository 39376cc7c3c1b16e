"""Key and ciphertext file formats, plus the error-injection channel model.

Key files are JSON ("rmc-key-v1"); every integer leaf is a decimal
string so arbitrarily large values survive any JSON reader.  Ciphertext
files are plain text: a header line

    RMCv1 k=<k> blocks=<B> len=<bytes> fp=<hex>

followed by k lines of k space-separated decimal integers per block, LF
line endings.  The key index n never appears in a ciphertext file: it is
secret key material.  Fingerprints tie the two formats together and are
checked before any arithmetic is attempted.

Rows are written as bytes.  A reader takes a binary file one bytes batch
of whole lines at a time; a whole text is read as its UTF-8 bytes.  A
batch as the writer leaves it (ASCII, k - 1 single spaces and a line end
on every line, k entries a line) is checked and parsed in whole-buffer
byte operations, with no step per line; any other batch is decoded as
UTF-8, whatever the locale, and goes through the per-line parse, which
alone names a malformed row, so both give the same values and faults.
"""

from __future__ import annotations

import io
import json
import random
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Optional, Sequence, Union

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
    binary file fh is read a batch of whole lines at a time (_batches) and
    decoded as UTF-8, whatever the locale, only where a batch is not ASCII;
    the lines are those str.splitlines() finds in its text.

    The iterator checks the whole body before it reports a fault, so the
    fault raised is the one a whole-file parse reports first: bytes that are
    not UTF-8 (named by their offset in the file), then the line count, then
    the capacity, then the first malformed row.  Chunks before a fault may
    already have been yielded.  A header fault is raised after the rest of
    the file is read, so undecodable bytes anywhere in the file outrank it.
    """
    batches = _batches(fh)
    data = next(batches, b"")
    if not data:
        raise CipherFormatError("empty ciphertext file")
    line, _, body = data.partition(b"\n")
    first, *rest = line.decode().splitlines() or [""]
    try:
        header = _parse_header(first)
    except CipherFormatError:
        for _ in batches:       # undecodable bytes anywhere rank first
            pass
        raise
    body = "".join(part + "\n" for part in rest).encode() + body
    return header, _read_rows(header, chain([body], batches))


def _batches(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of fh a batch at a time: READ_HINT bytes, then a readline to
    the end of their line, however long; a CipherFormatError at the first
    batch not UTF-8, with its decoding error's message at its offset in the file."""
    at = 0
    while data := fh.read(READ_HINT):
        data += fh.readline()
        if not data.isascii():
            try:
                data.decode()
            except UnicodeDecodeError as exc:
                start, end = at + exc.start, at + exc.end
                where = (f"byte 0x{data[exc.start]:02x} in position {start}"
                         if end - start == 1 else f"bytes in position {start}-{end - 1}")
                raise CipherFormatError(
                    f"'{exc.encoding}' codec can't decode {where}: {exc.reason}") from exc
        at += len(data)
        yield data


def _parse_header(line: str) -> CipherHeader:
    head = line.split()
    if not head or head[0] != CIPHER_MAGIC:
        raise CipherFormatError("missing RMCv1 header")
    fields = dict(part.split("=", 1) for part in head[1:] if "=" in part)
    try:
        header = CipherHeader(order=int(fields["k"]), count=int(fields["blocks"]),
                              length=int(fields["len"]), fingerprint=fields["fp"])
        if header.order < 1 or header.count < 0 or header.length < 0:
            raise ValueError("header field out of range")
    except (KeyError, ValueError) as exc:
        raise CipherFormatError(f"malformed header: {line!r}") from exc
    return header


_OTHER_WHITESPACE = b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f"   # ASCII whitespace but ' ' and '\n'
_NOT_SEPARATORS = bytes(c for c in range(256) if c not in b" \n")


def _canonical_values(data: bytes, k: int) -> Optional[list[int]]:
    """The entries of a batch, or None unless it is ASCII and ends in a line
    end, holds no other whitespace than ' ' and line ends (checked first: the
    next check deletes it), reads k - 1 spaces and a line end for each of its
    L line ends, and splits into kL entries.  Then each line holds exactly k
    entries, as the per-line parse needs: every entry lies on one of the L
    lines and ends at a separator of its own, so a line holds at most k, and
    kL in all leaves none short.  The separators are counted before their
    pattern is built, so a header's k never sizes more than the batch."""
    lines = data.count(b"\n")
    if (not data.isascii() or data[-1:] != b"\n" or any(c in data for c in _OTHER_WHITESPACE)
            or len(separators := data.translate(None, _NOT_SEPARATORS)) != k * lines
            or separators != (b" " * (k - 1) + b"\n") * lines):
        return None
    if len(entries := data.split()) != k * lines:
        return None
    try:
        return list(map(int, entries))
    except ValueError:
        return None


def _read_rows(header: CipherHeader, batches: Iterator[bytes]) -> Iterator[list[int]]:
    k = header.order
    rows = 0
    bad: Optional[tuple[list[list[str]], int]] = None     # chunk and first row of a fault
    carry: list[int] = []                                  # entries of a block not yet whole
    for data in batches:
        values = _canonical_values(data, k) if bad is None else None
        if values is not None:
            rows += len(values) // k
        else:
            chunk = list(filter(None, map(str.split, data.decode().splitlines())))  # no blank lines
            if bad is None:
                try:
                    if not {k}.issuperset(map(len, chunk)):
                        raise ValueError
                    values = list(map(int, chain.from_iterable(chunk)))
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
    if header.count * k * k < header.length:
        raise CipherFormatError("declared length exceeds block capacity")
    if bad is not None:
        raise _row_error(*bad, k)


def _row_error(chunk: list[list[str]], first_row: int, k: int) -> CipherFormatError:
    """The fault of the first malformed row of a chunk."""
    for r, parts in enumerate(chunk, first_row):
        b, i = divmod(r, k)
        if len(parts) != k:
            return CipherFormatError(f"block {b} row {i} has {len(parts)} entries, wanted {k}")
        try:
            list(map(int, parts))
        except ValueError:
            return CipherFormatError(f"non-integer entry in block {b} row {i}")
    raise AssertionError("chunk has no malformed row")


def cipher_from_text(text: str) -> tuple[CipherHeader, list[IntMatrix]]:
    """The header and the blocks of a whole ciphertext text, read as its
    UTF-8 bytes: a lone surrogate, which no file holds, is undecodable."""
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

