"""Byte-stream digitization and exact block encryption / decryption.

Plaintext bytes fill k x k blocks row by row, left to right, padded with
zero bytes; the original length is kept alongside so binary payloads
invert exactly.  Encryption is C = P * M_n; decryption multiplies by the
exact rational inverse and demands an integral, in-alphabet result,
raising a corruption error that names the offending block and entry
otherwise.  Every function takes the key as a KeyContext.  Every block
shares M_n, so both products run on any number of rows at once
(encrypt_rows, decrypt_rows), a column at a time, by one of three kernels
chosen per key:

* packed 64-bit slots, for a key whose products fit them
  (KeyContext.product_bits, KeyContext.cipher_slot_bits): a chunk's input
  column is one int, a row per 8-byte slot, and each output column is k
  scalar multiplies of those ints, done in C.  No carry crosses a slot,
  so the product is exact, and decryption checks integrality and the
  alphabet on the packed ints (_packed_plaintext); a chunk that fails
  them is multiplied again as below, which raises the CorruptionError of
  its first bad entry;
* byte tables, for a wider key encrypting TABLE_ROWS rows or more while
  its products fit in TABLE_BITS bits: each product b * M_n[t][j] is
  looked up in the key's tables (KeyContext.byte_tables) and only added;
* otherwise, multiplies of the strided slices, entry by entry.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from operator import add, floordiv, mod, mul
from typing import Iterator, Optional, Sequence

from .coding import ALPHABET_MAX, KeyContext
from .exactmat import IntMatrix

# A key whose products fit 64-bit slots encrypts by the packed kernel,
# which beats both others at every length.  A wider key sums byte-table
# lookups for a call of TABLE_ROWS rows or more while its products fit in
# TABLE_BITS bits; otherwise it multiplies.  The k * k * 256 table entries
# pay back their building within about 600 rows, and fewer for wider
# entries; `rmc encrypt` passes TABLE_ROWS-row chunks.  At 1024 bits the tables
# hold about 1 MB at k = 5, and the decimal text of a chunk already costs
# over twice its product, so wider tables would hold more memory for less
# time saved.
TABLE_ROWS = 1024
TABLE_BITS = 1024
# array('q') holds its slots in the host's byte order; the packed kernels
# read and write them as little-endian, so other hosts multiply.
SLOTS = sys.byteorder == "little"
_SLOT_ONE = b"\1" + bytes(7)


class CorruptionError(ValueError):
    """Decryption produced a non-integral or out-of-alphabet entry."""

    def __init__(self, block: int, row: int, col: int, detail: str):
        super().__init__(f"block {block}, entry ({row}, {col}): {detail}")
        self.block = block
        self.row = row
        self.col = col
        self.detail = detail


def padded(data: bytes, k: int) -> bytes:
    """The bytes followed by zero bytes up to a whole number of k x k blocks."""
    return data + bytes(-len(data) % (k * k))


def split_blocks(values: Sequence[int], k: int) -> list[IntMatrix]:
    """Flat row-major entries cut into k x k blocks of row lists."""
    rows = [list(values[i:i + k]) for i in range(0, len(values), k)]
    return [rows[i:i + k] for i in range(0, len(rows), k)]


def _entries(blocks: Sequence[IntMatrix], k: int) -> list[int]:
    """Entries of k x k blocks, row-major, block after block."""
    rows = list(chain.from_iterable(blocks))
    if not {k}.issuperset(chain(map(len, blocks), map(len, rows))):
        b = next(b for b, block in enumerate(blocks)
                 if len(block) != k or any(len(row) != k for row in block))
        raise ValueError(f"block {b} does not match the key dimension {k}")
    return list(chain.from_iterable(rows))


def digitize(data: bytes, k: int) -> tuple[list[IntMatrix], int]:
    """Split bytes into k x k blocks (row-major), zero-padded; returns
    the blocks and the original byte length."""
    if k < 2:
        raise ValueError("block dimension must be at least 2")
    return split_blocks(padded(data, k), k), len(data)


def _product_columns(values: Sequence[int], cols, k: int) -> Iterator[list[int]]:
    """Column j of R * M for each column cols[j] of M, where R is the
    matrix whose rows are the consecutive k-entry runs of values.  Each
    column is one chain of map multiply-adds over the strided slices."""
    slices = [values[t::k] for t in range(k)]
    for col in cols:
        acc = map(mul, slices[0], repeat(col[0]))
        for s, c in zip(slices[1:], col[1:]):
            acc = map(add, acc, map(mul, s, repeat(c)))
        yield list(acc)


def _table_columns(plain: bytes, byte_tables, k: int) -> Iterator[Iterator[int]]:
    """The columns of _product_columns(plain, M_n's columns, k), column j
    of row p summed from the lookups byte_tables[j][t][p[t]]."""
    slices = [plain[t::k] for t in range(k)]
    for tables in byte_tables:
        acc = map(tables[0].__getitem__, slices[0])
        for s, table in zip(slices[1:], tables[1:]):
            acc = map(add, acc, map(table.__getitem__, s))
        yield acc


def _slot_ones(rows: int) -> int:
    """1 in each of rows 8-byte slots: times v, v in every slot."""
    return int.from_bytes(_SLOT_ONE * rows, "little")


def _packed_product(plain: bytes, cols, k: int) -> list[int]:
    """The flat product of _product_columns(plain, cols, k), for columns
    whose every product lies in [-2**63, 2**63): each plaintext column a
    row per slot, each output column k scalar multiplies, read back as
    signed slots (adding 2**63 to each makes every slot a plain digit)."""
    from array import array
    rows = len(plain) // k
    size = 8 * rows
    half = _slot_ones(rows) << 63
    xs = []
    for t in range(k):
        buf = bytearray(size)
        buf[::8] = plain[t::k]
        xs.append(int.from_bytes(buf, "little"))
    out = array("q", bytes(8 * len(plain)))
    for j, col in enumerate(cols):
        column = array("q")
        column.frombytes(((sum(map(mul, col, xs)) + half) ^ half).to_bytes(size, "little"))
        out[j::k] = column
    return out.tolist()


def _packed_plaintext(values: Sequence[int], cols, denom: int, m: int, k: int) -> Optional[bytes]:
    """The plaintext bytes of values times cols / denom, or None unless
    every entry of values lies in [-2**m, 2**m) and every plaintext entry
    is an integer in [0, ALPHABET_MAX].  m must keep every slot of
    sum_t cols[j][t] * X_t inside (-2**63, 2**63) (KeyContext.cipher_slot_bits).
    Then that sum holds one row's entry per slot with no carry, and a
    quotient q by denom with no remainder whose slots are each in
    [0, ALPHABET_MAX] is the plaintext: base-2**64 digits in [-2**63, 2**63)
    are unique, and denom * ALPHABET_MAX < 2**63."""
    from array import array
    try:
        entries = array("q", values)
    except (OverflowError, TypeError):      # an entry outside int64, or no int
        return None
    rows = len(values) // k
    size = 8 * rows
    ones = _slot_ones(rows)
    half, shift = ones << 63, ones << m
    # Bits m + 1 to 63 of each slot, clear in X + 2**m * ones exactly when
    # every entry of X lies in [-2**m, 2**m) (m < 63).
    outside = ones * ((1 << 64) - (2 << m))
    xs = []
    for t in range(k):
        x = (int.from_bytes(entries[t::k].tobytes(), "little") ^ half) - half
        if (x + shift) & outside:
            return None
        xs.append(x)
    high = ones * ((1 << 64) - (ALPHABET_MAX + 1))
    out = bytearray(len(values))
    for j, col in enumerate(cols):
        q = sum(map(mul, col, xs))
        if denom != 1:
            q, r = divmod(q, denom)
            if r:
                return None
        if q < 0 or q & high:
            return None
        out[j::k] = q.to_bytes(size, "little")[::8]
    return bytes(out)


def encrypt_rows(ctx: KeyContext, plain: Sequence[int]) -> list[int]:
    """Rows times M_n, for rows given as flat row-major bytes; the product
    comes back flat in the same layout.  Entries outside [0, 255] and a
    partial row raise ValueError.  A key whose products fit 64-bit slots
    takes the packed kernel.  A call of TABLE_ROWS rows or more, by a wider
    key whose products fit in TABLE_BITS bits, sums lookups in
    ctx.byte_tables, building them on first use; any other multiplies."""
    plain = bytes(plain)
    k = ctx.order
    if len(plain) % k:
        raise ValueError(f"{len(plain)} entries do not make whole rows of k = {k}")
    bits = ctx.product_bits
    if bits < 64 and SLOTS:
        return _packed_product(plain, ctx.columns, k)
    if len(plain) >= TABLE_ROWS * k and bits <= TABLE_BITS:
        columns = _table_columns(plain, ctx.byte_tables, k)
    else:
        columns = _product_columns(plain, ctx.columns, k)
    out = [0] * len(plain)
    for j, column in enumerate(columns):
        out[j::k] = column
    return out


def decrypt_rows(ctx: KeyContext, values: Sequence[int], first_row: int = 0) -> bytes:
    """Rows times M_n**-1, for rows given as flat row-major entries, as
    plaintext bytes; a partial row raises ValueError.  Row r of values is row
    first_row + r of the whole ciphertext, which labels a CorruptionError
    with its block and row.  A key with ctx.cipher_slot_bits tries the
    packed kernel first; a chunk it refuses, and any chunk of another key,
    is multiplied."""
    k = ctx.order
    if len(values) % k:
        raise ValueError(f"{len(values)} entries do not make whole rows of k = {k}")
    cols, denom = ctx.scaled_inverse
    m = ctx.cipher_slot_bits
    if m is not None and SLOTS:
        plain = _packed_plaintext(values, cols, denom, m, k)
        if plain is not None:
            return plain
    out = bytearray(len(values))
    try:
        for j, column in enumerate(_product_columns(values, cols, k)):
            if denom != 1:
                if any(map(mod, column, repeat(denom))):
                    raise ValueError("non-integral plaintext value")
                column = map(floordiv, column, repeat(denom))
            out[j::k] = bytes(column)         # ValueError outside [0, 255]
    except ValueError:
        # decrypt_row raises at the first bad entry in row order.
        out = bytearray()
        for r in range(len(values) // k):
            out += bytes(decrypt_row(ctx, values[r * k:(r + 1) * k], *divmod(first_row + r, k)))
    return bytes(out)


def encrypt(blocks: Sequence[IntMatrix], ctx: KeyContext) -> list[IntMatrix]:
    """C_b = P_b * M_n, the same M_n for every block; an entry outside
    [0, 255] raises ValueError."""
    return split_blocks(encrypt_rows(ctx, _entries(blocks, ctx.order)), ctx.order)


def decrypt_row(ctx: KeyContext, row: Sequence[int], block: int = 0, i: int = 0) -> list[int]:
    """Plaintext row row * M_n**-1, which must be integral and inside the
    alphabet; CorruptionError names the first bad entry, labelled with
    the given block and row indices."""
    cols, denom = ctx.scaled_inverse
    out: list[int] = []
    for j, col in enumerate(cols):
        q, r = divmod(sum(map(mul, row, col)), denom)
        if r != 0:
            raise CorruptionError(block, i, j, "non-integral plaintext value")
        if not 0 <= q <= ALPHABET_MAX:
            raise CorruptionError(block, i, j, f"plaintext value {q} outside [0, {ALPHABET_MAX}]")
        out.append(q)
    return out


def decrypt(blocks: Sequence[IntMatrix], ctx: KeyContext, length: Optional[int] = None) -> bytes:
    """Exact decryption; every entry must be an integer in [0, 255].

    When length is None the full padded payload is returned; a length past
    it raises ValueError.
    """
    plain = decrypt_rows(ctx, _entries(blocks, ctx.order))
    if length is not None and length > len(plain):
        raise ValueError("stored length exceeds block capacity")
    return plain[:length]
