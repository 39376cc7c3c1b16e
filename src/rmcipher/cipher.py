"""Byte-stream digitization and exact block encryption / decryption.

Plaintext bytes fill k x k blocks row by row, left to right, padded with
zero bytes; the original length is kept alongside so binary payloads
invert exactly.  Encryption is C = P * M_n; decryption multiplies by the
exact rational inverse and demands an integral, in-alphabet result,
raising a corruption error that names the offending block and entry
otherwise.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

from .coding import KeyContext, KeyLike, key_context
from .exactmat import IntMatrix

ALPHABET_MAX = 255


class CorruptionError(ValueError):
    """Decryption produced a non-integral or out-of-alphabet entry."""

    def __init__(self, block: int, row: int, col: int, detail: str):
        super().__init__(f"block {block}, entry ({row}, {col}): {detail}")
        self.block = block
        self.row = row
        self.col = col
        self.detail = detail


def digitize(data: bytes, k: int) -> tuple[list[IntMatrix], int]:
    """Split bytes into k x k blocks (row-major), zero-padded; returns
    the blocks and the original byte length."""
    if k < 2:
        raise ValueError("block dimension must be at least 2")
    size = k * k
    blocks: list[IntMatrix] = []
    for start in range(0, len(data), size):
        chunk = data[start:start + size]
        chunk = chunk + b"\x00" * (size - len(chunk))
        blocks.append([[chunk[i * k + j] for j in range(k)] for i in range(k)])
    return blocks, len(data)


def assemble(blocks: Sequence[Sequence[Sequence[int]]], length: int) -> bytes:
    """Inverse of digitize: flatten row-major and strip the padding."""
    out = bytearray()
    for block in blocks:
        for row in block:
            out.extend(int(v) for v in row)
    if length > len(out):
        raise ValueError("stored length exceeds block capacity")
    return bytes(out[:length])


def _check_block(block: IntMatrix, b: int, k: int) -> None:
    if len(block) != k or any(len(row) != k for row in block):
        raise ValueError(f"block {b} does not match the key dimension {k}")


def encrypt(blocks: Sequence[IntMatrix], key: KeyLike, n: Optional[int] = None) -> list[IntMatrix]:
    """C_b = P_b * M_n, the same M_n for every block."""
    ctx = key_context(key, n)
    cols = ctx.columns
    out: list[IntMatrix] = []
    for b, block in enumerate(blocks):
        _check_block(block, b, ctx.order)
        out.append([[sum(map(mul, row, col)) for col in cols] for row in block])
    return out


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


def decrypt(blocks: Sequence[IntMatrix], key: KeyLike, length: Optional[int] = None,
            n: Optional[int] = None) -> bytes:
    """Exact decryption; every entry must be an integer in [0, 255].

    When length is None the full padded payload is returned.
    """
    ctx = key_context(key, n)

    def plain_blocks():
        # One block at a time: assemble keeps only the bytes.
        for b, block in enumerate(blocks):
            _check_block(block, b, ctx.order)
            yield [decrypt_row(ctx, row, b, i) for i, row in enumerate(block)]

    total = len(blocks) * ctx.order ** 2
    return assemble(plain_blocks(), total if length is None else length)


def encrypt_bytes(data: bytes, key: KeyLike, n: Optional[int] = None) -> tuple[list[IntMatrix], int]:
    ctx = key_context(key, n)
    blocks, length = digitize(data, ctx.order)
    return encrypt(blocks, ctx), length
