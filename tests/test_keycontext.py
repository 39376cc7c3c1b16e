"""KeyContext: a key compiled once gives the same results as the key itself."""

import random

import pytest

from rmcipher import (CorruptionError, KeyContext, correct, decrypt, detect_errors, digitize,
                      encrypt, general_key, key_context, right_form_key, symmetric_key)
from rmcipher.guard import GuardError


def _shift_plus_identity(k):
    """I + cyclic shift: primitive, dominant root 2."""
    return [[1 if j in (i, (i + 1) % k) else 0 for j in range(k)] for i in range(k)]


def _bidiagonal(k):
    return [[1 if j in (i - 1, i) else 0 for j in range(k)] for i in range(k)]


KEYS = {
    "symmetric-2": symmetric_key((1, 1), (1, 0), 12),
    "symmetric-3": symmetric_key((1, 0, 1), (1, 0, 0), 29),
    "symmetric-5": symmetric_key((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 30),
    "general-2": general_key([[1, 2], [3, 4]], (1, 0), 9),
    "general-3": general_key(_shift_plus_identity(3), (1, 0, 0), 20),
    "general-5": general_key(_shift_plus_identity(5), (1, 0, 0, 0, 0), 30),
    "right_form-2": right_form_key((1, 1), [[2, 1], [1, 1]], 12),
    "right_form-3": right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 29),
    "right_form-5": right_form_key((1, 1, 1, 1, 1), _bidiagonal(5), 30),
}


def _outcome(fn, *args, **kwargs):
    """The result, or the type and message of what was raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, GuardError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(KEYS))
def test_context_and_key_give_equal_outputs(name):
    key = KEYS[name]
    ctx = KeyContext(key)
    k = key.order
    rng = random.Random(name)
    # A 255 in the first entry, and a short last block so padding rows occur.
    data = bytes([255]) + bytes(rng.randrange(256) for _ in range(3 * k * k - k - 1))
    blocks, length = digitize(data, k)

    cipher = encrypt(blocks, key)
    assert encrypt(blocks, ctx) == cipher
    assert decrypt(cipher, ctx, length) == decrypt(cipher, key, length) == data

    # Non-integral and out-of-alphabet plaintexts raise the same message.
    off_by_one = [[row[:] for row in block] for block in cipher]
    off_by_one[1][1][1] += 1
    too_big = [[row[:] for row in block] for block in cipher]
    too_big[0][0] = [c + m for c, m in zip(too_big[0][0], ctx.matrix[0])]
    for bad in (off_by_one, too_big):
        with pytest.raises(CorruptionError) as by_key:
            decrypt(bad, key, length)
        with pytest.raises(CorruptionError) as by_ctx:
            decrypt(bad, ctx, length)
        assert str(by_ctx.value) == str(by_key.value)

    for b, i, j, delta in [(0, 0, k - 1, 37), (1, k - 1, 0, -5), (2, k - 1, 1, 40)]:
        received = [row[:] for row in cipher[b]]
        received[i][j] += delta
        diagnoses = detect_errors(received, key)
        assert detect_errors(received, ctx) == diagnoses
        assert _outcome(correct, received, diagnoses, ctx) == \
            _outcome(correct, received, diagnoses, key)


def test_key_context_passes_a_context_through():
    key = KEYS["symmetric-3"]
    ctx = key_context(key)
    assert isinstance(ctx, KeyContext) and ctx.n == key.index
    assert key_context(ctx) is ctx
    assert key_context(ctx, key.index) is ctx
    with pytest.raises(ValueError):
        key_context(ctx, key.index + 1)
    with pytest.raises(ValueError):
        encrypt([[[1, 2, 3]] * 3], ctx, n=5)


def test_encryption_computes_neither_inverse_nor_tau():
    ctx = KeyContext(KEYS["symmetric-3"])
    encrypt(digitize(b"ALGORITHM", 3)[0], ctx)
    assert "scaled_inverse" not in vars(ctx)
    assert "tau" not in vars(ctx)
    assert "ratio_bounds" not in vars(ctx)


def test_context_is_frozen():
    ctx = KeyContext(KEYS["symmetric-3"])
    with pytest.raises(AttributeError):
        ctx.n = 3
