"""KeyContext: a key compiled once gives the same results as a key compiled for each call."""

import random
from fractions import Fraction

import pytest

from rmcipher import (CheckingRange, CorruptionError, GenConfig, KeyContext, Recurrence,
                      coding_matrix, correct, decrypt, detect_errors, digitize, encrypt,
                      general_key, right_form_key, spectral, symmetric_key)
from rmcipher.coding import InvalidKeyError
from rmcipher.formats import CipherHeader, CorruptionRecord, ErrorModel
from rmcipher.guard import GuardError, PairEvidence, RowDiagnosis


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
    """One context used for every call gives what a context compiled anew
    from the key for each call gives: nothing a call caches changes a result."""
    key = KEYS[name]
    ctx = KeyContext(key)
    k = key.order
    rng = random.Random(name)
    # A 255 in the first entry, and a short last block so padding rows occur.
    data = bytes([255]) + bytes(rng.randrange(256) for _ in range(3 * k * k - k - 1))
    blocks, length = digitize(data, k)

    cipher = encrypt(blocks, KeyContext(key))
    assert encrypt(blocks, ctx) == cipher
    assert decrypt(cipher, ctx, length) == decrypt(cipher, KeyContext(key), length) == data

    # Non-integral and out-of-alphabet plaintexts raise the same message.
    off_by_one = [[row[:] for row in block] for block in cipher]
    off_by_one[1][1][1] += 1
    too_big = [[row[:] for row in block] for block in cipher]
    too_big[0][0] = [c + m for c, m in zip(too_big[0][0], ctx.matrix[0])]
    for bad in (off_by_one, too_big):
        with pytest.raises(CorruptionError) as by_key:
            decrypt(bad, KeyContext(key), length)
        with pytest.raises(CorruptionError) as by_ctx:
            decrypt(bad, ctx, length)
        assert str(by_ctx.value) == str(by_key.value)

    for b, i, j, delta in [(0, 0, k - 1, 37), (1, k - 1, 0, -5), (2, k - 1, 1, 40)]:
        received = [row[:] for row in cipher[b]]
        received[i][j] += delta
        diagnoses = detect_errors(received, KeyContext(key))
        assert detect_errors(received, ctx) == diagnoses
        assert _outcome(correct, received, diagnoses, ctx) == \
            _outcome(correct, received, diagnoses, KeyContext(key))


def test_correct_takes_budget_and_validator_by_keyword_only():
    ctx = KeyContext(KEYS["symmetric-3"])
    c = encrypt(digitize(b"ALGORITHM", 3)[0], ctx)[0]
    with pytest.raises(TypeError):
        correct(c, detect_errors(c, ctx), ctx, 5)


def test_encryption_computes_neither_inverse_nor_tau():
    ctx = KeyContext(KEYS["symmetric-3"])
    encrypt(digitize(b"ALGORITHM", 3)[0], ctx)
    assert "scaled_inverse" not in vars(ctx)
    assert "tau" not in vars(ctx)
    assert "ratio_bounds" not in vars(ctx)


_EVIDENCE = (1, 0, Fraction(3, 2), 1.5, 0.0, True)

# Each record class that refuses assignment: one of its fields, and a way
# to make one; two calls give records with equal fields.
FROZEN = {
    "CodingKey": ("index", lambda: symmetric_key((1, 0, 1), (1, 0, 0), 29)),
    "CodingMatrix": ("n", lambda: coding_matrix(KEYS["symmetric-3"], 29)),
    "KeyContext": ("n", lambda: KeyContext(KEYS["symmetric-3"])),
    "Recurrence": ("coeffs", lambda: Recurrence((1, 0, 1))),
    "CipherHeader": ("length", lambda: CipherHeader(order=3, count=2, length=17,
                                                    fingerprint="ab12")),
    "ErrorModel": ("seed", lambda: ErrorModel(count=2, seed=7)),
    "CorruptionRecord": ("corrupted", lambda: CorruptionRecord(0, 1, 2, 300, 301)),
    "GenConfig": ("budget", lambda: GenConfig(order=3, coeff_range=(0, 2), seed=5)),
    "CheckingRange": ("lo", lambda: CheckingRange(Fraction(1, 2), Fraction(7, 2), 1, 3, 2)),
    "PairEvidence": ("ratio", lambda: PairEvidence(*_EVIDENCE)),
    "RowDiagnosis": ("flagged", lambda: RowDiagnosis(0, (0, 1), (2,),
                                                     (PairEvidence(*_EVIDENCE),))),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_context_is_frozen(name):
    """Every frozen record refuses assignment; records with equal fields are
    equal and hash alike, but a KeyContext equals only itself."""
    field, make = FROZEN[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, field) == getattr(twin, field)
    if name == "KeyContext":
        assert record == record and record != twin
    else:
        assert record == twin and hash(record) == hash(twin)


def test_a_negative_index_is_refused_when_the_context_is_compiled():
    key = KEYS["symmetric-3"]
    with pytest.raises(InvalidKeyError, match="^index must be non-negative$"):
        KeyContext(key, -1)


@pytest.mark.parametrize("name", ["symmetric-3", "symmetric-5", "right_form-3"])
@pytest.mark.parametrize("bits", [None, 64, 300])
def test_tau_powers_are_held_at_the_context_precision(name, bits, monkeypatch):
    if bits is not None:
        monkeypatch.setenv(spectral.PRECISION_ENV, str(bits))
    ctx = KeyContext(KEYS[name])
    powers = ctx.tau_powers
    assert powers[1] == ctx.tau
    assert powers == {d: ctx.tau ** d for d in range(1 - ctx.order, ctx.order)}
