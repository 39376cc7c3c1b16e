"""Property tests of the receiver's invariants, for each of the three key kinds:
decryption inverts encryption, a clean ciphertext passes the chunk test, and
a corrupted entry's true value lies in the checking range that correction
searches and in its column's absolute range; and the last two again under
validated keys whose M_n has entries of both signs."""

from functools import cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rmcipher import (KeyContext, checking_range, correct, decrypt, digitize, encrypt, general_key,
                      right_form_key, symmetric_key, validate_key)
from rmcipher.guard import RowDiagnosis, failing_rows

# Per kind, builders of keys whose M_n is positive for every n >= 3.
KEYS = {
    "symmetric": (lambda n: symmetric_key((1, 0, 1), (1, 0, 0), n),
                  lambda n: symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), n)),
    "general": (lambda n: general_key([[1, 2], [3, 4]], (1, 0), n),
                lambda n: general_key([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 0, 0), n)),
    "right_form": (lambda n: right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], n),
                   lambda n: right_form_key((1, 1), [[2, 1], [1, 1]], n)),
}
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


@cache
def _context(kind: str, which: int, n: int) -> KeyContext:
    return KeyContext(KEYS[kind][which](n))


def _contexts(kind):
    return st.builds(_context, st.just(kind), st.integers(0, 1), st.integers(3, 40))


@pytest.mark.parametrize("kind", sorted(KEYS))
@PROPERTY
@given(data=st.data())
def test_decryption_inverts_encryption(kind, data):
    ctx = data.draw(_contexts(kind))
    plain = data.draw(st.binary(max_size=60))
    blocks, length = digitize(plain, ctx.order)
    assert decrypt(encrypt(blocks, ctx), ctx, length) == plain


@pytest.mark.parametrize("kind", sorted(KEYS))
@PROPERTY
@given(data=st.data())
def test_a_clean_ciphertext_passes_the_chunk_test(kind, data):
    ctx = data.draw(_contexts(kind))
    blocks = encrypt(digitize(data.draw(st.binary(max_size=60)), ctx.order)[0], ctx)
    assert failing_rows(ctx, [v for block in blocks for row in block for v in row]) == set()


@pytest.mark.parametrize("kind", sorted(KEYS))
@PROPERTY
@given(data=st.data())
def test_the_true_value_lies_in_its_checking_and_absolute_ranges(kind, data):
    ctx = data.draw(_contexts(kind))
    k = ctx.order
    block = encrypt(digitize(data.draw(st.binary(min_size=k * k, max_size=k * k)), k)[0], ctx)[0]
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    truth = block[i][j]
    received = [row[:] for row in block]
    received[i][j] = data.draw(st.one_of(st.just(0), st.just(-truth),
                                         st.integers(-10 ** 9, 10 ** 9)).filter(
        lambda v: v != truth))
    # Every other entry of the row is trusted, as detection trusts it at best.
    diagnosis = RowDiagnosis(row=i, trusted=tuple(t for t in range(k) if t != j),
                             flagged=(j,), pairs=())
    rng = correct(received, [diagnosis], ctx, budget=1).rows[0].ranges[j]
    lo, hi = ctx.entry_ranges[j]
    assert rng.lo <= truth <= rng.hi
    assert lo <= truth <= hi


@st.composite
def signed_keys(draw):
    """A key that passes validate_key with a dominant root, of any kind, with
    coefficients (but a right_form key's, which its SPF property keeps
    nonnegative) and initial data of both signs."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 20))
    vector = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    kind = draw(st.sampled_from(sorted(KEYS)))
    if kind == "general":
        key = general_key(draw(st.lists(vector, min_size=k, max_size=k)), draw(vector), n)
    else:
        low = -3 if kind == "symmetric" else 0
        coeffs = [draw(st.integers(1, 3))] + draw(st.lists(st.integers(low, 3), min_size=k - 1,
                                                            max_size=k - 1))
        key = (symmetric_key(coeffs, draw(vector), n) if kind == "symmetric" else
               right_form_key(coeffs, draw(st.lists(vector, min_size=k, max_size=k)), n))
    validation = validate_key(key)
    assume(validation.ok and validation.item("strong_perron_frobenius").status == "pass")
    return key


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(signed_keys(), st.data())
def test_a_clean_ciphertext_passes_under_keys_of_both_signs(key, data):
    """No clean row fails the chunk test, and each entry lies in its checking
    range against every reference, whatever the sign of the reference's entry."""
    ctx = KeyContext(key)
    k = ctx.order
    blocks = encrypt(digitize(data.draw(st.binary(min_size=1, max_size=3 * k * k)), k)[0], ctx)
    rows = [row for block in blocks for row in block]
    assert failing_rows(ctx, [v for row in rows for v in row]) == set()
    for row in rows:
        for j in range(k):
            for ref in ctx.reference_columns[j]:
                rng = checking_range(ctx, j, ref, row[ref])
                assert rng.lo <= row[j] <= rng.hi
