import math
import random

import pytest

from rmcipher import (CorruptionError, Recurrence, decrypt, digitize, encrypt,
                      general_key, right_form_key, symmetric_key, transition_ratio)
from rmcipher.cipher import decrypt_rows, encrypt_rows
from rmcipher.coding import KeyContext
from tests.conftest import (ALGORITHM, C_ALGORITHM_15, EXTRATERRESTRIAL, M5_TETRA)


def test_digitize_algorithm():
    blocks, length = digitize(ALGORITHM, 3)
    assert blocks == [[[65, 76, 71], [79, 82, 73], [84, 72, 77]]]
    assert length == 9


def test_digitize_extraterrestrial():
    blocks, length = digitize(EXTRATERRESTRIAL, 4)
    assert blocks == [[[69, 88, 84, 82], [65, 84, 69, 82],
                       [82, 69, 83, 84], [82, 73, 65, 76]]]
    assert length == 16


def test_digitize_empty():
    assert digitize(b"", 3) == ([], 0)


def test_digitize_pads_with_zero():
    blocks, length = digitize(b"AB", 2)
    assert blocks == [[[65, 66], [0, 0]]]
    assert length == 2


def test_encrypt_worked_example(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    assert encrypt(blocks, KeyContext(two_fib_key)) == [C_ALGORITHM_15]


def test_encrypt_zero_plaintext(two_fib_key):
    zero = [[[0] * 3 for _ in range(3)]]
    assert encrypt(zero, KeyContext(two_fib_key)) == zero


def test_encrypt_extraterrestrial_row(tetranacci_key):
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    c = encrypt(blocks, KeyContext(tetranacci_key))[0]
    # Independent oracle: direct product against the printed coding matrix.
    expected_row = [sum(blocks[0][0][t] * M5_TETRA[t][j] for t in range(4)) for j in range(4)]
    assert c[0] == expected_row
    assert c[0] == [16046, 8332, 4321, 2239]


def test_decrypt_worked_example(two_fib_key):
    assert decrypt([C_ALGORITHM_15], KeyContext(two_fib_key), 9) == ALGORITHM


def _key_pool():
    return [
        symmetric_key((1, 0, 1), (1, 0, 0), 15),
        symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 8),
        general_key([[1, 2], [3, 4]], (1, 0), 6),
        right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5),
        general_key([[0, 1, 1], [1, 2, 1], [0, 1, 0]], (0, 0, 1), 10),
    ]


def test_roundtrip_random_messages():
    rng = random.Random(1729)
    contexts = [KeyContext(key) for key in _key_pool()]
    for _ in range(200):
        ctx = rng.choice(contexts)
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 60)))
        blocks, length = digitize(data, ctx.order)
        assert decrypt(encrypt(blocks, ctx), ctx, length) == data


def test_perturbation_detected_by_nonintegrality():
    # det(M_n) has magnitude > 1 here, so a unit change almost surely breaks
    # integrality of the decrypted block.
    ctx = KeyContext(right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 7))
    rng = random.Random(55)
    hits = 0
    for _ in range(50):
        data = bytes(rng.randrange(256) for _ in range(9))
        blocks, length = digitize(data, 3)
        blocks = encrypt(blocks, ctx)
        i, j = rng.randrange(3), rng.randrange(3)
        blocks[0][i][j] += rng.choice([-3, -2, -1, 1, 2, 3])
        try:
            decrypt(blocks, ctx, length)
        except CorruptionError as exc:
            hits += 1
            assert exc.block == 0
    assert hits >= 48


def test_large_perturbation_leaves_alphabet(two_fib_key):
    ctx = KeyContext(two_fib_key)
    blocks, length = digitize(ALGORITHM, 3)
    blocks = encrypt(blocks, ctx)
    blocks[0][0][0] += 10 ** 6
    with pytest.raises(CorruptionError):
        decrypt(blocks, ctx, length)


def test_block_dimension_mismatch(two_fib_key):
    with pytest.raises(ValueError):
        encrypt([[[1, 2], [3, 4]]], KeyContext(two_fib_key))


def test_a_partial_last_row_is_refused(two_fib_key):
    ctx = KeyContext(two_fib_key)
    c = encrypt_rows(ctx, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError, match="7 entries .* k = 3"):
        decrypt_rows(ctx, c + [c[0]])
    with pytest.raises(ValueError, match="4 entries .* k = 3"):
        encrypt_rows(ctx, [1, 2, 3, 4])


def test_ciphertext_entry_bound(two_fib_key):
    from rmcipher import coding_matrix
    blocks, _ = digitize(ALGORITHM, 3)
    for n in (5, 15, 25):
        c = encrypt(blocks, KeyContext(two_fib_key, n))[0]
        m = coding_matrix(two_fib_key, n).rows()
        bound = 3 * 255 * max(max(row) for row in m)
        assert max(max(row) for row in c) <= bound


def test_ciphertext_growth_matches_transition_ratio(two_fib_key):
    tau = float(transition_ratio(Recurrence((1, 0, 1))))
    blocks, _ = digitize(ALGORITHM, 3)
    lo, hi = 10, 40
    c_lo = encrypt(blocks, KeyContext(two_fib_key, lo))[0]
    c_hi = encrypt(blocks, KeyContext(two_fib_key, hi))[0]
    slope = (math.log(max(max(r) for r in c_hi)) - math.log(max(max(r) for r in c_lo))) / (hi - lo)
    assert abs(slope - math.log(tau)) / math.log(tau) < 0.05


def test_decrypt_length_check(two_fib_key):
    ctx = KeyContext(two_fib_key)
    blocks = encrypt(digitize(ALGORITHM, 3)[0], ctx)
    assert decrypt(blocks, ctx, 9) == ALGORITHM
    with pytest.raises(ValueError, match="exceeds block capacity"):
        decrypt(blocks, ctx, 10)
