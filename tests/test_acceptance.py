"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line through the conftest report hook, so a
plain `pytest tests/test_acceptance.py -v` doubles as the acceptance
checklist.  Randomized suites use fixed seeds and at least 200 trials.
"""

import random
from fractions import Fraction

from rmcipher import (KeyContext, Recurrence, analyze_recurrence, checking_range, coding_matrix,
                      coding_matrix_inverse, correct, decrypt,
                      detect_errors, digitize, encrypt, general_key, is_pisot, range_length, right_form_key,
                      smallest_unambiguous_n, symmetric_key, transition_ratio)
from rmcipher.coding import MatrixBuilder, right_companion
from rmcipher.exactmat import inverse_exact, mat_mul
from rmcipher.guard import failing_rows
from tests.conftest import ALGORITHM, C_ALGORITHM_15, EXTRATERRESTRIAL, M15_2FIB, M15_2FIB_INV

TWO_FIB = symmetric_key((1, 0, 1), (1, 0, 0), 15)
TRIBONACCI = symmetric_key((1, 1, 1), (1, 0, 0), 12)
TETRANACCI = symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 5)


def test_criterion_1_worked_encryption_roundtrip():
    blocks, length = digitize(ALGORITHM, 3)
    ctx = KeyContext(TWO_FIB, 15)
    ciphertext = encrypt(blocks, ctx)
    assert ciphertext == [C_ALGORITHM_15]
    assert decrypt(ciphertext, ctx, length) == ALGORITHM

    m15 = coding_matrix(TWO_FIB, 15).rows()
    assert m15 == M15_2FIB
    m0_inv = inverse_exact(TWO_FIB.initial())
    assert m0_inv == [[0, 0, 1], [0, 1, -1], [1, -1, 0]]
    m15_inv = coding_matrix_inverse(TWO_FIB, 15)
    assert m15_inv == M15_2FIB_INV
    assert m15_inv == [[Fraction(v) for v in row] for row in inverse_exact(m15)]
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert mat_mul(m15, m15_inv) == eye


def test_criterion_2_transition_ratios():
    targets = [
        ((1, 1, 1), 1.839286755, 1e-8),
        ((1, 0, 1), 1.465571232, 1e-8),
        ((1, 1, 1, 1), 1.927562, 1e-5),
        ((1, 2, 1, 1), 2.066, 1e-3),
        ((1, 2, 2), 2.831, 1e-3),
        ((2, 0, 1), 1.6956, 1e-4),
    ]
    for coeffs, expected, tol in targets:
        tau = float(transition_ratio(Recurrence(coeffs)))
        assert abs(tau - expected) < tol, (coeffs, tau, expected)


def test_criterion_3_second_eigenmoduli():
    targets = [
        ((1, 1, 1), 0.74, 0.01),
        ((1, 0, 1), 0.83, 0.01),
        ((1, 1, 0), 0.87, 0.01),
        ((1, 1, 0, 0), 1.06, 0.01),
        ((1, 2, 2), 0.594, 0.005),
    ]
    for coeffs, expected, tol in targets:
        sigma = float(analyze_recurrence(Recurrence(coeffs)).sigma)
        assert abs(sigma - expected) < tol, (coeffs, sigma, expected)
    assert is_pisot(Recurrence((1, 1, 0, 0)).char_poly()) == "no"
    # Pisot family members near the tribonacci limit point.
    f3 = [1, -1, -1, -2, 0, 0, 1]
    f4 = [1, -2, 1, -2, 1, -1, 1]
    assert abs(float(analyze_recurrence(Recurrence.from_char_poly(f3)).sigma) - 0.94792) < 1e-4
    assert abs(float(analyze_recurrence(Recurrence.from_char_poly(f4)).sigma) - 0.93460) < 1e-4


def test_criterion_4_checking_range_table():
    blocks, _ = digitize(ALGORITHM, 3)
    p_row = blocks[0][2]
    lengths = {}
    for n in (12, 16, 17, 19):
        ctx = KeyContext(TRIBONACCI, n)
        c_ref = sum(p_row[t] * ctx.matrix[t][1] for t in range(3))
        lengths[n] = float(range_length(ctx, 2, 1, c_ref))
    assert abs(lengths[12] - 11.00) < 0.01
    assert abs(lengths[16] - 1.42) < 0.01
    assert abs(lengths[17] - 2.61) < 0.01
    assert abs(lengths[19] - 0.87) < 0.01
    # The shrinkage is not monotone: n = 17 is wider than n = 16.
    assert lengths[17] > lengths[16]


def test_criterion_5a_single_error_spiral():
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    ctx = KeyContext(TWO_FIB, 15)
    diagnoses = detect_errors(received, ctx)
    assert diagnoses[0].flagged == (2,)
    result = correct(received, diagnoses, ctx)
    rng = result.rows[0].ranges[2]
    # The worked example lists 16 candidates, 28329-28344; 28329 lies below
    # the exact lower bound 41528 * 88 / 129 = 28329.18..., so 15 remain.
    assert (rng.lo, rng.hi) == (28330, 28344)
    assert rng.count == 15
    assert rng.estimate == 28336
    hits = [c for c in result.rows[0].accepted if c.values[2] == 28337]
    assert hits and hits[0].order_index <= 3


def test_criterion_5b_unique_correction_at_29():
    blocks, _ = digitize(ALGORITHM, 3)
    ctx = KeyContext(TWO_FIB, 29)
    c29 = encrypt(blocks, ctx)[0]
    # The worked continuation value appears in the ciphertext at n = 29.
    assert c29[2][2] == 6736252
    assert c29[0][2] == 5976261
    rng = checking_range(ctx, 2, 1, c29[0][1])
    assert rng.count == 1
    assert rng.lo == 5976261
    assert smallest_unambiguous_n(TWO_FIB, ALGORITHM, 2, 1, cap=60) == 29


def test_criterion_5c_double_error_detection():
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    ctx = KeyContext(TETRANACCI, 5)
    genuine = encrypt(blocks, ctx)[0]
    received = [row[:] for row in genuine]
    received[0][0] = 16460
    received[0][2] = 4123
    diagnoses = detect_errors(received, ctx)
    assert diagnoses[0].flagged == (0, 2)
    assert diagnoses[0].trusted == (1, 3)
    assert all(d.clean for d in diagnoses[1:])


def test_criterion_5d_triple_error_ranges():
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    ctx = KeyContext(TETRANACCI, 5)
    genuine = encrypt(blocks, ctx)[0]
    c11 = genuine[0][0]
    assert c11 == 16046
    printed = {1: (8299.66, 8557.87), 2: (4278.93, 4426.48), 3: (2139.47, 2292.29)}
    for j, (lo_val, hi_val) in printed.items():
        rng = checking_range(ctx, j, 0, c11)
        assert abs(float(rng.lower) - lo_val) < 0.01
        assert abs(float(rng.upper) - hi_val) < 0.01
    # For n >= 34 every one of the three ranges pins a single integer.
    for n in range(34, 43):
        ctx = KeyContext(TETRANACCI, n)
        m = ctx.matrix
        ref = sum(blocks[0][0][t] * m[t][0] for t in range(4))
        for j in (1, 2, 3):
            rng = checking_range(ctx, j, 0, ref)
            true_value = sum(blocks[0][0][t] * m[t][j] for t in range(4))
            assert rng.count == 1
            assert rng.lo == true_value


def test_criterion_6_worked_matrices():
    g = general_key([[1, 2], [3, 4]], (1, 0), 9)
    assert coding_matrix(g, 9).rows() == [[4783807, 890461], [10458075, 1946673]]
    rf = right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5)
    assert coding_matrix(rf, 5).rows() == [[19292, 3996, 828],
                                           [11300, 2340, 484],
                                           [21632, 4480, 928]]
    quartic = symmetric_key((1, 2, 1, 1), (1, 0, 0, 0), 10)
    assert coding_matrix(quartic, 10).rows() == [[6744, 3264, 1580, 765],
                                                 [3264, 1580, 765, 370],
                                                 [1580, 765, 370, 179],
                                                 [765, 370, 179, 87]]
    grown = general_key([[0, 1, 1], [1, 2, 1], [0, 1, 0]], (0, 0, 1), 6)
    assert coding_matrix(grown, 6).rows() == [[705, 249, 88],
                                              [1475, 521, 184],
                                              [521, 184, 65]]


def test_criterion_7_golden_inverse_oracle():
    fib_key = symmetric_key((1, 1), (1, 0), 4)
    fib = [0, 1]
    for _ in range(25):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        sgn = (-1) ** (n + 1)
        expected = [[sgn * fib[n], -sgn * fib[n + 1]],
                    [-sgn * fib[n + 1], sgn * fib[n + 2]]]
        assert coding_matrix_inverse(fib_key, n) == expected


def _property_keys():
    return [
        symmetric_key((1, 0, 1), (1, 0, 0), 15),
        symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 8),
        symmetric_key((1, 1, 1), (2, 1, 1), 9),
        general_key([[0, 1, 1], [1, 2, 1], [0, 1, 0]], (0, 0, 1), 10),
        general_key([[1, 2], [3, 4]], (1, 0), 6),
        right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5),
    ]


def test_criterion_8_property_suites():
    keys = _property_keys()

    # Round trip: decrypt(encrypt(x)) == x.
    rng = random.Random(801)
    contexts = [KeyContext(key) for key in keys]
    for _ in range(200):
        ctx = rng.choice(contexts)
        data = bytes(rng.randrange(256) for _ in range(rng.randint(0, 50)))
        blocks, length = digitize(data, ctx.order)
        assert decrypt(encrypt(blocks, ctx), ctx, length) == data

    # Checking inequalities hold on every genuine ciphertext.
    rng = random.Random(802)
    for _ in range(200):
        key = rng.choice(keys)
        n = rng.randint(1, 40)
        data = bytes(rng.randrange(256) for _ in range(key.order ** 2))
        blocks, _ = digitize(data, key.order)
        ctx = KeyContext(key, n)
        c = encrypt(blocks, ctx)[0]
        assert failing_rows(ctx, [v for row in c for v in row]) == set()

    # Transition identities L * M_n = M_{n+1} = M_n * R, exactly.
    from rmcipher.coding import induced_left_matrix
    rng = random.Random(803)
    checks = 0
    while checks < 200:
        key = rng.choice(keys)
        builder = MatrixBuilder(key)
        r = right_companion(key.recurrence())
        left = induced_left_matrix(key)
        n = rng.randint(0, 30)
        m_n, m_next = builder.matrix(n), builder.matrix(n + 1)
        assert mat_mul(m_n, r) == m_next
        assert mat_mul(left, m_n) == [[Fraction(v) for v in row] for row in m_next]
        checks += 1

    # Construction agrees with the brute-force power oracle up to n = 50.
    for key in keys:
        if key.kind == "right_form":
            continue
        left, acc = key.left_matrix(), [row[:] for row in key.initial()]
        builder = MatrixBuilder(key)
        for n in range(51):
            assert builder.matrix(n) == acc
            acc = mat_mul(left, acc)

    # A checking range built from a correct reference always contains the
    # true value of the suspected entry.
    rng = random.Random(805)
    contexts = {}
    for _ in range(200):
        key = rng.choice(keys[:3])
        k = key.order
        n = rng.randint(5, 35)
        data = bytes(rng.randrange(1, 256) for _ in range(k * k))
        blocks, _ = digitize(data, k)
        if (key, n) not in contexts:
            contexts[key, n] = KeyContext(key, n)
        ctx = contexts[key, n]
        c = encrypt(blocks, ctx)[0]
        i, j = rng.randrange(k), rng.randrange(k)
        jp = rng.choice([x for x in range(k) if x != j])
        rng_obj = checking_range(ctx, j, jp, c[i][jp])
        assert rng_obj.lo <= c[i][j] <= rng_obj.hi


def test_criterion_9_bench_shrinkage():
    blocks, _ = digitize(ALGORITHM, 3)
    rng = random.Random(900)
    mean_candidates = {}
    for n in (15, 20, 25, 29):
        ctx = KeyContext(TWO_FIB, n)
        genuine = encrypt(blocks, ctx)[0]
        tested = []
        for _ in range(50):
            received = [row[:] for row in genuine]
            i = rng.randrange(3)
            delta = rng.choice((-1, 1)) * rng.randint(1, 200)
            received[i][2] += delta
            diagnoses = detect_errors(received, ctx)
            if all(d.clean for d in diagnoses):
                assert n < 29, "errors at n = 29 must always be detected"
                continue
            result = correct(received, diagnoses, ctx)
            tested.append(result.tested_total)
            if n == 29:
                assert result.unique
                assert result.tested_total == 1
                assert result.matrix == genuine
        mean_candidates[n] = sum(tested) / len(tested)
    assert mean_candidates[15] > mean_candidates[20] > mean_candidates[25] > mean_candidates[29]
    assert mean_candidates[29] == 1.0
