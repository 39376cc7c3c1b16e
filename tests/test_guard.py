import math
import random
from fractions import Fraction

import pytest

from rmcipher import (Recurrence, checking_range, column_ratio_bounds, correct,
                      detect_errors, digitize, encrypt, general_key, range_length,
                      right_form_key, smallest_unambiguous_n, symmetric_key,
                      transition_ratio, verify_ciphertext)
from rmcipher.coding import MatrixBuilder
from rmcipher.guard import (EmptyCheckingRangeError, RowDiagnosis, UncorrectableRowError,
                            spiral_candidates)
from tests.conftest import ALGORITHM, C_ALGORITHM_15, EXTRATERRESTRIAL, M15_2FIB


def test_column_ratio_bounds_two_fib():
    lo, hi = column_ratio_bounds(M15_2FIB, 1, 2)
    assert (lo, hi) == (Fraction(189, 129), Fraction(129, 88))


def test_column_ratio_bounds_golden_parity():
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21]
    for n in (3, 4):
        m = [[fib[n + 2], fib[n + 1]], [fib[n + 1], fib[n]]]
        lo, hi = column_ratio_bounds(m, 0, 1)
        pair = {Fraction(fib[n + 2], fib[n + 1]), Fraction(fib[n + 1], fib[n])}
        assert {lo, hi} == pair


def test_column_ratio_bounds_same_column():
    assert column_ratio_bounds(M15_2FIB, 1, 1) == (1, 1)


def test_column_ratio_bounds_zero_denominator():
    lo, hi = column_ratio_bounds([[1, 0], [1, 1]], 0, 1)
    assert hi == math.inf and lo == 1


def test_column_ratio_bounds_all_zero():
    with pytest.raises(ValueError):
        column_ratio_bounds([[0, 0], [0, 0]], 0, 1)


def test_checking_range_worked_single_error():
    tau = transition_ratio(Recurrence((1, 0, 1)))
    rng = checking_range(41528, column_ratio_bounds(M15_2FIB, 2, 1), tau_power=tau ** -1)
    assert rng.lower == Fraction(41528 * 88, 129)
    assert rng.upper == Fraction(41528 * 129, 189)
    assert (rng.lo, rng.hi) == (28329, 28344)
    assert rng.count == 16
    assert rng.estimate == 28336
    assert (rng.tight_lo, rng.tight_hi) == (28330, 28344)


def test_checking_range_unit_bounds():
    rng = checking_range(500, (Fraction(1), Fraction(1)))
    assert (rng.lo, rng.hi) == (500, 500)
    assert rng.count == 1


def test_checking_range_empty():
    with pytest.raises(EmptyCheckingRangeError):
        checking_range(7, (Fraction(1, 10), Fraction(1, 9)))


def test_checking_range_direction_flip():
    direct = checking_range(1000, (Fraction(2), Fraction(4)))
    flipped = checking_range(1000, (Fraction(1, 4), Fraction(1, 2)), direction=-1)
    assert (direct.lo, direct.hi) == (flipped.lo, flipped.hi) == (2000, 4000)


def test_checking_range_requires_positive_reference():
    with pytest.raises(ValueError):
        checking_range(0, (Fraction(1), Fraction(2)))


def test_verify_genuine_ciphertext(two_fib_key):
    checks = verify_ciphertext(C_ALGORITHM_15, M15_2FIB)
    assert all(c.ok for c in checks)


def test_verify_flags_corrupted_pair(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    checks = verify_ciphertext(received, M15_2FIB)
    assert not checks[0].ok
    assert (checks[0].violations[0].j, checks[0].violations[0].jp) == (1, 2)
    assert checks[1].ok and checks[2].ok


def test_verify_scaled_row_still_passes(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    blocks[0][1] = [2 * v for v in blocks[0][1]]
    c = encrypt(blocks, two_fib_key)[0]
    assert all(chk.ok for chk in verify_ciphertext(c, M15_2FIB))


def test_verify_zero_row_passes(two_fib_key):
    blocks = [[[0, 0, 0], [1, 2, 3], [0, 1, 0]]]
    c = encrypt(blocks, two_fib_key)[0]
    assert all(chk.ok for chk in verify_ciphertext(c, M15_2FIB))


def test_verify_randomized_trials():
    rng = random.Random(271)
    keys = [symmetric_key((1, 0, 1), (1, 0, 0), 1),
            symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 1),
            general_key([[0, 1, 1], [1, 2, 1], [0, 1, 0]], (0, 0, 1), 1)]
    for _ in range(500):
        key = rng.choice(keys)
        n = rng.randint(1, 40)
        data = bytes(rng.randrange(256) for _ in range(key.order ** 2))
        blocks, _ = digitize(data, key.order)
        c = encrypt(blocks, key, n)[0]
        m = MatrixBuilder(key).matrix(n)
        assert all(chk.ok for chk in verify_ciphertext(c, m))


def test_detect_single_error(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, two_fib_key, 15)
    assert diagnoses[0].trusted == (0, 1)
    assert diagnoses[0].flagged == (2,)
    assert diagnoses[1].clean and diagnoses[2].clean


def test_detect_double_error(tetranacci_key):
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    c = encrypt(blocks, tetranacci_key)[0]
    received = [row[:] for row in c]
    received[0][0] = 16460
    received[0][2] = 4123
    diagnoses = detect_errors(received, tetranacci_key, 5)
    assert diagnoses[0].trusted == (1, 3)
    assert diagnoses[0].flagged == (0, 2)


def test_detect_clean_random_trials():
    rng = random.Random(314)
    keys = [symmetric_key((1, 0, 1), (1, 0, 0), 1),
            symmetric_key((1, 1, 1), (1, 0, 0), 1)]
    for _ in range(200):
        key = rng.choice(keys)
        n = rng.randint(10, 40)
        data = bytes(rng.randrange(1, 256) for _ in range(key.order ** 2))
        blocks, _ = digitize(data, key.order)
        c = encrypt(blocks, key, n)[0]
        for diag in detect_errors(c, key, n):
            assert diag.clean


def test_detect_hopeless_row(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0] = [1, 99999, 3]
    diagnoses = detect_errors(received, two_fib_key, 15)
    assert diagnoses[0].trusted == ()
    assert diagnoses[0].flagged == (0, 1, 2)


def test_detect_with_explicit_tolerance(two_fib_key):
    # The injected error shifts its ratios by about 1.3e-3; genuine ratios sit
    # within ~1e-4 of the transition ratio at n = 15.
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, two_fib_key, 15, tol=5e-4)
    assert diagnoses[0].flagged == (2,)
    loose = detect_errors(received, two_fib_key, 15, tol=5e-3)
    assert loose[0].flagged == ()


def test_spiral_order_and_exhaustiveness():
    tau = transition_ratio(Recurrence((1, 0, 1)))
    rng = checking_range(41528, column_ratio_bounds(M15_2FIB, 2, 1), tau_power=tau ** -1)
    spiral = spiral_candidates(rng)
    assert spiral[:3] == [28336, 28337, 28335]
    assert sorted(spiral) == list(range(28329, 28345))
    assert len(set(spiral)) == len(spiral) == rng.count


def test_spiral_exhaustive_random():
    from rmcipher.guard import CheckingRange
    rand = random.Random(41)
    for _ in range(100):
        lo = rand.randint(-50, 50)
        hi = lo + rand.randint(0, 40)
        est = rand.randint(lo, hi)
        cr = CheckingRange(lower=Fraction(lo), upper=Fraction(hi), lo=lo, hi=hi, estimate=est)
        spiral = spiral_candidates(cr)
        assert sorted(spiral) == list(range(lo, hi + 1))


def test_correct_worked_single_error(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, two_fib_key, 15)
    result = correct(received, diagnoses, two_fib_key, 15)
    row = result.rows[0]
    assert row.references == {2: 1}
    assert row.ranges[2].count == 16
    # The genuine value is reached as the second spiral candidate.
    hits = [c for c in row.accepted if c.values[2] == 28337]
    assert hits and hits[0].order_index == 2
    assert row.tested == 16


def test_correct_unique_at_large_index(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    c29 = encrypt(blocks, two_fib_key, 29)[0]
    received = [row[:] for row in c29]
    received[0][2] += 37
    diagnoses = detect_errors(received, two_fib_key, 29)
    result = correct(received, diagnoses, two_fib_key, 29)
    assert result.unique
    assert result.matrix == c29
    assert result.tested_total == 1
    assert result.rows[0].ranges[2].count == 1


def test_correct_noop_on_clean(two_fib_key):
    diagnoses = detect_errors(C_ALGORITHM_15, two_fib_key, 15)
    result = correct(C_ALGORITHM_15, diagnoses, two_fib_key, 15)
    assert result.matrix == C_ALGORITHM_15
    assert result.unique
    assert result.tested_total == 0


def test_correct_budget_exhaustion(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, two_fib_key, 15)
    result = correct(received, diagnoses, two_fib_key, 15, budget=3)
    assert result.budget_exhausted
    assert result.matrix is None
    assert result.tested_total == 3


def test_correct_uncorrectable_row(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0] = [1, 99999, 3]
    diagnoses = detect_errors(received, two_fib_key, 15)
    with pytest.raises(UncorrectableRowError):
        correct(received, diagnoses, two_fib_key, 15)


def test_correct_extra_validator(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, two_fib_key, 15)
    result = correct(received, diagnoses, two_fib_key, 15,
                     validator=lambda row: bytes(row) == b"ALG")
    accepted = result.rows[0].accepted
    assert len(accepted) == 1 and accepted[0].values[2] == 28337
    assert result.unique and result.matrix == C_ALGORITHM_15


def test_checking_range_contains_truth_under_single_errors():
    rng = random.Random(2025)
    keys = [symmetric_key((1, 0, 1), (1, 0, 0), 1),
            symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 1)]
    tau_cache = {}
    for _ in range(500):
        key = rng.choice(keys)
        k = key.order
        n = rng.randint(5, 35)
        data = bytes(rng.randrange(1, 256) for _ in range(k * k))
        blocks, _ = digitize(data, k)
        c = encrypt(blocks, key, n)[0]
        m = MatrixBuilder(key).matrix(n)
        i = rng.randrange(k)
        j = rng.randrange(k)
        jp = rng.choice([x for x in range(k) if x != j])
        if key.coeffs not in tau_cache:
            tau_cache[key.coeffs] = transition_ratio(Recurrence(key.coeffs))
        tau = tau_cache[key.coeffs]
        cr = checking_range(c[i][jp], column_ratio_bounds(m, j, jp),
                            tau_power=tau ** (jp - j))
        assert cr.lo <= c[i][j] <= cr.hi
        assert cr.tight_lo <= c[i][j] <= cr.tight_hi


def test_range_length_tribonacci_table(tribonacci_key):
    blocks, _ = digitize(ALGORITHM, 3)
    p_row = blocks[0][2]  # third row of the worked plaintext
    builder = MatrixBuilder(tribonacci_key)
    expected = {12: 11.00, 16: 1.42, 17: 2.61, 19: 0.87}
    for n, value in expected.items():
        m = builder.matrix(n)
        c_ref = sum(p_row[t] * m[t][1] for t in range(3))
        length = range_length(tribonacci_key, n, 2, 1, c_ref)
        assert abs(float(length) - value) < 0.01


def test_range_length_pisot_trend(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    p_row = blocks[0][0]
    builder = MatrixBuilder(two_fib_key)
    lengths = {}
    for n in range(5, 61):
        m = builder.matrix(n)
        c_ref = sum(p_row[t] * m[t][1] for t in range(3))
        lengths[n] = float(range_length(two_fib_key, n, 2, 1, c_ref))
    assert all(lengths[n + 10] < lengths[n] for n in range(30, 51))


def test_range_length_grows_without_pisot(wielandt4_key):
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    p_row = blocks[0][0]
    builder = MatrixBuilder(wielandt4_key)
    lengths = []
    for n in (10, 20, 30, 40):
        m = builder.matrix(n)
        c_ref = sum(p_row[t] * m[t][1] for t in range(4))
        lengths.append(float(range_length(wielandt4_key, n, 2, 1, c_ref)))
    assert lengths[0] < lengths[1] < lengths[2] < lengths[3]


def test_smallest_unambiguous_two_fib(two_fib_key):
    assert smallest_unambiguous_n(two_fib_key, ALGORITHM, 2, 1, cap=60) == 29


def test_smallest_unambiguous_tetranacci(tetranacci_key):
    assert smallest_unambiguous_n(tetranacci_key, EXTRATERRESTRIAL, 1, 2, cap=60) == 34


def test_smallest_unambiguous_tribonacci(tribonacci_key):
    assert smallest_unambiguous_n(tribonacci_key, ALGORITHM, 2, 1, cap=60, row=2) == 19


def test_smallest_unambiguous_wielandt3(wielandt3_key):
    n_star = smallest_unambiguous_n(wielandt3_key, ALGORITHM, 1, 0, cap=80, row=2)
    assert n_star == 43


def test_smallest_unambiguous_none_within_cap(wielandt4_key):
    assert smallest_unambiguous_n(wielandt4_key, EXTRATERRESTRIAL, 2, 1, cap=40) is None


@pytest.mark.parametrize("delta", [37, -37])
def test_single_error_in_zero_padding_row_is_repaired(delta):
    key = symmetric_key((1, 0, 1), (1, 0, 0), 29)
    blocks, _ = digitize(b"ABCDEF", 3)          # row 2 is all padding
    original = encrypt(blocks, key)[0]
    received = [row[:] for row in original]
    received[2][1] += delta
    diagnoses = detect_errors(received, key)
    assert diagnoses[2].flagged == (1,)
    result = correct(received, diagnoses, key)
    assert result.unique and result.matrix == original
    rng = result.rows[0].ranges[1]
    assert (rng.lo, rng.hi, rng.estimate) == (0, 0, 0)
    assert result.rows[0].accepted[0].plaintext_row == [0, 0, 0]


def test_zero_reference_needs_a_positive_reference_column():
    # M_0 = I: column 0 has zeros, so a zero entry there pins nothing.
    key = right_form_key((1, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0)
    received = [[1, 2, 3], [4, 5, 6], [0, 37, 0]]
    diagnoses = [RowDiagnosis(row=2, trusted=(0, 2), flagged=(1,), pairs=())]
    with pytest.raises(UncorrectableRowError):
        correct(received, diagnoses, key)
