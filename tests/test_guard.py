import math
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from rmcipher import (checking_range, column_ratio_bounds, correct, detect_errors, digitize,
                      encrypt, general_key, range_length, right_form_key,
                      smallest_unambiguous_n, symmetric_key)
from rmcipher.cli import run_bench_trial
from rmcipher.coding import KeyContext
from rmcipher.formats import MODEL_REPLACE, ErrorModel, corrupt_blocks, load_key
from rmcipher.guard import (EmptyCheckingRangeError, RowDiagnosis, UncorrectableRowError,
                            failing_rows, spiral_candidate)
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


def test_checking_range_worked_single_error(two_fib_key):
    # The worked example counts 16 candidates from 28329, but 28329 lies
    # below the exact lower bound 41528 * 88 / 129 = 28329.18...
    rng = checking_range(KeyContext(two_fib_key, 15), 2, 1, 41528)
    assert rng.lower == Fraction(41528 * 88, 129)
    assert rng.upper == Fraction(41528 * 129, 189)
    assert (rng.lo, rng.hi) == (28330, 28344)
    assert rng.count == 15
    assert rng.estimate == 28336


def test_checking_range_empty(two_fib_key):
    # [88/129, 129/189] holds no integer.
    with pytest.raises(EmptyCheckingRangeError):
        checking_range(KeyContext(two_fib_key, 15), 2, 1, 1)


def test_checking_range_of_a_zero_reference_is_zero(two_fib_key):
    rng = checking_range(KeyContext(two_fib_key, 15), 2, 1, 0)
    assert (rng.lower, rng.upper, rng.lo, rng.hi, rng.estimate) == (0, 0, 0, 0, 0)


def test_checking_range_refuses_an_unbounded_ratio():
    # M_0 = I: every ratio of two columns reaches +inf, so no column is a
    # reference for another; nor is a column its own.
    ctx = KeyContext(right_form_key((1, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0))
    for j, ref in ((1, 0), (0, 2), (1, 1)):
        assert ref not in ctx.reference_columns[j]
        with pytest.raises(ValueError):
            checking_range(ctx, j, ref, 5)


def test_checking_range_of_a_negative_reference_is_empty(two_fib_key):
    with pytest.raises(EmptyCheckingRangeError):
        checking_range(KeyContext(two_fib_key, 15), 2, 1, -7)


def _flat(c):
    return [v for row in c for v in row]


def test_verify_genuine_ciphertext(two_fib_key):
    assert failing_rows(KeyContext(two_fib_key, 15), _flat(C_ALGORITHM_15)) == set()


def test_verify_flags_corrupted_pair(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, KeyContext(two_fib_key, 15))
    assert [(p.j, p.jp) for p in diagnoses[0].pairs
            if p.jp == p.j + 1 and not p.consistent] == [(1, 2)]
    assert diagnoses[1].clean and diagnoses[2].clean


def test_verify_scaled_row_still_passes(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    blocks[0][1] = [2 * v for v in blocks[0][1]]
    ctx = KeyContext(two_fib_key)
    c = encrypt(blocks, ctx)[0]
    assert failing_rows(ctx, _flat(c)) == set()


def test_verify_zero_row_passes(two_fib_key):
    blocks = [[[0, 0, 0], [1, 2, 3], [0, 1, 0]]]
    ctx = KeyContext(two_fib_key)
    c = encrypt(blocks, ctx)[0]
    assert failing_rows(ctx, _flat(c)) == set()


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
        ctx = KeyContext(key, n)
        c = encrypt(blocks, ctx)[0]
        assert failing_rows(ctx, _flat(c)) == set()


def test_detect_single_error(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    diagnoses = detect_errors(received, KeyContext(two_fib_key, 15))
    assert diagnoses[0].trusted == (0, 1)
    assert diagnoses[0].flagged == (2,)
    assert diagnoses[1].clean and diagnoses[2].clean


def test_detect_double_error(tetranacci_key):
    ctx = KeyContext(tetranacci_key, 5)
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    c = encrypt(blocks, ctx)[0]
    received = [row[:] for row in c]
    received[0][0] = 16460
    received[0][2] = 4123
    diagnoses = detect_errors(received, ctx)
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
        ctx = KeyContext(key, n)
        c = encrypt(blocks, ctx)[0]
        for diag in detect_errors(c, ctx):
            assert diag.clean


def test_detect_hopeless_row(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0] = [1, 99999, 3]
    diagnoses = detect_errors(received, KeyContext(two_fib_key, 15))
    assert diagnoses[0].trusted == ()
    assert diagnoses[0].flagged == (0, 1, 2)


def test_spiral_order_and_exhaustiveness(two_fib_key):
    rng = checking_range(KeyContext(two_fib_key, 15), 2, 1, 41528)
    spiral = [spiral_candidate(rng, i) for i in range(rng.count)]
    assert spiral[:3] == [28336, 28337, 28335]
    assert sorted(spiral) == list(range(28330, 28345))
    assert len(set(spiral)) == len(spiral) == rng.count


def test_spiral_exhaustive_random():
    from rmcipher.guard import CheckingRange
    rand = random.Random(41)
    for _ in range(100):
        lo = rand.randint(-50, 50)
        hi = lo + rand.randint(0, 40)
        est = rand.randint(lo, hi)
        cr = CheckingRange(lower=Fraction(lo), upper=Fraction(hi), lo=lo, hi=hi, estimate=est)
        spiral = [spiral_candidate(cr, i) for i in range(cr.count)]
        assert sorted(spiral) == list(range(lo, hi + 1))
        assert spiral == _spiral_by_steps(cr)


def _spiral_by_steps(rng):
    """The spiral built step by step: e, e+1, e-1, e+2, ... within [lo, hi]."""
    out = [rng.estimate]
    step = 1
    while len(out) < rng.count:
        if rng.estimate + step <= rng.hi:
            out.append(rng.estimate + step)
        if rng.estimate - step >= rng.lo:
            out.append(rng.estimate - step)
        step += 1
    return out


def test_correct_on_a_wide_range_spends_only_its_budget():
    # I + cyclic shift at k=5: the column ratios converge slowly, so at
    # n=60 a checking range holds about 2e15 candidates.
    left = [[int(j in (i, (i + 1) % 5)) for j in range(5)] for i in range(5)]
    ctx = KeyContext(general_key(left, (1, 0, 0, 0, 0), 60))
    c = encrypt(digitize(b"A" * 25, 5)[0], ctx)[0]
    c[0][1] *= 3
    result = correct(c, detect_errors(c, ctx), ctx, budget=5)
    assert result.rows[0].ranges[1].count > 10 ** 12
    assert result.tested_total == 5 and result.budget_exhausted


def test_correct_worked_single_error(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    ctx = KeyContext(two_fib_key, 15)
    diagnoses = detect_errors(received, ctx)
    result = correct(received, diagnoses, ctx)
    row = result.rows[0]
    assert row.references == {2: 1}
    assert row.ranges[2].count == 15
    # The genuine value is reached as the second spiral candidate.
    hits = [c for c in row.accepted if c.values[2] == 28337]
    assert hits and hits[0].order_index == 2
    assert row.tested == 15


def test_correct_unique_at_large_index(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    ctx = KeyContext(two_fib_key, 29)
    c29 = encrypt(blocks, ctx)[0]
    received = [row[:] for row in c29]
    received[0][2] += 37
    diagnoses = detect_errors(received, ctx)
    result = correct(received, diagnoses, ctx)
    assert result.unique
    assert result.matrix == c29
    assert result.tested_total == 1
    assert result.rows[0].ranges[2].count == 1


def test_correct_noop_on_clean(two_fib_key):
    ctx = KeyContext(two_fib_key, 15)
    diagnoses = detect_errors(C_ALGORITHM_15, ctx)
    result = correct(C_ALGORITHM_15, diagnoses, ctx)
    assert result.matrix == C_ALGORITHM_15
    assert result.unique
    assert result.tested_total == 0


def test_correct_budget_exhaustion(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    ctx = KeyContext(two_fib_key, 15)
    diagnoses = detect_errors(received, ctx)
    result = correct(received, diagnoses, ctx, budget=3)
    assert result.budget_exhausted
    assert result.matrix is None
    assert result.tested_total == 3


def test_correct_uncorrectable_row(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0] = [1, 99999, 3]
    ctx = KeyContext(two_fib_key, 15)
    diagnoses = detect_errors(received, ctx)
    with pytest.raises(UncorrectableRowError):
        correct(received, diagnoses, ctx)


def test_correct_extra_validator(two_fib_key):
    received = [row[:] for row in C_ALGORITHM_15]
    received[0][2] = 28373
    ctx = KeyContext(two_fib_key, 15)
    diagnoses = detect_errors(received, ctx)
    result = correct(received, diagnoses, ctx, validator=lambda i, row: bytes(row) == b"ALG")
    accepted = result.rows[0].accepted
    assert len(accepted) == 1 and accepted[0].values[2] == 28337
    assert result.unique and result.matrix == C_ALGORITHM_15


def test_checking_range_contains_truth_under_single_errors():
    rng = random.Random(2025)
    keys = [symmetric_key((1, 0, 1), (1, 0, 0), 1),
            symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 1)]
    contexts = {}
    for _ in range(500):
        key = rng.choice(keys)
        k = key.order
        n = rng.randint(5, 35)
        data = bytes(rng.randrange(1, 256) for _ in range(k * k))
        blocks, _ = digitize(data, k)
        if (key, n) not in contexts:
            contexts[key, n] = KeyContext(key, n)
        ctx = contexts[key, n]
        c = encrypt(blocks, ctx)[0]
        i = rng.randrange(k)
        j = rng.randrange(k)
        jp = rng.choice([x for x in range(k) if x != j])
        cr = checking_range(ctx, j, jp, c[i][jp])
        assert cr.lo <= c[i][j] <= cr.hi


def test_range_length_tribonacci_table(tribonacci_key):
    blocks, _ = digitize(ALGORITHM, 3)
    p_row = blocks[0][2]  # third row of the worked plaintext
    expected = {12: 11.00, 16: 1.42, 17: 2.61, 19: 0.87}
    for n, value in expected.items():
        ctx = KeyContext(tribonacci_key, n)
        c_ref = sum(p_row[t] * ctx.matrix[t][1] for t in range(3))
        length = range_length(ctx, 2, 1, c_ref)
        assert abs(float(length) - value) < 0.01


def test_range_length_pisot_trend(two_fib_key):
    blocks, _ = digitize(ALGORITHM, 3)
    p_row = blocks[0][0]
    lengths = {}
    for n in range(5, 61):
        ctx = KeyContext(two_fib_key, n)
        c_ref = sum(p_row[t] * ctx.matrix[t][1] for t in range(3))
        lengths[n] = float(range_length(ctx, 2, 1, c_ref))
    assert all(lengths[n + 10] < lengths[n] for n in range(30, 51))


def test_range_length_grows_without_pisot(wielandt4_key):
    blocks, _ = digitize(EXTRATERRESTRIAL, 4)
    p_row = blocks[0][0]
    lengths = []
    for n in (10, 20, 30, 40):
        ctx = KeyContext(wielandt4_key, n)
        c_ref = sum(p_row[t] * ctx.matrix[t][1] for t in range(4))
        lengths.append(float(range_length(ctx, 2, 1, c_ref)))
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


@pytest.mark.parametrize("name", ["k3", "k5", "abt", "primitive"])
def test_a_negated_key_sizes_its_ranges_as_the_key_does(name):
    # Negating x0 negates every M_n: each ratio of two entries stays, and
    # each reference entry changes sign.  (A right_form key negated fails
    # validation.)
    key = load_key(Path(__file__).parent / "golden" / f"{name}.json")
    negated = key._replace(x0=tuple(-v for v in key.x0))
    k = key.order
    for seed in range(2):
        plain = random.Random(seed).randbytes(k * k)
        for j, jp in permutations(range(k), 2):
            for row in range(k):
                assert smallest_unambiguous_n(negated, plain, j, jp, cap=60, row=row) == \
                    smallest_unambiguous_n(key, plain, j, jp, cap=60, row=row)
    ctx, negated_ctx = KeyContext(key), KeyContext(negated)
    for row in encrypt(digitize(random.Random(name).randbytes(k * k), k)[0], ctx)[0]:
        for j in range(k):
            for ref in ctx.reference_columns[j]:
                length = range_length(ctx, j, ref, row[ref])
                assert range_length(negated_ctx, j, ref, -row[ref]) == length >= 0
                cut = checking_range(negated_ctx, j, ref, -row[ref])
                assert cut.upper - cut.lower <= length


@pytest.mark.parametrize("delta", [37, -37])
def test_single_error_in_zero_padding_row_is_repaired(delta):
    ctx = KeyContext(symmetric_key((1, 0, 1), (1, 0, 0), 29))
    blocks, _ = digitize(b"ABCDEF", 3)          # row 2 is all padding
    original = encrypt(blocks, ctx)[0]
    received = [row[:] for row in original]
    received[2][1] += delta
    diagnoses = detect_errors(received, ctx)
    assert diagnoses[2].flagged == (1,)
    result = correct(received, diagnoses, ctx)
    assert result.unique and result.matrix == original
    rng = result.rows[0].ranges[1]
    assert (rng.lo, rng.hi, rng.estimate) == (0, 0, 0)
    assert result.rows[0].accepted[0].plaintext_row == [0, 0, 0]


def test_zero_reference_needs_a_positive_reference_column():
    # M_0 = I: column 0 has zeros, so a zero entry there pins nothing.
    ctx = KeyContext(right_form_key((1, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 0))
    received = [[1, 2, 3], [4, 5, 6], [0, 37, 0]]
    diagnoses = [RowDiagnosis(row=2, trusted=(0, 2), flagged=(1,), pairs=())]
    with pytest.raises(UncorrectableRowError):
        correct(received, diagnoses, ctx)


def test_a_checking_range_is_cut_to_its_column_absolute_range():
    # Row 255 255 255: column 0's checking relation against either reference
    # allows up to 3060, but no entry of column 0 passes 2295.
    ctx = KeyContext(symmetric_key((1, 0, 1), (1, 0, 0), 3))
    assert ctx.entry_ranges[0] == (0, 2295)
    original = encrypt([[[255, 255, 255], [0, 0, 0], [0, 0, 0]]], ctx)[0]
    assert original[0][0] == 2295
    _, _, hi_num, hi_den = ctx.ratio_bounds[(0, 1)]
    assert Fraction(original[0][1] * hi_num, hi_den) == 3060
    received = [row[:] for row in original]
    received[0][0] = 5000
    diagnoses = detect_errors(received, ctx)
    assert diagnoses[0].flagged == (0,)
    result = correct(received, diagnoses, ctx)
    cut = result.rows[0].ranges[0]
    assert (cut.lo, cut.hi, cut.upper, cut.count) == (2040, 2295, 2295, 256)
    assert cut.lower <= 2295 <= cut.upper
    assert result.unique and result.matrix == original


def test_the_bench_range_length_is_the_cut_width():
    ctx = KeyContext(symmetric_key((1, 0, 1), (1, 0, 0), 3))
    plain = bytes([255, 255, 255])
    original = encrypt(digitize(plain, 3)[0], ctx)[0]
    # The first seed whose corruption lands on entry (0, 0), above its column's range.
    seed = next(s for s in range(200)
                if corrupt_blocks([original], ErrorModel(MODEL_REPLACE, magnitude=5000, seed=s))
                [0][0][0][0] > 2295)
    model = ErrorModel(MODEL_REPLACE, magnitude=5000, seed=seed)
    received = corrupt_blocks([original], model)[0][0]
    cut = correct(received, detect_errors(received, ctx), ctx).rows[0].ranges[0]
    assert cut.upper == 2295
    # The trial corrupts by its own seed, whatever the model's.
    other = ErrorModel(MODEL_REPLACE, magnitude=5000, seed=seed + 1)
    assert run_bench_trial(ctx, other, seed, plain).range_length == float(cut.upper - cut.lower)


def test_a_checking_range_outside_the_absolute_range_is_empty():
    # A reference far too large puts the whole range above column 0's bound.
    ctx = KeyContext(symmetric_key((1, 0, 1), (1, 0, 0), 3))
    received = [[5000, 10 ** 6, 1020], [0, 0, 0], [0, 0, 0]]
    diagnoses = [RowDiagnosis(row=0, trusted=(1,), flagged=(0,), pairs=())]
    with pytest.raises(EmptyCheckingRangeError, match="absolute range"):
        correct(received, diagnoses, ctx)
