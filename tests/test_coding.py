import random
from fractions import Fraction

import pytest

from rmcipher import (Recurrence, coding_matrix, coding_matrix_inverse, general_key,
                      initial_matrix, is_cyclic, key_fingerprint, left_companion,
                      right_companion, right_form_key, symmetric_key, validate_key)
from rmcipher.coding import CodingKey, InvalidKeyError, MatrixBuilder, induced_left_matrix
from rmcipher.exactmat import det_exact, identity, mat_mul, transpose
from tests.conftest import M15_2FIB, M15_2FIB_INV, M5_TETRA


def test_left_companion_tribonacci():
    assert left_companion(Recurrence((1, 1, 1))) == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_left_companion_wielandt3():
    assert left_companion(Recurrence((1, 1, 0))) == [[0, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_left_companion_fibonacci_q():
    assert left_companion(Recurrence((1, 1))) == [[1, 1], [1, 0]]


def test_right_companion_504():
    assert right_companion(Recurrence((-4, 0, 5))) == [[5, 1, 0], [0, 0, 1], [-4, 0, 0]]


def test_right_companion_is_transpose():
    rng = random.Random(13)
    for _ in range(50):
        k = rng.randint(2, 6)
        rec = Recurrence(tuple(rng.randint(-5, 5) for _ in range(k)))
        assert right_companion(rec) == transpose(left_companion(rec))


def test_initial_matrix_two_fib():
    left = left_companion(Recurrence((1, 0, 1)))
    assert initial_matrix(left, (1, 0, 0)) == [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


def test_initial_matrix_grown():
    left = [[0, 1, 1], [1, 2, 1], [0, 1, 0]]
    assert initial_matrix(left, (0, 0, 1)) == [[1, 1, 0], [3, 1, 0], [1, 0, 1]]


def test_initial_matrix_general_2x2():
    assert initial_matrix([[1, 2], [3, 4]], (1, 0)) == [[1, 1], [3, 0]]


def test_is_cyclic():
    left = left_companion(Recurrence((1, 1, 1)))
    assert is_cyclic(left, (1, 0, 0))
    assert not is_cyclic(left, (0, 0, 0))
    assert not is_cyclic(identity(3), (1, 2, 3))


def test_coding_matrix_symmetric(two_fib_key):
    cm = coding_matrix(two_fib_key, 15)
    assert cm.rows() == M15_2FIB
    assert cm.n == 15
    assert cm.fingerprint == key_fingerprint(two_fib_key)


def test_coding_matrix_general(general_1234_key):
    assert coding_matrix(general_1234_key, 9).rows() == [[4783807, 890461],
                                                         [10458075, 1946673]]


def test_coding_matrix_right_form(right_form_504_key):
    assert coding_matrix(right_form_504_key, 5).rows() == [[19292, 3996, 828],
                                                           [11300, 2340, 484],
                                                           [21632, 4480, 928]]


def test_coding_matrix_tetranacci(tetranacci_key):
    assert coding_matrix(tetranacci_key, 5).rows() == M5_TETRA


def test_coding_matrix_at_zero(two_fib_key):
    assert coding_matrix(two_fib_key, 0).rows() == two_fib_key.initial()


def test_coding_matrix_rejects_negative_index(two_fib_key):
    with pytest.raises(ValueError):
        coding_matrix(two_fib_key, -3)


def test_coding_matrix_inverse_worked(two_fib_key):
    assert coding_matrix_inverse(two_fib_key, 15) == M15_2FIB_INV


def test_coding_matrix_inverse_golden(fib_key):
    fib = [0, 1]
    for _ in range(25):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 21):
        sgn = (-1) ** (n + 1)
        expect = [[sgn * fib[n], -sgn * fib[n + 1]],
                  [-sgn * fib[n + 1], sgn * fib[n + 2]]]
        assert coding_matrix_inverse(fib_key, n) == expect


def test_coding_matrix_inverse_at_zero(two_fib_key):
    from rmcipher.exactmat import inverse_exact
    assert coding_matrix_inverse(two_fib_key, 0) == inverse_exact(two_fib_key.initial())


def _random_keys(rng, count):
    keys = []
    while len(keys) < count:
        kind = rng.choice(("symmetric", "general", "right_form"))
        k = rng.randint(2, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        if coeffs[0] == 0:
            coeffs[0] = rng.choice([-2, -1, 1, 2])
        try:
            if kind == "symmetric":
                x0 = [rng.randint(-4, 4) for _ in range(k)]
                key = symmetric_key(coeffs, x0, rng.randint(1, 20))
                if det_exact(key.initial()) == 0:
                    continue
            elif kind == "general":
                left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
                if det_exact(left) == 0:
                    continue
                x0 = [rng.randint(-4, 4) for _ in range(k)]
                if not is_cyclic(left, x0):
                    continue
                key = general_key(left, x0, rng.randint(1, 20))
            else:
                m0 = [[rng.randint(0, 4) for _ in range(k)] for _ in range(k)]
                if det_exact(m0) == 0:
                    continue
                key = right_form_key(coeffs, m0, rng.randint(1, 20))
            keys.append(key)
        except InvalidKeyError:
            continue
    return keys


def test_transition_identities():
    # L * M_n = M_{n+1} = M_n * R, exactly, for n = 0..30.
    rng = random.Random(99)
    for key in _random_keys(rng, 12):
        builder = MatrixBuilder(key)
        rec = key.recurrence()
        r = right_companion(rec)
        left = induced_left_matrix(key)
        for n in range(0, 31, 5):
            m_n = builder.matrix(n)
            m_next = builder.matrix(n + 1)
            assert mat_mul(m_n, r) == m_next
            assert mat_mul(left, m_n) == [[Fraction(v) for v in row] for row in m_next]


def test_coding_matrix_equals_power_oracle():
    # Independent oracle: repeated exact multiplication L**n * M_0.
    rng = random.Random(101)
    for key in _random_keys(rng, 8):
        if key.kind == "right_form":
            continue
        left = key.left_matrix()
        m0 = key.initial()
        builder = MatrixBuilder(key)
        acc = [row[:] for row in m0]
        for n in range(0, 51):
            assert builder.matrix(n) == acc
            acc = mat_mul(left, acc)


def test_right_form_power_oracle(right_form_504_key):
    r = right_companion(Recurrence((-4, 0, 5)))
    acc = [row[:] for row in right_form_504_key.initial()]
    builder = MatrixBuilder(right_form_504_key)
    for n in range(0, 31):
        assert builder.matrix(n) == acc
        acc = mat_mul(acc, r)


def test_inverse_times_matrix_identity():
    rng = random.Random(103)
    eye3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for key in _random_keys(rng, 6):
        k = key.order
        eye = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        builder = MatrixBuilder(key)
        for n in (0, 3, 11):
            assert mat_mul(builder.inverse(n), builder.matrix(n)) == eye


def test_symmetric_keys_give_symmetric_matrices():
    rng = random.Random(107)
    for _ in range(10):
        k = rng.randint(2, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        if coeffs[0] == 0:
            coeffs[0] = 1
        key = symmetric_key(coeffs, [rng.randint(-4, 4) for _ in range(k)], 7)
        if det_exact(key.initial()) == 0:
            continue
        m = MatrixBuilder(key).matrix(rng.randint(0, 25))
        assert m == transpose(m)


def test_det_of_coding_matrix():
    rng = random.Random(109)
    for key in _random_keys(rng, 6):
        if key.kind == "right_form":
            continue
        det_l = det_exact(key.left_matrix())
        det_m0 = det_exact(key.initial())
        builder = MatrixBuilder(key)
        for n in (1, 4, 9):
            assert det_exact(builder.matrix(n)) == det_l ** n * det_m0


def test_validate_two_fib(two_fib_key):
    report = validate_key(two_fib_key)
    assert report.ok
    assert report.item("strong_perron_frobenius").status == "pass"
    assert report.item("pisot").status == "pass"
    assert report.item("tau_within_cap").status == "pass"
    assert report.item("entries_eventually_positive").status == "pass"


def test_validate_wielandt4(wielandt4_key):
    report = validate_key(wielandt4_key)
    assert report.ok
    assert report.item("strong_perron_frobenius").status == "pass"
    assert report.item("pisot").status == "fail"


def test_validate_large_tau_warns(general_1234_key):
    report = validate_key(general_1234_key)
    assert report.ok
    assert report.item("tau_within_cap").status == "warn"
    assert "5.372" in report.item("tau_within_cap").detail


def test_validate_right_form_spf_transfer():
    # Right companion of X[n+3] = X[n+2] + 2 X[n] is strong Perron-Frobenius,
    # so any nonnegative invertible initial matrix yields a feasible key.
    r = right_companion(Recurrence((2, 0, 1)))
    key = right_form_key((2, 0, 1), r, 6)
    report = validate_key(key)
    assert report.ok
    assert report.item("strong_perron_frobenius").status == "pass"


def test_validate_right_form_sign_changing_eigenvector(right_form_504_key):
    report = validate_key(right_form_504_key)
    assert report.ok  # still decryptable
    assert report.item("strong_perron_frobenius").status == "fail"


def test_singular_initial_matrix_rejected():
    key = symmetric_key((1, 1), (0, 0), 3)
    with pytest.raises(InvalidKeyError):
        MatrixBuilder(key)


def test_structural_validation():
    with pytest.raises(InvalidKeyError):
        symmetric_key((1,), (1,), 2)
    with pytest.raises(InvalidKeyError):
        general_key([[1, 2], [3, 4]], (1, 0, 0), 2)
    with pytest.raises(InvalidKeyError):
        right_form_key((1, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)


@pytest.mark.parametrize("kind, fields, message", [
    ("symmetric", {"coeffs": (1, 0, 1), "x0": (1, 0, 0), "m0": ((1, 0, 0),) * 3},
     "takes no field 'm0'"),
    ("general", {"left": ((1, 1), (1, 0)), "x0": (1, 0), "coeffs": (1, 1)},
     "takes no field 'coeffs'"),
    ("right_form", {"coeffs": (1, 1), "m0": ((1, 0), (0, 1)), "x0": (1, 0)},
     "takes no field 'x0'"),
    ("right_form", {"coeffs": (1, 1), "m0": ((1, 0), (0,))}, "order 2 needs an integer matrix 'm0'"),
    ("general", {"left": ((1, 1), (1, 0)), "x0": (1, "0")}, "order 2 needs an integer vector 'x0'"),
    ("symmetric", {"coeffs": (1, 1)}, "order 2 needs an integer vector 'x0'"),
])
def test_each_kind_takes_its_own_fields(kind, fields, message):
    k = len(next(iter(fields.values())))
    with pytest.raises(InvalidKeyError, match=message):
        CodingKey(kind, k, 3, **fields)


def test_key_fields_are_held_as_tuples_of_ints():
    key = CodingKey("right_form", 2, 3, coeffs=[1, True], m0=[[2, 1], (1, 1)])
    assert key.coeffs == (1, 1) and type(key.coeffs[1]) is int
    assert key.m0 == ((2, 1), (1, 1))
    assert key == right_form_key((1, 1), ((2, 1), (1, 1)), 3) and hash(key)


def test_fingerprint_stability(two_fib_key):
    assert key_fingerprint(two_fib_key) == key_fingerprint(symmetric_key((1, 0, 1), (1, 0, 0), 15))
    assert key_fingerprint(two_fib_key) != key_fingerprint(symmetric_key((1, 0, 1), (1, 0, 0), 16))
