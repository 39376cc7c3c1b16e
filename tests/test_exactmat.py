import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcipher import exactmat
from rmcipher.exactmat import (SingularMatrixError, adjugate, char_poly, det_exact, identity,
                               inverse_exact, mat_mul, mat_pow, mat_vec, poly_degree,
                               poly_derivative, poly_divide, poly_eval, poly_gcd, poly_monic,
                               poly_mul, poly_reverse, resultant, squarefree_factors)
from tests.conftest import C_ALGORITHM_15, M15_2FIB

M0_2FIB = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
P_ALGORITHM = [[65, 76, 71], [79, 82, 73], [84, 72, 77]]


def _schoolbook(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            s = 0
            for t in range(m):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j in range(len(a)):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _cofactor_det(minor)
    return total


def test_identity_product():
    a = [[3, -1], [7, 2]]
    assert mat_mul(identity(2), a) == a


def test_worked_ciphertext_product():
    assert mat_mul(P_ALGORITHM, M15_2FIB) == C_ALGORITHM_15


def test_mat_mul_against_schoolbook():
    rng = random.Random(7)
    for _ in range(25):
        a = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(4)]
        assert mat_mul(a, b) == _schoolbook(a, b)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])


def test_mat_pow_against_repeated_products():
    rng = random.Random(17)
    for _ in range(10):
        k = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        acc = identity(k)
        for n in range(20):
            assert mat_pow(a, n) == acc
            acc = mat_mul(acc, a)
    half = [[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(3)]]
    assert mat_pow(half, 5) == mat_mul(mat_pow(half, 2), mat_pow(half, 3))


def test_mat_pow_stops_past_max_bits():
    fib = [[1, 1], [1, 0]]
    assert mat_pow(fib, 90, max_bits=64)[0][1] == 2880067194370816120    # F_90, 62 bits
    with pytest.raises(OverflowError):
        mat_pow(fib, 10 ** 100, max_bits=64)
    with pytest.raises(ValueError):
        mat_pow(fib, -1)


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [1, 0]) == [1, 3]


def test_det_left_companion():
    from rmcipher import left_companion
    from rmcipher.recurrence import Recurrence
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randint(2, 5)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(k))
        left = left_companion(Recurrence(coeffs))
        assert det_exact(left) == (-1) ** (k - 1) * coeffs[0]


def test_det_identity():
    assert det_exact(identity(5)) == 1


def test_det_against_cofactor_expansion():
    assert det_exact(M0_2FIB) == _cofactor_det(M0_2FIB)
    assert det_exact(M0_2FIB) in (-1, 1)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.choice((3, 4))
        a = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        b = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        assert det_exact(mat_mul(a, b)) == det_exact(a) * det_exact(b)


def test_inverse_worked_initial_matrix():
    assert inverse_exact(M0_2FIB) == [[0, 0, 1], [0, 1, -1], [1, -1, 0]]


def test_inverse_identity():
    assert inverse_exact(identity(3)) == identity(3)


def test_inverse_golden_closed_form():
    # [[F6, F5], [F5, F4]] inverts to (-1)**5 [[F4, -F5], [-F5, F6]]
    m4 = [[8, 5], [5, 3]]
    assert inverse_exact(m4) == [[-3, 5], [5, -8]]


def test_inverse_times_matrix_is_identity():
    rng = random.Random(19)
    done = 0
    while done < 50:
        k = rng.randint(2, 5)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        if det_exact(a) == 0:
            continue
        prod = mat_mul(a, inverse_exact(a))
        assert prod == [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        done += 1


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse_exact([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        adjugate([[0, 0], [0, 0]])


def test_adjugate_is_det_times_inverse():
    rng = random.Random(37)
    done = 0
    while done < 100:
        k = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        det = det_exact(a)
        if det == 0:
            continue
        adj, d = adjugate(a)
        assert d == det
        assert mat_mul(a, adj) == [[det * (i == j) for j in range(k)] for i in range(k)]
        assert all(isinstance(x, int) for row in adj for x in row)
        done += 1


def test_inverse_of_a_rational_matrix():
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-2, 5), 7]]
    inv = inverse_exact(a)
    assert mat_mul(a, inv) == identity(2)
    # det = 109/30, so the inverse is 30/109 [[7, -1/3], [2/5, 1/2]].
    assert inv == [[Fraction(210, 109), Fraction(-10, 109)], [Fraction(12, 109), Fraction(15, 109)]]


def test_char_poly_2x2():
    assert char_poly([[1, 2], [3, 4]]) == [1, -5, -2]


def test_char_poly_3x3():
    assert char_poly([[2, 1, 2], [0, 1, 2], [2, 2, 2]]) == [1, -5, 0, 4]


def test_char_poly_of_companion_recovers_poly():
    from rmcipher import left_companion
    from rmcipher.recurrence import Recurrence
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(2, 6)
        rec = Recurrence(tuple(rng.randint(-5, 5) for _ in range(k)))
        assert char_poly(left_companion(rec)) == rec.char_poly()


def _poly_eval_matrix(f, a):
    """f(a) by Horner's scheme on matrices."""
    k = len(a)
    acc = [[f[0] if i == j else 0 for j in range(k)] for i in range(k)]
    for c in f[1:]:
        acc = mat_mul(acc, a)
        for i in range(k):
            acc[i][i] += c
    return acc


def test_cayley_hamilton():
    rng = random.Random(29)
    for _ in range(20):
        k = rng.randint(2, 4)
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
        assert _poly_eval_matrix(char_poly(a), a) == [[0] * k for _ in range(k)]


def test_poly_divide_family_polynomial():
    f4 = [1, -1, -1, -1, -1, 0, 0, 1]  # z**4 * (z**3 - z**2 - z - 1) - (z**3 - 1)
    q, r = poly_divide(f4, [1, 1])
    assert q == [1, -2, 1, -2, 1, -1, 1]
    assert r == [0]


def test_poly_divide_by_one():
    f = [1, 0, -3, 2]
    assert poly_divide(f, [1]) == (f, [0])


def test_poly_divide_difference_of_squares():
    assert poly_divide([1, 0, -1], [1, -1]) == ([1, 1], [0])


def test_poly_divide_random_reconstruction():
    rng = random.Random(31)
    for _ in range(50):
        f = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        g = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
        q, r = poly_divide(f, g)
        assert poly_degree(r) < poly_degree(g) or r == [0]
        from rmcipher.exactmat import poly_add
        assert poly_add(poly_mul(q, g), r) == f


def test_poly_gcd_shared_factor():
    f = poly_mul([1, -1], [1, 0, 1])
    g = poly_mul([1, -1], [1, 2])
    assert poly_gcd(f, g) == [1, -1]


def test_poly_reverse():
    assert poly_reverse([1, -3, 0, 2]) == [2, 0, -3, 1]


def test_squarefree_factors():
    # (z - 1)**2 * (z + 2)
    f = poly_mul(poly_mul([1, -1], [1, -1]), [1, 2])
    factors = squarefree_factors(f)
    assert ([1, 2], 1) in factors
    assert ([1, -1], 2) in factors


def test_resultant_worked_examples():
    assert resultant([1, 0, -2], [2, 0]) == -8      # z**2 - 2 and its derivative
    assert resultant([1, -1], [1, -1]) == 0
    assert resultant([1, 2], [3]) == 3               # Res(f, c) = c**deg f
    assert resultant([1, 0, 1], [1, 0, 0]) == 1


def _polys(degree):
    return st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1).filter(
        lambda c: c[0] != 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(_polys), st.integers(1, 3).flatmap(_polys),
       st.booleans(), st.integers(1, 6))
def test_squarefree_factors_equal_yuns(a, b, squared, denominator):
    """The discriminant certificate changes no result: a*b and a**2*b, with
    integer and with rational coefficients, split as Yun splits them."""
    f = poly_mul(poly_mul(a, a) if squared else a, b)
    for g in (f, [Fraction(c, denominator) for c in f]):
        assert squarefree_factors(g) == exactmat._yun(poly_monic(g))
    if squared:
        assert resultant(f, poly_derivative(f)) == 0
        assert any(m >= 2 for _, m in squarefree_factors(f))


def test_poly_eval():
    assert poly_eval([1, -5, -2], 5) == -2
    assert poly_eval([1, 0, -1], Fraction(1, 2)) == Fraction(-3, 4)
