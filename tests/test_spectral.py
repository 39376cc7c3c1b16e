import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmcipher import (Recurrence, all_roots, exactmat, is_pisot, is_primitive,
                      is_strong_perron_frobenius, left_companion, spectral,
                      transition_ratio)
from rmcipher.exactmat import char_poly
from rmcipher.spectral import (DominantRootError, analyze_matrix, analyze_recurrence,
                               resolve_precision)

GOLDEN = 1.618033988749894848


def test_all_roots_golden():
    roots = all_roots([1, -1, -1])
    vals = sorted(float(re) for re, _ in roots.roots)
    assert abs(vals[1] - GOLDEN) < 1e-12
    assert abs(vals[0] + 1 / GOLDEN) < 1e-12
    assert max(roots.residuals) < Fraction(1, 10 ** 40)     # every |f(r)| < 1e-20


def test_all_roots_tribonacci_dominant():
    roots = all_roots([1, -1, -1, -1])
    dom = max(roots.roots, key=lambda r: r[0] ** 2 + r[1] ** 2)
    assert abs(float(dom[0]) - 1.839286755) < 1e-8
    assert dom[1] == 0                  # snapped: a real root comes back exactly real


def test_all_roots_quartic():
    roots = all_roots([1, -1, -1, -2, -1])
    norms = roots.norms()
    assert abs(math.sqrt(norms[0]) - 2.065994892) < 1e-6
    assert abs(math.sqrt(norms[1]) - 0.9582737) < 1e-6


def test_all_roots_multiplicities():
    from rmcipher.exactmat import poly_mul
    f = poly_mul(poly_mul([1, -1], [1, -1]), [1, 2])
    roots = all_roots(f)
    assert sorted(roots.multiplicities) == [1, 2]
    assert sum(roots.multiplicities) == 3


def test_root_modulus_product_equals_free_term():
    for f in ([1, -1, -1], [1, -1, -1, -1], [1, 0, -1, -1], [1, -1, -1, -2, -1],
              [1, -1, -1, -2, 0, 0, 1]):
        roots = all_roots(f)
        # The product of the moduli within 1e-9 * max(1, |f(0)|) of |f(0)|,
        # compared exactly on its square.
        prod2 = math.prod(roots.norms())
        tol = Fraction(1, 10 ** 9) * max(1, abs(f[-1]))
        assert (abs(f[-1]) - tol) ** 2 < prod2 < (abs(f[-1]) + tol) ** 2


def test_all_roots_rejects_constants():
    with pytest.raises(ValueError):
        all_roots([1])


@pytest.mark.parametrize("coeffs,expected,tol", [
    ((1, 1), GOLDEN, 1e-12),
    ((1, 0, 1), 1.465571232, 1e-8),
    ((1, 1, 1), 1.839286755, 1e-8),
    ((1, 1, 1, 1), 1.927562, 1e-5),
    ((1, 2, 1, 1), 2.066, 1e-3),
    ((2, 0, 1), 1.6956, 1e-4),
])
def test_transition_ratio_values(coeffs, expected, tol):
    assert abs(float(transition_ratio(Recurrence(coeffs))) - expected) < tol


THREADED = [(1, 1), (1, 0, 1), (1, 1, 1), (1, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1)]


def test_threads_at_different_precisions_get_their_own_results():
    # The precision is an argument, not process state: two threads at 32
    # and 300 bits, switching often, each get the sequential results.
    def results(bits):
        return [(analyze_recurrence(Recurrence(c), bits).to_dict(),
                 transition_ratio(Recurrence(c), bits)) for c in THREADED]

    expected = {bits: results(bits) for bits in (32, 300)}
    start, got = threading.Barrier(2, timeout=60), {}

    def run(bits):
        start.wait()
        got[bits] = [results(bits) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(bits,)) for bits in expected]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {bits: [want] * 5 for bits, want in expected.items()}


def test_transition_ratio_needs_invertibility():
    with pytest.raises(ValueError):
        transition_ratio(Recurrence((0, 1)))


def test_transition_ratio_needs_positive_dominant():
    # z**2 + 1: conjugate pair, no dominant root at all
    with pytest.raises(DominantRootError):
        transition_ratio(Recurrence((-1, 0)))
    # z**2 + z - 1: dominant root is negative
    with pytest.raises(DominantRootError):
        transition_ratio(Recurrence((1, -1)))


@pytest.mark.parametrize("coeffs,expected,tol", [
    ((1, 1, 1), 0.7374, 0.01),       # close to the quoted 0.74
    ((1, 0, 1), 0.8260, 0.01),       # close to the quoted 0.83
    ((1, 1, 0), 0.8688, 0.01),       # close to the quoted 0.87
    ((1, 1, 0, 0), 1.0633, 0.01),    # close to the quoted 1.06
    ((1, 2, 2), 0.5943, 0.005),
    ((1, 1, 1, 1), 0.8182761, 1e-5),
])
def test_second_eigenmodulus_values(coeffs, expected, tol):
    sigma = analyze_recurrence(Recurrence(coeffs)).sigma
    assert abs(float(sigma) - expected) < tol


def test_spf_q_matrix():
    res = is_strong_perron_frobenius([[1, 1], [1, 0]])
    assert res.is_spf == "yes"
    assert abs(float(res.tau) - GOLDEN) < 1e-12
    assert all(float(x) > 0 for x in res.dominant_vector)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 0, 1), (1, 1, 0)])
def test_spf_worked_companions(coeffs):
    assert is_strong_perron_frobenius(left_companion(Recurrence(coeffs))).is_spf == "yes"


def test_spf_grown_matrix():
    res = is_strong_perron_frobenius([[0, 1, 1], [1, 2, 1], [0, 1, 0]])
    assert res.is_spf == "yes"
    assert abs(float(res.tau) - 2.831) < 1e-3
    assert all(float(x) > 0 for x in res.dominant_vector)


def test_spf_no_for_rotation():
    # Eigenvalues are a conjugate pair on the imaginary axis.
    res = is_strong_perron_frobenius([[0, -1], [1, 0]])
    assert (res.is_spf, res.spf_reason) == ("no", "dominant modulus is a conjugate pair")
    assert res.tau is None and res.dominant_vector is None


def test_spf_indeterminate_on_modulus_tie():
    # Eigenvalues +1 and -1 share their modulus exactly.
    res = is_strong_perron_frobenius([[0, 1], [1, 0]])
    assert (res.is_spf, res.spf_reason) == ("indeterminate",
                                            "dominance margin within tolerance")


def test_spf_no_for_sign_changing_eigenvector():
    from rmcipher import right_companion
    res = is_strong_perron_frobenius(right_companion(Recurrence((-4, 0, 5))))
    assert (res.is_spf, res.spf_reason) == ("no", "dominant eigenvector changes sign")
    # The dominant root exists; only its eigenvector fails.
    assert res.tau is not None and any(x < 0 for x in res.dominant_vector)


def test_spf_is_the_report():
    a = [[0, 1, 1], [1, 2, 1], [0, 1, 0]]
    assert is_strong_perron_frobenius(a, 64) == analyze_matrix(a, 64)


@pytest.mark.parametrize("f,verdict", [
    ([1, -1, -1], "yes"),
    ([1, -1, -1, -2, 0, 0, 1], "yes"),        # z**6 - z**5 - z**4 - 2 z**3 + 1
    ([1, 0, 0, -1, -1], "no"),                # order-4 Wielandt
    ([1, -3, 1], "yes"),                      # reciprocal pair, second root inside
    ([1, -3, 2, -3, 1], "no"),                # unit-circle pair forces the exact test
])
def test_is_pisot(f, verdict):
    assert is_pisot(f) == verdict


def test_is_pisot_argument_checks():
    with pytest.raises(ValueError):
        is_pisot([2, 0, -1])
    with pytest.raises(ValueError):
        is_pisot([1, -1, 0])


@pytest.mark.parametrize("coeffs,expected", [
    ((1, 1, 1), True),
    ((1, 0, 1), True),
    ((1, 0, 0, 1), True),
    ((1, 1, 0), True),
    ((1, 0, 0), False),   # pure 3-cycle, period 3
])
def test_is_primitive_companions(coeffs, expected):
    assert is_primitive(left_companion(Recurrence(coeffs))) is expected


def test_is_primitive_identity_and_ones():
    assert is_primitive([[1, 0], [0, 1]]) is False
    assert is_primitive([[1, 1], [1, 1]]) is True


def test_is_primitive_rejects_negative_entries():
    with pytest.raises(ValueError):
        is_primitive([[1, -1], [1, 1]])


def graph_is_primitive(a):
    """Reference: the directed graph on the nonzero entries is strongly
    connected and the gcd of its cycle lengths is 1 (the gcd of the BFS
    level differences level[u] + 1 - level[v] over the edges u -> v)."""
    k = len(a)
    succ = [[j for j in range(k) if a[i][j] != 0] for i in range(k)]
    pred = [[i for i in range(k) if a[i][j] != 0] for j in range(k)]

    def reaches_all(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == k

    if not (reaches_all(succ) and reaches_all(pred)):
        return False
    level = {0: 0}
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(k):
        for v in succ[u]:
            g = math.gcd(g, abs(level[u] + 1 - level[v]))
    return g == 1


@st.composite
def nonnegative_matrices(draw):
    k = draw(st.integers(1, 7))
    # Mostly zeros, so that reducible and periodic patterns are common;
    # a row may be all zero.
    entry = st.sampled_from([0, 0, 0, 1, 2, 7])
    return draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))


@given(nonnegative_matrices())
@example([[0]])
@example([[3]])
@example([[0, 1], [1, 0]])                                   # period 2
@example([[0, 1, 0], [0, 0, 1], [1, 1, 0]])                  # cycles 2 and 3
@example([[1, 1, 0], [1, 1, 0], [0, 0, 0]])                  # a zero row
@settings(max_examples=400, deadline=None)
def test_wielandt_bound_agrees_with_the_graph_test(a):
    assert is_primitive(a) is graph_is_primitive(a)


@pytest.mark.parametrize("k", range(3, 8))
def test_wielandt_matrices_are_primitive_and_a_lone_cycle_is_not(k):
    # Cycles of lengths k and k-1: primitive, and its exponent is the
    # bound (k-1)**2 + 1 itself.  Without the shortcut edge: period k.
    a = [[int(j == i + 1) for j in range(k)] for i in range(k)]
    a[k - 1][0] = a[k - 1][1] = 1
    assert is_primitive(a) and graph_is_primitive(a)
    a[k - 1][1] = 0
    assert not is_primitive(a) and not graph_is_primitive(a)


def test_primitive_matrices_are_spf():
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        k = rng.randint(2, 4)
        a = [[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]
        try:
            prim = is_primitive(a)
        except ValueError:
            continue
        if not prim:
            continue
        assert is_strong_perron_frobenius(a).is_spf == "yes"
        checked += 1


def test_pisot_companion_is_spf():
    for coeffs in ((1, 1), (1, 0, 1), (1, 1, 1), (-1, 2, 0, 0, 1, 1)):
        rec = Recurrence(coeffs)
        if is_pisot(rec.char_poly()) == "yes":
            assert is_strong_perron_frobenius(left_companion(rec)).is_spf == "yes"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8), st.data())
def test_a_companion_polynomial_read_off_its_first_row_equals_char_poly(coeffs, data):
    a = left_companion(Recurrence(tuple(coeffs)))
    assert spectral._char_poly(a) == char_poly(a)
    # One changed entry below the first row: no longer a companion matrix.
    k = len(a)
    i, j = data.draw(st.integers(1, k - 1)), data.draw(st.integers(0, k - 1))
    a[i][j] += data.draw(st.sampled_from([-1, 1]))
    assert spectral._char_poly(a) == char_poly(a)


def test_the_report_reads_a_companion_polynomial_off_its_first_row(monkeypatch):
    a = left_companion(Recurrence((1, 0, 1)))
    monkeypatch.setattr(exactmat, "char_poly", None)        # never called for a companion
    assert analyze_matrix(a).char_poly == [1, -1, 0, -1]
    with pytest.raises(ValueError):
        analyze_matrix([[1, 0, 1, 5], [1, 0, 0], [0, 1, 0]])     # first row too long


def test_analyze_matrix_report():
    report = analyze_matrix([[0, 1, 1], [1, 2, 1], [0, 1, 0]])
    assert report.is_spf == "yes"
    assert report.is_pisot == "yes"
    assert report.is_primitive is True
    assert abs(float(report.sigma) - 0.594) < 0.005
    d = report.to_dict()
    assert d["spf"] == "yes" and d["primitive"] is True


def test_precision_env_override(monkeypatch):
    monkeypatch.delenv("RMC_PRECISION_BITS", raising=False)
    assert resolve_precision() == 128
    monkeypatch.setenv("RMC_PRECISION_BITS", "192")
    assert resolve_precision() == 192
    assert resolve_precision(64) == 64
