"""The root solver seeds its exact-precision Aberth iteration from a
double-precision pass.  It must find the roots and verdicts of the cold
start from the Newton polygon, fall back to that start where double
precision cannot be used, find known roots at every scale, and never give
a verdict that an exact oracle refutes."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec

from rmcipher import (Recurrence, analyze_matrix, exactmat, left_companion, spectral,
                      symmetric_key, transition_ratio)
from rmcipher.cli import main
from rmcipher.exactmat import (char_poly, poly_degree, poly_derivative, poly_divide, poly_eval,
                               poly_gcd, poly_mul, poly_trim)
from rmcipher.formats import save_key
from tests.test_keyload import _outcome, _seeded_recurrences
from tests.test_onepass import VALIDATION_KEYS, _target


@pytest.fixture
def paths(monkeypatch):
    """Records, per square-free factor of degree 2 or more, whether double
    seeds were found ("seeded") or not ("cold"), and each refinement of
    the seeds that missed its cap."""
    log = []
    seeds, refine = spectral._double_seeds, spectral._gaussian_aberth

    def recording_seeds(factor):
        found = seeds(factor)
        log.append("cold" if found is None else "seeded")
        return found

    def recording_refine(*args):
        try:
            return refine(*args)
        except spectral.RootFindingError:
            log.append("missed")
            raise

    monkeypatch.setattr(spectral, "_double_seeds", recording_seeds)
    monkeypatch.setattr(spectral, "_gaussian_aberth", recording_refine)
    return log


def _cold(monkeypatch, solve):
    """solve() with the double-precision pass switched off: the cold start."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_double_seeds", lambda factor: None)
        return solve()


def _norm(z):
    """|z|**2 of a root given as its exact (real, imaginary) parts."""
    return z[0] ** 2 + z[1] ** 2


def _dist2(z, w):
    return (z[0] - w[0]) ** 2 + (z[1] - w[1]) ** 2


def _assert_same_roots(seeded, cold, bits=128):
    """Each root of one set lies within 2**-bits (relative) of a root of
    the other, with the same multiplicity: exactly, on squares."""
    assert len(seeded.roots) == len(cold.roots)
    for r, m in zip(seeded.roots, seeded.multiplicities):
        near = min(range(len(cold.roots)), key=lambda i: _dist2(cold.roots[i], r))
        assert _dist2(cold.roots[near], r) <= Fraction(max(1, _norm(r)), 4 ** bits), (r, cold.roots)
        assert cold.multiplicities[near] == m


def _verdicts(report):
    return report.is_spf, report.is_pisot, report.spf_reason, report.tau is None


# ---------------------------------------------------------------------------
# the seeded solve against the cold start
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bits", [64, 128, 300])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_tau_and_verdicts_match_the_cold_start_on_the_keyload_set(k, bits, monkeypatch, paths):
    for coeffs in _seeded_recurrences(k, 8) + [(1,) * k]:
        rec = Recurrence(coeffs)
        tau = _outcome(lambda: transition_ratio(rec, bits))
        cold_tau = _cold(monkeypatch, lambda: _outcome(lambda: transition_ratio(rec, bits)))
        assert tau == cold_tau, coeffs
        report = analyze_matrix(left_companion(rec), bits)
        cold = _cold(monkeypatch, lambda: analyze_matrix(left_companion(rec), bits))
        assert _verdicts(report) == _verdicts(cold), coeffs
    assert "seeded" in paths and "cold" not in paths


@pytest.mark.parametrize("key", VALIDATION_KEYS,
                         ids=lambda key: f"{key.kind}-{key.coeffs or key.left}")
def test_reports_match_the_cold_start_on_the_onepass_keys(key, monkeypatch):
    report = analyze_matrix(_target(key))
    cold = _cold(monkeypatch, lambda: analyze_matrix(_target(key)))
    assert _verdicts(report) == _verdicts(cold)
    assert report.to_dict() == cold.to_dict()
    if report.tau is not None:
        bits = report.precision_bits
        assert spectral._round_bits(report.tau, bits) == spectral._round_bits(cold.tau, bits)


# ---------------------------------------------------------------------------
# fallback
# ---------------------------------------------------------------------------

GOLDEN = [1, -1, -1]


def _compare_with_cold(f, monkeypatch, bits=None):
    seeded = spectral.all_roots(f, bits)
    cold = _cold(monkeypatch, lambda: spectral.all_roots(f, bits))
    _assert_same_roots(seeded, cold, min(128, seeded.precision_bits))
    ours, theirs = spectral._dominance(seeded), spectral._dominance(cold)
    assert (ours.verdict, ours.reason) == (theirs.verdict, theirs.reason)
    assert _pisot_outcome(f, seeded) == _pisot_outcome(f, cold)
    return seeded


def _pisot_outcome(f, rootset):
    """The Pisot verdict, or the error for a non-monic f or one with f(0) = 0."""
    try:
        return spectral._pisot(f, rootset, spectral._dominance(rootset))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("f, bits", [
    (poly_mul([1, -10 ** 310], GOLDEN), None),  # a coefficient too big for a float
    ([1, -10 ** 200, 1], None),                 # radius**2 overflows at the start points
    ([1, -10 ** 70, 0, 0, 0, -1], None),        # radius**5 overflows
], ids=["float-1e310", "k2-1e200", "k5-1e70"])
def test_a_coefficient_beyond_double_range_takes_the_cold_start(f, bits, monkeypatch, paths):
    seeded = _compare_with_cold(f, monkeypatch, bits)
    assert paths == ["cold"]                    # one square-free factor; inf/NaN never seeds
    assert all(type(part) is Fraction for r in seeded.roots for part in r)
    # The largest modulus within 2**-40 (relative) of -f[1], exactly on squares.
    largest, eps = max(map(_norm, seeded.roots)), Fraction(1, 2 ** 40)
    assert ((1 - eps) * f[1]) ** 2 < largest < ((1 + eps) * f[1]) ** 2


def test_a_near_double_root_is_found_by_the_fallback(monkeypatch, paths):
    f = poly_mul([1, -10 ** 9], [1, -(10 ** 9 + 1)])
    seeded = _compare_with_cold(f, monkeypatch)
    assert paths[:2] == ["seeded", "missed"]    # double precision cannot split them
    assert sorted(round(re) for re, _ in seeded.roots) == [10 ** 9, 10 ** 9 + 1]


@pytest.mark.parametrize("f, multiplicities, n_factors", [
    (poly_mul(poly_mul(GOLDEN, GOLDEN), poly_mul([1, -3], [1, 2])), [1, 1, 2, 2], 2),
    ([2, -3, -1], [1, 1], 1),       # monic factor z**2 - 3/2 z - 1/2: Fraction coefficients
], ids=["golden-squared-times-(z-3)(z+2)", "non-monic-2z2-3z-1"])
def test_exact_factors_are_refined_from_the_seeds(f, multiplicities, n_factors, monkeypatch,
                                                   paths):
    factors = [factor for factor, _ in exactmat.squarefree_factors(f)]
    assert any(isinstance(c, Fraction) for factor in factors for c in factor) == (f[0] != 1)
    roots = _compare_with_cold(f, monkeypatch)
    assert sorted(roots.multiplicities) == multiplicities
    assert paths == ["seeded"] * n_factors


@pytest.mark.parametrize("f", [
    poly_mul([1, 0, 1], [1, -2]),                           # +-i
    [1, 0, 0, 0, 1],                                        # primitive 8th roots of unity
    poly_mul([1, 1, 1], [1, -1, -1, -1]),                   # cube roots of unity, tribonacci
    poly_mul([1, 0, 0, 0, 0, -1], [1, -3]),                 # 5th roots of unity, 1 a root
], ids=["i", "z4+1", "cyclotomic3", "z5-1"])
def test_roots_on_the_unit_circle(f, monkeypatch, paths):
    _compare_with_cold(f, monkeypatch)
    assert "cold" not in paths and "missed" not in paths


@pytest.mark.parametrize("env", ["16", "2048"])
def test_precision_from_the_environment(env, monkeypatch, paths):
    monkeypatch.setenv(spectral.PRECISION_ENV, env)
    polys = [GOLDEN, [1, -1, -1, -1, -1, -1], [1, 0, -1, -1], poly_mul([1, 1, 1], [1, -2])]
    for f in polys:
        seeded = _compare_with_cold(f, monkeypatch)
        assert seeded.precision_bits == int(env)
        rec = Recurrence(tuple(-c for c in reversed(f[1:])))
        tau = transition_ratio(rec)
        assert tau == _cold(monkeypatch, lambda: transition_ratio(rec))
    assert "cold" not in paths and "missed" not in paths


def test_refinement_steps_grow_with_the_precision():
    assert [spectral._refine_steps(2 * b) for b in (16, 128, 2048)] == [3, 5, 8]


# ---------------------------------------------------------------------------
# exact oracle: Sturm sequences and the Schur-Cohn recursion, in int/Fraction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _sturm_chain(f):
    f = poly_divide(f, poly_gcd(f, poly_derivative(f)))[0]      # square-free part
    chain = [f, poly_derivative(f)]
    while poly_degree(chain[-1]) > 0:
        rem = poly_divide(chain[-2], chain[-1])[1]
        if not any(rem):
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_roots_above(f, r):
    """Distinct real roots of f strictly greater than the rational r."""
    chain = _sturm_chain(tuple(f))
    return (_sign_changes([poly_eval(p, Fraction(r)) for p in chain])
            - _sign_changes([poly_trim(p)[0] for p in chain]))


def _schur_cohn(p):
    """Roots of the integer polynomial p inside |z| < 1, with multiplicity;
    None when the table is degenerate (|a_0| = |a_n| at some step, which
    every root on the unit circle forces)."""
    p = poly_trim(p)
    n = len(p) - 1
    if n == 0:
        return 0 if p[0] != 0 else None
    lead, const = p[0], p[-1]
    if abs(lead) == abs(const):
        return None
    # T p = a_0 p - a_n p*, with p*(z) = z**n p(1/z): on |z| = 1 the larger
    # term decides by Rouche, so T p has the zeros of p (|a_0| > |a_n|) or
    # of p*, which are the n - N(p) reflections of the zeros outside.
    t = poly_trim([const * a - lead * b for a, b in zip(p, reversed(p))])
    content = gcd(*t)
    inner = _schur_cohn([c // content for c in t]) if content else None
    if inner is None:
        return None
    return inner if abs(const) > abs(lead) else n - inner


def roots_inside(f, rho=1):
    """Roots of the integer polynomial f with |z| < rho (a positive
    rational), with multiplicity, or None (degenerate table)."""
    rho = Fraction(rho)
    n = poly_degree(f)
    return _schur_cohn([c * rho.numerator ** (n - i) * rho.denominator ** i
                        for i, c in enumerate(poly_trim(f))])


def exact_dominance(f, budget=40):
    """"yes" when f has a simple positive real root of strictly larger
    modulus than every other root, "no" when it provably has not, None
    when the bisection budget runs out first."""
    n = poly_degree(f)
    if real_roots_above(f, 0) == 0:
        return spectral.VERDICT_NO
    lo, hi = Fraction(0), 1 + max(abs(Fraction(c, f[0])) for c in f[1:])   # Cauchy bound
    for _ in range(budget):
        # (lo, hi] holds the largest real root tau, and no real root lies above hi.
        mid = (lo + hi) / 2
        if real_roots_above(f, mid):
            lo = mid
        else:
            hi = mid
        if lo == 0 or real_roots_above(f, lo) != 1:
            continue
        below, within = roots_inside(f, lo), roots_inside(f, hi)
        if below is None or within is None:
            continue
        if within < n:                          # a root of modulus above hi > tau
            return spectral.VERDICT_NO
        if below == n - 1:                      # tau alone in lo <= |z| < hi
            return spectral.VERDICT_YES
    return None


def unit_disk_count(f, budget=40):
    """Roots of f with |z| < 1, or None: the counts inside 1 - 2**-j and
    1 + 2**-j agree once no root has a modulus between them, which never
    happens with a root on the unit circle."""
    for j in range(4, budget):
        inner = roots_inside(f, 1 - Fraction(1, 2 ** j))
        if inner is not None and inner == roots_inside(f, 1 + Fraction(1, 2 ** j)):
            return inner
    return None


def exact_pisot(f):
    """The Pisot verdict of a monic integer f with f(0) != 0, or None when
    a root may lie on the unit circle."""
    inside = unit_disk_count(f)
    if inside is None:
        return None
    if inside == poly_degree(f) - 1 and real_roots_above(f, 1):
        return spectral.VERDICT_YES
    return spectral.VERDICT_NO


@pytest.mark.parametrize("f,dominance,pisot", [
    (GOLDEN, "yes", "yes"),
    ([1, 0, -1, -1], "yes", "yes"),                     # plastic number
    ([1, -1, -1, -1, -1, -1], "yes", "yes"),            # pentanacci
    ([1, -1, 0, 0, -1], "yes", "yes"),
    ([1, -5, 5], "yes", "no"),                          # 3.62 and 1.38
    ([1, 1, -1], "no", "no"),                           # -1.618 dominates 0.618
    ([1, 0, 1], "no", None),                            # +-i: no real root
    ([1, 0, -1], None, None),                           # +-1 tie
    ([1, 0, 0, -2], None, "no"),                        # 2**(1/3) ties a conjugate pair
    ([1, -1, -1, -1, 1], "yes", None),                  # Salem: roots on the circle
])
def test_oracle_worked_examples(f, dominance, pisot):
    assert exact_dominance(f) == dominance
    assert exact_pisot(f) == pisot


def test_oracle_counts_agree_with_numerical_roots():
    rng = random.Random("schur-cohn")
    checked = 0
    for _ in range(60):
        f = [1] + [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        rho = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        with workprec(200):
            try:
                roots = mp.polyroots(f, maxsteps=400, extraprec=400)
            except mp.NoConvergence:            # a multiple root: Durand-Kerner crawls
                continue
            radius = mpf(rho.numerator) / rho.denominator
            if any(abs(abs(r) - radius) < mpf(10) ** -20 for r in roots):
                continue
            inside = sum(abs(r) < radius for r in roots)
            real_above = len({mp.nstr(r.real, 30) for r in roots
                              if abs(r.imag) < mpf(10) ** -40 and r.real > radius})
        assert roots_inside(f, rho) in (inside, None), (f, rho)
        assert real_roots_above(f, rho) == real_above, (f, rho)
        checked += 1
    assert checked > 40


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=9))
@example([1, 0, 0, -2])                  # every root outside
@example([1, -1, -1, -1, 1])             # Salem: roots on the circle, degenerate
@example([0, 0, 3, 1])                   # leading zeros
def test_package_schur_cohn_count_equals_the_oracle(f):
    assert exactmat.roots_in_unit_disk(f) == _schur_cohn(f)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6).filter(lambda c: c[0] != 0))
def test_verdicts_are_exact_or_indeterminate(coeffs):
    a = left_companion(Recurrence(tuple(coeffs)))
    f = char_poly(a)
    report = analyze_matrix(a)
    allowed = {spectral.VERDICT_INDETERMINATE}
    dominance = exact_dominance(f)
    if dominance is not None:
        assert report.is_spf in allowed | {dominance}, f
    pisot = exact_pisot(f)
    if pisot is not None:
        assert report.is_pisot in allowed | {pisot}, f


# ---------------------------------------------------------------------------
# across scales: products of known factors, against the known roots and
# the exact oracle
# ---------------------------------------------------------------------------

BIG_ROOTS = st.builds(lambda m, e: m * 10 ** e, st.integers(-99, 99).filter(bool),
                      st.integers(0, 298))
SMALL_FACTORS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda c: [1] + c)


def _product(known, small):
    f = [1]
    for a in known:
        f = poly_mul(f, [1, -a])
    for g in small:
        f = poly_mul(f, g)
    return f


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(BIG_ROOTS, min_size=1, max_size=2), st.lists(SMALL_FACTORS, min_size=1, max_size=2))
@example([10 ** 110], [GOLDEN])             # small roots beside a huge one
@example([10 ** 9, 10 ** 9 + 1], [GOLDEN])  # a near double root: the seeds miss their cap
@example([10 ** 310], [GOLDEN])             # beyond the double range: a cold start
def test_known_roots_and_verdicts_across_scales(known, small):
    f = _product(known, small)
    rootset = spectral.all_roots(f)
    assert sum(rootset.multiplicities) == poly_degree(f)
    for a in known:
        assert min(_dist2(r, (a, 0)) for r in rootset.roots) <= Fraction(a * a, 4 ** 128), (a, f)
    report = analyze_matrix(left_companion(Recurrence.from_char_poly(f)))
    allowed = {spectral.VERDICT_INDETERMINATE}
    dominance = exact_dominance(f)
    if dominance is not None:
        assert report.is_spf in allowed | {dominance}, f
    pisot = exact_pisot(f) if f[-1] else None
    if pisot is not None:
        assert report.is_pisot in allowed | {pisot}, f


def test_a_tiny_root_beside_two_huge_ones():
    # z**3 - 3 z**2 + 10**309 z + 7, beyond the double range.  The real
    # root r lies near -7e-309 and the pair p, conj(p) near 1.5 +- 3.2e154 i:
    # r is bracketed exactly, and Vieta's formulas fix p.  Every bound is
    # compared exactly, on squares.
    f = [1, -3, 10 ** 309, 7]
    rootset = spectral.all_roots(f)
    eps = Fraction(1, 2 ** 128)
    (r,), pair = ([re for re, im in rootset.roots if im == 0],
                  [z for z in rootset.roots if z[1] != 0])
    sides = [poly_eval(f, r * (1 + d)) for d in (-eps, eps)]
    assert sides[0] * sides[1] < 0
    (px, py), (qx, qy) = pair
    assert (px + qx + r - 3) ** 2 <= eps ** 2 * _norm((px, py))
    assert (py + qy) ** 2 <= eps ** 2 * _norm((px, py))
    # r * p * q + 7, with p * q = (px qx - py qy) + i (px qy + py qx)
    assert _norm((r * (px * qx - py * qy) + 7, r * (px * qy + py * qx))) <= (4 * eps * 7) ** 2


def test_analyze_of_a_key_with_a_near_double_root_exits_0(tmp_path, capsys):
    rec = Recurrence.from_char_poly(poly_mul([1, -10 ** 9], poly_mul([1, -(10 ** 9 + 1)], GOLDEN)))
    keyfile = tmp_path / "key.json"
    save_key(symmetric_key(rec.coeffs, (1, 0, 0, 0), 12), keyfile)
    assert main(["analyze", str(keyfile)]) == 0
    assert "strong Perron-Frobenius: indeterminate" in capsys.readouterr().out


@pytest.mark.parametrize("f, bits", [
    (poly_mul([1, 0, 0, -2], [1, 1, 1]), None),   # three roots of modulus 2**(1/3)
    ([1, 0, 0, -3, 0, 0], 16),                    # z**2 (z**3 - 3): three of modulus 3**(1/3)
], ids=["z3-2_times_cyclotomic3", "z5-3z2_16bits"])
def test_a_modulus_tie_gives_one_verdict_from_either_solve(f, bits, monkeypatch, tmp_path,
                                                           capsys):
    # Which of the tied roots sorts first is rounding noise; the verdict
    # reads the whole band of tied moduli, so both solves agree.
    if bits is not None:
        monkeypatch.setenv(spectral.PRECISION_ENV, str(bits))
    _compare_with_cold(f, monkeypatch)
    rec = Recurrence.from_char_poly(f)
    report = analyze_matrix(left_companion(rec))
    assert _verdicts(report) == _verdicts(_cold(monkeypatch,
                                                lambda: analyze_matrix(left_companion(rec))))
    assert (report.is_spf, report.spf_reason) == ("indeterminate",
                                                  "dominance margin within tolerance")
    if rec.a0 == 0:
        return                                    # no valid key has this polynomial
    keyfile = tmp_path / "key.json"
    save_key(symmetric_key(rec.coeffs, (1, 0, 0, 0, 0), 12), keyfile)
    outputs = []
    for solve in (lambda: main(["analyze", str(keyfile)]),
                  lambda: _cold(monkeypatch, lambda: main(["analyze", str(keyfile)]))):
        assert solve() == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "strong Perron-Frobenius: indeterminate" in outputs[0].out
