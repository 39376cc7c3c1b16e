import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcipher import (GenConfig, Recurrence, abt_family, analyze_matrix, is_cyclic,
                      key_fingerprint, keygen, left_companion, primitive_growth,
                      right_companion, right_form_keygen, sieve_companion, validate_key)
from rmcipher.cli import main
from rmcipher.keygen import (CyclicVectorError, GenStats, derive_seed,
                             multinacci_poly, random_cyclic_vector)
from rmcipher.spectral import DominantRootError, analyze_recurrence


def test_derive_seed_is_deterministic():
    assert derive_seed(7, "sieve", 3) == derive_seed(7, "sieve", 3)
    assert derive_seed(7, "sieve", 3) != derive_seed(7, "sieve", 4)
    assert derive_seed(7, "sieve", 3) != derive_seed(8, "sieve", 3)


def test_sieve_reproducible_and_valid():
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=1234, budget=200)
    first = list(sieve_companion(cfg))
    second = list(sieve_companion(cfg))
    assert [key_fingerprint(g.key) for g in first] == [key_fingerprint(g.key) for g in second]
    assert first, "sieve found no keys in 200 draws"
    for gen in first:
        assert validate_key(gen.key, report=gen.report).ok
        assert gen.report.is_spf == "yes"
        assert float(gen.report.tau) <= cfg.tau_cap
        assert validate_key(gen.key).ok


def test_sieve_pisot_filter():
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=77, budget=150, require_pisot=True)
    stats = GenStats()
    keys = list(sieve_companion(cfg, stats))
    assert stats.tried == 150
    assert keys
    for gen in keys:
        assert gen.report.is_pisot == "yes"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=7))
def test_the_prefilter_rejects_only_what_the_solver_rejects(coeffs):
    rec = Recurrence(tuple(coeffs))
    if keygen._two_roots_outside(rec):
        assert analyze_matrix(left_companion(rec)).is_pisot != "yes", rec.char_poly()


def test_pisot_stats_count_a_prefiltered_candidate_as_not_pisot(tmp_path, capsys, monkeypatch):
    # The first candidate is z**3 - 2: its three roots share the modulus
    # 2**(1/3), so the solver calls it SPF-indeterminate ("not_spf"), and
    # Schur-Cohn proves all three outside the unit circle ("not_pisot").
    argv = ["keygen", "--pisot", "--range", "0,2", "--k", "3", "--seed", "4", "--stats"]
    assert main(argv + ["--out", str(tmp_path / "key.json")]) == 0
    assert json.loads(capsys.readouterr().err) == {
        "tried": 2, "emitted": 1, "rejected": {"not_pisot": 1}}
    monkeypatch.setattr(keygen, "_two_roots_outside", lambda rec: False)
    assert main(argv + ["--out", str(tmp_path / "unfiltered.json")]) == 0
    assert json.loads(capsys.readouterr().err) == {
        "tried": 2, "emitted": 1, "rejected": {"not_spf": 1}}
    assert (tmp_path / "key.json").read_bytes() == (tmp_path / "unfiltered.json").read_bytes()


def test_fibonacci_coefficients_always_feasible():
    report = analyze_recurrence(Recurrence((1, 1)))
    assert report.is_spf == "yes" and report.is_pisot == "yes"
    assert float(report.tau) < 3


def test_quartic_sieve_example_passes():
    report = analyze_recurrence(Recurrence((1, 2, 1, 1)))
    assert report.is_spf == "yes"
    assert report.is_pisot == "yes"
    assert abs(float(report.tau) - 2.066) < 1e-3
    assert abs(float(report.sigma) - 0.9582) < 1e-4


def test_wielandt4_fails_pisot_requirement():
    report = analyze_recurrence(Recurrence((1, 1, 0, 0)))
    assert report.is_spf == "yes"
    assert report.is_pisot == "no"


def test_multinacci_poly():
    assert multinacci_poly(2) == [1, -1, -1, -1]


def test_abt_family_m3():
    res = abt_family(2, 3, sign=-1)
    assert res.poly == [1, -1, -1, -2, 0, 0, 1]
    assert res.report.is_pisot == "yes"
    assert abs(float(res.report.tau) - 1.98139) < 1e-4
    assert abs(float(res.report.sigma) - 0.94792) < 1e-4
    assert res.removed_factors == []
    assert not res.tau_warning


def test_abt_family_m4_removes_trivial_factor():
    res = abt_family(2, 4, sign=-1)
    assert res.poly == [1, -2, 1, -2, 1, -1, 1]
    assert res.removed_factors == ["z+1"]
    assert res.report.is_pisot == "yes"
    assert abs(float(res.report.tau) - 1.91616) < 1e-4
    assert abs(float(res.report.sigma) - 0.93460) < 1e-4


def test_abt_family_small_m_warns():
    assert abt_family(2, 1, sign=-1).tau_warning
    assert abt_family(2, 2, sign=-1).tau_warning


def test_abt_family_argument_checks():
    with pytest.raises(ValueError):
        abt_family(0, 3)
    with pytest.raises(ValueError):
        abt_family(2, 3, sign=0)
    with pytest.raises(ValueError):
        abt_family(2, 3, variant="nope")


@pytest.mark.parametrize("index_range", [(5, 1), (-5, 3), (-1, -1)])
def test_gen_config_refuses_an_empty_or_negative_index_range(index_range):
    with pytest.raises(ValueError, match=r"^index range \(.*\) is empty or negative$"):
        GenConfig(order=3, index_range=index_range)
    assert GenConfig(order=3, index_range=(0, 0)).index_range == (0, 0)


def test_abt_family_certified_for_small_parameters():
    # Every emitted polynomial is either certified Pisot or flagged as
    # having a dominant root above 2; nothing fails silently.
    for r in (1, 2, 3):
        for m in range(1, 9):
            for sign in (1, -1):
                for variant in ("binomial", "geometric"):
                    res = abt_family(r, m, sign, variant)
                    assert res.report.is_pisot in ("yes", "no", "indeterminate")
                    if res.report.is_pisot != "yes":
                        assert res.tau_warning or res.report.is_pisot != "yes"


def test_primitive_growth_requires_primitive_seed():
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=5, budget=10)
    with pytest.raises(ValueError):
        next(primitive_growth([[0, 0, 1], [1, 0, 0], [0, 1, 0]], cfg))


def test_primitive_growth_emits_valid_keys():
    from rmcipher import is_primitive
    wielandt3 = [[0, 1, 1], [1, 0, 0], [0, 1, 0]]
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=21, budget=60)
    keys = list(primitive_growth(wielandt3, cfg))
    assert keys, "growth emitted nothing in 60 attempts"
    for gen in keys:
        left = gen.key.left_matrix()
        assert is_primitive(left)
        assert gen.report.is_spf == "yes"
        assert float(gen.report.tau) <= cfg.tau_cap
        assert validate_key(gen.key, report=gen.report).ok


def test_grown_showcase_matrix_certifies():
    from rmcipher import analyze_matrix
    report = analyze_matrix([[0, 1, 1], [1, 2, 1], [0, 1, 0]])
    assert report.char_poly == [1, -2, -2, -1]
    assert report.is_pisot == "yes"
    assert abs(float(report.tau) - 2.831) < 1e-3
    assert abs(float(report.sigma) - 0.594) < 0.005


def test_all_ones_seed_is_primitive():
    from rmcipher import is_primitive
    assert is_primitive([[1, 1], [1, 1]])


def test_random_cyclic_vector_companion():
    rng = random.Random(0)
    left = left_companion(Recurrence((1, 0, 1)))
    vec = random_cyclic_vector(left, 0, 9, rng)
    assert is_cyclic(left, vec)
    assert is_cyclic(left, (1, 0, 0))


def test_random_cyclic_vector_rejects_degenerate():
    rng = random.Random(0)
    with pytest.raises(CyclicVectorError):
        random_cyclic_vector([[1, 0], [0, 1]], 0, 3, rng)


def test_irreducible_characteristic_accepts_every_nonzero_vector():
    # z**2 - z - 1 is irreducible over the rationals.
    rng = random.Random(9)
    left = left_companion(Recurrence((1, 1)))
    for _ in range(50):
        vec = (rng.randint(-9, 9), rng.randint(-9, 9))
        if vec != (0, 0):
            assert is_cyclic(left, vec)


def test_right_form_keygen_feasible():
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=3)
    gen = right_form_keygen(Recurrence((2, 0, 1)), cfg)
    assert gen.key.kind == "right_form"
    validation = validate_key(gen.key, report=gen.report)
    assert validation.ok
    assert validation.item("strong_perron_frobenius").status == "pass"
    assert abs(float(gen.report.tau) - 1.6956) < 1e-4


def test_right_form_worked_example_eigenvector():
    from rmcipher import is_strong_perron_frobenius
    r = right_companion(Recurrence((2, 0, 1)))
    res = is_strong_perron_frobenius(r)
    assert res.is_spf == "yes"
    vec = [float(x) for x in res.dominant_vector]
    assert abs(vec[0] - 0.84781) < 1e-4
    assert abs(vec[1] - 0.58975) < 1e-4
    assert abs(vec[2] - 1.0) < 1e-12


def test_right_form_identity_initial_matrix_is_valid():
    from rmcipher import right_form_key
    key = right_form_key((2, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6)
    assert validate_key(key).ok


def test_right_form_keygen_rejects_non_spf():
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=3)
    with pytest.raises(DominantRootError):
        right_form_keygen(Recurrence((-4, 0, 5)), cfg)
