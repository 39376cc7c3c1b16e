import hashlib
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
        assert gen.key.spectral_report() == gen.report
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
    assert not res.report.tau > 2


def test_abt_family_m4_removes_trivial_factor():
    res = abt_family(2, 4, sign=-1)
    assert res.poly == [1, -2, 1, -2, 1, -1, 1]
    assert res.removed_factors == ["z+1"]
    assert res.report.is_pisot == "yes"
    assert abs(float(res.report.tau) - 1.91616) < 1e-4
    assert abs(float(res.report.sigma) - 0.93460) < 1e-4


def test_abt_family_small_m_warns():
    assert abt_family(2, 1, sign=-1).report.tau > 2
    assert abt_family(2, 2, sign=-1).report.tau > 2


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
                        tau = res.report.tau
                        assert (tau is not None and tau > 2) or res.report.is_pisot != "yes"


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
        assert gen.key.spectral_report() == gen.report
        assert validate_key(gen.key).ok


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
    assert gen.key.spectral_report() == gen.report
    validation = validate_key(gen.key)
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


# The bytes of the key file each method writes, as the first 16 hex digits
# of its SHA-256; None where keygen exits 2 (r = m = 1, plus, geometric:
# z**2 - 1 has no dominant root).  A refactor of keygen keeps every one.
KEY_PIN = [
    ('--k 3 --seed 0', '5ed6f154af364bff'),
    ('--k 3 --seed 1', '98b25b36cbe90ff5'),
    ('--k 3 --seed 2', '48120a5b724778e9'),
    ('--k 3 --seed 3', 'c23572419f204d55'),
    ('--k 3 --seed 4', '3126c80461310aef'),
    ('--k 3 --seed 0 --pisot', '5ed6f154af364bff'),
    ('--k 3 --seed 1 --pisot', '98b25b36cbe90ff5'),
    ('--k 3 --seed 2 --pisot', '9ad631de1e304dc0'),
    ('--k 3 --seed 3 --pisot', 'c23572419f204d55'),
    ('--k 3 --seed 4 --pisot', '3126c80461310aef'),
    ('--k 5 --seed 0', '8913539985049475'),
    ('--k 5 --seed 1', '9b3e739fb988a699'),
    ('--k 5 --seed 2', '5a85ab4a0f8afcbc'),
    ('--k 5 --seed 3', '07b880fbeb89aaad'),
    ('--k 5 --seed 4', '552b3d757bac4200'),
    ('--k 5 --seed 0 --pisot', '09d922512d220210'),
    ('--k 5 --seed 1 --pisot', '6f728221a1126b4f'),
    ('--k 5 --seed 2 --pisot', '767993f687f9ce61'),
    ('--k 5 --seed 3 --pisot', '0691999050c624ec'),
    ('--k 5 --seed 4 --pisot', '552b3d757bac4200'),
    ('--method primitive --seed 0', '552c6704007270e5'),
    ('--method primitive --seed 1', '784d6d9c496d640a'),
    ('--method primitive --seed 2', 'b1e8161bda9bf603'),
    ('--method primitive --seed 3', '5f7a3f1ff4bfab34'),
    ('--method primitive --seed 4', 'ae6ca230b65e82be'),
    ('--method primitive --k 2 --seed 0', '04e7db5968f488da'),
    ('--method primitive --k 2 --seed 1', 'df22909a677c271a'),
    ('--method primitive --k 4 --seed 0', 'fb9dc407bfd79241'),
    ('--method primitive --k 4 --seed 1', 'd534c5317a0c7694'),
    ('--method primitive --k 5 --seed 0', 'ba6489ac8c16fb60'),
    ('--method primitive --k 5 --seed 1', 'e6edf7080c3a5504'),
    ('--method abt --r 1 --m 1 --sign plus --variant binomial', '095e588c4ebb4188'),
    ('--method abt --r 1 --m 1 --sign plus --variant geometric', None),
    ('--method abt --r 1 --m 1 --sign minus --variant binomial', '06cd34e296c740b1'),
    ('--method abt --r 1 --m 1 --sign minus --variant geometric', 'efc6a451443f367d'),
    ('--method abt --r 1 --m 2 --sign plus --variant binomial', '4a743fda2af3b771'),
    ('--method abt --r 1 --m 2 --sign plus --variant geometric', '095e588c4ebb4188'),
    ('--method abt --r 1 --m 2 --sign minus --variant binomial', '91e837514381d841'),
    ('--method abt --r 1 --m 2 --sign minus --variant geometric', '74d17a98d707a147'),
    ('--method abt --r 1 --m 3 --sign plus --variant binomial', '92e0e88e56e578af'),
    ('--method abt --r 1 --m 3 --sign plus --variant geometric', '988afef86f7e54e1'),
    ('--method abt --r 1 --m 3 --sign minus --variant binomial', '819ce96728ee0625'),
    ('--method abt --r 1 --m 3 --sign minus --variant geometric', 'e267c49af2136d71'),
    ('--method abt --r 1 --m 5 --sign plus --variant binomial', 'e7bd1582d44643c5'),
    ('--method abt --r 1 --m 5 --sign plus --variant geometric', '5efb819dc04e2d2f'),
    ('--method abt --r 1 --m 5 --sign minus --variant binomial', 'c4e489534a538718'),
    ('--method abt --r 1 --m 5 --sign minus --variant geometric', '01a1f34747b60836'),
    ('--method abt --r 2 --m 1 --sign plus --variant binomial', '988afef86f7e54e1'),
    ('--method abt --r 2 --m 1 --sign plus --variant geometric', '095e588c4ebb4188'),
    ('--method abt --r 2 --m 1 --sign minus --variant binomial', '42f78804e751f9c2'),
    ('--method abt --r 2 --m 1 --sign minus --variant geometric', '28da6680ab29f8dc'),
    ('--method abt --r 2 --m 2 --sign plus --variant binomial', '5efb819dc04e2d2f'),
    ('--method abt --r 2 --m 2 --sign plus --variant geometric', '443b1736fe2cb732'),
    ('--method abt --r 2 --m 2 --sign minus --variant binomial', '7f6a696d99b4212a'),
    ('--method abt --r 2 --m 2 --sign minus --variant geometric', '326e1bc8574ec9f7'),
    ('--method abt --r 2 --m 3 --sign plus --variant binomial', 'fe8fd655788d3516'),
    ('--method abt --r 2 --m 3 --sign plus --variant geometric', 'cdd2a997792ea857'),
    ('--method abt --r 2 --m 3 --sign minus --variant binomial', '7f87c82308e2c98d'),
    ('--method abt --r 2 --m 3 --sign minus --variant geometric', 'a63203f3e8269639'),
    ('--method abt --r 2 --m 5 --sign plus --variant binomial', '28d29cfbebc72bb2'),
    ('--method abt --r 2 --m 5 --sign plus --variant geometric', '2b7804638c74f50d'),
    ('--method abt --r 2 --m 5 --sign minus --variant binomial', 'e7797065d7e15198'),
    ('--method abt --r 2 --m 5 --sign minus --variant geometric', '08983eabeb4ee3ad'),
    ('--method abt --r 3 --m 1 --sign plus --variant binomial', 'b5e76c3a755dd7cc'),
    ('--method abt --r 3 --m 1 --sign plus --variant geometric', '988afef86f7e54e1'),
    ('--method abt --r 3 --m 1 --sign minus --variant binomial', '409914296dc1836c'),
    ('--method abt --r 3 --m 1 --sign minus --variant geometric', '0b00e9f3fd56f9e9'),
    ('--method abt --r 3 --m 2 --sign plus --variant binomial', '8c2f5863277bdc11'),
    ('--method abt --r 3 --m 2 --sign plus --variant geometric', 'cdd2a997792ea857'),
    ('--method abt --r 3 --m 2 --sign minus --variant binomial', '6694b4026d4ebd76'),
    ('--method abt --r 3 --m 2 --sign minus --variant geometric', '9939e34cfbdb6668'),
    ('--method abt --r 3 --m 3 --sign plus --variant binomial', 'a82808d6c2459961'),
    ('--method abt --r 3 --m 3 --sign plus --variant geometric', '05a36c5f042c2942'),
    ('--method abt --r 3 --m 3 --sign minus --variant binomial', 'e042edb05771614e'),
    ('--method abt --r 3 --m 3 --sign minus --variant geometric', 'c878c9122148f68b'),
    ('--method abt --r 3 --m 5 --sign plus --variant binomial', '9c4b582fb36d2880'),
    ('--method abt --r 3 --m 5 --sign plus --variant geometric', 'd18011028165e78e'),
    ('--method abt --r 3 --m 5 --sign minus --variant binomial', '0ecca7f52bed32bd'),
    ('--method abt --r 3 --m 5 --sign minus --variant geometric', '420eb796616e8f2d'),
    ('--method right-form --coeffs 1,0,1', '6a1fc838adfba127'),
    ('--method right-form --coeffs 2,0,1', 'acb9ae64cfca50a9'),
    ('--method right-form --coeffs 1,1', '77a2c6af5900a23d'),
    ('--method right-form --coeffs 1,1,1', '99369763f97ce98f'),
    ('--method right-form --coeffs 1,2,1,1', 'b46d1267619c21d3'),
    ('--method right-form --coeffs 3,1', 'c393abdf6833a020'),
]


@pytest.mark.parametrize("argv, digest", KEY_PIN, ids=[argv for argv, _ in KEY_PIN])
def test_every_method_keeps_its_key_bytes(argv, digest, tmp_path, capsys):
    out = tmp_path / "key.json"
    code = main(["keygen", *argv.split(), "--out", str(out)])
    assert code == (2 if digest is None else 0), capsys.readouterr().err
    if digest is not None:
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
