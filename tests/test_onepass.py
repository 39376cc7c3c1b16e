"""One root solve per characteristic polynomial: every spectral verdict on
a key (tau, sigma, SPF, Pisot) comes from one `all_roots` call."""

from collections import Counter

import pytest

from rmcipher import (GenConfig, KeyContext, Recurrence, analyze_matrix, cli, coding, digitize,
                      encrypt, formats, general_key, keygen, right_companion,
                      right_form_key, right_form_keygen, sieve_companion, spectral,
                      symmetric_key, validate_key)
from rmcipher.cli import main
from rmcipher.formats import save_key
from rmcipher.keygen import GenStats


@pytest.fixture
def solves(monkeypatch):
    """Counts calls of spectral.all_roots."""
    calls = [0]
    solve = spectral.all_roots

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "all_roots", counting)
    return calls


@pytest.fixture
def work(monkeypatch):
    """Counts validate_key calls (under every name it is imported by),
    MatrixBuilder builds and all_roots calls."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    validate = counting("validate_key", coding.validate_key)
    for module in (coding, formats, keygen, cli):
        monkeypatch.setattr(module, "validate_key", validate)
    monkeypatch.setattr(coding.MatrixBuilder, "__init__",
                        counting("builds", coding.MatrixBuilder.__init__))
    monkeypatch.setattr(spectral, "all_roots", counting("all_roots", spectral.all_roots))
    return counts


def _target(key):
    return right_companion(key.recurrence()) if key.kind == "right_form" else key.left_matrix()


KEYS = ["two_fib_key", "tetranacci_key", "general_1234_key", "right_form_504_key"]


@pytest.mark.parametrize("fixture", KEYS)
def test_analyze_matrix_solves_once(fixture, request, solves):
    analyze_matrix(_target(request.getfixturevalue(fixture)))
    assert solves[0] == 1


@pytest.mark.parametrize("fixture", KEYS)
def test_a_key_solves_once_for_validation_and_every_context(fixture, request, solves):
    key = request.getfixturevalue(fixture)
    validate_key(key)
    assert KeyContext(key).tau == KeyContext(key, key.index + 3).tau
    assert solves[0] == 1


def test_each_precision_is_its_own_solve(two_fib_key, solves, monkeypatch):
    key = two_fib_key
    assert validate_key(key).ok
    default = key.spectral_report()
    # The working precision is read from the environment at each call.
    monkeypatch.setenv(spectral.PRECISION_ENV, "64")
    assert validate_key(key).ok
    assert KeyContext(key).report is key.spectral_report()
    assert key.spectral_report().precision_bits == 64
    monkeypatch.setenv(spectral.PRECISION_ENV, str(default.precision_bits))
    assert key.spectral_report() is default
    assert solves[0] == len({default.precision_bits, 64})


def test_equal_keys_loaded_separately_do_not_share_a_solve(two_fib_key, tmp_path, solves):
    save_key(two_fib_key, tmp_path / "key.json")
    first, second = (formats.load_key(tmp_path / "key.json") for _ in range(2))
    validate_key(first)
    # The stored report is no field: equality, hashing and repr ignore it.
    assert (first, hash(first), repr(first)) == (second, hash(second), repr(second))
    validate_key(second)
    assert solves[0] == 2


def test_rmc_bench_over_an_index_grid_solves_once(two_fib_key, tmp_path, solves):
    save_key(two_fib_key, tmp_path / "key.json")
    assert main(["bench", str(tmp_path / "key.json"), "--n-grid", "15,20,25,29",
                 "--trials", "2", "--out", str(tmp_path / "bench.csv")]) == 0
    assert solves[0] == 1


VALIDATION_KEYS = [
    symmetric_key((1, 0, 1), (1, 0, 0), 15),
    symmetric_key((1, 1, 0, 0), (1, 0, 0, 0), 12),          # SPF but not Pisot
    symmetric_key((1, 0), (1, 0), 10),                      # roots +-1: no dominant root
    symmetric_key((0, 1), (1, 0), 5),                       # a_0 = 0
    general_key([[1, 2], [3, 4]], (1, 0), 9),
    general_key([[0, -1], [1, 0]], (1, 0), 6),              # conjugate pair
    right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5),  # vector changes sign
    right_form_key((2, 0, 1), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6),
]


@pytest.mark.parametrize("key", VALIDATION_KEYS,
                         ids=lambda key: f"{key.kind}-{key.coeffs or key.left}")
def test_validate_key_is_the_same_from_its_stored_report(key, solves):
    fresh = key._replace()
    first = validate_key(fresh).to_dict()
    assert validate_key(fresh).to_dict() == first
    assert solves[0] == 1


@pytest.mark.parametrize("order,seed", [(3, 0), (3, 1), (5, 2)])
def test_sieve_solves_once_per_candidate(order, seed, solves, monkeypatch):
    """Every candidate the Schur-Cohn prefilter passes is solved exactly
    once, the ones it rejects never, and the keys are those of a sieve
    without the prefilter."""
    cfg = GenConfig(order=order, coeff_range=(0, 2), require_pisot=True, seed=seed, budget=12)
    verdicts = []
    prefilter = keygen._two_roots_outside

    def recording(rec):
        verdicts.append(prefilter(rec))
        return verdicts[-1]

    monkeypatch.setattr(keygen, "_two_roots_outside", recording)
    stats = GenStats()
    keys = list(sieve_companion(cfg, stats))
    assert stats.tried == len(verdicts) == 12 and keys and any(verdicts)
    assert solves[0] == stats.tried - sum(verdicts)
    monkeypatch.setattr(keygen, "_two_roots_outside", lambda rec: False)
    assert [g.key for g in keys] == [g.key for g in sieve_companion(cfg)]


def test_right_form_keygen_solves_once_and_keeps_its_message(solves):
    cfg = GenConfig(order=3, coeff_range=(0, 2), seed=3)
    gen = right_form_keygen(Recurrence((2, 0, 1)), cfg)
    assert solves[0] == 1
    assert validate_key(gen.key).ok
    with pytest.raises(spectral.DominantRootError,
                       match="^right companion matrix lacks the strong Perron-Frobenius "
                             "property: dominant eigenvector changes sign$"):
        right_form_keygen(Recurrence((-4, 0, 5)), cfg)


@pytest.mark.parametrize("fixture", KEYS)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_rmc_analyze_solves_at_most_twice(fixture, json_flag, request, tmp_path, solves):
    path = tmp_path / "key.json"
    save_key(request.getfixturevalue(fixture), path)
    solves[0] = 0
    assert main(["analyze", str(path), "--out", str(tmp_path / "a.txt")] + json_flag) == 0
    assert solves[0] == 1          # loading the key; the report reuses it


@pytest.mark.parametrize("fixture", KEYS)
@pytest.mark.parametrize("command", [["analyze"], ["analyze", "--json"], ["encrypt", "msg"]],
                         ids=["analyze", "analyze-json", "encrypt"])
def test_a_command_validates_builds_and_solves_once(fixture, command, request, tmp_path,
                                                    monkeypatch, work):
    monkeypatch.chdir(tmp_path)
    save_key(request.getfixturevalue(fixture), "key.json")
    (tmp_path / "msg").write_bytes(b"ALGORITHM checking relations")
    assert main([command[0], "key.json", *command[1:], "--out", "out"]) == 0
    assert work == {"validate_key": 1, "builds": 1, "all_roots": 1}


@pytest.mark.parametrize("fixture", KEYS)
def test_a_library_context_solves_once_for_tau_and_not_to_encrypt(fixture, request, solves):
    key = request.getfixturevalue(fixture)
    ctx = KeyContext(key)
    encrypt(digitize(b"ALGORITHM checking relations", key.order)[0], ctx)
    assert solves[0] == 0
    assert ctx.tau == spectral.report_transition_ratio(ctx.report)
    assert ctx.report is key.spectral_report()
    assert ctx.report.char_poly == key.recurrence().char_poly()
    assert solves[0] == 1
