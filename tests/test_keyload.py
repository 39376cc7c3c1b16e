"""A key compiled per command: one root solve gives both validation and tau,
and the scaled inverse comes from exact elimination on the integer M_n."""

import math
import random
from fractions import Fraction

import pytest

from rmcipher import (KeyContext, MatrixBuilder, Recurrence, general_key, right_form_key,
                      spectral, symmetric_key, transition_ratio)
from rmcipher.cli import main
from rmcipher.exactmat import char_poly
from rmcipher.formats import save_key


def _outcome(fn):
    """The exact value, or the type and message of what was raised."""
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _seeded_recurrences(k, count):
    rng = random.Random(f"tau-{k}")
    out = []
    while len(out) < count:
        coeffs = tuple(rng.randint(-3, 3) for _ in range(k))
        if any(coeffs):
            out.append(coeffs)
    return out


@pytest.mark.parametrize("bits", [64, 128, 300])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_context_tau_is_transition_ratio_bit_for_bit(k, bits, monkeypatch):
    monkeypatch.setenv(spectral.PRECISION_ENV, str(bits))
    verdicts = set()
    for coeffs in _seeded_recurrences(k, 8) + [(1,) * k]:
        key = symmetric_key(coeffs, (1,) + (0,) * (k - 1), 7)
        ctx = KeyContext(key)
        expected = _outcome(lambda: transition_ratio(Recurrence(coeffs), bits))
        assert _outcome(lambda: ctx.tau) == expected, coeffs
        verdicts.add(type(expected))
    assert Fraction in verdicts                   # at least one tau per (k, bits)


@pytest.mark.parametrize("key", [
    general_key([[1, 2], [3, 4]], (1, 0), 9),
    general_key([[0, -1], [1, 0]], (1, 0), 6),                          # conjugate pair
    right_form_key((-4, 0, 5), [[8, 2, 1], [4, 0, 0], [8, 2, 0]], 5),  # vector changes sign
    right_form_key((1, 1, 1, 1, 1), [[int(i == j) for j in range(5)] for i in range(5)], 30),
], ids=["general-2", "general-rotation", "right_form-504", "right_form-5"])
def test_context_tau_of_general_and_right_form_keys(key):
    ctx = KeyContext(key)
    assert _outcome(lambda: ctx.tau) == _outcome(lambda: transition_ratio(key.recurrence()))


def test_no_dominant_root_gives_transition_ratios_error():
    key = symmetric_key((1, 0), (1, 0), 10)                # roots +-1
    ctx = KeyContext(key)
    with pytest.raises(spectral.DominantRootError) as by_ctx:
        ctx.tau
    with pytest.raises(spectral.DominantRootError) as by_solve:
        transition_ratio(key.recurrence())
    assert str(by_ctx.value) == str(by_solve.value)


def _lcd_scaled(minv):
    denom = math.lcm(*(f.denominator for row in minv for f in row))
    return tuple(zip(*[[int(f * denom) for f in row] for row in minv])), denom


def _inverse_keys():
    rng = random.Random("inverse")
    keys = []
    for k in range(2, 6):
        for a0 in (1, -1, 2, -2, 3):
            tail = tuple(rng.randint(0, 2) for _ in range(k - 1))
            keys.append(symmetric_key((a0,) + tail, (1,) + (0,) * (k - 1), 0))
            m0 = [[rng.randint(0, 3) + 4 * int(i == j) for j in range(k)] for i in range(k)]
            keys.append(right_form_key((a0,) + tail, m0, 0))
            for _ in range(2000):       # a general key whose recurrence has this a_0
                left = [[rng.randint(-1, 2) for _ in range(k)] for _ in range(k)]
                if Recurrence.from_char_poly(char_poly(left)).a0 == a0:
                    keys.append(general_key(left, (1,) + (0,) * (k - 1), 0))
                    break
    keys.append(symmetric_key((1, 0, 1), (-3, 5, -7), 0))      # negative entries in M_n
    keys.append(general_key([[1, -2], [3, -1]], (2, -1), 0))
    return keys


@pytest.mark.parametrize("n", [0, 1, 5, 37, 200])
def test_scaled_inverse_matches_the_backward_extension(n):
    seen_negative = False
    checked = 0
    for key in _inverse_keys():
        try:
            builder = MatrixBuilder(key)
        except ValueError:                  # singular M_0: no key
            continue
        checked += 1
        ctx = KeyContext(key, n)
        assert ctx.scaled_inverse == _lcd_scaled(builder.inverse(n)), key
        seen_negative = seen_negative or any(v < 0 for row in ctx.matrix for v in row)
    assert checked > 40 and seen_negative


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


@pytest.mark.parametrize("command", [
    ["encrypt", "{key}", "{msg}", "--out", "{out}"],
    ["decrypt", "{key}", "{cipher}", "--out", "{out}"],
    ["detect", "{key}", "{cipher}", "--out", "{out}"],
    ["correct", "{key}", "{cipher}", "--report", "{out}"],
    ["analyze", "{key}", "--out", "{out}"],
    ["analyze", "{key}", "--json", "--out", "{out}"],
    ["bench", "{key}", "--n-grid", "15,29,40", "--trials", "2", "--out", "{out}"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("{")))
@pytest.mark.parametrize("key", [
    symmetric_key((1, 0, 1), (1, 0, 0), 29),
    general_key([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 0, 0), 20),
    right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 29),
], ids=["symmetric", "general", "right_form"])
def test_every_key_command_solves_once(command, key, tmp_path, solves):
    paths = {"key": tmp_path / "key.json", "msg": tmp_path / "msg.txt",
             "cipher": tmp_path / "c.rmc", "out": tmp_path / "out"}
    save_key(key, paths["key"])
    paths["msg"].write_bytes(b"ALGORITHM EXTRATERRESTRIAL")
    assert main(["encrypt", str(paths["key"]), str(paths["msg"]),
                 "--out", str(paths["cipher"])]) == 0
    solves[0] = 0
    assert main([a.format(**{k: str(v) for k, v in paths.items()}) for a in command]) == 0
    assert solves[0] == 1
