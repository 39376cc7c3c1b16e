"""The spectral layer's exact number helpers against mpmath, kept as an
independent oracle in the test extra: the 17-digit report formatter, the
rounding to a precision and the correctly rounded square root.

mpmath's nstr truncates a value to about 76 bits before it rounds the
decimal digits half up, while the formatter rounds the exact value half
up; the two can differ only on a value within about 2**-76 (relative)
above a decimal tie."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, workprec

from rmcipher.spectral import _decimal, _round_bits, _sqrt_bits

RNG_SEED = "exact-numbers"


def _random_dyadic(rng, bits):
    """A random value with a `bits`-bit mantissa, as (mantissa, exponent);
    exponents reach from about 1e-90 to 1e+90, both notations of nstr."""
    m = rng.getrandbits(bits) | 1 << (bits - 1)
    return (-m if rng.random() < 0.5 else m), rng.randint(-bits - 300, 300 - bits)


def _fraction(m, e):
    return Fraction(m) * Fraction(2) ** e


def _mpf(m, e):
    """m * 2**e as an exact mpf."""
    with workprec(max(53, abs(m).bit_length())):
        return mpmath.ldexp(mpmath.mpf(m), e)


def _exact(x):
    """The mpf x as a Fraction, from its public mantissa and exponent
    (man_exp leaves out the sign)."""
    m, e = x.man_exp
    return _fraction(-m if x < 0 else m, e)


def test_decimal_matches_nstr_on_random_dyadic_values():
    rng = random.Random(RNG_SEED)
    values = [_random_dyadic(rng, bits) for _ in range(34000) for bits in (53, 128, 256)]
    values += [(0, 0)] + [(m, 0) for m in range(-40, 41)]
    values += [(m, e) for m in (1, 5, 9, 99999, 10 ** 16 - 1, 10 ** 17 - 1, 10 ** 17 + 5)
               for e in range(-80, 80, 7)]
    assert len(values) >= 100000
    notations = {"fixed": 0, "exponent": 0}
    for m, e in values:
        expected = mp.nstr(_mpf(m, e), 17)
        assert _decimal(_fraction(m, e)) == expected, (m, e)
        notations["exponent" if "e" in expected else "fixed"] += 1
    assert min(notations.values()) > 10000


@pytest.mark.parametrize("bits", [16, 53, 128, 300])
def test_round_bits_matches_mpmath_rounding(bits):
    rng = random.Random(f"{RNG_SEED}-{bits}")
    values = []
    for _ in range(4000):
        values.append(_random_dyadic(rng, rng.randint(1, 3 * bits)))
        # A tie, or one unit below or above it, t bits below the last kept bit.
        t = rng.randint(1, 2 * bits)
        m = ((rng.getrandbits(bits) | 1 << (bits - 1)) << t | 1 << (t - 1)) + rng.choice((-1, 0, 1))
        values.append((-m if rng.random() < 0.5 else m, rng.randint(-3 * bits, bits)))
    for m, e in values:
        with workprec(bits):
            expected = +_mpf(m, e)
        assert _round_bits(_fraction(m, e), bits) == _exact(expected), (m, e)


@pytest.mark.parametrize("bits", [16, 53, 128, 300])
def test_sqrt_bits_matches_mpmath_sqrt(bits):
    rng = random.Random(f"{RNG_SEED}-sqrt-{bits}")
    values = [(0, 0), (1, 0), (2, 0), (1, -1), (9, 4)]
    for _ in range(4000):
        m, e = _random_dyadic(rng, rng.randint(1, 3 * bits))
        values.append((abs(m), e))
        if rng.random() < 0.2:                      # an exact square
            values.append((abs(m) ** 2, 2 * e))
    for m, e in values:
        with workprec(bits):
            expected = mp.sqrt(_mpf(m, e))
        assert _sqrt_bits(_fraction(m, e), bits) == _exact(expected), (m, e)
