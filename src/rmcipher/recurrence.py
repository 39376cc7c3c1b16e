"""Order-k integer linear recurrences, extended forward and (rationally) backward.

Coefficients are stored in ascending index order (a_0 first), so the
recurrence reads

    X[n+k] = a[k-1]*X[n+k-1] + ... + a[1]*X[n+1] + a[0]*X[n].

Seed windows, like the rows and columns of coding matrices, are written
in descending index order (X[k-1], ..., X[0]); generated sequences are
returned in ascending index order.  Backward terms are exact rationals:
integrality is checked by callers, never assumed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactmat import IntPolynomial
from .records import FrozenRecord


class Recurrence(FrozenRecord):
    """An order-k linear recurrence with integer coefficients (ascending)."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        if len(coeffs) < 2:
            raise ValueError("recurrence order must be at least 2")
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("recurrence coefficients must be integers")
        vars(self)["coeffs"] = tuple(int(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def a0(self) -> int:
        return self.coeffs[0]

    def char_poly(self) -> IntPolynomial:
        """z**k - a[k-1]*z**(k-1) - ... - a[0], descending coefficients."""
        return [1] + [-c for c in reversed(self.coeffs)]

    @classmethod
    def from_char_poly(cls, f: Sequence[int]) -> "Recurrence":
        f = list(f)
        if not f or f[0] != 1:
            raise ValueError("characteristic polynomial must be monic")
        return cls(tuple(-c for c in reversed(f[1:])))


def standard_seed(order: int) -> tuple[int, ...]:
    """Descending seed (1, 0, ..., 0), i.e. X[k-1]=1 and earlier terms 0."""
    return (1,) + (0,) * (order - 1)


def _check_window(rec: Recurrence, window: Sequence) -> None:
    if len(window) != rec.order:
        raise ValueError(f"window must have exactly {rec.order} terms, got {len(window)}")


def step_forward(rec: Recurrence, window: Sequence):
    """Next term from the k most recent terms given in descending order."""
    _check_window(rec, window)
    return sum(a * x for a, x in zip(rec.coeffs[::-1], window))


def step_backward(rec: Recurrence, window: Sequence) -> Fraction:
    """Term preceding a descending window (X[n+k], ..., X[n+1]) as an exact rational."""
    _check_window(rec, window)
    if rec.a0 == 0:
        raise ValueError("sequence is not backward-extendable: trailing coefficient a_0 is zero")
    rest = sum(a * Fraction(x) for a, x in zip(rec.coeffs[:0:-1], window[1:]))
    return (window[0] - rest) / rec.a0


def extend_forward(rec: Recurrence, seed: Sequence, count: int) -> list:
    """Seed plus count further terms, ascending index order (X[0], X[1], ...)."""
    _check_window(rec, seed)
    if count < 0:
        raise ValueError("count must be non-negative")
    seq = list(reversed(list(seed)))
    for _ in range(count):
        seq.append(step_forward(rec, seq[-rec.order:][::-1]))
    return seq


def extend_backward(rec: Recurrence, seed: Sequence, count: int) -> list[Fraction]:
    """Terms X[-1], X[-2], ..., X[-count] preceding the seed, exact rationals."""
    _check_window(rec, seed)
    if count < 0:
        raise ValueError("count must be non-negative")
    if rec.a0 == 0:
        raise ValueError("sequence is not backward-extendable: trailing coefficient a_0 is zero")
    window = list(seed)
    out: list[Fraction] = []
    for _ in range(count):
        out.append(step_backward(rec, window))
        window = window[1:] + out[-1:]
    return out


def standard_sequence(rec: Recurrence, count: int) -> list[int]:
    """First count terms of the sequence seeded with (1, 0, ..., 0) descending."""
    if count < rec.order:
        raise ValueError("count must be at least the recurrence order")
    return extend_forward(rec, standard_seed(rec.order), count - rec.order)
