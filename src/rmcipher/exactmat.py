"""Exact dense linear algebra and polynomial arithmetic for small square matrices.

Matrices are row-major lists of lists holding Python ints or
``fractions.Fraction``; polynomials are coefficient lists in descending
degree order.  Everything in this module is exact: no floats enter or
leave.  Determinants and inverses use fraction-free Bareiss elimination
on integers, because coding-matrix entries grow exponentially with the
index and rounding would break decryption.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

Scalar = Union[int, Fraction]
IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]
IntPolynomial = list[int]


class SingularMatrixError(ArithmeticError):
    """Raised when an exact inverse of a singular matrix is requested."""


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def dim(a: Sequence[Sequence[Scalar]]) -> int:
    k = len(a)
    if k == 0 or any(len(row) != k for row in a):
        raise ValueError("matrix must be square and non-empty")
    return k


def identity(k: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def transpose(a: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    cols = len(b[0])
    inner = len(b)
    return [
        [sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for row in a
    ]


def mat_pow(a: Sequence[Sequence[Scalar]], n: int,
            max_bits: Optional[int] = None) -> list[list[Scalar]]:
    """a**n, n >= 0, by binary powering.  With max_bits (integer matrices),
    OverflowError once a square or partial product has a longer entry."""
    if n < 0:
        raise ValueError("mat_pow needs n >= 0")
    result = identity(dim(a))
    while n:
        if n & 1:
            result = mat_mul(result, a)
        n >>= 1
        if n:
            a = mat_mul(a, a)
        if max_bits is not None and any(v.bit_length() > max_bits
                                        for m in (result, a) for row in m for v in row):
            raise OverflowError(f"a power has an entry of more than {max_bits} bits")
    return result


def mat_vec(a: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list[Scalar]:
    if not a or len(a[0]) != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return [sum(row[t] * v[t] for t in range(len(v))) for row in a]


def det_exact(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    All intermediate divisions are exact, so the result is a plain
    integer no matter how large the entries grow.
    """
    k = dim(a)
    m = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for p in range(k - 1):
        if m[p][p] == 0:
            for r in range(p + 1, k):
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = m[p][p]
    return sign * m[k - 1][k - 1]


def adjugate(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, int]:
    """(det(a) * a**-1, det(a)) of an invertible integer matrix, by
    fraction-free (Bareiss) Gauss-Jordan elimination on [a | I]: every
    division is exact, so the adjugate comes out in integers.  Raises
    SingularMatrixError when det(a) == 0."""
    k = dim(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(a)]
    sign = 1
    prev = 1
    for p in range(k):
        pivot = next((r for r in range(p, k) if m[r][p] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is not invertible")
        if pivot != p:
            m[p], m[pivot] = m[pivot], m[p]
            sign = -sign
        row = m[p]
        d = row[p]
        # Columns before p are never read again: only the rest is updated.
        for r in range(k):
            if r != p:
                f = m[r][p]
                m[r][p:] = [(d * x - f * y) // prev for x, y in zip(m[r][p:], row[p:])]
        prev = d
    return [[sign * x for x in row[k:]] for row in m], sign * prev


def inverse_exact(a: Sequence[Sequence[Scalar]]) -> RatMatrix:
    """Exact rational inverse: the adjugate over the determinant of the
    matrix scaled to integers by the common denominator of its entries."""
    lcd = math.lcm(*(x.denominator for row in a for x in row))
    adj, det = adjugate([[int(x * lcd) for x in row] for row in a])
    return [[Fraction(x * lcd, det) for x in row] for row in adj]


def char_poly(a: Sequence[Sequence[int]]) -> IntPolynomial:
    """Monic characteristic polynomial of an integer matrix.

    Uses the Faddeev-LeVerrier recurrence; every division by the step
    index is exact over the integers, which is asserted.  Coefficients
    are returned in descending degree order, leading coefficient 1.
    """
    k = dim(a)
    coeffs = [1]
    m = [row[:] for row in a]
    for step in range(1, k + 1):
        tr = sum(m[i][i] for i in range(k))
        q, rem = divmod(tr, step)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace division was not exact")
        coeffs.append(-q)
        if step < k:
            shifted = [[m[i][j] + (coeffs[-1] if i == j else 0) for j in range(k)] for i in range(k)]
            m = mat_mul(a, shifted)
    return coeffs


# ---------------------------------------------------------------------------
# polynomials (descending coefficient order)
# ---------------------------------------------------------------------------

def poly_trim(f: Sequence[Scalar]) -> list[Scalar]:
    out = list(f)
    while len(out) > 1 and out[0] == 0:
        out.pop(0)
    return out


def poly_degree(f: Sequence[Scalar]) -> int:
    return len(poly_trim(f)) - 1


def poly_eval(f: Sequence[Scalar], x):
    acc = 0
    for c in f:
        acc = acc * x + c
    return acc


def poly_add(f: Sequence[Scalar], g: Sequence[Scalar]) -> list[Scalar]:
    n = max(len(f), len(g))
    fp = [0] * (n - len(f)) + list(f)
    gp = [0] * (n - len(g)) + list(g)
    return poly_trim([x + y for x, y in zip(fp, gp)])


def poly_sub(f: Sequence[Scalar], g: Sequence[Scalar]) -> list[Scalar]:
    return poly_add(f, [-c for c in g])


def poly_mul(f: Sequence[Scalar], g: Sequence[Scalar]) -> list[Scalar]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(f: Sequence[Scalar], s: Scalar) -> list[Scalar]:
    return poly_trim([c * s for c in f])


def _maybe_int(coeffs: Sequence[Scalar]) -> list[Scalar]:
    vals = list(coeffs)
    if all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1) for c in vals):
        return [int(c) for c in vals]
    return vals


def poly_divide(f: Sequence[Scalar], g: Sequence[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
    """Exact polynomial division: f = q*g + r with deg r < deg g.

    Coefficients are computed over the rationals and collapsed back to
    integers when the result is integral.
    """
    g = poly_trim(g)
    if g == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in poly_trim(f)]
    lead = Fraction(g[0])
    dg = len(g) - 1
    if len(rem) - 1 < dg:
        return [0], _maybe_int(rem)
    quot = [Fraction(0)] * (len(rem) - dg)
    for i in range(len(quot)):
        c = rem[i] / lead
        quot[i] = c
        if c != 0:
            for j, gc in enumerate(g):
                rem[i + j] -= c * gc
    r = poly_trim(rem[len(quot):]) if dg > 0 else [0]
    return _maybe_int(poly_trim(quot)), _maybe_int(r)


def poly_derivative(f: Sequence[Scalar]) -> list[Scalar]:
    f = poly_trim(f)
    n = len(f) - 1
    if n == 0:
        return [0]
    return [c * (n - i) for i, c in enumerate(f[:-1])]


def poly_monic(f: Sequence[Scalar]) -> list[Fraction]:
    f = poly_trim(f)
    lead = Fraction(f[0])
    if lead == 0:
        raise ZeroDivisionError("zero polynomial has no monic form")
    return [Fraction(c) / lead for c in f]


def poly_gcd(f: Sequence[Scalar], g: Sequence[Scalar]) -> list[Scalar]:
    """Monic greatest common divisor over the rationals (Euclid)."""
    a = [Fraction(c) for c in poly_trim(f)]
    b = [Fraction(c) for c in poly_trim(g)]
    if a == [0]:
        return _maybe_int(poly_monic(b)) if b != [0] else [0]
    while b != [0]:
        _, r = poly_divide(a, b)
        a, b = b, [Fraction(c) for c in poly_trim(r)]
    return _maybe_int(poly_monic(a))


def poly_reverse(f: Sequence[Scalar]) -> list[Scalar]:
    """Coefficient reversal: z**deg(f) * f(1/z)."""
    return poly_trim(list(reversed(poly_trim(f))))


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) of two integer polynomials with nonzero leading
    coefficients, deg f >= 1: the determinant of their Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + list(f) + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g) + [0] * (size - n - 1 - i) for i in range(m)]
    return det_exact(rows)


def squarefree_factors(f: Sequence[Scalar]) -> list[tuple[list[Scalar], int]]:
    """Square-free decomposition f = prod a_i**i (monic parts): the
    non-constant factors with their multiplicities, exact over the
    rationals, so repeated roots are separated with certainty.

    A nonzero resultant of f (scaled to integers) and f', the discriminant
    up to a factor, certifies f square-free with no gcd; otherwise Yun's
    algorithm splits it.
    """
    f = poly_monic(f)
    if len(f) == 1:
        return []
    lcd = math.lcm(*(c.denominator for c in f))
    ints = [int(c * lcd) for c in f]
    if resultant(ints, poly_derivative(ints)) != 0:
        return [(_maybe_int(f), 1)]
    return _yun(f)


def _yun(f: list[Fraction]) -> list[tuple[list[Scalar], int]]:
    """Yun's square-free decomposition of a monic polynomial of degree >= 1."""
    df = poly_derivative(f)
    a = poly_gcd(f, df)
    if poly_degree(a) == 0:
        return [(_maybe_int(f), 1)]
    b, _ = poly_divide(f, a)
    c, _ = poly_divide(df, a)
    d = poly_sub(c, poly_derivative(b))
    out: list[tuple[list[Scalar], int]] = []
    i = 1
    while poly_degree(b) > 0:
        g = poly_gcd(b, d)
        if poly_degree(g) > 0:
            out.append((_maybe_int(poly_monic(g)), i))
        b, _ = poly_divide(b, g)
        c, _ = poly_divide(d, g)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def roots_in_unit_disk(f: Sequence[int]) -> Optional[int]:
    """The number of roots of the integer polynomial f in |z| < 1, with
    multiplicity, by the Schur-Cohn recursion (Schur 1917; Cohn 1922) in
    integers; None when its table is degenerate (|a_0| = |a_n| at some
    step, which any root on the unit circle forces).

    Each step forms T p = a_0 p - a_n p*, p*(z) = z**n p(1/z), which has
    degree below n.  On |z| = 1 the larger of the two terms decides
    (Rouche): T p has the roots of p inside when |a_0| > |a_n|, else those
    of p*, the n - N(p) reflections of the roots of p outside."""
    p = poly_trim(list(f))
    if p == [0]:
        return None
    steps = []
    while len(p) > 1:
        lead, const = p[0], p[-1]
        if abs(lead) == abs(const):
            return None
        steps.append((len(p) - 1, abs(const) < abs(lead)))
        t = poly_trim([const * x - lead * y for x, y in zip(p, reversed(p))])
        content = math.gcd(*t)
        p = [c // content for c in t]
    count = 0
    for n, reflected in reversed(steps):
        count = n - count if reflected else count
    return count
