"""Exact dense linear algebra and polynomial arithmetic for small square matrices.

Matrices are row-major lists of lists holding Python ints or
``fractions.Fraction``; polynomials are coefficient lists in descending
degree order.  Everything in this module is exact: no floats enter or
leave.  Determinants use fraction-free Bareiss elimination and inverses
Gauss-Jordan over rationals, because coding-matrix entries grow
exponentially with the index and rounding would break decryption.
"""

from __future__ import annotations

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


def inverse_exact(a: Sequence[Sequence[Scalar]]) -> RatMatrix:
    """Exact rational inverse via Gauss-Jordan elimination over Fraction."""
    k = dim(a)
    m = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is not invertible")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = m[col][col]
        m[col] = [x / scale for x in m[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


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


def squarefree_factors(f: Sequence[Scalar]) -> list[tuple[list[Scalar], int]]:
    """Yun's square-free decomposition: f = prod a_i**i (monic parts).

    Returns the non-constant factors with their multiplicities.  Exact
    over the rationals, so repeated roots are separated with certainty.
    """
    f = poly_monic(f)
    if len(f) == 1:
        return []
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
