"""Spectral certification: dominant eigenvalue, second eigenmodulus, strong
Perron-Frobenius and Pisot verdicts, primitivity of nonnegative matrices.

Root finding runs the Aberth-Ehrlich simultaneous iteration at twice the
requested precision on each exact square-free factor, so multiple roots
cannot stall it; a root at 0 is taken exactly.  One kernel does the
full-precision work: exact integer steps with floor divisions, on
Gaussian integers on one binary point, z = (X + iY) * 2**-f, and on the
factor's coefficients scaled to integers.  As in MPSolve (Bini &
Fiorentino, Numer. Algorithms 23, 2000; Bini & Robol, J. Comput. Appl.
Math. 272, 2014) it starts from a double-precision pass and then needs
about log3(precision / 50) + 3 steps.  Where double precision cannot be
used (a coefficient or iterate beyond its range, a NaN, a zero
derivative, coincident iterates) or that cap is missed, it starts cold
from the radii of the Newton polygon.  Each iterate stops on its own
modulus: a step of at most 2**-(prec-8) * max(1, |z|).

One number system follows: the roots stay the kernel's exact Gaussian
integers, every verdict compares them exactly on squared moduli, and
everything reported is an exact rational (sigma a square root rounded by
math.isqrt).  The precision is an argument, never process state, so
threads may run at different precisions.  The verdicts share one
tolerance band, fixed at DEFAULT_TOLERANCE (1e-9): anything within it is
reported as "indeterminate" rather than guessed.  analyze_matrix gives
every verdict from one root solve and one dominance test.

The environment variable RMC_PRECISION_BITS overrides the default
working precision (bits of mantissa) for every operation here.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from fractions import Fraction
from functools import cached_property, reduce
from operator import or_
from typing import NamedTuple, Optional, Sequence

from . import exactmat
from .exactmat import IntPolynomial, poly_degree, poly_trim
from .records import Record
from .recurrence import Recurrence

DEFAULT_PRECISION_BITS = 128
PRECISION_ENV = "RMC_PRECISION_BITS"
DEFAULT_TOLERANCE = 1e-9

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_INDETERMINATE = "indeterminate"

# Perturbations q(z) of the multinacci-limit Pisot families (keygen.abt_family),
# defined here so that the command-line parser lists them without importing keygen.
VARIANT_BINOMIAL = "binomial"     # perturbation z**(r+1) - 1
VARIANT_GEOMETRIC = "geometric"   # perturbation 1 + z + ... + z**(r-1)
ABT_VARIANTS = (VARIANT_BINOMIAL, VARIANT_GEOMETRIC)


class RootFindingError(ArithmeticError):
    """Simultaneous iteration failed to converge."""


class DominantRootError(ArithmeticError):
    """No simple positive dominant root (the matrix is not strong Perron-Frobenius)."""


def resolve_precision(bits: Optional[int] = None) -> int:
    if bits is not None:
        if bits < 16:
            raise ValueError("precision must be at least 16 bits")
        return int(bits)
    env = os.environ.get(PRECISION_ENV)
    if env:
        return max(16, int(env))
    return DEFAULT_PRECISION_BITS


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

class RootSet(Record):
    """All complex roots of a polynomial with multiplicities, exactly as the
    kernel left them: root j is (X + iY) * 2**-point for gaussian[j] = (X, Y).
    The residuals are evaluated on first use: no verdict reads them."""

    _fields = ("gaussian", "point", "multiplicities", "degree", "precision_bits", "polynomial")
    _hidden = ("polynomial",)

    def __init__(self, gaussian: list[tuple[int, int]], point: int, multiplicities: list[int],
                 degree: int, precision_bits: int, polynomial: list) -> None:
        self.gaussian, self.point, self.multiplicities = gaussian, point, multiplicities
        self.degree, self.precision_bits, self.polynomial = degree, precision_bits, polynomial

    @cached_property
    def roots(self) -> list[tuple[Fraction, Fraction]]:
        """Each root's real and imaginary parts, as exact rationals."""
        one = 1 << self.point
        return [(Fraction(x, one), Fraction(y, one)) for x, y in self.gaussian]

    def norms(self) -> list[Fraction]:
        """Squared moduli |r|**2, exact, repeated by multiplicity, descending."""
        return sorted((Fraction(x * x + y * y, 1 << 2 * self.point) for (x, y), m
                       in zip(self.gaussian, self.multiplicities) for _ in range(m)), reverse=True)

    @cached_property
    def residuals(self) -> list[Fraction]:
        """|f(r)|**2 for each root r, exact."""
        lcd = math.lcm(*(Fraction(c).denominator for c in self.polynomial))
        ints = [int(c * lcd) << (self.point * i) for i, c in enumerate(self.polynomial)]
        scale = (lcd << self.point * self.degree) ** 2
        return [Fraction(a * a + b * b, scale)
                for a, b in (_gaussian_horner(ints, x, y) for x, y in self.gaussian)]


def _round_bits(x: Fraction, bits: int, inexact: bool = False) -> Fraction:
    """The dyadic rational x rounded to `bits` significant bits, ties to
    even.  `inexact` says the true magnitude lies above |x| by less than
    x's last bit: a truncated square root."""
    m, e = x.numerator, 1 - x.denominator.bit_length()
    drop = abs(m).bit_length() - bits
    if drop <= 0:
        return x
    q, rest = divmod(abs(m), 1 << drop)
    half = 1 << (drop - 1)
    q += rest > half or (rest == half and (inexact or q & 1))
    return Fraction(q if m > 0 else -q) * Fraction(2) ** (e + drop)


def _sqrt_bits(x: Fraction, bits: int) -> Fraction:
    """The square root of the dyadic rational x >= 0, correctly rounded to
    `bits` significant bits, ties to even."""
    n, e = x.numerator, 1 - x.denominator.bit_length()
    shift = 2 * max(0, bits + 2 - n.bit_length() // 2) + e % 2
    r = math.isqrt(n << shift)
    return _round_bits(Fraction(r) * Fraction(2) ** ((e - shift) // 2), bits, r * r != n << shift)


def _decimal(x: Fraction) -> str:
    """x to 17 significant digits, rounded half up: fixed point for decimal
    exponents -4 to 16, else d.ddde+N; trailing zeros cut to one (1.0, 2.5e-7)."""
    if not x:
        return "0.0"
    # From the bit lengths, one step to 10**ex <= |x| < 10**(ex+1): no long int becomes text.
    ax = abs(x)
    ex = math.floor((ax.numerator.bit_length() - ax.denominator.bit_length()) * math.log10(2))
    ex += (ax >= Fraction(10) ** (ex + 1)) - (ax < Fraction(10) ** ex)
    q = math.floor(ax * Fraction(10) ** (16 - ex) + Fraction(1, 2))
    if q == 10 ** 17:
        q, ex = q // 10, ex + 1
    text, split = str(q), 1
    if -5 < ex < 17:
        text, split, ex = ("0" * -ex + text, 1, 0) if ex < 0 else (text, ex + 1, 0)
    text = text[:split] + "." + (text[split:].rstrip("0") or "0")
    return ("-" if x < 0 else "") + text + (f"e{ex:+d}" if ex else "")


def to_float(x: Fraction) -> float:
    """x as a float, +/-inf beyond the float range (where float(x) raises)."""
    return float(x) if abs(x) <= sys.float_info.max else (math.inf if x > 0 else -math.inf)


def _aberth_step(coeffs: Sequence, dcoeffs: Sequence, z: list) -> tuple:
    """One Aberth-Ehrlich sweep over the iterates z in Python complex.
    Returns the new iterates and the largest step; a zero derivative or
    coincident iterates raise ZeroDivisionError."""
    new = list(z)
    max_step = 0
    for j, zj in enumerate(z):
        w = exactmat.poly_eval(coeffs, zj) / exactmat.poly_eval(dcoeffs, zj)
        s = 0
        for l, zl in enumerate(z):
            if l != j:
                s += 1 / (zj - zl)
        denom = 1 - w * s
        corr = w if denom == 0 else w / denom
        new[j] = zj - corr
        max_step = max(max_step, abs(corr))
    return new, max_step


_MAX_STEPS = 200                  # Aberth steps of the double pass and of the cold start
_DOUBLE_SETTLED = 2.0 ** -26      # half a double's digits: the cubic phase has begun


def _double_seeds(factor: list) -> Optional[list]:
    """Aberth in Python complex from start points on a circle, run until
    its steps stop shrinking (a settled step at least a quarter of the one
    before: rounding noise, not cubic convergence).  None when double
    precision cannot be used: a coefficient or iterate that overflows or
    turns NaN, a zero derivative, coincident iterates, or no settling
    within the step limit."""
    deg = len(factor) - 1
    try:
        fcoeffs = [float(c) for c in factor]
        fdcoeffs = [float(c * (deg - i)) for i, c in enumerate(factor[:-1])]
        radius = 1 + max(abs(c) for c in fcoeffs[1:]) / abs(fcoeffs[0])
        z = [radius * cmath.exp(1j * (2 * math.pi * (j + 0.375) / deg + 0.5 / deg))
             for j in range(deg)]
        last = math.inf
        for _ in range(_MAX_STEPS):
            z, step = _aberth_step(fcoeffs, fdcoeffs, z)
            # Complex arithmetic overflows to inf or NaN without raising, and
            # max() drops a NaN step, so the iterates themselves are checked.
            if not all(map(cmath.isfinite, z)):
                return None
            scale = max(1.0, max(abs(x) for x in z))
            if step <= _DOUBLE_SETTLED * scale and 4 * step >= last:
                break
            last = step
        else:
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    return z if len(set(z)) == len(z) else None


def _refine_steps(prec: int) -> int:
    """Aberth converges cubically from double-precision seeds: about
    log3(prec / 50) steps, plus a margin."""
    return 3 + max(0, math.ceil(math.log(prec / 50, 3)))


def _newton_polygon_starts(ints: list) -> list:
    """Cold start points as (complex mantissa, binary exponent) pairs, one
    per root, on the radii of the Newton polygon: the upper convex hull of
    (power, log2|coefficient|).  An edge spanning m powers with slope s
    gets m points on the circle of radius 2**-s (Bini & Fiorentino's
    start).  The exponent keeps radii beyond a float's range."""
    hull: list = []
    for q in [(i, math.log2(abs(c))) for i, c in enumerate(reversed(ints)) if c]:
        # Drop the last vertex while it lies on or below the chord to q.
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
                                  <= (q[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    starts = []
    for (p0, v0), (p1, v1) in zip(hull, hull[1:]):
        m, log_radius = p1 - p0, (v0 - v1) / (p1 - p0)
        exponent = math.floor(log_radius)
        # Asymmetric angles keep the iterates off the real axis.
        starts += [(cmath.rect(2.0 ** (log_radius - exponent),
                               2 * math.pi * (j + 0.375) / m + 0.5 / m), exponent)
                   for j in range(m)]
    return starts


def _gaussian_horner(coeffs: Sequence[int], x: int, y: int) -> tuple[int, int]:
    """The polynomial with integer coefficients at the Gaussian integer x + iy."""
    re, im = coeffs[0], 0
    for c in coeffs[1:]:
        re, im = re * x - im * y + c, re * y + im * x
    return re, im


def _gaussian_aberth(ints: list, starts: list, steps: int, prec: int) -> list:
    """Aberth steps at precision `prec` on the polynomial with integer
    coefficients `ints`, in Gaussian integers on one binary point,
    z = (X + iY) * 2**-f, from the start points (complex mantissa c,
    exponent e: z = c * 2**e), at most `steps` of them.  f is
    the precision plus 16 bits, plus the bits above 1 of the largest start
    modulus and the bits below 1 of the smallest, so that every iterate
    and every sum 1 / (z_j - z_l) keeps its bits.  Each step reads the old
    iterates (a Jacobi update); it stops when every correction c_j has
    |c_j| <= 2**-(prec-8) * max(1, |z_j|), compared exactly on squares.
    Returns the roots as (X, Y, f); coincident iterates or a missed cap
    raise RootFindingError."""
    deg = len(ints) - 1
    scales = [math.frexp(abs(c))[1] + e for c, e in starts]
    f = prec + 16 + max(0, max(scales)) + max(0, -min(scales))
    # p(z) * 2**(f*deg) and p'(z) * 2**(f*(deg-1)), by Horner in X + iY.
    p = [c << (f * i) for i, c in enumerate(ints)]
    dp = [c * (deg - i) << (f * i) for i, c in enumerate(ints[:-1])]
    two_f = 2 * f
    zs = []
    for c, e in starts:
        (xn, xd), (yn, yd) = c.real.as_integer_ratio(), c.imag.as_integer_ratio()
        zs.append(((xn << (f + e)) // xd, (yn << (f + e)) // yd))
    for _ in range(steps):
        # S_j = 2**f * sum over l != j of 1 / (z_j - z_l), one pair at a time.
        sx, sy = [0] * deg, [0] * deg
        for j in range(deg):
            xj, yj = zs[j]
            for l in range(j + 1, deg):
                gx, gy = xj - zs[l][0], yj - zs[l][1]
                m = gx * gx + gy * gy
                if m == 0:
                    raise RootFindingError("coincident Aberth iterates")
                tx, ty = (gx << two_f) // m, (-gy << two_f) // m
                sx[j] += tx
                sy[j] += ty
                sx[l] -= tx
                sy[l] -= ty
        new = []
        settled = True
        for (x, y), s_x, s_y in zip(zs, sx, sy):
            ax, ay = _gaussian_horner(p, x, y)
            dx, dy = _gaussian_horner(dp, x, y)
            # 2**f * corr = A * 2**(2f) / (D * 2**(2f) - A * S)
            nx = (dx << two_f) - (ax * s_x - ay * s_y)
            ny = (dy << two_f) - (ax * s_y + ay * s_x)
            m = nx * nx + ny * ny
            if m == 0:
                raise RootFindingError("zero Aberth denominator")
            cx = ((ax * nx + ay * ny) << two_f) // m
            cy = ((ay * nx - ax * ny) << two_f) // m
            x, y = x - cx, y - cy
            new.append((x, y))
            # |corr| <= 2**-(prec-8) * max(1, |z|), squared and times 2**(2f)
            settled = settled and ((cx * cx + cy * cy) << (2 * prec - 16)
                                   <= max(1 << two_f, x * x + y * y))
        zs = new
        if settled:
            return [(x, y, f) for x, y in zs]
    raise RootFindingError("Aberth iteration did not converge")


def _aberth(factor: list, prec: int) -> list:
    """All roots (X, Y, f), z = (X + iY) * 2**-f, of a square-free
    polynomial (exact coefficients) by Aberth-Ehrlich at precision `prec`
    in Gaussian integers, from a double-precision pass, or from the Newton
    polygon where that pass cannot be used or its refinement misses its
    cap.  A root at 0 is exact; the root -b/a of a linear factor a z + b
    is rounded down onto the binary point prec + bits of a."""
    lcd = math.lcm(*(c.denominator for c in factor))
    ints = [int(c * lcd) for c in factor]
    roots = []
    if ints[-1] == 0:                 # a simple root at 0: exact, and deflated
        roots.append((0, 0, 0))
        ints.pop()
    if len(ints) == 2:
        f = prec + ints[0].bit_length()
        roots.append(((-ints[1] << f) // ints[0], 0, f))
    elif len(ints) > 2:
        seeds = _double_seeds(ints)
        if seeds is not None:
            try:
                return roots + _gaussian_aberth(ints, [(s, 0) for s in seeds],
                                                _refine_steps(prec), prec)
            except RootFindingError:
                pass
        roots += _gaussian_aberth(ints, _newton_polygon_starts(ints), _MAX_STEPS, prec)
    return roots


def _snap_real(roots: list, bits: int) -> list:
    """The roots (X, Y, f) with |Y| <= 2**-bits * (2**f + |X + iY|) made real."""
    return [(x, 0, f) if (t := (abs(y) << bits) - (1 << f)) <= 0 or t * t <= x * x + y * y
            else (x, y, f) for x, y, f in roots]


def all_roots(f: Sequence, precision: Optional[int] = None) -> RootSet:
    """All complex roots of a monic polynomial, with multiplicities.

    The polynomial is first split into exact square-free factors, each of
    which is solved by Aberth-Ehrlich at twice the requested precision.
    Non-convergence raises RootFindingError.
    """
    bits = resolve_precision(precision)
    f = poly_trim(list(f))
    if poly_degree(f) < 1:
        raise ValueError("polynomial must have degree at least 1")
    roots, mults = [], []
    for factor, mult in exactmat.squarefree_factors(f):
        found = _snap_real(_aberth(factor, 2 * bits), bits)
        roots += found
        mults += [mult] * len(found)
    point = max(e for _, _, e in roots)
    return RootSet(gaussian=[(x << point - e, y << point - e) for x, y, e in roots],
                   point=point, multiplicities=mults, degree=poly_degree(f),
                   precision_bits=bits, polynomial=f)


# ---------------------------------------------------------------------------
# dominant root analysis
# ---------------------------------------------------------------------------

class _Dominance(NamedTuple):
    verdict: str                 # yes / no / indeterminate (about "simple positive dominant")
    tau: Optional[Fraction] = None
    index: Optional[int] = None
    reason: str = ""


_TOL = DEFAULT_TOLERANCE.as_integer_ratio()     # (tn, td): the band's tolerance tn / td


def _dominance(rootset: RootSet) -> _Dominance:
    """Whether the roots have a simple positive dominant root, within the
    tolerance band, compared exactly on the squared moduli."""
    tn, td = _TOL
    zs, one = rootset.gaussian, 1 << rootset.point
    norms = [x * x + y * y for x, y in zs]
    order = sorted(range(len(zs)), key=norms.__getitem__, reverse=True)
    top_i = order[0]
    (tx, ty), top = zs[top_i], norms[top_i]

    def small(norm: int) -> bool:          # sqrt(norm) <= tol * |top|
        return norm * td * td <= tn * tn * top

    # The band of roots whose modulus is within tol of the top.  Which of
    # them sorts first is rounding noise, so the verdict reads the band as
    # a whole: a lone root, exactly one conjugate pair, or indeterminate.
    band = [i for i in order[1:] if norms[i] * td * td >= (td - tn) ** 2 * top]
    if band and not (len(band) == 1 and not small(ty * ty)
                     and small((zs[band[0]][0] - tx) ** 2 + (zs[band[0]][1] + ty) ** 2)):
        return _Dominance(VERDICT_INDETERMINATE, reason="dominance margin within tolerance")
    if rootset.multiplicities[top_i] > 1:
        return _Dominance(VERDICT_NO, reason="dominant root is not simple")
    if band:
        # A complex conjugate pair shares its modulus exactly: no single
        # eigenvalue dominates.
        return _Dominance(VERDICT_NO, reason="dominant modulus is a conjugate pair")
    if ty * ty * td * td > tn * tn * max(top, one * one):
        return _Dominance(VERDICT_NO, reason="dominant root is not real")
    if tx * td <= tn * one:
        if tx * td < -tn * one:
            return _Dominance(VERDICT_NO, reason="dominant root is negative")
        return _Dominance(VERDICT_INDETERMINATE, reason="dominant root too close to zero")
    return _Dominance(VERDICT_YES, tau=Fraction(tx, one), index=top_i)


def transition_ratio(rec: Recurrence, precision: Optional[int] = None) -> Fraction:
    """Dominant eigenvalue tau of the recurrence, rounded to the working
    precision: report_transition_ratio of its analyze_recurrence report."""
    return report_transition_ratio(analyze_recurrence(rec, precision))


def report_transition_ratio(report: SpectralReport) -> Fraction:
    """The report's tau, the simple positive dominant root that `_dominance`
    certifies among the roots found at twice the report's precision,
    rounded to that precision, with no root solve.  ValueError for a
    polynomial with a zero free term (a recurrence with a_0 = 0);
    DominantRootError where there is no such root."""
    if report.char_poly[-1] == 0:
        raise ValueError("transition ratio requires an invertible recurrence (a_0 != 0)")
    if report.tau is None:
        raise DominantRootError(f"no simple positive dominant root: {report.spf_reason}")
    return _round_bits(report.tau, report.precision_bits)


# ---------------------------------------------------------------------------
# strong Perron-Frobenius
# ---------------------------------------------------------------------------

def _is_left_companion(a: Sequence[Sequence[int]]) -> bool:
    k = len(a)
    return k >= 2 and all(a[i][j] == (j == i - 1) for i in range(1, k) for j in range(k))


def _char_poly(a: Sequence[Sequence[int]]) -> IntPolynomial:
    """The characteristic polynomial of the square matrix a, read off the
    first row where a is a left companion matrix."""
    exactmat.dim(a)
    return [1] + [-x for x in a[0]] if _is_left_companion(a) else exactmat.char_poly(a)


def _eigenvector(a: Sequence[Sequence[int]], lam: Fraction, bits: int) -> list[Fraction]:
    """Eigenvector for a simple eigenvalue lam, from one exact inverse of
    shift * I - A with shift = lam + (lam + 1) * 2**-(2 bits), as close to
    lam as the roots are found: its largest column, scaled so that its
    largest entry is 1.  The inverse is taken as the integer adjugate of
    q * (shift * I - A), q the shift's denominator; the common factor
    q / det cancels in the scaling."""
    shift = lam + (lam + 1) / (1 << 2 * bits)
    p, q = shift.numerator, shift.denominator
    adj, _ = exactmat.adjugate([[int(i == j) * p - q * x for j, x in enumerate(row)]
                                for i, row in enumerate(a)])
    column = max(zip(*adj), key=lambda col: max(map(abs, col)))
    pivot = max(column, key=abs)
    return [Fraction(x, pivot) for x in column]


def is_strong_perron_frobenius(a: Sequence[Sequence[int]],
                               precision: Optional[int] = None) -> SpectralReport:
    """Verdict on the strong Perron-Frobenius property of a square matrix:
    the analyze_matrix report, whose is_spf, tau, dominant_vector and
    spf_reason give it.

    Yes means: simple positive dominant eigenvalue whose eigenvector can
    be oriented strictly positive.  Verdicts inside the tolerance band
    come back indeterminate instead of guessed.  Companion-form matrices
    take the closed-form eigenvector (tau**(k-1), ..., tau, 1).
    """
    return analyze_matrix(a, precision)


def _spf(a: Sequence[Sequence[int]], dom: _Dominance,
         bits: int) -> tuple[str, Optional[list], str]:
    """(verdict, eigenvector, reason) of the strong Perron-Frobenius test
    on a, given the dominance of its characteristic roots solved at
    `bits`."""
    if dom.verdict != VERDICT_YES:
        return dom.verdict, None, dom.reason
    k = exactmat.dim(a)
    if _is_left_companion(a):
        return VERDICT_YES, [dom.tau ** (k - 1 - j) for j in range(k)], ""
    vec = _eigenvector(a, dom.tau, bits)         # its largest entry is 1
    if any(x < -DEFAULT_TOLERANCE for x in vec):
        return VERDICT_NO, vec, "dominant eigenvector changes sign"
    if any(x <= DEFAULT_TOLERANCE for x in vec):
        return VERDICT_INDETERMINATE, vec, "eigenvector entry within tolerance of zero"
    return VERDICT_YES, vec, ""


# ---------------------------------------------------------------------------
# Pisot
# ---------------------------------------------------------------------------

def is_pisot(f: Sequence[int], precision: Optional[int] = None) -> str:
    """Pisot verdict for a monic integer polynomial.

    Yes means a simple positive dominant root with every other root
    strictly inside the unit disk.  Roots whose modulus falls within the
    tolerance band around 1 trigger an exact boundary test: a nontrivial
    gcd of f(z) and its coefficient reversal certifies a unit-circle or
    reciprocal root pair (definite no); otherwise the verdict is
    indeterminate rather than guessed.
    """
    f = poly_trim(list(f))
    rootset = all_roots(f, resolve_precision(precision))
    return _pisot(f, rootset, _dominance(rootset))


def _pisot(f: IntPolynomial, rootset: RootSet, dom: _Dominance) -> str:
    """The Pisot verdict on f, given its roots and their dominance;
    ValueError unless f is monic with a nonzero free term."""
    if f[0] != 1:
        raise ValueError("Pisot test requires a monic polynomial")
    if f[-1] == 0:
        raise ValueError("Pisot test requires a nonzero free term")
    if dom.verdict != VERDICT_YES:
        return dom.verdict if dom.verdict == VERDICT_INDETERMINATE else VERDICT_NO
    (tn, td), p = _TOL, rootset.point
    others = [z for i, z in enumerate(rootset.gaussian) if i != dom.index
              for _ in range(rootset.multiplicities[i])]
    # |z| against 1 - tol and 1 + tol, as td**2 |z|**2 against (td -+ tn)**2.
    norms = [(x * x + y * y) * td * td for x, y in others]
    inner, outer = (td - tn) ** 2 << 2 * p, (td + tn) ** 2 << 2 * p
    if all(n < inner for n in norms):
        return VERDICT_YES
    if any(n > outer for n in norms):
        return VERDICT_NO
    # Boundary band: decide exactly where possible.
    band = [z for z, n in zip(others, norms) if inner <= n <= outer]
    if exactmat.poly_eval(f, 1) == 0 or exactmat.poly_eval(f, -1) == 0:
        return VERDICT_NO
    g = exactmat.poly_gcd(f, exactmat.poly_reverse(f))
    d = poly_degree(g)
    if d >= 1:
        # A band root r is taken for a root of g where |g(r)| <= 2**-bits *
        # max|g_i| * 2**d (1 + |r| is within tol of 2), compared on squares.
        lcd = math.lcm(*(Fraction(c).denominator for c in g))
        ints = [int(c * lcd) for c in g]
        scaled, top = [c << p * i for i, c in enumerate(ints)], max(map(abs, ints)) ** 2
        for a, b in (_gaussian_horner(scaled, x, y) for x, y in band):
            if (a * a + b * b) << 2 * rootset.precision_bits <= top << 2 * (p + 1) * d:
                return VERDICT_NO
    return VERDICT_INDETERMINATE


# ---------------------------------------------------------------------------
# primitivity
# ---------------------------------------------------------------------------

def is_primitive(a: Sequence[Sequence[int]]) -> bool:
    """Primitivity of a nonnegative matrix by Wielandt's bound.

    A nonnegative k x k matrix is primitive exactly when its
    ((k-1)**2 + 1)-th power has no zero entry; then so has every higher
    power, and no power of an imprimitive matrix does.  So the 0/1
    pattern, each row held as a bitmask, is squared until its exponent
    2**s reaches the bound.
    """
    k = exactmat.dim(a)
    if any(x < 0 for row in a for x in row):
        raise ValueError("primitivity is defined for nonnegative matrices only")
    power = [sum(1 << j for j, x in enumerate(row) if x) for row in a]
    for _ in range(((k - 1) ** 2).bit_length()):
        # Row i of the square: the union of the rows j for the bits j of row i.
        power = [reduce(or_, (power[j] for j in range(k) if row >> j & 1), 0)
                 for row in power]
    return all(row == (1 << k) - 1 for row in power)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

class SpectralReport(NamedTuple):
    """Spectral certificate for a transition matrix or recurrence."""

    tau: Optional[Fraction]
    sigma: Optional[Fraction]
    dominant_vector: Optional[list[Fraction]]
    is_spf: str
    is_pisot: str
    is_primitive: Optional[bool]
    precision_bits: int
    char_poly: IntPolynomial = ()
    spf_reason: str = ""       # why is_spf is not "yes"; not part of to_dict()

    def to_dict(self) -> dict:
        return {
            "tau": _decimal(self.tau) if self.tau is not None else None,
            "sigma": _decimal(self.sigma) if self.sigma is not None else None,
            "dominant_vector": [_decimal(x) for x in self.dominant_vector]
            if self.dominant_vector is not None else None,
            "spf": self.is_spf,
            "pisot": self.is_pisot,
            "primitive": self.is_primitive,
            "tolerance": DEFAULT_TOLERANCE,
            "precision_bits": self.precision_bits,
            "char_poly": [str(c) for c in self.char_poly],
        }


def analyze_matrix(a: Sequence[Sequence[int]],
                   precision: Optional[int] = None) -> SpectralReport:
    """Every spectral verdict on a, from one root solve of its
    characteristic polynomial and one dominance test of its roots."""
    bits = resolve_precision(precision)
    f = _char_poly(a)
    rootset = all_roots(f, bits)
    norms = rootset.norms()
    dom = _dominance(rootset)
    spf, vector, reason = _spf(a, dom, bits)
    try:
        pisot = _pisot(f, rootset, dom)
    except ValueError:
        pisot = VERDICT_NO
    primitive = is_primitive(a) if all(x >= 0 for row in a for x in row) else None
    sigma = _sqrt_bits(norms[1], 2 * bits) if len(norms) > 1 else None
    return SpectralReport(tau=dom.tau, sigma=sigma, dominant_vector=vector, is_spf=spf,
                          is_pisot=pisot, is_primitive=primitive, precision_bits=bits,
                          char_poly=f, spf_reason=reason)


def analyze_recurrence(rec: Recurrence, precision: Optional[int] = None) -> SpectralReport:
    from .coding import left_companion  # local import avoids a cycle
    return analyze_matrix(left_companion(rec), precision)
