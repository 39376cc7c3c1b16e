"""Checking relations, checking ranges, error detection and spiral correction.

For a ciphertext C = P * M with nonnegative P and M, every same-row
ratio c[i][j] / c[i][j'] lies between the extreme ratios of columns j
and j' of M.  Those exact two-sided bounds drive everything here:

* verification tests consecutive-column ratios against the bounds,
* detection builds a per-row consistency graph over all column pairs
  and trusts the maximum consistent clique,
* correction enumerates integer candidates for each flagged entry in a
  spiral around the transition-ratio estimate, validating candidate
  combinations by exact decryption.

All bounds are exact rationals; column indices are 0-based throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from mpmath import mpf, workprec

from .cipher import CorruptionError, decrypt_row, digitize
from .coding import (CodingKey, KeyContext, KeyLike, MatrixBuilder, column_ratio_bounds,
                     key_context)


class GuardError(Exception):
    pass


class EmptyCheckingRangeError(GuardError):
    """The candidate interval is empty: the reference entry itself is suspect."""


class UncorrectableRowError(GuardError):
    """A row has errors but no trusted entry to correct from."""


def _fraction_floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _fraction_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class CheckingRange:
    """Admissible values for a suspect entry relative to a trusted reference.

    lower/upper are the exact rational bounds.  The search interval
    [lo, hi] rounds the lower bound to the nearest integer (the worked
    error-correction scenarios count the boundary candidate in), while
    tight_lo/tight_hi apply exact ceiling/floor; once a range shrinks
    below unit length the tight interval pins a unique value.
    """

    lower: Fraction
    upper: Fraction
    lo: int
    hi: int
    estimate: int
    target: Optional[tuple[int, int]] = None
    reference: Optional[tuple[int, int]] = None

    @property
    def count(self) -> int:
        return max(0, self.hi - self.lo + 1)

    @property
    def tight_lo(self) -> int:
        return _fraction_ceil(self.lower)

    @property
    def tight_hi(self) -> int:
        return _fraction_floor(self.upper)

    @property
    def tight_count(self) -> int:
        return max(0, self.tight_hi - self.tight_lo + 1)

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def _invert_bounds(bounds):
    lo, hi = bounds
    new_hi = math.inf if lo == 0 else (Fraction(0) if lo == math.inf else 1 / lo)
    new_lo = Fraction(0) if hi == math.inf else (math.inf if hi == 0 else 1 / hi)
    if hi == -math.inf or lo == -math.inf:
        raise ValueError("cannot invert bounds spanning negative infinity")
    return new_lo, new_hi


def checking_range(c_ref: int, bounds, direction: int = 1, tau_power=None,
                   target: Optional[tuple[int, int]] = None,
                   reference: Optional[tuple[int, int]] = None) -> CheckingRange:
    """Integer candidate interval for a suspect entry given a trusted reference.

    bounds are the column ratio bounds oriented suspect-over-reference
    when direction is +1, reference-over-suspect when -1.  tau_power is
    the transition-ratio power tau**(j'-j) used for the spiral estimate;
    without it the estimate falls back to the interval midpoint.
    """
    if c_ref <= 0:
        raise ValueError("reference entry must be positive")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if direction == -1:
        bounds = _invert_bounds(bounds)
    blo, bhi = bounds
    if blo == math.inf or bhi == math.inf or blo == -math.inf or bhi == -math.inf:
        raise ValueError("reference column admits an unbounded ratio; pick another reference")
    lower = c_ref * blo
    upper = c_ref * bhi
    lo = _fraction_floor(lower + Fraction(1, 2))
    hi = _fraction_floor(upper)
    if lo > hi:
        raise EmptyCheckingRangeError(
            f"empty checking range [{float(lower):.3f}, {float(upper):.3f}]: reference is suspect")
    if tau_power is not None:
        # Enough working precision that the rounded estimate stays exact
        # even when the reference entry has hundreds of bits.
        with workprec(int(c_ref).bit_length() + 64):
            estimate = int(mpf(c_ref) * tau_power + mpf("0.5"))
    else:
        estimate = _fraction_floor((lower + upper) / 2 + Fraction(1, 2))
    estimate = min(max(estimate, lo), hi)
    return CheckingRange(lower=lower, upper=upper, lo=lo, hi=hi, estimate=estimate,
                         target=target, reference=reference)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairViolation:
    j: int
    jp: int
    ratio: object          # Fraction or +/- inf
    lower: object
    upper: object


@dataclass(frozen=True)
class RowCheck:
    row: int
    ok: bool
    violations: tuple[PairViolation, ...] = ()


def verify_ciphertext(c: Sequence[Sequence[int]], m: Sequence[Sequence[int]]) -> list[RowCheck]:
    """Per-row test of the consecutive-column checking inequalities.

    Genuine ciphertexts of nonnegative plaintexts always pass.
    """
    k = len(m)
    if any(len(row) != k for row in c):
        raise ValueError("ciphertext and coding matrix dimensions differ")
    out: list[RowCheck] = []
    for i, row in enumerate(c):
        violations = []
        for j in range(k - 1):
            num, den = row[j], row[j + 1]
            if num == 0 and den == 0:
                continue
            ratio = Fraction(num, den) if den != 0 else (math.inf if num > 0 else -math.inf)
            lo, hi = column_ratio_bounds(m, j, j + 1)
            if not (lo <= ratio <= hi):
                violations.append(PairViolation(j, j + 1, ratio, lo, hi))
        out.append(RowCheck(row=i, ok=not violations, violations=tuple(violations)))
    return out


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairEvidence:
    j: int
    jp: int
    ratio: Optional[Fraction]
    expected: float          # tau**(jp-j)
    rel_deviation: Optional[float]
    consistent: bool


@dataclass(frozen=True)
class RowDiagnosis:
    row: int
    trusted: tuple[int, ...]
    flagged: tuple[int, ...]
    pairs: tuple[PairEvidence, ...]

    @property
    def clean(self) -> bool:
        return not self.flagged


def detect_errors(c: Sequence[Sequence[int]], key: KeyLike, n: Optional[int] = None,
                  tol: Optional[float] = None,
                  precision: Optional[int] = None) -> list[RowDiagnosis]:
    """Per-row diagnosis of a received ciphertext.

    Column pairs are consistent when their ratio satisfies the exact
    checking bounds of M_n (default), or, when an explicit tolerance is
    given, when the relative deviation from the matching power of the
    transition ratio stays within it.  The trusted set of a row is the
    maximum consistent clique; ties prefer the smaller total deviation,
    then the leftmost columns.  Rows with no consistent pair come back
    with an empty trusted set.
    """
    ctx = key_context(key, n, precision)
    k = ctx.order
    tau_powers = ctx.tau_powers
    bounds = ctx.ratio_bounds
    diagnoses: list[RowDiagnosis] = []
    for i, row in enumerate(c):
        evidence: list[PairEvidence] = []
        adj: set[tuple[int, int]] = set()
        dev_of: dict[tuple[int, int], float] = {}
        for j, jp in combinations(range(k), 2):
            expected = float(tau_powers[jp - j])
            lo, hi = bounds[(j, jp)]
            num, den = row[j], row[jp]
            if den == 0 and num == 0:
                ratio = None
                consistent = True
                rel_dev = None
            else:
                ratio = Fraction(num, den) if den != 0 else None
                if ratio is None:
                    consistent = False
                    rel_dev = None
                else:
                    rel_dev = abs(float(ratio) / expected - 1.0)
                    if tol is None:
                        consistent = lo <= ratio <= hi
                    else:
                        consistent = rel_dev <= tol
            if consistent:
                adj.add((j, jp))
                dev_of[(j, jp)] = rel_dev if rel_dev is not None else 0.0
            evidence.append(PairEvidence(j, jp, ratio, expected, rel_dev, consistent))
        trusted = _max_clique(k, adj, dev_of)
        flagged = tuple(j for j in range(k) if j not in trusted)
        diagnoses.append(RowDiagnosis(row=i, trusted=trusted, flagged=flagged,
                                      pairs=tuple(evidence)))
    return diagnoses


def _max_clique(k: int, adj: set[tuple[int, int]],
                dev_of: dict[tuple[int, int], float]) -> tuple[int, ...]:
    if not adj:
        return ()
    for size in range(k, 1, -1):
        best: Optional[tuple[float, tuple[int, ...]]] = None
        for cols in combinations(range(k), size):
            if all((a, b) in adj for a, b in combinations(cols, 2)):
                dev = sum(dev_of[(a, b)] for a, b in combinations(cols, 2))
                cand = (dev, cols)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return best[1]
    return ()


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------

def spiral_candidates(rng: CheckingRange) -> list[int]:
    """Every integer in [lo, hi] ordered by distance from the estimate,
    upward first on ties: e, e+1, e-1, e+2, ..."""
    out = [rng.estimate]
    step = 1
    while len(out) < rng.count:
        up = rng.estimate + step
        if up <= rng.hi:
            out.append(up)
        down = rng.estimate - step
        if down >= rng.lo:
            out.append(down)
        step += 1
    return out


def _ranked_product(lists: Sequence[Sequence[int]]):
    """Cartesian product ordered by total spiral rank, ties lexicographic."""
    start = (0,) * len(lists)
    heap = [(0, start)]
    seen = {start}
    while heap:
        rank, idx = heapq.heappop(heap)
        yield tuple(lists[d][i] for d, i in enumerate(idx))
        for d in range(len(lists)):
            nxt = list(idx)
            nxt[d] += 1
            if nxt[d] < len(lists[d]):
                t = tuple(nxt)
                if t not in seen:
                    seen.add(t)
                    heapq.heappush(heap, (rank + 1, t))


@dataclass
class RowCandidate:
    values: dict[int, int]
    plaintext_row: list[int]
    order_index: int


@dataclass
class RowCorrection:
    row: int
    references: dict[int, int]
    ranges: dict[int, CheckingRange]
    accepted: list[RowCandidate]
    tested: int


@dataclass
class CorrectionResult:
    rows: list[RowCorrection]
    matrix: Optional[list[list[int]]]
    unique: bool
    tested_total: int
    budget_exhausted: bool


def correct(c: Sequence[Sequence[int]], diagnoses: Sequence[RowDiagnosis],
            key: KeyLike, n: Optional[int] = None, budget: int = 10 ** 6,
            validator: Optional[Callable[[list[int]], bool]] = None,
            precision: Optional[int] = None) -> CorrectionResult:
    """Spiral-search correction of the flagged entries.

    Candidates for each flagged entry come from its checking range
    against the nearest trusted column, enumerated spiral-first around
    the transition-ratio estimate; combinations across a row's flagged
    entries are tested in combined spiral order.  A candidate is
    accepted when the patched row decrypts to integral values inside the
    alphabet (plus the optional extra validator).  All accepted
    candidates are returned in discovery order; the budget caps the
    total number of combinations tested.  A trusted reference of 0 (a
    zero padding row) admits only the candidate 0.
    """
    ctx = key_context(key, n, precision)
    rows_out: list[RowCorrection] = []
    corrected = [list(row) for row in c]
    tested_total = 0
    budget_exhausted = False
    all_resolved = True
    unique = True

    for diag in diagnoses:
        if not diag.flagged:
            continue
        if not diag.trusted:
            raise UncorrectableRowError(
                f"row {diag.row} has no trusted entry; correction needs external data")
        i = diag.row
        refs: dict[int, int] = {}
        ranges: dict[int, CheckingRange] = {}
        spirals: list[list[int]] = []
        flagged = list(diag.flagged)
        for j in flagged:
            ref = min(diag.trusted, key=lambda t: (abs(t - j), t))
            refs[j] = ref
            if c[i][ref] == 0:
                rng = _zero_reference_range(ctx, (i, j), (i, ref))
            else:
                rng = checking_range(
                    c[i][ref], ctx.ratio_bounds[(j, ref)], tau_power=ctx.tau_powers[ref - j],
                    target=(i, j), reference=(i, ref))
            ranges[j] = rng
            spirals.append(spiral_candidates(rng))

        accepted: list[RowCandidate] = []
        tested = 0
        for combo in _ranked_product(spirals):
            if tested_total >= budget:
                budget_exhausted = True
                break
            tested += 1
            tested_total += 1
            patched = list(c[i])
            for j, v in zip(flagged, combo):
                patched[j] = v
            try:
                plain = decrypt_row(ctx, patched)
            except CorruptionError:
                continue
            if validator is not None and not validator(plain):
                continue
            accepted.append(RowCandidate(values=dict(zip(flagged, combo)),
                                         plaintext_row=plain, order_index=tested))
        rows_out.append(RowCorrection(row=i, references=refs, ranges=ranges,
                                      accepted=accepted, tested=tested))
        if accepted:
            first = accepted[0]
            for j, v in first.values.items():
                corrected[i][j] = v
            if len(accepted) > 1:
                unique = False
        else:
            all_resolved = False
        if budget_exhausted:
            break

    matrix = corrected if (all_resolved and not budget_exhausted) else None
    return CorrectionResult(rows=rows_out, matrix=matrix,
                            unique=unique and matrix is not None,
                            tested_total=tested_total,
                            budget_exhausted=budget_exhausted)


def _zero_reference_range(ctx: KeyContext, target: tuple[int, int],
                          reference: tuple[int, int]) -> CheckingRange:
    """The single candidate 0 for an entry whose trusted reference is 0.

    With a strictly positive reference column of M_n and P >= 0, a zero
    reference entry forces the whole plaintext row to zero, so every
    entry of the row is 0; decryption then confirms the candidate.
    """
    ref = reference[1]
    if not all(v > 0 for v in ctx.columns[ref]):
        raise UncorrectableRowError(
            f"row {reference[0]}: trusted entry {reference} is 0 and column {ref} "
            f"of M_n is not positive, so the row is not determined")
    zero = Fraction(0)
    return CheckingRange(lower=zero, upper=zero, lo=0, hi=0, estimate=0,
                         target=target, reference=reference)


# ---------------------------------------------------------------------------
# range shrinkage
# ---------------------------------------------------------------------------

def range_length(key: CodingKey, n: int, j: int, jp: int, c_ref: int) -> Fraction:
    """Exact length (max - min) * c_ref of the checking range for column j
    relative to a reference value in column jp."""
    m = MatrixBuilder(key).matrix(n)
    lo, hi = column_ratio_bounds(m, j, jp)
    if lo == math.inf or hi == math.inf or lo == -math.inf or hi == -math.inf:
        raise ValueError("unbounded ratio in the requested columns")
    return (hi - lo) * c_ref


def smallest_unambiguous_n(key: CodingKey, plaintext: bytes, j: int, jp: int,
                           cap: int = 200, row: int = 0) -> Optional[int]:
    """Least index n <= cap at which the checking range for column j
    (reference column jp, given row of the first plaintext block) has
    length below 1, so it pins a single integer."""
    blocks, _ = digitize(plaintext, key.order)
    if not blocks:
        raise ValueError("plaintext is empty")
    p_row = blocks[0][row]
    builder = MatrixBuilder(key)
    k = key.order
    for n in range(1, cap + 1):
        m = builder.matrix(n)
        c_ref = sum(p_row[t] * m[t][jp] for t in range(k))
        if c_ref <= 0:
            continue
        lo, hi = column_ratio_bounds(m, j, jp)
        if lo == math.inf or hi == math.inf or lo == -math.inf or hi == -math.inf:
            continue
        if (hi - lo) * c_ref < 1:
            return n
    return None
