"""Checking relations, checking ranges, error detection and spiral correction.

For a ciphertext C = P * M with nonnegative P and M, every same-row
ratio c[i][j] / c[i][j'] lies between the extreme ratios of columns j
and j' of M.  Those exact two-sided bounds drive everything here:

* detection builds a per-row consistency graph over all column pairs
  and trusts the maximum consistent clique of entries inside their
  column's range (KeyContext.entry_ranges); a receiver first tests whole
  chunks of rows (failing_rows) and builds the graph only for a block
  where a row fails: for every row of it to report, for the failing
  rows alone to correct,
* correction searches one interval for each flagged entry, built from the
  KeyContext by checking_range: exactly the integers between its exact
  bounds against a trusted reference, cut to its column's absolute range.
  It takes them in a spiral around the transition-ratio estimate and
  validates candidate combinations by exact decryption.

All bounds are exact rationals, held once per key as integers
(KeyContext.ratio_bounds, with each pair's expected float ratio in
KeyContext.pair_checks); column indices are 0-based throughout.  One
test decides whether a pair meets its checking relation, for detection
and the chunk test alike: _within, by integer cross-multiplication
against those bounds.  A checking range's integers and spiral start
come by integer floor division.  The transition ratio only sets where
the spiral starts and, as floats, fills the reported expected ratio and
deviation.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import partial
from itertools import combinations, repeat
from operator import le, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cipher import CorruptionError, decrypt_row, digitize
from .coding import CodingKey, KeyContext, MatrixBuilder, ratio_extremes
from .coding import column_ratio_bounds  # noqa: F401 - bound for perfbench's tracer (test_perfbench)
from .exactmat import mat_mul


class GuardError(Exception):
    pass


class EmptyCheckingRangeError(GuardError):
    """The candidate interval is empty: the reference entry itself is suspect."""


class UncorrectableRowError(GuardError):
    """A row has errors but no trusted entry to correct from."""


class CheckingRange(NamedTuple):
    """Admissible values for a suspect entry relative to a trusted reference.

    lower/upper are the exact rational bounds of the checking relation,
    cut to the suspect column's absolute range; [lo, hi] holds exactly the
    integers between them, so a range shorter than 1 holds at most one.
    estimate, inside [lo, hi], is where the spiral search starts.
    """

    lower: Fraction
    upper: Fraction
    lo: int
    hi: int
    estimate: int

    @property
    def count(self) -> int:
        return self.hi - self.lo + 1


def _reference_bounds(ctx: KeyContext, j: int, ref: int) -> tuple[int, int, int, int]:
    """ctx.ratio_bounds[(j, ref)], which must both be finite."""
    if ref not in ctx.reference_columns[j]:
        raise ValueError(f"column {ref} is no reference for column {j}: their ratio "
                         f"bounds are not both finite; pick another reference")
    return ctx.ratio_bounds[(j, ref)]


def checking_range(ctx: KeyContext, j: int, ref: int, c_ref: int) -> CheckingRange:
    """The integers that entry j of a row may hold, given c_ref trusted in
    column ref of the same row.

    The bounds are c_ref times the extreme ratios of columns j and ref of
    M_n (ctx.ratio_bounds, both finite: ref must be one of
    ctx.reference_columns[j], else ValueError), cut to column j's absolute
    range (ctx.entry_ranges).  A reference of 0 gives [0, 0]; a negative
    one swaps the bounds (c_ref times the largest ratio is the lower), and
    an interval with no integer raises EmptyCheckingRangeError.  The
    spiral estimate is c_ref * tau**(ref - j), rounded half up and moved
    into [lo, hi].  lo, hi and the estimate are found by integer floor
    division; only the two bounds are Fractions.
    """
    lo_num, lo_den, hi_num, hi_den = _reference_bounds(ctx, j, ref)
    col_lo, col_hi = ctx.entry_ranges[j]
    lo_num, hi_num = c_ref * lo_num, c_ref * hi_num      # the bounds lo_num/lo_den, hi_num/hi_den
    if c_ref < 0:
        lo_num, lo_den, hi_num, hi_den = hi_num, hi_den, lo_num, lo_den
    lo, hi = max(-(-lo_num // lo_den), col_lo), min(hi_num // hi_den, col_hi)
    if lo > hi:
        raise EmptyCheckingRangeError(
            f"no integer of column {j}'s absolute range lies in its checking range "
            f"against column {ref}: reference is suspect")
    lower = Fraction(lo_num, lo_den) if lo_num > col_lo * lo_den else Fraction(col_lo)
    upper = Fraction(hi_num, hi_den) if hi_num < col_hi * hi_den else Fraction(col_hi)
    # The exact product is as close as the power of tau is: within about
    # c_ref * 2**-p of c_ref * tau**d for tau held to p bits (the working
    # precision, KeyContext.tau_powers).  The spiral from it still reaches
    # every integer in [lo, hi].
    power = ctx.tau_powers[ref - j]
    p, q = power.numerator, power.denominator
    estimate = (2 * c_ref * p + q) // (2 * q)
    return CheckingRange(lower=lower, upper=upper, lo=lo, hi=hi,
                         estimate=min(max(estimate, lo), hi))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

class PairEvidence(NamedTuple):
    j: int
    jp: int
    ratio: Optional[Fraction]
    expected: Optional[float]        # tau**(jp-j); None beyond the float range
    rel_deviation: Optional[float]
    consistent: bool


class RowDiagnosis(NamedTuple):
    row: int
    trusted: tuple[int, ...]
    flagged: tuple[int, ...]
    pairs: tuple[PairEvidence, ...]

    @property
    def clean(self) -> bool:
        return not self.flagged


def detect_errors(c: Sequence[Sequence[int]], ctx: KeyContext,
                  rows: Optional[Iterable[int]] = None) -> list[RowDiagnosis]:
    """Per-row diagnosis of a received ciphertext: of the rows whose
    indices `rows` gives in ascending order, else of every row.

    Column pairs are consistent when their ratio satisfies the exact
    checking bounds of M_n (_within).  Each pair also reports its
    deviation from the matching power of the transition ratio; the
    trusted set of a row is the maximum consistent clique of the entries
    inside their column's absolute range, ties preferring the smaller
    total deviation, then the leftmost columns.  Rows with no consistent
    pair of such entries come back with an empty trusted set.  Bounds and
    expected ratios come from ctx.pair_checks, built once per key.
    """
    k = ctx.order
    diagnoses: list[RowDiagnosis] = []
    for i in range(len(c)) if rows is None else rows:
        row = c[i]
        evidence: list[PairEvidence] = []
        adj: set[tuple[int, int]] = set()
        dev_of: dict[tuple[int, int], float] = {}
        inside = [lo <= v <= hi for v, (lo, hi) in zip(row, ctx.entry_ranges)]
        for j, jp, expected, bound in ctx.pair_checks:
            num, den = row[j], row[jp]
            rel_dev = _deviation(expected, num, den)
            consistent = _within(*bound, num, den)
            ratio = Fraction(num, den) if den else None
            if consistent and inside[j] and inside[jp]:
                adj.add((j, jp))
                dev_of[(j, jp)] = rel_dev if rel_dev is not None else 0.0
            evidence.append(PairEvidence(j, jp, ratio, expected, rel_dev, consistent))
        trusted = _max_clique(k, adj, dev_of)
        flagged = tuple(j for j in range(k) if j not in trusted)
        diagnoses.append(RowDiagnosis(row=i, trusted=trusted, flagged=flagged,
                                      pairs=tuple(evidence)))
    return diagnoses


def failing_rows(ctx: KeyContext, values: Sequence[int]) -> set[int]:
    """Indices of the rows that detect_errors flags, for rows given as flat
    row-major entries: the rows with an entry outside its column's
    absolute range or a column pair that fails _within.

    The test goes a whole column (pair) at a time (_all_within) and row by
    row only for a column (pair) where that fails; no Fraction is built.
    """
    k = ctx.order
    cols = [values[t::k] for t in range(k)]
    failing: set[int] = set()
    for col, (lo, hi) in zip(cols, ctx.entry_ranges):
        if col and not lo <= min(col) <= max(col) <= hi:
            failing.update(r for r, v in enumerate(col) if not lo <= v <= hi)
    for j, jp in combinations(range(k), 2):
        nums, dens = cols[j], cols[jp]
        bound = ctx.ratio_bounds[(j, jp)]
        if _all_within(nums, dens, *bound):
            continue
        pair_ok = partial(_within, *bound)
        failing.update(r for r, ok in enumerate(map(pair_ok, nums, dens)) if not ok)
    return failing


def _all_within(nums, dens, lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> bool:
    """Every denominator positive and _within true for every pair: the
    same cross-multiplication, a whole column pair at a time."""
    return (min(dens, default=1) > 0
            and all(map(le, map(mul, dens, repeat(lo_num)), map(mul, nums, repeat(lo_den))))
            and all(map(le, map(mul, nums, repeat(hi_den)), map(mul, dens, repeat(hi_num)))))


def _within(lo_num: int, lo_den: int, hi_num: int, hi_den: int, num: int, den: int) -> bool:
    """The exact test of one pair against its ratio_bounds entry: 0/0 is
    consistent, x/0 is +inf or -inf by the sign of x and must lie within
    the bounds, as must any other num/den."""
    if den == 0:
        if num > 0:
            return hi_den == 0 and hi_num > 0
        return num == 0 or (lo_den == 0 and lo_num < 0)
    if den < 0:
        num, den = -num, -den
    return lo_num * den <= num * lo_den and num * hi_den <= hi_num * den


def _deviation(expected: Optional[float], num: int, den: int) -> Optional[float]:
    """|num / den / expected - 1|, or None where den is 0, expected is None
    or the ratio is beyond the float range.  int / int rounds as
    float(Fraction(num, den)) does, and overflows where it does."""
    if den == 0 or expected is None:
        return None
    try:
        return abs(num / den / expected - 1.0)
    except OverflowError:
        return None


def _max_clique(k: int, adj: set[tuple[int, int]],
                dev_of: dict[tuple[int, int], float]) -> tuple[int, ...]:
    for size in range(k, 1, -1):
        cliques = [(sum(dev_of[pair] for pair in combinations(cols, 2)), cols)
                   for cols in combinations(range(k), size)
                   if all(pair in adj for pair in combinations(cols, 2))]
        if cliques:
            return min(cliques)[1]
    return ()


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------

def spiral_candidate(rng: CheckingRange, i: int) -> int:
    """The i-th integer of [lo, hi] by distance from the estimate, upward
    first on ties: e, e+1, e-1, e+2, ...; once one side of the range runs
    out, the other continues alone."""
    e = rng.estimate
    both = min(e - rng.lo, rng.hi - e)          # steps taken on both sides
    if i <= 2 * both:
        return e + (i + 1) // 2 if i % 2 else e - i // 2
    beyond = i - both
    return e + beyond if rng.hi - e > both else e - beyond


def _ranked_product(ranges: Sequence[CheckingRange]):
    """Cartesian product of the ranges' spirals ordered by total spiral
    rank, ties lexicographic; each candidate is computed when reached, so
    the cost follows the number taken, not the width of the ranges."""
    start = (0,) * len(ranges)
    heap = [(0, start)]
    seen = {start}
    while heap:
        rank, idx = heapq.heappop(heap)
        yield tuple(spiral_candidate(rng, i) for rng, i in zip(ranges, idx))
        for d, rng in enumerate(ranges):
            nxt = list(idx)
            nxt[d] += 1
            if nxt[d] < rng.count:
                t = tuple(nxt)
                if t not in seen:
                    seen.add(t)
                    heapq.heappush(heap, (rank + 1, t))


class RowCandidate(NamedTuple):
    values: dict[int, int]
    plaintext_row: list[int]
    order_index: int


class RowCorrection(NamedTuple):
    row: int
    references: dict[int, int]
    ranges: dict[int, CheckingRange]
    accepted: list[RowCandidate]
    tested: int


class CorrectionResult(NamedTuple):
    rows: list[RowCorrection]
    matrix: Optional[list[list[int]]]
    unique: bool
    tested_total: int
    budget_exhausted: bool


def correct(c: Sequence[Sequence[int]], diagnoses: Sequence[RowDiagnosis],
            ctx: KeyContext, *, budget: int = 10 ** 6,
            validator: Optional[Callable[[int, list[int]], bool]] = None) -> CorrectionResult:
    """Spiral-search correction of the flagged entries.

    Candidates for each flagged entry come from its checking range
    against the nearest trusted column, enumerated spiral-first around
    the transition-ratio estimate; combinations across a row's flagged
    entries are tested in combined spiral order.  A candidate is
    accepted when the patched row decrypts to integral values inside the
    alphabet (plus the optional extra validator, called with the row
    index and the decrypted row).  All accepted candidates are returned
    in discovery order; the budget caps the total number of combinations
    tested.  A flagged entry's reference is its nearest trusted column
    with finite bounds (KeyContext.reference_columns), or none: then
    UncorrectableRowError; its candidates are those of checking_range.
    """
    rows_out: list[RowCorrection] = []
    corrected = [list(row) for row in c]
    tested_total = 0
    budget_exhausted = False
    all_resolved = True
    unique = True

    for diag in diagnoses:
        if not diag.flagged:
            continue
        i = diag.row
        refs: dict[int, int] = {}
        ranges: dict[int, CheckingRange] = {}
        flagged = list(diag.flagged)
        for j in flagged:
            ref = next((t for t in ctx.reference_columns[j] if t in diag.trusted), None)
            if ref is None:
                raise UncorrectableRowError(
                    f"row {i} has no trusted entry that bounds entry {(i, j)}; "
                    f"correction needs external data")
            refs[j] = ref
            ranges[j] = checking_range(ctx, j, ref, c[i][ref])

        accepted: list[RowCandidate] = []
        tested = 0
        for combo in _ranked_product([ranges[j] for j in flagged]):
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
            if validator is not None and not validator(i, plain):
                continue
            accepted.append(RowCandidate(values=dict(zip(flagged, combo)),
                                         plaintext_row=plain, order_index=tested))
        rows_out.append(RowCorrection(row=i, references=refs, ranges=ranges,
                                      accepted=accepted, tested=tested))
        if accepted:
            for j, v in accepted[0].values.items():
                corrected[i][j] = v
        unique = unique and len(accepted) < 2
        all_resolved = all_resolved and bool(accepted)
        if budget_exhausted:
            break

    matrix = corrected if (all_resolved and not budget_exhausted) else None
    return CorrectionResult(rows=rows_out, matrix=matrix,
                            unique=unique and matrix is not None,
                            tested_total=tested_total,
                            budget_exhausted=budget_exhausted)


# ---------------------------------------------------------------------------
# range shrinkage
# ---------------------------------------------------------------------------

def _range_length(bounds: tuple[int, int, int, int], c_ref: int) -> Fraction:
    """|c_ref| * (hi - lo) for finite ratio bounds (lo_num, lo_den, hi_num, hi_den):
    a checking range's length before the absolute cut, c_ref of either sign."""
    lo_num, lo_den, hi_num, hi_den = bounds
    return Fraction(abs(c_ref) * (hi_num * lo_den - lo_num * hi_den), hi_den * lo_den)


def range_length(ctx: KeyContext, j: int, jp: int, c_ref: int) -> Fraction:
    """_range_length of ctx.ratio_bounds[(j, jp)]: checking_range's
    upper - lower for a reference c_ref in column jp, where the cut takes nothing."""
    return _range_length(_reference_bounds(ctx, j, jp), c_ref)


def smallest_unambiguous_n(key: CodingKey, plaintext: bytes, j: int, jp: int,
                           cap: int = 200, row: int = 0) -> Optional[int]:
    """Least index n <= cap at which the checking range for column j
    (reference column jp, given row of the first plaintext block) has
    length below 1 (_range_length), so it pins a single integer.  An index
    is skipped where the reference entry is 0 or a ratio bound of M_n is
    infinite (a zero denominator, or a column jp of both signs)."""
    blocks, _ = digitize(plaintext, key.order)
    if not blocks:
        raise ValueError("plaintext is empty")
    p_row = blocks[0][row]
    builder = MatrixBuilder(key)
    k = key.order
    m = builder.m0
    for n in range(1, cap + 1):
        m = mat_mul(m, builder.r)
        c_ref = sum(p_row[t] * m[t][jp] for t in range(k))
        bounds = ratio_extremes(m, j, jp)
        if c_ref and 0 not in bounds[1::2] and _range_length(bounds, c_ref) < 1:
            return n
    return None
