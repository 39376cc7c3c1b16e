"""Coding matrices and encryption keys.

A key fixes a k x k coding matrix family M_n whose rows are windows of
integer sequences all satisfying one recurrence.  Three representations
are supported:

* symmetric   - a recurrence plus an initial vector; M_n is symmetric
                and filled by a single sequence,
* general     - an arbitrary integer transition matrix L plus an initial
                vector (rows satisfy the characteristic recurrence of L),
* right_form  - a recurrence (acting on the right in companion form)
                plus an arbitrary nonnegative invertible initial matrix.

Every kind satisfies M_(n+1) = M_n R, R the right companion matrix of
the key's recurrence, so M_n = M_0 R**n is built by repeated matrix
products: binary powering, or one step by R where n is walked upward.
MatrixBuilder.inverse gives M_n**-1 by the paper's identity
M_n**-1 = M_0**-1 * M_(-n) * M_0**-1, powering the rational R**-1.

KEY_FIELDS lists each kind's fields and their key-file names.  A
KeyContext, a key compiled for one index, is the only form of a key the
cipher and guard arithmetic take.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, repeat
from typing import NamedTuple, Optional, Sequence

from . import exactmat, spectral
from .exactmat import IntMatrix, RatMatrix
from .records import FrozenRecord
from .recurrence import Recurrence

KIND_SYMMETRIC = "symmetric"
KIND_GENERAL = "general"
KIND_RIGHT = "right_form"
# The initial data of each kind: (CodingKey attribute, key-file name, rank),
# rank 1 a k-vector and rank 2 a k x k matrix of integers.
KEY_FIELDS = {
    KIND_SYMMETRIC: (("coeffs", "coefficients", 1), ("x0", "initial_vector", 1)),
    KIND_GENERAL: (("left", "left_matrix", 2), ("x0", "initial_vector", 1)),
    KIND_RIGHT: (("coeffs", "coefficients", 1), ("m0", "initial_matrix", 2)),
}
KINDS = tuple(KEY_FIELDS)
KEY_FORMAT = "rmc-key-v1"
ALPHABET_MAX = 255        # plaintext entries are bytes
TAU_CAP = 3.0             # validate_key warns above this tau; keygen refuses above it by default


class InvalidKeyError(ValueError):
    """The key fails a structural or invertibility requirement."""


_SINGULAR_INITIAL = "initial matrix is singular (initial vector not cyclic)"


def left_companion(rec: Recurrence) -> IntMatrix:
    """First row (a_{k-1}, ..., a_0), ones on the subdiagonal, zeros elsewhere."""
    k = rec.order
    out = [[0] * k for _ in range(k)]
    out[0] = list(reversed(rec.coeffs))
    for i in range(1, k):
        out[i][i - 1] = 1
    return out


def right_companion(rec: Recurrence) -> IntMatrix:
    """Transpose of the left companion matrix."""
    return exactmat.transpose(left_companion(rec))


def initial_matrix(left: Sequence[Sequence[int]], x0: Sequence[int]) -> IntMatrix:
    """Columns L**(k-1) x0, ..., L x0, x0, left to right."""
    k = exactmat.dim(left)
    if len(x0) != k:
        raise ValueError("initial vector length must match the matrix dimension")
    cols = [list(x0)]
    for _ in range(k - 1):
        cols.append(exactmat.mat_vec(left, cols[-1]))
    cols.reverse()
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def is_cyclic(left: Sequence[Sequence[int]], x0: Sequence[int]) -> bool:
    """x0 is cyclic for L exactly when the initial matrix is invertible."""
    return exactmat.det_exact(initial_matrix(left, x0)) != 0


def _shaped(val, k: int, rank: int):
    """val as rank levels of k-tuples of ints, or None if not that shape."""
    if rank == 0:
        return int(val) if isinstance(val, int) else None
    if not isinstance(val, (tuple, list)) or len(val) != k:
        return None
    out = tuple(_shaped(v, k, rank - 1) for v in val)
    return None if None in out else out


class CodingKey(FrozenRecord):
    """Full encryption key in one of the three supported representations:
    the fields KEY_FIELDS names for its kind, held as tuples of ints, and
    no other."""

    _fields = ("kind", "order", "index", "coeffs", "left", "x0", "m0")

    def __init__(self, kind: str, order: int, index: int,
                 coeffs: Optional[tuple[int, ...]] = None,
                 left: Optional[tuple[tuple[int, ...], ...]] = None,
                 x0: Optional[tuple[int, ...]] = None,
                 m0: Optional[tuple[tuple[int, ...], ...]] = None) -> None:
        vars(self).update(kind=kind, order=order, index=index, coeffs=coeffs, left=left,
                          x0=x0, m0=m0)
        if self.kind not in KINDS:
            raise InvalidKeyError(f"unknown key kind {self.kind!r}")
        if self.order < 2:
            raise InvalidKeyError("order must be at least 2")
        if self.index < 0:
            raise InvalidKeyError("index must be non-negative")
        ranks = {attr: rank for attr, _, rank in KEY_FIELDS[self.kind]}
        for attr in ("coeffs", "left", "x0", "m0"):
            val = getattr(self, attr)
            if attr not in ranks and val is not None:
                raise InvalidKeyError(f"{self.kind} key takes no field {attr!r}")
            if attr in ranks:
                shaped = _shaped(val, self.order, ranks[attr])
                if shaped is None:
                    raise InvalidKeyError(f"{self.kind} key of order {self.order} needs an "
                                          f"integer {('vector', 'matrix')[ranks[attr] - 1]} {attr!r}")
                vars(self)[attr] = shaped

    def _replace(self, **changes) -> CodingKey:
        """A new key, checked again, with the given fields changed."""
        return CodingKey(**{**dict(zip(self._fields, self._values())), **changes})

    def spectral_report(self) -> spectral.SpectralReport:
        """analyze_matrix on spf_target(self) at the working precision
        (spectral.resolve_precision, read at each call), solved once per
        precision for this key object and stored on it outside its fields:
        an equal key solves again."""
        bits = spectral.resolve_precision()
        reports = vars(self).setdefault("_spectral_reports", {})
        if bits not in reports:
            reports[bits] = spectral.analyze_matrix(spf_target(self), bits)
        return reports[bits]

    def recurrence(self) -> Recurrence:
        if self.kind == KIND_GENERAL:
            return Recurrence.from_char_poly(exactmat.char_poly(self.left_matrix()))
        return Recurrence(self.coeffs)

    def left_matrix(self) -> IntMatrix:
        """Integer left transition matrix; right_form keys have none."""
        if self.kind == KIND_SYMMETRIC:
            return left_companion(Recurrence(self.coeffs))
        if self.kind == KIND_GENERAL:
            return [list(row) for row in self.left]
        raise InvalidKeyError("right_form keys have a rational left transition matrix; "
                              "use induced_left_matrix")

    def initial(self) -> IntMatrix:
        if self.kind == KIND_RIGHT:
            return [list(row) for row in self.m0]
        return initial_matrix(self.left_matrix(), list(self.x0))


def symmetric_key(coeffs: Sequence[int], x0: Sequence[int], index: int) -> CodingKey:
    return CodingKey(KIND_SYMMETRIC, len(coeffs), index, coeffs=coeffs, x0=x0)


def general_key(left: Sequence[Sequence[int]], x0: Sequence[int], index: int) -> CodingKey:
    return CodingKey(KIND_GENERAL, len(left), index, left=left, x0=x0)


def right_form_key(coeffs: Sequence[int], m0: Sequence[Sequence[int]], index: int) -> CodingKey:
    return CodingKey(KIND_RIGHT, len(m0), index, coeffs=coeffs, m0=m0)


def spf_target(key: CodingKey) -> IntMatrix:
    """The matrix whose strong Perron-Frobenius property the key needs:
    its transition matrix, or the right companion matrix of a right_form key."""
    if key.kind == KIND_RIGHT:
        return right_companion(key.recurrence())
    return key.left_matrix()


def induced_left_matrix(key: CodingKey) -> RatMatrix:
    """Left transition matrix: rational M_0 R M_0**-1 for right_form keys."""
    if key.kind != KIND_RIGHT:
        return [[Fraction(v) for v in row] for row in key.left_matrix()]
    m0 = key.initial()
    r = right_companion(Recurrence(key.coeffs))
    return exactmat.mat_mul(exactmat.mat_mul(m0, [[Fraction(v) for v in row] for row in r]),
                            exactmat.inverse_exact(m0))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def _decimal(val):
    return str(val) if isinstance(val, int) else [_decimal(v) for v in val]


def canonical_key_dict(key: CodingKey) -> dict:
    """Canonical serialization; every integer leaf is a decimal string."""
    return {"format": KEY_FORMAT, "kind": key.kind, "order": key.order,
            "index": str(key.index),
            **{name: _decimal(getattr(key, attr)) for attr, name, _ in KEY_FIELDS[key.kind]}}


def key_fingerprint(key: CodingKey) -> str:
    blob = json.dumps(canonical_key_dict(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

class CodingMatrix(NamedTuple):
    n: int
    entries: tuple[tuple[int, ...], ...]
    fingerprint: str

    def rows(self) -> IntMatrix:
        return [list(row) for row in self.entries]


class MatrixBuilder:
    """M_n = M_0 R**n for one key, R the right companion matrix of its
    recurrence (the rational R**-1 for n < 0).  Holds no per-index state."""

    def __init__(self, key: CodingKey):
        self.key = key
        self.rec = key.recurrence()
        self.m0 = key.initial()
        if exactmat.det_exact(self.m0) == 0:
            raise InvalidKeyError(_SINGULAR_INITIAL)
        self.r = right_companion(self.rec)

    def matrix(self, n: int, max_bits: Optional[int] = None) -> list[list]:
        """M_n, row i the descending window (X_(n+k-1), ..., X_n) of row i's
        sequence; Fraction entries for n < 0.  max_bits: see mat_pow."""
        if n >= 0:
            return exactmat.mat_mul(self.m0, exactmat.mat_pow(self.r, n, max_bits))
        if self.rec.a0 == 0:
            raise ValueError("sequence is not backward-extendable: trailing coefficient a_0 is zero")
        return exactmat.mat_mul(self.m0, exactmat.mat_pow(exactmat.inverse_exact(self.r), -n))

    def inverse(self, n: int) -> RatMatrix:
        """Exact inverse of M_n as M_0**-1 * M_(-n) * M_0**-1."""
        m0i = exactmat.inverse_exact(self.m0)
        return exactmat.mat_mul(exactmat.mat_mul(m0i, self.matrix(-n)), m0i)


def coding_matrix(key: CodingKey, n: Optional[int] = None) -> CodingMatrix:
    n = key.index if n is None else n
    if n < 0:
        raise ValueError("coding_matrix is defined for n >= 0")
    entries = tuple(map(tuple, MatrixBuilder(key).matrix(n)))
    return CodingMatrix(n=n, entries=entries, fingerprint=key_fingerprint(key))


def coding_matrix_inverse(key: CodingKey, n: Optional[int] = None) -> RatMatrix:
    return MatrixBuilder(key).inverse(key.index if n is None else n)


# ---------------------------------------------------------------------------
# compiled keys
# ---------------------------------------------------------------------------

MAX_ENTRY_DIGITS = 4300     # of a ciphertext entry: sys.int_info.default_max_str_digits


def writable_matrix(key: CodingKey, n: int) -> IntMatrix:
    """M_n, or InvalidKeyError where n < 0 or 255 * max_j sum_t |M_n[t][j]|
    reaches 10**MAX_ENTRY_DIGITS, so a block of bytes could encrypt to a
    longer entry.  The key is refused as soon as a power of R has an entry
    of twice the bound's bits, so a huge index fails after a few products."""
    if n < 0:
        raise InvalidKeyError("index must be non-negative")
    bound = 10 ** MAX_ENTRY_DIGITS
    try:
        m = MatrixBuilder(key).matrix(n, max_bits=2 * bound.bit_length())
    except OverflowError:
        m = None
    if m is None or 255 * max(sum(map(abs, col)) for col in zip(*m)) >= bound:
        raise InvalidKeyError(f"ciphertext entries at index {n} would pass "
                              f"{MAX_ENTRY_DIGITS} decimal digits")
    return m


def ratio_extremes(m: Sequence[Sequence[int]], j: int, jp: int) -> tuple[int, int, int, int]:
    """Extreme ratios m[l][j] / m[l][jp] over the rows l, exactly, as
    integers (lo_num, lo_den, hi_num, hi_den) in lowest terms: each
    denominator >= 0, a ratio with zero denominator +/- infinity by the
    sign of its numerator, held as (+/-1, 0); 0/0 rows are dropped.
    Ratios are compared by cross-multiplication (_below).  They bound c_j / c_jp
    only where the weights m[l][jp] share a sign; else (-1, 0, 1, 0), no bound."""
    jp_column = [row[jp] for row in m]
    if min(jp_column, default=0) < 0 <= max(jp_column):
        return -1, 0, 1, 0
    extremes = []
    for row in m:
        num, den = row[j], row[jp]
        if den < 0:
            num, den = -num, -den
        elif den == 0:
            if num == 0:
                continue
            num = 1 if num > 0 else -1
        if not extremes:
            extremes = [num, den, num, den]
        elif _below(num, den, *extremes[:2]):
            extremes[:2] = num, den
        elif _below(*extremes[2:], num, den):
            extremes[2:] = num, den
    if not extremes:
        raise ValueError("no comparable rows: both columns are zero")
    lo_num, lo_den, hi_num, hi_den = extremes
    g, h = math.gcd(lo_num, lo_den), math.gcd(hi_num, hi_den)
    return lo_num // g, lo_den // g, hi_num // h, hi_den // h


def _below(num: int, den: int, other_num: int, other_den: int) -> bool:
    """num / den < other_num / other_den, both denominators >= 0 and +/-inf
    held as (+/-1, 0)."""
    return num * other_den < other_num * den if den or other_den else num < other_num


def column_ratio_bounds(m: Sequence[Sequence[int]], j: int, jp: int):
    """ratio_extremes as (minimum, maximum): Fractions, or +/-math.inf."""
    lo_num, lo_den, hi_num, hi_den = ratio_extremes(m, j, jp)
    return (Fraction(lo_num, lo_den) if lo_den else lo_num * math.inf,
            Fraction(hi_num, hi_den) if hi_den else hi_num * math.inf)


class KeyContext(FrozenRecord):
    """A key compiled for one index n >= 0: the per-key data every block shares.

    M_n and its columns are built on construction, by writable_matrix.
    The cipher's kernel facts (product_bits, cipher_slot_bits), the byte
    tables of encryption, the integer-scaled inverse, the transition ratio
    tau with its powers, and the receiver's tables are computed on first
    use, once: ratio_bounds, every column pair's exact ratio bounds in
    integers for tests by cross-multiplication, with reference_columns
    and entry_ranges, and pair_checks, each pair's bounds beside the
    expected float ratio a diagnosis reports.  So encryption never
    pays for an inverse or a root solve, and only an encryption of at
    least cipher.TABLE_ROWS rows, by a key whose products are too wide for
    64-bit slots but fit in cipher.TABLE_BITS bits, builds byte tables.
    tau has one source, `report`, the key's spectral_report, so contexts of
    one key object at several indices share one root solve.
    Build one per key and index, and pass it to every cipher and guard call.
    Contexts are equal only when they are one object.
    """

    _fields = ("key", "n", "matrix", "columns")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, key: CodingKey, n: Optional[int] = None) -> None:
        n = key.index if n is None else n          # None: the key's own index
        matrix = tuple(map(tuple, writable_matrix(key, n)))
        vars(self).update(key=key, n=n, matrix=matrix, columns=tuple(zip(*matrix)))

    @property
    def report(self) -> spectral.SpectralReport:
        return self.key.spectral_report()

    @property
    def order(self) -> int:
        return self.key.order

    @cached_property
    def byte_tables(self) -> tuple[tuple[list[int], ...], ...]:
        """byte_tables[j][t][b] == b * M_n[t][j] for every byte b, built by
        running sums: k * k * 256 entries as wide as M_n's, so a long
        encryption's product is a sum of lookups."""
        return tuple(tuple(list(accumulate(repeat(c, ALPHABET_MAX), initial=0)) for c in col)
                     for col in self.columns)

    @cached_property
    def scaled_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(columns of mint, denom): M_n**-1 == mint / denom exactly, with
        denom the least common denominator of the inverse's entries: the
        adjugate and |det| over their common factor."""
        adj, det = exactmat.adjugate(self.matrix)
        g = math.gcd(det, *(x for row in adj for x in row))
        if det < 0:
            g = -g
        return tuple(zip(*([x // g for x in row] for row in adj))), det // g

    @cached_property
    def cipher_slot_bits(self) -> Optional[int]:
        """m for the cipher's packed decryption, or None: the largest m for
        which ciphertext entries in [-2**m, 2**m) keep every entry of
        C * mint (scaled_inverse) inside (-2**63, 2**63), where every
        genuine ciphertext entry (entry_ranges) lies in [-2**m, 2**m) too;
        None for a key whose genuine entries do not fit."""
        cols, _ = self.scaled_inverse
        m = 63 - max(sum(map(abs, col)) for col in cols).bit_length()
        return m if self.product_bits <= m else None

    @cached_property
    def tau(self) -> Fraction:
        """Transition ratio of the key's recurrence, read off `report`."""
        return spectral.report_transition_ratio(self.report)

    @cached_property
    def tau_powers(self) -> dict:
        """tau**d for |d| < k, exact powers of tau."""
        k, tau = self.order, self.tau
        return {d: tau ** d for d in range(1 - k, k)}

    @cached_property
    def ratio_bounds(self) -> dict:
        """For every ordered pair j != jp, the extreme ratios of columns j
        and jp of M_n as integers (lo_num, lo_den, hi_num, hi_den)
        (ratio_extremes): each denominator >= 0, +/-inf as (+/-1, 0).  A
        ratio num / den with den > 0 lies within them exactly when
        lo_num * den <= num * lo_den and num * hi_den <= hi_num * den."""
        k = self.order
        return {(j, jp): ratio_extremes(self.matrix, j, jp)
                for j in range(k) for jp in range(k) if j != jp}

    @cached_property
    def pair_checks(self) -> tuple[tuple[int, int, Optional[float], tuple[int, ...]], ...]:
        """(j, jp, expected, ratio_bounds[(j, jp)]) for each column pair
        j < jp in lexicographic order: expected is the float tau**(jp - j)
        that a diagnosis reports, None beyond the float range."""
        checks = []
        for j, jp in combinations(range(self.order), 2):
            expected = spectral.to_float(self.tau_powers[jp - j])
            checks.append((j, jp, expected if math.isfinite(expected) else None,
                           self.ratio_bounds[(j, jp)]))
        return tuple(checks)

    @cached_property
    def reference_columns(self) -> dict:
        """For each column j, the columns t whose ratio_bounds[(j, t)] are
        both finite (both denominators nonzero), nearest first, ties to the
        lower: the references for j."""
        k = self.order
        return {j: tuple(sorted((t for t in range(k) if t != j
                                 and 0 not in self.ratio_bounds[(j, t)][1::2]),
                                key=lambda t: (abs(t - j), t)))
                for j in range(k)}

    @cached_property
    def entry_ranges(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) for each column: entries of P * M_n with P in [0, ALPHABET_MAX]
        lie between ALPHABET_MAX times its negative and its positive sum."""
        return tuple((ALPHABET_MAX * sum(v for v in col if v < 0),
                      ALPHABET_MAX * sum(v for v in col if v > 0)) for col in self.columns)

    @cached_property
    def product_bits(self) -> int:
        """The least b with every entry of P * M_n, P in [0, ALPHABET_MAX],
        in [-2**b, 2**b) (entry_ranges): b < 64 fits a signed 64-bit slot."""
        return max(max(hi, -1 - lo) for lo, hi in self.entry_ranges).bit_length()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class CheckItem(NamedTuple):
    name: str
    status: str          # pass / fail / warn / indeterminate
    detail: str = ""
    hard: bool = False   # hard failures make the key unusable for decryption


class KeyReport(NamedTuple):
    items: list[CheckItem]

    @property
    def ok(self) -> bool:
        return not any(it.hard and it.status == "fail" for it in self.items)

    def item(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checks": [
            {"name": it.name, "status": it.status, "detail": it.detail, "hard": it.hard}
            for it in self.items
        ]}


def validate_key(key: CodingKey) -> KeyReport:
    """Structured feasibility report: invertibility, cyclicity, spectral
    verdicts, a transition-ratio cap (TAU_CAP), and eventual positivity of M_n.

    The spectral verdicts come from the key's spectral_report, on its
    strong Perron-Frobenius target (its transition matrix, or the right
    companion matrix of a right_form key).
    """
    items: list[CheckItem] = []

    if key.kind == KIND_GENERAL:
        det_l = exactmat.det_exact(key.left_matrix())
        items.append(CheckItem("invertible_transition",
                               "pass" if det_l != 0 else "fail",
                               f"det L = {det_l}", hard=True))
    else:
        items.append(CheckItem("invertible_transition",
                               "pass" if key.coeffs[0] != 0 else "fail",
                               f"a_0 = {key.coeffs[0]}", hard=True))

    m0 = key.initial()
    det_m0 = exactmat.det_exact(m0)
    name = "invertible_initial_matrix" if key.kind == KIND_RIGHT else "cyclic_initial_vector"
    items.append(CheckItem(name, "pass" if det_m0 != 0 else "fail",
                           f"det M_0 = {det_m0}", hard=True))

    if key.kind == KIND_RIGHT:
        nonneg = all(v >= 0 for row in m0 for v in row)
        items.append(CheckItem("nonnegative_initial_matrix",
                               "pass" if nonneg else "fail",
                               "", hard=True))

    report = key.spectral_report()
    status = {"yes": "pass", "no": "fail", "indeterminate": "indeterminate"}
    items.append(CheckItem("strong_perron_frobenius", status[report.is_spf], report.spf_reason))
    items.append(CheckItem("pisot", status[report.is_pisot]))

    if report.tau is not None:
        items.append(CheckItem("tau_within_cap", "pass" if report.tau <= TAU_CAP else "warn",
                               f"tau = {spectral.to_float(report.tau):.6g}, cap = {TAU_CAP:g}"))
    else:
        items.append(CheckItem("tau_within_cap", "indeterminate", "no dominant eigenvalue"))

    items.append(_positivity_check(m0, det_m0, key.recurrence()))
    return KeyReport(items)


_POSITIVITY_HORIZON = 300       # the last n whose M_n signs are read


def _positivity_check(m0: IntMatrix, det_m0: int, rec: Recurrence) -> CheckItem:
    if det_m0 == 0:
        return CheckItem("entries_eventually_positive", "indeterminate", _SINGULAR_INITIAL)
    r = right_companion(rec)
    m, prev = m0, None
    for n in range(_POSITIVITY_HORIZON + 1):
        signs = {(v > 0) - (v < 0) for row in m for v in row}     # of M_n's entries
        if signs == prev == {1}:
            return CheckItem("entries_eventually_positive", "pass", f"positive from n = {n - 1}")
        if signs == prev == {-1}:
            return CheckItem("entries_eventually_positive", "fail",
                             "entries stabilize negative; negate the initial data")
        m, prev = exactmat.mat_mul(m, r), signs
    return CheckItem("entries_eventually_positive", "indeterminate",
                     f"no stable sign within n <= {_POSITIVITY_HORIZON}")
