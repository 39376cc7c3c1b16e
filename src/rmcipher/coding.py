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

Matrices are built by running the recurrence along each row, never by
repeated matrix products; inverses go through the backward (rational)
extension M_n**-1 = M_0**-1 * M_(-n) * M_0**-1, so a single small
inversion serves every index.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from . import exactmat, spectral
from .exactmat import IntMatrix, RatMatrix
from .recurrence import Recurrence, extend_forward, step_backward

KIND_SYMMETRIC = "symmetric"
KIND_GENERAL = "general"
KIND_RIGHT = "right_form"
KINDS = (KIND_SYMMETRIC, KIND_GENERAL, KIND_RIGHT)


class InvalidKeyError(ValueError):
    """The key fails a structural or invertibility requirement."""


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


@dataclass(frozen=True)
class CodingKey:
    """Full encryption key in one of the three supported representations."""

    kind: str
    order: int
    index: int
    coeffs: Optional[tuple[int, ...]] = None
    left: Optional[tuple[tuple[int, ...], ...]] = None
    x0: Optional[tuple[int, ...]] = None
    m0: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidKeyError(f"unknown key kind {self.kind!r}")
        if self.order < 2:
            raise InvalidKeyError("order must be at least 2")
        if self.index < 0:
            raise InvalidKeyError("index must be non-negative")
        if self.kind == KIND_SYMMETRIC:
            self._need("coeffs", self.order)
            self._need("x0", self.order)
        elif self.kind == KIND_GENERAL:
            self._need_matrix("left")
            self._need("x0", self.order)
        else:
            self._need("coeffs", self.order)
            self._need_matrix("m0")

    def _need(self, name: str, length: int) -> None:
        val = getattr(self, name)
        if val is None or len(val) != length or not all(isinstance(v, int) for v in val):
            raise InvalidKeyError(f"{self.kind} key needs integer field {name!r} of length {length}")

    def _need_matrix(self, name: str) -> None:
        val = getattr(self, name)
        if val is None or len(val) != self.order or any(
            len(row) != self.order or not all(isinstance(v, int) for v in row) for row in val
        ):
            raise InvalidKeyError(f"{self.kind} key needs a {self.order}x{self.order} integer field {name!r}")

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
    return CodingKey(KIND_SYMMETRIC, len(coeffs), index,
                     coeffs=tuple(int(c) for c in coeffs), x0=tuple(int(v) for v in x0))


def general_key(left: Sequence[Sequence[int]], x0: Sequence[int], index: int) -> CodingKey:
    k = exactmat.dim(left)
    return CodingKey(KIND_GENERAL, k, index,
                     left=tuple(tuple(int(v) for v in row) for row in left),
                     x0=tuple(int(v) for v in x0))


def right_form_key(coeffs: Sequence[int], m0: Sequence[Sequence[int]], index: int) -> CodingKey:
    k = exactmat.dim(m0)
    if len(coeffs) != k:
        raise InvalidKeyError("coefficient count must match the initial matrix dimension")
    return CodingKey(KIND_RIGHT, k, index,
                     coeffs=tuple(int(c) for c in coeffs),
                     m0=tuple(tuple(int(v) for v in row) for row in m0))


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

def canonical_key_dict(key: CodingKey) -> dict:
    """Canonical serialization; every integer leaf is a decimal string."""
    out: dict = {"format": "rmc-key-v1", "kind": key.kind, "order": key.order,
                 "index": str(key.index)}
    if key.coeffs is not None:
        out["coefficients"] = [str(c) for c in key.coeffs]
    if key.left is not None:
        out["left_matrix"] = [[str(v) for v in row] for row in key.left]
    if key.x0 is not None:
        out["initial_vector"] = [str(v) for v in key.x0]
    if key.m0 is not None:
        out["initial_matrix"] = [[str(v) for v in row] for row in key.m0]
    return out


def key_fingerprint(key: CodingKey) -> str:
    blob = json.dumps(canonical_key_dict(key), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodingMatrix:
    n: int
    entries: tuple[tuple[int, ...], ...]
    fingerprint: str

    def rows(self) -> IntMatrix:
        return [list(row) for row in self.entries]


class MatrixBuilder:
    """Per-key cache of row sequences, forward and backward.

    Rows of M_0 seed one sequence each; M_n windows are read off the
    cached terms, and negative indices (needed for inverses) extend the
    rational backward cache.  Not safe for concurrent mutation: use one
    builder per thread or synchronize externally.
    """

    def __init__(self, key: CodingKey):
        self.key = key
        self.rec = key.recurrence()
        self.m0 = key.initial()
        if exactmat.det_exact(self.m0) == 0:
            raise InvalidKeyError("initial matrix is singular (initial vector not cyclic)")
        self._m0_inv: Optional[RatMatrix] = None
        k = key.order
        # Forward cache: ascending terms X_0 .. X_top per row; row i of M_0
        # is the descending window (X_{k-1}, ..., X_0).
        self._fwd: list[list[int]] = [list(reversed(row)) for row in self.m0]
        self._bwd: list[list[Fraction]] = [[] for _ in range(k)]
        self._inv_cache: dict[int, RatMatrix] = {}

    @property
    def order(self) -> int:
        return self.key.order

    @property
    def m0_inverse(self) -> RatMatrix:
        if self._m0_inv is None:
            self._m0_inv = exactmat.inverse_exact(self.m0)
        return self._m0_inv

    def _ensure_forward(self, row: int, idx: int) -> None:
        seq = self._fwd[row]
        if idx < len(seq):
            return
        need = idx - len(seq) + 1
        seed = tuple(reversed(seq[-self.order:]))
        seq.extend(extend_forward(self.rec, seed, need)[self.order:])

    def _ensure_backward(self, row: int, depth: int) -> None:
        back = self._bwd[row]
        while len(back) < depth:
            m = -len(back)  # lowest index already available for this row
            window = [self.term(row, m + self.order - 1 - t) for t in range(self.order)]
            back.append(step_backward(self.rec, window))

    def term(self, row: int, idx: int):
        """Sequence term X_idx of the given row; Fraction for negative idx."""
        if idx >= 0:
            self._ensure_forward(row, idx)
            return self._fwd[row][idx]
        self._ensure_backward(row, -idx)
        return self._bwd[row][-idx - 1]

    def matrix(self, n: int) -> list[list]:
        """M_n rows: descending windows (X_{n+k-1}, ..., X_n) per row."""
        k = self.order
        return [[self.term(i, n + k - 1 - j) for j in range(k)] for i in range(k)]

    def inverse(self, n: int) -> RatMatrix:
        """Exact inverse of M_n through the backward extension."""
        if n not in self._inv_cache:
            minus = self.matrix(-n)
            m0i = self.m0_inverse
            prod = exactmat.mat_mul(exactmat.mat_mul(m0i, minus), m0i)
            self._inv_cache[n] = [[Fraction(x) for x in row] for row in prod]
        return self._inv_cache[n]


def coding_matrix(key: CodingKey, n: Optional[int] = None) -> CodingMatrix:
    if n is None:
        n = key.index
    if n < 0:
        raise ValueError("coding_matrix is defined for n >= 0")
    builder = MatrixBuilder(key)
    entries = tuple(tuple(int(v) for v in row) for row in builder.matrix(n))
    return CodingMatrix(n=n, entries=entries, fingerprint=key_fingerprint(key))


def coding_matrix_inverse(key: CodingKey, n: Optional[int] = None) -> RatMatrix:
    if n is None:
        n = key.index
    return MatrixBuilder(key).inverse(n)


# ---------------------------------------------------------------------------
# compiled keys
# ---------------------------------------------------------------------------

def column_ratio_bounds(m: Sequence[Sequence[int]], j: int, jp: int):
    """Extreme ratios m[l][j] / m[l][jp] over the rows l, as exact rationals.

    A ratio with zero denominator counts as +/- infinity with the sign of
    the numerator; 0/0 rows are dropped.  Returns (minimum, maximum).
    """
    lo = None
    hi = None
    for row in m:
        num, den = row[j], row[jp]
        if den == 0:
            if num == 0:
                continue
            val = math.inf if num > 0 else -math.inf
        else:
            val = Fraction(num, den)
        if lo is None or val < lo:
            lo = val
        if hi is None or val > hi:
            hi = val
    if lo is None:
        raise ValueError("no comparable rows: both columns are zero")
    return lo, hi


@dataclass(frozen=True, eq=False)
class KeyContext:
    """A key compiled for one index n: the per-key data every block shares.

    M_n and its columns are built on construction.  The integer-scaled
    inverse, the transition ratio tau with its powers, and the table of
    column-ratio bounds are computed on first use, so encryption never
    pays for an inverse or a root solve.  Build one per command and pass
    it wherever a CodingKey is accepted; like MatrixBuilder it is meant
    for one thread.
    """

    key: CodingKey
    n: Optional[int] = None        # None: the key's own index
    precision: Optional[int] = None
    matrix: tuple[tuple[int, ...], ...] = field(init=False)
    columns: tuple[tuple[int, ...], ...] = field(init=False)
    _builder: MatrixBuilder = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n is None:
            object.__setattr__(self, "n", self.key.index)
        builder = MatrixBuilder(self.key)
        matrix = tuple(tuple(row) for row in builder.matrix(self.n))
        object.__setattr__(self, "_builder", builder)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "columns", tuple(zip(*matrix)))

    @property
    def order(self) -> int:
        return self.key.order

    @cached_property
    def scaled_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(columns of mint, denom): M_n**-1 == mint / denom exactly, with
        denom the least common denominator of the inverse's entries."""
        minv = self._builder.inverse(self.n)
        denom = math.lcm(*(f.denominator for row in minv for f in row))
        mint = [[int(f * denom) for f in row] for row in minv]
        return tuple(zip(*mint)), denom

    @cached_property
    def tau(self):
        """Transition ratio of the key's recurrence, at the context's precision."""
        return spectral.transition_ratio(self.key.recurrence(), self.precision)

    @cached_property
    def tau_powers(self) -> dict:
        """tau**d for |d| < k, evaluated in the mpmath context of the first use."""
        k = self.order
        return {d: self.tau ** d for d in range(1 - k, k)}

    @cached_property
    def ratio_bounds(self) -> dict:
        """column_ratio_bounds(M_n, j, jp) for every ordered pair j != jp."""
        k = self.order
        return {(j, jp): column_ratio_bounds(self.matrix, j, jp)
                for j in range(k) for jp in range(k) if j != jp}


KeyLike = Union[CodingKey, KeyContext]


def key_context(key: KeyLike, n: Optional[int] = None,
                precision: Optional[int] = None) -> KeyContext:
    """The argument itself when it is already a KeyContext, else the key
    compiled for index n (default: the key's own index)."""
    if isinstance(key, KeyContext):
        if (n is not None and n != key.n) or (precision is not None
                                              and precision != key.precision):
            raise ValueError(f"context compiled for n = {key.n}, precision = "
                             f"{key.precision}; got n = {n}, precision = {precision}")
        return key
    return KeyContext(key, n, precision)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckItem:
    name: str
    status: str          # pass / fail / warn / indeterminate
    detail: str = ""
    hard: bool = False   # hard failures make the key unusable for decryption


@dataclass
class KeyReport:
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


def validate_key(key: CodingKey, precision: Optional[int] = None,
                 tau_cap: float = 3.0) -> KeyReport:
    """Structured feasibility report: invertibility, cyclicity, spectral
    verdicts, a transition-ratio cap, and eventual positivity of M_n."""
    items: list[CheckItem] = []
    rec = key.recurrence()

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

    spf_target = right_companion(rec) if key.kind == KIND_RIGHT else key.left_matrix()
    spf = spectral.is_strong_perron_frobenius(spf_target, precision)
    status = {"yes": "pass", "no": "fail", "indeterminate": "indeterminate"}[spf.verdict]
    items.append(CheckItem("strong_perron_frobenius", status, spf.reason))

    try:
        pisot = spectral.is_pisot(rec.char_poly(), precision)
    except ValueError:
        pisot = "no"  # zero free term: singular, certainly not Pisot
    items.append(CheckItem("pisot",
                           {"yes": "pass", "no": "fail", "indeterminate": "indeterminate"}[pisot]))

    if spf.tau is not None:
        within = float(spf.tau) <= tau_cap
        items.append(CheckItem("tau_within_cap", "pass" if within else "warn",
                               f"tau = {float(spf.tau):.6g}, cap = {tau_cap:g}"))
    else:
        items.append(CheckItem("tau_within_cap", "indeterminate", "no dominant eigenvalue"))

    items.append(_positivity_check(key))
    return KeyReport(items)


def _positivity_check(key: CodingKey, horizon: int = 300) -> CheckItem:
    try:
        builder = MatrixBuilder(key)
    except InvalidKeyError as exc:
        return CheckItem("entries_eventually_positive", "indeterminate", str(exc))
    for n in range(horizon):
        m = builder.matrix(n)
        if all(v > 0 for row in m for v in row):
            nxt = builder.matrix(n + 1)
            if all(v > 0 for row in nxt for v in row):
                return CheckItem("entries_eventually_positive", "pass", f"positive from n = {n}")
        if all(v < 0 for row in m for v in row):
            nxt = builder.matrix(n + 1)
            if all(v < 0 for row in nxt for v in row):
                return CheckItem("entries_eventually_positive", "fail",
                                 "entries stabilize negative; negate the initial data")
    return CheckItem("entries_eventually_positive", "indeterminate",
                     f"no stable sign within n <= {horizon}")
