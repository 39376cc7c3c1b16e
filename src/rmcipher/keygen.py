"""Randomized and structured generation of feasible coding keys.

Four routes:

* sieve_companion   - draw recurrence coefficients at random,
* abt_keygen        - the classical two-parameter families of Pisot
                      polynomials near the multinacci limit points,
* primitive_growth  - grow a primitive 0/1 seed matrix by random
                      increments,
* right_form_keygen - pair a right companion matrix with a random
                      nonnegative invertible initial matrix.

Each keeps a candidate by one rule (_spectrum_fault) and, but for
right-form, emits its key by one step (_emit).

Every emitted key passes validate_key's hard checks by construction (a_0
or det L nonzero, M_0 invertible).  Streams are deterministic in the
configured seed: each candidate draws from its own sub-seeded generator
(derive_seed), so streams can be reproduced and split across workers.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional

from . import exactmat, spectral
from .coding import (TAU_CAP, CodingKey, general_key, is_cyclic, left_companion,
                     right_companion, right_form_key, symmetric_key)
from .coding import validate_key  # noqa: F401 - bound for perfbench's tracer (test_perfbench)
from .exactmat import IntMatrix, IntPolynomial
from .records import FrozenRecord, Record
from .recurrence import Recurrence
from .spectral import VARIANT_BINOMIAL, VARIANT_GEOMETRIC, VERDICT_YES, SpectralReport


def derive_seed(master: int, label: str, index: int) -> int:
    """Documented split function: child seeds are the first 8 bytes of
    blake2b over "master:label:index"."""
    digest = hashlib.blake2b(f"{master}:{label}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class GenConfig(FrozenRecord):
    _fields = ("order", "coeff_range", "tau_cap", "require_pisot", "seed", "budget",
               "index_range")

    def __init__(self, order: int, coeff_range: tuple[int, int] = (-2, 2), tau_cap: float = TAU_CAP,
                 require_pisot: bool = False, seed: int = 0, budget: int = 1000,
                 index_range: tuple[int, int] = (16, 48)) -> None:
        if order < 2:
            raise ValueError("order must be at least 2")
        if coeff_range[0] > coeff_range[1]:
            raise ValueError("coefficient range is empty")
        if not 0 <= index_range[0] <= index_range[1]:
            raise ValueError(f"index range {index_range} is empty or negative")
        if budget < 1:
            raise ValueError("budget must be at least 1")
        vars(self).update(order=order, coeff_range=coeff_range, tau_cap=tau_cap,
                          require_pisot=require_pisot, seed=seed, budget=budget,
                          index_range=index_range)


class GenStats(Record):
    _fields = ("tried", "emitted", "rejected")

    def __init__(self, tried: int = 0, emitted: int = 0,
                 rejected: Optional[dict[str, int]] = None) -> None:
        self.tried, self.emitted = tried, emitted
        self.rejected = {} if rejected is None else rejected

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {"tried": self.tried, "emitted": self.emitted, "rejected": dict(self.rejected)}


class GeneratedKey(NamedTuple):
    key: CodingKey
    report: SpectralReport


VECTOR_RANGE = (0, 9)     # entries of a drawn initial vector or matrix
_RETRIES = 256            # draws before a rejection sampler gives up


class CyclicVectorError(RuntimeError):
    """Rejection sampling found no cyclic vector; the matrix may be derogatory."""


def random_cyclic_vector(left: IntMatrix, lo: int, hi: int,
                         rng: random.Random) -> tuple[int, ...]:
    """Rejection-sample an integer vector from [lo, hi] until it is cyclic."""
    k = len(left)
    for _ in range(_RETRIES):
        vec = tuple(rng.randint(lo, hi) for _ in range(k))
        if any(vec) and is_cyclic(left, vec):
            return vec
    raise CyclicVectorError(
        f"no cyclic vector found in {_RETRIES} draws; the matrix may be derogatory")


def _spectrum_fault(report: SpectralReport, cfg: GenConfig) -> Optional[str]:
    """The acceptance rule of every method: the GenStats name of the first
    check failed (SPF, tau <= tau_cap, Pisot under require_pisot), or None."""
    if report.is_spf != VERDICT_YES:
        return "not_spf"
    if report.tau > cfg.tau_cap:
        return "tau_above_cap"
    return "not_pisot" if cfg.require_pisot and report.is_pisot != VERDICT_YES else None


def _accept(report: SpectralReport, cfg: GenConfig, what: str) -> None:
    """The acceptance rule of a single candidate, the matrix `what`: its failure raised."""
    fault = _spectrum_fault(report, cfg)
    if fault == "not_spf":
        raise spectral.DominantRootError(
            f"{what} lacks the strong Perron-Frobenius property: {report.spf_reason}")
    if fault:
        check = "the cap on tau" if fault == "tau_above_cap" else "the Pisot check"
        raise ValueError(f"{what} fails {check}: tau {spectral.to_float(report.tau):.5f}, "
                         f"cap {cfg.tau_cap}, Pisot verdict {report.is_pisot}")


def _emit(left: IntMatrix, make_key: Callable, report: SpectralReport, rng: random.Random,
          cfg: GenConfig) -> GeneratedKey:
    """make_key(x0, index), x0 a random cyclic vector of left, then a random index."""
    x0 = random_cyclic_vector(left, *VECTOR_RANGE, rng)
    return GeneratedKey(make_key(x0, rng.randint(*cfg.index_range)), report)


def _two_roots_outside(rec: Recurrence) -> bool:
    """Exactly: at least two roots of the characteristic polynomial lie
    strictly outside the unit circle, so no root solve can call it Pisot.
    One integer Schur-Cohn pass; a degenerate table proves nothing."""
    inside = exactmat.roots_in_unit_disk(rec.char_poly())
    return inside is not None and inside < rec.order - 1


def sieve_companion(cfg: GenConfig, stats: Optional[GenStats] = None) -> Iterator[GeneratedKey]:
    """Draw coefficient vectors uniformly (a_0 forced nonzero) and keep
    the spectrally feasible ones, paired with a random cyclic vector.
    Under require_pisot a candidate with two roots outside the unit
    circle is rejected as not_pisot before its root solve."""
    stats = stats if stats is not None else GenStats()
    lo, hi = cfg.coeff_range
    for i in range(cfg.budget):
        rng = random.Random(derive_seed(cfg.seed, "sieve", i))
        stats.tried += 1
        coeffs = [rng.randint(lo, hi) for _ in range(cfg.order)]
        if coeffs[0] == 0:
            nonzero = [v for v in range(lo, hi + 1) if v != 0]
            if not nonzero:
                stats.reject("a0_zero")
                continue
            coeffs[0] = rng.choice(nonzero)
        rec = Recurrence(tuple(coeffs))
        if cfg.require_pisot and _two_roots_outside(rec):
            stats.reject("not_pisot")
            continue
        report = spectral.analyze_recurrence(rec)
        if fault := _spectrum_fault(report, cfg):
            stats.reject(fault)
            continue
        try:
            gen = _emit(left_companion(rec), partial(symmetric_key, coeffs), report, rng, cfg)
        except CyclicVectorError:
            stats.reject("no_cyclic_vector")
            continue
        stats.emitted += 1
        yield gen


# ---------------------------------------------------------------------------
# multinacci-limit Pisot families
# ---------------------------------------------------------------------------

class AbtFamilyResult(NamedTuple):
    poly: IntPolynomial
    report: SpectralReport
    removed_factors: list[str]


def multinacci_poly(r: int) -> IntPolynomial:
    """z**(r+1) - z**r - ... - z - 1, the (r+1)-step multinacci polynomial."""
    return [1] + [-1] * (r + 1)


def abt_family(r: int, m: int, sign: int = -1,
               variant: str = VARIANT_BINOMIAL) -> AbtFamilyResult:
    """Pisot-family polynomial z**m * Psi_r(z) +/- q(z), trivial factors removed.

    q(z) is z**(r+1) - 1 for the binomial variant and the geometric sum
    1 + z + ... + z**(r-1) otherwise.  Factors (z - 1) and (z + 1) are
    divided out while they divide exactly; any other non-Pisot outcome
    is reported in the spectral verdict, not repaired.
    """
    if r < 1 or m < 1:
        raise ValueError("family parameters r and m must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if variant == VARIANT_BINOMIAL:
        q = [1] + [0] * r + [-1]
    elif variant == VARIANT_GEOMETRIC:
        q = [1] * r
    else:
        raise ValueError(f"unknown variant {variant!r}")
    base = exactmat.poly_mul(multinacci_poly(r), [1] + [0] * m)
    poly = exactmat.poly_add(base, exactmat.poly_scale(q, sign))
    removed: list[str] = []
    for factor, label in (([1, -1], "z-1"), ([1, 1], "z+1")):
        while exactmat.poly_degree(poly) > 2:
            quot, rem = exactmat.poly_divide(poly, factor)
            if rem == [0] and all(isinstance(c, int) for c in quot):
                poly = quot
                removed.append(label)
            else:
                break
    companion = left_companion(Recurrence.from_char_poly(poly))
    return AbtFamilyResult(poly=poly, report=spectral.analyze_matrix(companion),
                           removed_factors=removed)


def abt_keygen(r: int, m: int, sign: int, variant: str, cfg: GenConfig) -> GeneratedKey:
    """Symmetric key of the abt_family polynomial, if it passes the rule."""
    fam = abt_family(r, m, sign, variant)
    _accept(fam.report, cfg, "family polynomial's companion matrix")
    rec = Recurrence.from_char_poly(fam.poly)
    rng = random.Random(derive_seed(cfg.seed, "abt-x0", 0))
    return _emit(left_companion(rec), partial(symmetric_key, rec.coeffs), fam.report, rng, cfg)


# ---------------------------------------------------------------------------
# primitive growth
# ---------------------------------------------------------------------------

def primitive_seed(order: int) -> IntMatrix:
    """The default seed of primitive_growth: the companion matrix of
    z**k - z**j - 1, j = k - 2 for odd k and 1 for even k, whose graph has
    cycles of the coprime lengths k - j and k, so it is primitive."""
    coeffs = [1] + [0] * (order - 1)
    coeffs[order - 2 if order % 2 else 1] = 1
    return left_companion(Recurrence(coeffs))


def primitive_growth(seed01: IntMatrix, cfg: GenConfig,
                     stats: Optional[GenStats] = None) -> Iterator[GeneratedKey]:
    """Grow a primitive 0/1 seed by sparse random increments.

    Increments hit an entry with probability proportional to
    1/(1 + value), keeping the matrices sparse; candidates whose row-sum
    and column-sum bounds both blow past twice the cap are discarded
    early, and the exact dominant root decides acceptance.  Larger
    entries never break primitivity, so the seed's certificate carries
    over.
    """
    if not spectral.is_primitive(seed01):
        raise ValueError("seed matrix must be primitive")
    stats = stats if stats is not None else GenStats()
    k = len(seed01)
    hi_entry = max(1, cfg.coeff_range[1])
    base_rate = 0.3
    for i in range(cfg.budget):
        rng = random.Random(derive_seed(cfg.seed, "primitive", i))
        stats.tried += 1
        m = [row[:] for row in seed01]
        for _ in range(rng.randint(1, 3)):
            for r in range(k):
                for c in range(k):
                    if m[r][c] < hi_entry and rng.random() < base_rate / (1 + m[r][c]):
                        m[r][c] += 1
        max_row = max(sum(row) for row in m)
        max_col = max(sum(col) for col in zip(*m))
        if min(max_row, max_col) > 2 * cfg.tau_cap:
            stats.reject("sum_bound")
            continue
        if exactmat.det_exact(m) == 0:
            stats.reject("singular")
            continue
        report = spectral.analyze_matrix(m)
        if fault := _spectrum_fault(report, cfg):
            stats.reject(fault)
            continue
        try:
            gen = _emit(m, partial(general_key, m), report, rng, cfg)
        except CyclicVectorError:
            stats.reject("no_cyclic_vector")
            continue
        stats.emitted += 1
        yield gen


# ---------------------------------------------------------------------------
# right companion form
# ---------------------------------------------------------------------------

def right_form_keygen(rec: Recurrence, cfg: GenConfig) -> GeneratedKey:
    """Key from a right companion matrix that passes the acceptance rule
    and a random nonnegative invertible initial matrix."""
    if rec.a0 == 0:
        raise ValueError("right companion matrix is singular (a_0 = 0)")
    report = spectral.analyze_matrix(right_companion(rec))
    _accept(report, cfg, "right companion matrix")
    rng = random.Random(derive_seed(cfg.seed, "right_form", 0))
    for _ in range(_RETRIES):
        m0 = [[rng.randint(*VECTOR_RANGE) for _ in range(rec.order)] for _ in range(rec.order)]
        if exactmat.det_exact(m0) != 0:
            break
    else:
        raise RuntimeError(f"no invertible nonnegative initial matrix in {_RETRIES} draws")
    key = right_form_key(rec.coeffs, m0, rng.randint(*cfg.index_range))
    return GeneratedKey(key, report)
