"""Command-line surface: key generation, analysis, encryption, decryption,
channel simulation, error detection/correction, and a Monte-Carlo benchmark.

Exit codes: 0 success, 2 validation failure (bad key or file, fingerprint
mismatch), 3 corruption detected but not uniquely corrected, 4 candidate
budget exhausted.  Column and row indices in reports are 0-based.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import cipher, formats, guard, keygen, spectral
from .coding import (KIND_RIGHT, CodingKey, KeyContext, key_fingerprint, left_companion,
                     right_companion, validate_key)
from .formats import ErrorModel
from .keygen import GenConfig, GenStats
from .recurrence import Recurrence

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNCORRECTED = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _parse_int_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"{what} must be two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _load_key(path: str) -> CodingKey:
    try:
        return formats.load_key(path)
    except (formats.KeyFormatError, formats.FingerprintMismatchError, OSError) as exc:
        raise CliError(f"cannot load key {path}: {exc}") from exc


def _load_cipher_checked(path: str, key: CodingKey) -> formats.CipherText:
    try:
        ct = formats.load_cipher(path)
    except (formats.CipherFormatError, OSError) as exc:
        raise CliError(f"cannot load ciphertext {path}: {exc}") from exc
    fp = key_fingerprint(key)
    if ct.fingerprint != fp:
        raise CliError(f"fingerprint mismatch: ciphertext carries {ct.fingerprint}, key is {fp}")
    if ct.order != key.order:
        raise CliError(f"dimension mismatch: ciphertext k={ct.order}, key k={key.order}")
    return ct


def _receiver_context(key: CodingKey, n: Optional[int] = None) -> KeyContext:
    """The key compiled for detection and correction, tau included: a key
    without a simple positive dominant root cannot check ciphertexts."""
    ctx = KeyContext(key, n)
    try:
        ctx.tau  # solved here, once, so that a bad key fails before any block
    except (spectral.DominantRootError, spectral.RootFindingError) as exc:
        raise CliError(f"key cannot be used to detect errors: {exc}") from exc
    return ctx


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def cmd_keygen(args: argparse.Namespace) -> int:
    cfg = GenConfig(
        order=args.k,
        coeff_range=_parse_int_pair(args.range, "--range"),
        tau_cap=args.tau_max,
        require_pisot=args.pisot,
        seed=args.seed,
        budget=args.budget,
        index_range=_parse_int_pair(args.index_range, "--index-range"),
    )
    stats = GenStats()
    if args.method == "sieve":
        gen = next(keygen.sieve_companion(cfg, stats), None)
        if gen is None:
            raise CliError(f"sieve exhausted its budget with no feasible key: {stats.to_dict()}")
    elif args.method == "abt":
        fam = keygen.abt_family(args.r, args.m, -1 if args.sign == "minus" else 1,
                                args.variant)
        if fam.tau_warning:
            print(f"warning: dominant root {float(fam.report.tau):.5f} exceeds 2",
                  file=sys.stderr)
        rec = Recurrence.from_char_poly(fam.poly)
        rng = random.Random(keygen.derive_seed(args.seed, "abt-x0", 0))
        x0 = keygen.random_cyclic_vector(left_companion(rec), 0, 9, rng)
        index = rng.randint(*cfg.index_range)
        key = CodingKey("symmetric", rec.order, index, coeffs=rec.coeffs, x0=x0)
        gen = keygen.GeneratedKey(key, fam.report, "abt_family", validate_key(key))
    elif args.method == "primitive":
        seed01 = _load_seed_matrix(args.seed_matrix, args.k)
        gen = next(keygen.primitive_growth(seed01, cfg, stats), None)
        if gen is None:
            raise CliError(f"primitive growth emitted no key: {stats.to_dict()}")
    elif args.method == "right-form":
        if not args.coeffs:
            raise CliError("--method right-form requires --coeffs a_0,a_1,...")
        coeffs = tuple(int(c) for c in args.coeffs.split(","))
        gen = keygen.right_form_keygen(Recurrence(coeffs), cfg)
    else:
        raise CliError(f"unknown method {args.method!r}")
    if args.index is not None:
        key = gen.key
        gen.key = CodingKey(key.kind, key.order, args.index, coeffs=key.coeffs,
                            left=key.left, x0=key.x0, m0=key.m0)
    text = json.dumps(formats.key_to_dict(gen.key), indent=2, sort_keys=True) + "\n"
    _write_output(text, args.out)
    if args.stats:
        print(json.dumps(stats.to_dict()), file=sys.stderr)
    return EXIT_OK


def _load_seed_matrix(path: Optional[str], k: int) -> list[list[int]]:
    if path is None:
        # Default seed: the order-k pattern with first row (0, 1, 1, 0...)
        # and a companion subdiagonal, primitive for k >= 3.
        if k == 2:
            return [[1, 1], [1, 0]]
        m = [[0] * k for _ in range(k)]
        m[0][1] = 1
        m[0][k - 1] = 1
        for i in range(1, k):
            m[i][i - 1] = 1
        return m
    data = json.loads(Path(path).read_text())
    return [[int(v) for v in row] for row in data]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    key = _load_key(args.keyfile)
    rec = key.recurrence()
    target = right_companion(rec) if key.kind == KIND_RIGHT else key.left_matrix()
    report = spectral.analyze_matrix(target)
    validation = validate_key(key)
    out: dict = {
        "kind": key.kind,
        "order": key.order,
        "fingerprint": key_fingerprint(key),
        "spectral": report.to_dict(),
        "validation": validation.to_dict(),
        "det_transition": str(_det_transition(key)),
    }
    if args.text is not None:
        plain = args.text.encode()
        table = {}
        for j in range(1, key.order):
            n_star = guard.smallest_unambiguous_n(key, plain, j, j - 1,
                                                  cap=args.cap, row=args.row)
            table[f"{j},{j - 1}"] = n_star
        out["smallest_unambiguous_n"] = table
    if args.json:
        _write_output(json.dumps(out, indent=2) + "\n", args.out)
    else:
        lines = [
            f"kind: {out['kind']}  order: {out['order']}  fingerprint: {out['fingerprint']}",
            f"tau = {out['spectral']['tau']}",
            f"sigma = {out['spectral']['sigma']}",
            f"strong Perron-Frobenius: {out['spectral']['spf']}",
            f"Pisot: {out['spectral']['pisot']}",
            f"primitive: {out['spectral']['primitive']}",
            f"det(transition) = {out['det_transition']}",
            "validation: " + ("ok" if validation.ok else "FAILED"),
        ]
        for item in validation.items:
            lines.append(f"  {item.name}: {item.status}" + (f" ({item.detail})" if item.detail else ""))
        if "smallest_unambiguous_n" in out:
            lines.append("smallest n with a sub-unit checking range (suspect,reference):")
            for pair, n_star in out["smallest_unambiguous_n"].items():
                lines.append(f"  columns ({pair}): {n_star}")
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _det_transition(key: CodingKey):
    from . import exactmat
    if key.kind == KIND_RIGHT:
        return exactmat.det_exact(right_companion(key.recurrence()))
    return exactmat.det_exact(key.left_matrix())


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def cmd_encrypt(args: argparse.Namespace) -> int:
    key = _load_key(args.keyfile)
    data = Path(args.infile).read_bytes()
    blocks, length = cipher.encrypt_bytes(data, KeyContext(key))
    text = formats.cipher_to_text(blocks, length, key.order, key_fingerprint(key))
    _write_output(text, args.out)
    return EXIT_OK


def cmd_decrypt(args: argparse.Namespace) -> int:
    key = _load_key(args.keyfile)
    ct = _load_cipher_checked(args.cipherfile, key)
    try:
        data = cipher.decrypt(ct.block_list(), KeyContext(key), ct.length)
    except cipher.CorruptionError as exc:
        raise CliError(f"corrupted ciphertext: {exc}", EXIT_UNCORRECTED) from exc
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------

def cmd_corrupt(args: argparse.Namespace) -> int:
    ct = _try_load_cipher(args.cipherfile)
    model = ErrorModel(kind=args.model, count=args.count,
                       magnitude=args.magnitude, seed=args.seed)
    blocks, records = formats.corrupt_blocks(ct.block_list(), model)
    text = formats.cipher_to_text(blocks, ct.length, ct.order, ct.fingerprint)
    _write_output(text, args.out)
    if args.sidecar:
        Path(args.sidecar).write_text(json.dumps({
            "model": {"kind": model.kind, "count": model.count,
                      "magnitude": model.magnitude, "seed": model.seed},
            "corruptions": formats.records_to_json(records),
        }, indent=2) + "\n")
    return EXIT_OK


def _try_load_cipher(path: str) -> formats.CipherText:
    try:
        return formats.load_cipher(path)
    except (formats.CipherFormatError, OSError) as exc:
        raise CliError(f"cannot load ciphertext {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# detect / correct
# ---------------------------------------------------------------------------

def _diagnosis_json(diagnoses) -> list[dict]:
    out = []
    for d in diagnoses:
        out.append({
            "row": d.row,
            "trusted": list(d.trusted),
            "flagged": list(d.flagged),
            "pairs": [{
                "j": p.j, "jp": p.jp,
                "ratio": None if p.ratio is None else f"{p.ratio.numerator}/{p.ratio.denominator}",
                "expected": p.expected,
                "rel_deviation": p.rel_deviation,
                "consistent": p.consistent,
            } for p in d.pairs],
        })
    return out


def cmd_detect(args: argparse.Namespace) -> int:
    key = _load_key(args.keyfile)
    ct = _load_cipher_checked(args.cipherfile, key)
    ctx = _receiver_context(key)
    report = []
    any_flagged = False
    for b, block in enumerate(ct.block_list()):
        diagnoses = guard.detect_errors(block, ctx, tol=args.tol)
        flagged = any(d.flagged for d in diagnoses)
        any_flagged = any_flagged or flagged
        report.append({"block": b, "clean": not flagged,
                       "rows": _diagnosis_json(diagnoses)})
    _write_output(json.dumps({"blocks": report, "clean": not any_flagged},
                             indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_correct(args: argparse.Namespace) -> int:
    key = _load_key(args.keyfile)
    ct = _load_cipher_checked(args.cipherfile, key)
    ctx = _receiver_context(key)
    validator = _printable_ascii if args.printable_ascii else None
    fixed_blocks = []
    report: dict = {"blocks": [], "candidates_tested": 0}
    exit_code = EXIT_OK
    for b, block in enumerate(ct.block_list()):
        diagnoses = guard.detect_errors(block, ctx, tol=args.tol)
        if all(d.clean for d in diagnoses):
            fixed_blocks.append(block)
            report["blocks"].append({"block": b, "status": "clean",
                                     "rows": _diagnosis_json(diagnoses)})
            continue
        try:
            result = guard.correct(block, diagnoses, ctx, budget=args.budget,
                                   validator=validator)
        except guard.GuardError as exc:
            raise CliError(str(exc), EXIT_UNCORRECTED) from exc
        report["candidates_tested"] += result.tested_total
        entry = {
            "block": b,
            "status": "corrected" if result.matrix is not None else "failed",
            "unique": result.unique,
            "tested": result.tested_total,
            "budget_exhausted": result.budget_exhausted,
            "rows": [{
                "row": rc.row,
                "references": {str(j): jp for j, jp in rc.references.items()},
                "ranges": {str(j): {
                    "lower": f"{r.lower.numerator}/{r.lower.denominator}",
                    "upper": f"{r.upper.numerator}/{r.upper.denominator}",
                    "lo": str(r.lo), "hi": str(r.hi),
                    "estimate": str(r.estimate), "count": r.count,
                } for j, r in rc.ranges.items()},
                "accepted": [{
                    "values": {str(j): str(v) for j, v in cand.values.items()},
                    "order_index": cand.order_index,
                } for cand in rc.accepted],
                "tested": rc.tested,
            } for rc in result.rows],
        }
        report["blocks"].append(entry)
        if result.budget_exhausted:
            exit_code = EXIT_BUDGET
            fixed_blocks.append(block)
        elif result.matrix is None:
            exit_code = max(exit_code, EXIT_UNCORRECTED)
            fixed_blocks.append(block)
        else:
            if not result.unique:
                exit_code = max(exit_code, EXIT_UNCORRECTED)
            fixed_blocks.append(result.matrix)
    if args.out:
        formats.save_cipher(fixed_blocks, ct.length, ct.order, ct.fingerprint, args.out)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return exit_code


def _printable_ascii(row: Sequence[int]) -> bool:
    return all(9 <= v <= 126 for v in row)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@dataclass
class TrialOutcome:
    detected: bool
    success: bool
    candidates: int
    range_length: float


def run_bench_trial(ctx: KeyContext, model: ErrorModel, trial_seed: int,
                    plaintext: Optional[bytes] = None) -> TrialOutcome:
    rng = random.Random(trial_seed)
    k = ctx.order
    if plaintext is None:
        data = bytes(rng.randrange(256) for _ in range(k * k))
    else:
        data = plaintext
    blocks, _ = cipher.digitize(data, k)
    original = cipher.encrypt(blocks[:1], ctx)[0]
    corrupted, _records = formats.corrupt_blocks([original], model, seed=trial_seed)
    received = corrupted[0]
    diagnoses = guard.detect_errors(received, ctx)
    if all(d.clean for d in diagnoses):
        changed = received != original
        return TrialOutcome(detected=not changed, success=not changed,
                            candidates=0, range_length=0.0)
    try:
        result = guard.correct(received, diagnoses, ctx)
    except guard.GuardError:
        return TrialOutcome(detected=True, success=False, candidates=0, range_length=0.0)
    lengths = [float(r.upper - r.lower) for rc in result.rows for r in rc.ranges.values()]
    mean_len = sum(lengths) / len(lengths) if lengths else 0.0
    success = result.unique and result.matrix == original
    return TrialOutcome(detected=True, success=success,
                        candidates=result.tested_total, range_length=mean_len)


BENCH_COLUMNS = ["key_fp", "n", "model", "count", "magnitude", "trials", "detected",
                 "success_rate", "mean_candidates", "mean_range_length", "wall_ms"]


def run_bench(key: CodingKey, n_grid: Sequence[int], model: ErrorModel, trials: int,
              seed: int, plaintext: Optional[bytes] = None) -> list[dict]:
    if trials <= 0:
        return []
    rows = []
    fp = key_fingerprint(key)
    for n in n_grid:
        start = time.perf_counter()
        ctx = _receiver_context(key, n)
        trial_seeds = [keygen.derive_seed(seed, f"bench-{n}", t) for t in range(trials)]
        outcomes = [run_bench_trial(ctx, model, s, plaintext) for s in trial_seeds]
        wall = (time.perf_counter() - start) * 1000
        detected = [o for o in outcomes if o.detected and o.candidates > 0]
        n_detected = sum(1 for o in outcomes if o.detected)
        successes = sum(1 for o in outcomes if o.success)
        rows.append({
            "key_fp": fp,
            "n": n,
            "model": model.kind,
            "count": model.count,
            "magnitude": model.magnitude,
            "trials": trials,
            "detected": n_detected,
            "success_rate": successes / trials if trials else 0.0,
            "mean_candidates": (sum(o.candidates for o in detected) / len(detected))
            if detected else 0.0,
            "mean_range_length": (sum(o.range_length for o in detected) / len(detected))
            if detected else 0.0,
            "wall_ms": round(wall, 3),
        })
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    keys = [_load_key(path) for path in args.keyfiles]
    model = ErrorModel(kind=args.model, count=args.count,
                       magnitude=args.magnitude, seed=args.seed)
    n_grid = [int(x) for x in args.n_grid.split(",")] if args.n_grid else None
    plaintext = args.plaintext.encode() if args.plaintext else None
    out_rows: list[dict] = []
    for key in keys:
        grid = n_grid if n_grid else [key.index]
        out_rows.extend(run_bench(key, grid, model, args.trials, args.seed, plaintext))
    target = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        for row in out_rows:
            writer.writerow(row)
    finally:
        if args.out:
            target.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmc",
        description="Matrix encryption over linear recurrent sequences with "
                    "checking-relation error detection and correction.",
        epilog="Exit codes: 0 ok, 2 validation failure, 3 corruption "
               "detected-and-uncorrected, 4 budget exhausted. "
               "RMC_PRECISION_BITS overrides the spectral working precision.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a feasible key")
    p.add_argument("--method", choices=["sieve", "abt", "primitive", "right-form"],
                   default="sieve")
    p.add_argument("--k", type=int, default=3, help="recurrence order")
    p.add_argument("--range", default="-2,2", help="coefficient range lo,hi")
    p.add_argument("--tau-max", type=float, default=3.0, dest="tau_max")
    p.add_argument("--pisot", action="store_true", help="require a Pisot verdict")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--index", type=int, default=None, help="force the key index n")
    p.add_argument("--index-range", default="16,48", dest="index_range")
    p.add_argument("--r", type=int, default=2, help="abt family parameter r")
    p.add_argument("--m", type=int, default=3, help="abt family parameter m")
    p.add_argument("--sign", choices=["plus", "minus"], default="minus")
    p.add_argument("--variant", choices=[keygen.VARIANT_BINOMIAL, keygen.VARIANT_GEOMETRIC],
                   default=keygen.VARIANT_BINOMIAL)
    p.add_argument("--seed-matrix", default=None, help="JSON 0/1 seed matrix (primitive method)")
    p.add_argument("--coeffs", default=None, help="recurrence coefficients a_0,a_1,... (right-form)")
    p.add_argument("--stats", action="store_true", help="print generation statistics to stderr")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("analyze", help="spectral and feasibility report for a key")
    p.add_argument("keyfile")
    p.add_argument("--text", default=None, help="plaintext for the smallest-n table")
    p.add_argument("--row", type=int, default=0, help="plaintext block row for the table")
    p.add_argument("--cap", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("encrypt", help="encrypt a file")
    p.add_argument("keyfile")
    p.add_argument("infile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("keyfile")
    p.add_argument("cipherfile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("corrupt", help="simulate channel errors")
    p.add_argument("cipherfile")
    p.add_argument("--model", choices=list(formats.MODELS), default=formats.MODEL_REPLACE)
    p.add_argument("--count", type=int, default=1, help="corrupted entries per block")
    p.add_argument("--magnitude", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sidecar", default=None, help="write ground truth JSON here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("detect", help="diagnose a received ciphertext")
    p.add_argument("keyfile")
    p.add_argument("cipherfile")
    p.add_argument("--tol", type=float, default=None,
                   help="relative deviation tolerance (default: exact bounds)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("correct", help="detect and correct a received ciphertext")
    p.add_argument("keyfile")
    p.add_argument("cipherfile")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--printable-ascii", action="store_true",
                   help="additionally require printable-ASCII plaintext rows")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--out", default=None, help="write the corrected ciphertext here")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("bench", help="Monte-Carlo correction benchmark (CSV)")
    p.add_argument("keyfiles", nargs="+")
    p.add_argument("--n-grid", default=None, dest="n_grid",
                   help="comma-separated indices (default: the key's own)")
    p.add_argument("--model", choices=list(formats.MODELS), default=formats.MODEL_REPLACE)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--magnitude", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plaintext", default=None,
                   help="fixed plaintext (default: random bytes per trial)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (formats.KeyFormatError, formats.CipherFormatError,
            formats.FingerprintMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
