"""Command-line surface: key generation, analysis, encryption, decryption,
channel simulation, error detection/correction, and a Monte-Carlo benchmark.

Column and row indices in reports are 0-based.

Exit codes, and the exceptions that end in each.  `main` maps them, in
this one place, so that bad input of any kind ends in one of these codes
and never in a traceback; argparse itself exits 2 on bad command-line
syntax.

  0  success.
  2  validation failure.  A CliError with its default code: an unreadable
     or malformed key or ciphertext, a fingerprint or dimension mismatch,
     a key that fails validation, a negative index, or a key whose
     ciphertext entries could pass 4300 digits (coding.writable_matrix;
     keygen too), a key without a simple positive dominant root
     (DominantRootError) where tau is needed.
     Also any ValueError that reaches main (KeyFormatError, CipherFormatError,
     FingerprintMismatchError, InvalidKeyError, bad option values, an abt or
     right-form keygen over --tau-max or not Pisot under --pisot),
     DominantRootError and RootFindingError (keygen on a recurrence
     without the spectral property it needs) and OSError (an output
     file that cannot be written).
  3  CliError(code=3): corruption detected but not uniquely corrected
     (CorruptionError in decrypt, GuardError or an ambiguous or failed
     repair in correct; a flagged entry with no trusted entry whose ratio
     bounds to it are finite, or an empty checking range, is a GuardError).
  4  correct: the candidate budget of a flagged block ran out (--budget
     caps the candidates tested in each flagged block, not in the file).

correct --out writes each uniquely repaired block repaired and every other
block as received: a block with two accepted repairs is not guessed, so
decrypting the output fails (exit 3) where correct did.

Ciphertexts are read and written as bytes, LF line ends on any platform
(formats.read_cipher, format_rows; --out or standard output's buffer).  A
ciphertext is opened once and read a chunk of whole blocks at a time
(UTF-8 whatever the locale, a bad byte named by its offset in the file);
nothing is written until the whole file has been read.  Every command
opens a ciphertext by _ciphertext, which checks the header against the
key and, when the command raises a fault of its own (a corrupted entry, a
key that does not fit, a failed repair), reads and checks the rest of the
file first: so a fault anywhere in the file outranks one met in the rows
and leaves no output file.

detect and correct test each chunk's rows against the checking relations
(guard.failing_rows) and diagnose only the blocks with a failing row
(_flagged_blocks): detect every row of such a block, for its report,
correct only the failing rows, the ones it repairs.  Their JSON reports
give block counts by status and one entry per such block:

  detect   {"blocks": [...], "clean": <no row flagged>,
            "counts": {"clean": B0, "flagged": B1}}; an entry is
           {"block", "clean": false, "rows"}, every row of the block with
           its trusted and flagged columns and its column-pair evidence.
  correct  {"blocks": [...], "candidates_tested": N,
            "counts": {"clean": B0, "corrected": B1, "failed": B2}}; an
           entry is the repair of one block ("status" corrected or failed).

A clean block is only counted: its evidence is the ciphertext itself.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import cache, partial
from itertools import chain, groupby
from pathlib import Path
from typing import TYPE_CHECKING, ContextManager, Iterator, NamedTuple, Optional, Sequence, TextIO

from . import cipher, formats, spectral
from .coding import (TAU_CAP, CodingKey, InvalidKeyError, KeyContext, KeyReport,
                     key_fingerprint, writable_matrix)
from .coding import validate_key  # noqa: F401 - bound for perfbench's tracer (test_perfbench)
from .formats import ErrorModel
from .recurrence import Recurrence

if TYPE_CHECKING:
    from . import guard

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


def _load_validated(path: str) -> tuple[KeyContext, KeyReport]:
    """The key file, validated and compiled for its own index; and that
    validation.  Both read the key's one spectral_report, so a command
    solves the key's polynomial once.  Validation runs before M_n is built,
    and a key whose ciphertexts could not be written is refused
    (coding.writable_matrix)."""
    try:
        key = formats.load_key(path)
        validation = formats.require_valid(key)
        return KeyContext(key), validation
    except (formats.KeyFormatError, formats.FingerprintMismatchError, InvalidKeyError, OSError,
            spectral.RootFindingError) as exc:
        raise CliError(f"cannot load key {path}: {exc}") from exc


def _load_context(path: str) -> KeyContext:
    return _load_validated(path)[0]


def _check_header(header: formats.CipherHeader, key: CodingKey) -> None:
    """CliError unless the ciphertext header belongs to the key."""
    fp = key_fingerprint(key)
    if header.fingerprint != fp:
        raise CliError(f"fingerprint mismatch: ciphertext carries {header.fingerprint}, key is {fp}")
    if header.order != key.order:
        raise CliError(f"dimension mismatch: ciphertext k={header.order}, key k={key.order}")


@contextmanager
def _ciphertext(path: str, key: Optional[CodingKey] = None) -> Iterator:
    """(header, chunks) of a ciphertext file, its header checked against the
    key if one is given, and chunks its matrix rows a chunk of whole blocks
    at a time, each chunk a flat row-major list.  The file is opened once,
    as bytes (formats.read_cipher).

    Faults rank as for a whole-file parse: the file format (anywhere in the
    file), then, given a key, the fingerprint and the dimension, then the
    body's own.  A CliError or ValueError raised in the body is re-raised
    only after the rest of the file has been read and checked.  The body
    writes nothing: an OSError in it would be reported as the file's.
    """
    try:
        with open(path, "rb") as fh:
            header, chunks = formats.read_cipher(fh)
            try:
                if key is not None:
                    _check_header(header, key)
                yield header, chunks
            except (CliError, ValueError):
                for _ in chunks:
                    pass
                raise
    except (formats.CipherFormatError, OSError) as exc:
        raise CliError(f"cannot load ciphertext {path}: {exc}") from exc


def _receiver_context(ctx: KeyContext, n: Optional[int] = None) -> KeyContext:
    """The loaded key compiled for detection and correction at index n
    (default: its own), tau included: a key without a simple positive
    dominant root cannot check ciphertexts."""
    if n is not None and n != ctx.n:
        ctx = KeyContext(ctx.key, n)
    try:
        ctx.tau  # read here, once, so that a bad key fails before any block
    except spectral.DominantRootError as exc:
        raise CliError(f"key cannot be used to detect errors: {exc}") from exc
    return ctx


def _open_output(out: Optional[str], newline: Optional[str] = None) -> ContextManager[TextIO]:
    return open(out, "w", newline=newline) if out else nullcontext(sys.stdout)


def _write_output(text: str, out: Optional[str]) -> None:
    with _open_output(out) as fh:
        fh.write(text)


def _open_bytes_output(out: Optional[str]) -> ContextManager:
    return open(out, "wb") if out else nullcontext(sys.stdout.buffer)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def cmd_keygen(args: argparse.Namespace) -> int:
    from . import keygen
    cfg = keygen.GenConfig(
        order=3 if args.k is None else args.k,
        coeff_range=_parse_int_pair(args.range, "--range"),
        tau_cap=args.tau_max,
        require_pisot=args.pisot,
        seed=args.seed,
        budget=args.budget,
        index_range=_parse_int_pair(args.index_range, "--index-range"),
    )
    stats = keygen.GenStats()
    if args.method == "sieve":
        gen = next(keygen.sieve_companion(cfg, stats), None)
        if gen is None:
            raise CliError(f"sieve exhausted its budget with no feasible key: {stats.to_dict()}")
    elif args.method == "abt":
        gen = keygen.abt_keygen(args.r, args.m, -1 if args.sign == "minus" else 1,
                                args.variant, cfg)
        if gen.report.tau > 2:
            print(f"warning: dominant root {spectral.to_float(gen.report.tau):.5f} exceeds 2",
                  file=sys.stderr)
    elif args.method == "primitive":
        seed01 = (keygen.primitive_seed(cfg.order) if args.seed_matrix is None
                  else _load_seed_matrix(args.seed_matrix))
        gen = next(keygen.primitive_growth(seed01, cfg, stats), None)
        if gen is None:
            raise CliError(f"primitive growth emitted no key: {stats.to_dict()}")
    else:                                # right-form: argparse admits no other method
        if not args.coeffs:
            raise CliError("--method right-form requires --coeffs a_0,a_1,...")
        gen = keygen.right_form_keygen(Recurrence([int(c) for c in args.coeffs.split(",")]), cfg)
    if args.k is not None and gen.key.order != args.k:
        raise CliError(f"--k {args.k} differs from the generated key's order {gen.key.order}")
    key = gen.key if args.index is None else gen.key._replace(index=args.index)
    writable_matrix(key, key.index)      # refuse a key no ciphertext fits
    _write_output(formats.key_text(key), args.out)
    if args.stats:
        print(json.dumps(stats.to_dict()), file=sys.stderr)
    return EXIT_OK


def _load_seed_matrix(path: str) -> list[list[int]]:
    try:
        return formats._int_array(formats.read_json(path), 2, "the seed matrix")
    except (ValueError, OSError) as exc:
        raise CliError(f"cannot load seed matrix {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    ctx, validation = _load_validated(args.keyfile)
    key, report = ctx.key, ctx.report
    if args.text is not None and not 0 <= args.row < key.order:
        raise CliError(f"--row must lie in [0, {key.order}), got {args.row}")
    out: dict = {
        "kind": key.kind,
        "order": key.order,
        "fingerprint": key_fingerprint(key),
        "spectral": report.to_dict(),
        "validation": validation.to_dict(),
        # det A = (-1)**k * det(-A), the free term of det(zI - A)
        "det_transition": str((-1) ** key.order * report.char_poly[-1]),
    }
    if args.text is not None:
        from . import guard
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


# ---------------------------------------------------------------------------
# encrypt / decrypt
# ---------------------------------------------------------------------------

def cmd_encrypt(args: argparse.Namespace) -> int:
    # Written cipher.TABLE_ROWS matrix rows at a time: enough rows for byte tables.
    ctx = _load_context(args.keyfile)
    key, k = ctx.key, ctx.order
    try:
        data = Path(args.infile).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {args.infile}: {exc}") from exc
    plain = cipher.padded(data, k)
    step = cipher.TABLE_ROWS * k
    with _open_bytes_output(args.out) as out:
        out.write(formats.cipher_header(k, len(plain) // (k * k), len(data), key_fingerprint(key)))
        for start in range(0, len(plain), step):
            out.write(formats.format_rows(cipher.encrypt_rows(ctx, plain[start:start + step]), k))
    return EXIT_OK


def cmd_decrypt(args: argparse.Namespace) -> int:
    # The ciphertext is decrypted a chunk of rows at a time, keeping only
    # the plaintext bytes.
    ctx = _load_context(args.keyfile)
    plain = bytearray()
    with _ciphertext(args.cipherfile, ctx.key) as (header, chunks):
        for values in chunks:
            try:
                plain += cipher.decrypt_rows(ctx, values, len(plain) // ctx.order)
            except cipher.CorruptionError as exc:
                raise CliError(f"corrupted ciphertext: {exc}", EXIT_UNCORRECTED) from exc
    del plain[header.length:]
    with _open_bytes_output(args.out) as out:
        out.write(plain)
    return EXIT_OK


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------

def cmd_corrupt(args: argparse.Namespace) -> int:
    with _ciphertext(args.cipherfile) as (header, chunks):
        model = ErrorModel(kind=args.model, count=args.count,
                           magnitude=args.magnitude, seed=args.seed)
        rng = random.Random(model.seed)
        k = header.order
        text = [formats.cipher_header(*header)]
        records: list[formats.CorruptionRecord] = []
        done = 0
        for values in chunks:
            blocks = cipher.split_blocks(values, k)
            for b, block in enumerate(blocks, done):
                records += formats.corrupt_block(block, b, model, rng)
            done += len(blocks)
            text.append(formats.format_rows(
                list(chain.from_iterable(chain.from_iterable(blocks))), k))
    with _open_bytes_output(args.out) as out:
        out.write(b"".join(text))
    if args.sidecar:
        Path(args.sidecar).write_text(json.dumps({
            "model": {"kind": model.kind, "count": model.count,
                      "magnitude": model.magnitude, "seed": model.seed},
            "corruptions": formats.records_to_json(records),
        }, indent=2) + "\n")
    return EXIT_OK


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


def _flagged_blocks(ctx: KeyContext, chunks: Iterator,
                    text: Optional[list[bytes]] = None) -> Iterator:
    """(b, block, rows) for each block of the ciphertext with a row that
    detect_errors flags, b counted from the first block of the file and
    rows the flagged rows of the block, ascending.  The caller may repair
    the block in place; given `text`, the matrix lines of each chunk,
    repairs included, are appended to it."""
    from . import guard
    k = ctx.order
    size = k * k
    first = 0
    for values in chunks:
        for b, rows in groupby(sorted(guard.failing_rows(ctx, values)), key=lambda r: r // k):
            span = slice(b * size, (b + 1) * size)
            block = cipher.split_blocks(values[span], k)[0]
            yield first + b, block, [r % k for r in rows]
            values[span] = chain.from_iterable(block)
        if text is not None:
            text.append(formats.format_rows(values, k))
        first += len(values) // size


def cmd_detect(args: argparse.Namespace) -> int:
    from . import guard
    ctx = _load_context(args.keyfile)
    with _ciphertext(args.cipherfile, ctx.key) as (header, chunks):
        ctx = _receiver_context(ctx)
        found = [{"block": b, "clean": False,
                  "rows": _diagnosis_json(guard.detect_errors(block, ctx))}
                 for b, block, _rows in _flagged_blocks(ctx, chunks)]
    report = {"blocks": found, "clean": not found,
              "counts": {"clean": header.count - len(found), "flagged": len(found)}}
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _correction_json(b: int, result: guard.CorrectionResult) -> dict:
    return {
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


def cmd_correct(args: argparse.Namespace) -> int:
    from . import guard
    ctx = _load_context(args.keyfile)
    k = ctx.order
    found = []
    counts = {"clean": 0, "corrected": 0, "failed": 0}
    tested = 0
    exit_code = EXIT_OK
    with _ciphertext(args.cipherfile, ctx.key) as (header, chunks):
        ctx = _receiver_context(ctx)
        text = [formats.cipher_header(*header)] if args.out else None
        for b, block, rows in _flagged_blocks(ctx, chunks, text):
            validator = (partial(_printable_ascii, header.length, b * k * k)
                         if args.printable_ascii else None)
            try:
                result = guard.correct(block, guard.detect_errors(block, ctx, rows), ctx,
                                       budget=args.budget, validator=validator)
            except guard.GuardError as exc:
                raise CliError(str(exc), EXIT_UNCORRECTED) from exc
            tested += result.tested_total
            found.append(_correction_json(b, result))
            counts[found[-1]["status"]] += 1
            if result.budget_exhausted:
                exit_code = EXIT_BUDGET
            elif result.matrix is None or not result.unique:
                exit_code = max(exit_code, EXIT_UNCORRECTED)
            if result.unique:
                block[:] = result.matrix
    counts["clean"] = header.count - len(found)
    if text is not None:
        Path(args.out).write_bytes(b"".join(text))
    report = json.dumps({"blocks": found, "candidates_tested": tested, "counts": counts},
                        indent=2) + "\n"
    _write_output(report, args.report)
    return exit_code


def _printable_ascii(length: int, block_offset: int, row: int, plain: Sequence[int]) -> bool:
    """Printable ASCII (9..126) before the stored length, zero padding after
    it; block_offset is the byte offset of the block's first entry."""
    start = block_offset + row * len(plain)
    return all(v == 0 if start + j >= length else 9 <= v <= 126
               for j, v in enumerate(plain))


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

class TrialOutcome(NamedTuple):
    detected: bool
    success: bool
    candidates: int
    range_length: float


def run_bench_trial(ctx: KeyContext, model: ErrorModel, trial_seed: int,
                    plaintext: Optional[bytes] = None) -> TrialOutcome:
    from . import guard
    rng = random.Random(trial_seed)
    k = ctx.order
    if plaintext is None:
        data = bytes(rng.randrange(256) for _ in range(k * k))
    else:
        data = plaintext
    blocks, _ = cipher.digitize(data, k)
    original = cipher.encrypt(blocks[:1], ctx)[0]
    trial_model = ErrorModel(model.kind, model.count, model.magnitude, seed=trial_seed)
    received = formats.corrupt_blocks([original], trial_model)[0][0]
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


def run_bench(loaded: KeyContext, n_grid: Sequence[int], model: ErrorModel, trials: int,
              seed: int, plaintext: Optional[bytes] = None) -> list[dict]:
    from . import keygen
    if trials <= 0:
        return []
    rows = []
    fp = key_fingerprint(loaded.key)
    for n in n_grid:
        start = time.perf_counter()
        ctx = _receiver_context(loaded, n)
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
    import csv
    contexts = [_load_context(path) for path in args.keyfiles]
    model = ErrorModel(kind=args.model, count=args.count,
                       magnitude=args.magnitude, seed=args.seed)
    n_grid = [int(x) for x in args.n_grid.split(",")] if args.n_grid else None
    plaintext = args.plaintext.encode() if args.plaintext else None
    out_rows: list[dict] = []
    for ctx in contexts:
        grid = n_grid if n_grid else [ctx.n]
        out_rows.extend(run_bench(ctx, grid, model, args.trials, args.seed, plaintext))
    with _open_output(args.out, newline="") as target:
        writer = csv.DictWriter(target, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(out_rows)
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
    p.add_argument("--k", type=int, default=None,
                   help="recurrence order (default 3; must match a given seed or --coeffs)")
    p.add_argument("--range", default="-2,2", help="coefficient range lo,hi")
    p.add_argument("--tau-max", type=float, default=TAU_CAP, dest="tau_max")
    p.add_argument("--pisot", action="store_true", help="require a Pisot verdict")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--index", type=int, default=None, help="force the key index n")
    p.add_argument("--index-range", default="16,48", dest="index_range")
    p.add_argument("--r", type=int, default=2, help="abt family parameter r")
    p.add_argument("--m", type=int, default=3, help="abt family parameter m")
    p.add_argument("--sign", choices=["plus", "minus"], default="minus")
    p.add_argument("--variant", choices=spectral.ABT_VARIANTS, default=spectral.VARIANT_BINOMIAL)
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
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("correct", help="detect and correct a received ciphertext")
    p.add_argument("keyfile")
    p.add_argument("cipherfile")
    p.add_argument("--budget", type=int, default=10 ** 6,
                   help="candidates to test in each flagged block (exit 4 when "
                        "a block's budget runs out)")
    p.add_argument("--printable-ascii", action="store_true",
                   help="additionally require printable ASCII (9..126) before "
                        "the stored length and zero padding after it")
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
                   help="fixed plaintext; a trial encrypts only its first k*k bytes "
                        "(default: k*k random bytes per trial)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every build leaves reference
    cycles that only a full garbage collection frees."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, spectral.DominantRootError, spectral.RootFindingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
