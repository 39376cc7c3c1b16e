"""The streamed receiver: `rmc detect`/`rmc correct` test each chunk of rows
by exact decryption, diagnose only the blocks with a failing row by the
checking relations, and report block counts plus the entries of those
blocks."""

import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rmcipher import (CheckingRange, KeyContext, checking_range, column_ratio_bounds, correct,
                      detect_errors, digitize, encrypt, general_key, right_form_key, symmetric_key)
from rmcipher.cipher import CorruptionError, decrypt_row, encrypt_rows, failing_rows
from rmcipher.cli import _correction_json, main
from rmcipher.coding import ratio_extremes
from rmcipher.formats import (MODELS, ErrorModel, cipher_from_text, cipher_to_text,
                              corrupt_blocks, load_key, records_to_json, save_key)
from rmcipher.guard import EmptyCheckingRangeError, GuardError, _within


def _shift_plus_identity(k):
    return [[1 if j in (i, (i + 1) % k) else 0 for j in range(k)] for i in range(k)]


def _bidiagonal(k):
    return [[1 if j in (i - 1, i) else 0 for j in range(k)] for i in range(k)]


KEYS = {
    "symmetric-2": symmetric_key((1, 1), (1, 0), 12),
    "symmetric-3": symmetric_key((1, 0, 1), (1, 0, 0), 29),
    "symmetric-5": symmetric_key((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 30),
    "general-3": general_key(_shift_plus_identity(3), (1, 0, 0), 20),
    "general-3-zeros": general_key(_shift_plus_identity(3), (1, 0, 0), 1),   # +inf bounds
    "right_form-3": right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 29),
    "right_form-5-zeros": right_form_key((1, 1, 1, 1, 1), _bidiagonal(5), 2),
}
CONTEXTS = {name: KeyContext(key) for name, key in KEYS.items()}

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150,
                        suppress_health_check=[HealthCheck.too_slow])


def _reference_ratio(num, den):
    """num / den exactly, x/0 as +inf or -inf by the sign of x; None for 0/0."""
    if den == 0:
        return None if num == 0 else (math.inf if num > 0 else -math.inf)
    return Fraction(num, den)


def _reference_ratio_bounds(m, j, jp):
    """The extreme ratios m[l][j] / m[l][jp] over the rows l, as Fractions
    or +/-inf, 0/0 rows dropped: the oracle for ratio_extremes.  They bound
    a ratio of weighted sums only when the weights m[l][jp] share a sign, so
    a column jp with a negative entry and a nonnegative one gives (-inf, inf)."""
    weights = [row[jp] for row in m]
    if any(w < 0 for w in weights) and any(w >= 0 for w in weights):
        return -math.inf, math.inf
    ratios = [r for r in (_reference_ratio(row[j], row[jp]) for row in m) if r is not None]
    if not ratios:
        raise ValueError("no comparable rows")
    return min(ratios), max(ratios)


def cross_bound(bound) -> tuple[int, int]:
    """A ratio bound as integers (num, den) with den >= 0, +/-inf as (+/-1, 0)."""
    if bound in (math.inf, -math.inf):
        return (1 if bound > 0 else -1), 0
    return bound.numerator, bound.denominator


def test_some_bounds_are_infinite():
    """Each context's one bound table against cross_bound of the Fraction
    oracle, and its references against the finite oracle bounds: the
    contexts with +/-inf bounds included."""
    for name in ("general-3-zeros", "right_form-5-zeros"):
        assert any(0 in (b[1], b[3]) for b in CONTEXTS[name].ratio_bounds.values()), name
    for name, ctx in CONTEXTS.items():
        k = ctx.order
        for j, jp in permutations(range(k), 2):
            lo, hi = _reference_ratio_bounds(ctx.matrix, j, jp)
            assert ctx.ratio_bounds[(j, jp)] == cross_bound(lo) + cross_bound(hi), (name, j, jp)
        for j in range(k):
            finite = {t for t in range(k) if t != j
                      and math.inf not in map(abs, _reference_ratio_bounds(ctx.matrix, j, t))}
            nonzero = {t for t in range(k) if t != j and 0 not in ctx.ratio_bounds[(j, t)][1::2]}
            assert set(ctx.reference_columns[j]) == finite == nonzero, (name, j)


SMALL_MATRICES = st.integers(1, 5).flatmap(
    lambda rows: st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                          min_size=rows, max_size=rows))


@DERANDOMIZED
@given(SMALL_MATRICES)
@example([[0, 0], [3, 0], [-2, 0], [1, 2]])     # 0/0, +inf and -inf in one pair
@example([[-3, 0], [0, 0], [3, 0]])             # -inf before +inf
@example([[2, -4], [-1, 2], [0, 0]])            # denominators of both signs: no bound
@example([[2, -4], [-1, -2]])                   # negative denominators
@example([[1, 0], [2, -1]])                     # nonpositive with a zero: no bound
@example([[0, 0], [0, 0]])                      # no comparable row
def test_ratio_extremes_match_the_fraction_oracle(m):
    try:
        lo, hi = _reference_ratio_bounds(m, 0, 1)
    except ValueError:
        with pytest.raises(ValueError):
            ratio_extremes(m, 0, 1)
        return
    assert ratio_extremes(m, 0, 1) == cross_bound(lo) + cross_bound(hi)
    assert column_ratio_bounds(m, 0, 1) == (lo, hi)


@st.composite
def received_rows(draw):
    """A key and rows as a receiver may see them: genuine rows, genuine rows
    with an entry changed (to zero, its negative, a nearby or a huge value),
    and arbitrary rows with zeros and negative entries."""
    name = draw(st.sampled_from(sorted(KEYS)))
    ctx = CONTEXTS[name]
    k = ctx.order
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12),
                      st.just(10 ** 400))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["genuine", "changed", "arbitrary"]))
        if kind == "arbitrary":
            rows.append(draw(st.lists(entry, min_size=k, max_size=k)))
            continue
        row = encrypt_rows(ctx, draw(st.lists(st.integers(0, 255), min_size=k, max_size=k)))
        if kind == "changed":
            j = draw(st.integers(0, k - 1))
            row[j] = draw(st.one_of(st.just(0), st.just(-row[j]),
                                    st.integers(row[j] - 50, row[j] + 50), entry))
        rows.append(row)
    return name, rows


@DERANDOMIZED
@given(received_rows())
def test_chunk_test_flags_the_rows_detect_errors_flags(case):
    """The chunk test names exactly the rows that decrypt_row refuses, and
    among them every row with an entry the checking relations flag."""
    name, rows = case
    ctx = CONTEXTS[name]
    failing = failing_rows(ctx, [v for row in rows for v in row])
    assert failing == {r for r, row in enumerate(rows) if _refused(ctx, row)}
    assert failing >= {d.row for d in detect_errors(rows, ctx) if d.flagged}


def _refused(ctx, row):
    try:
        decrypt_row(ctx, row)
    except CorruptionError:
        return True
    return False


def _reference_within(num, den, lo, hi):
    ratio = _reference_ratio(num, den)
    return ratio is None or lo <= ratio <= hi


def _reference_deviation(num, den, expected):
    ratio = _reference_ratio(num, den)
    if not isinstance(ratio, Fraction):
        return None
    try:
        return abs(float(ratio) / expected - 1.0)
    except OverflowError:
        return None


@DERANDOMIZED
@given(received_rows())
def test_pair_verdicts_match_a_fraction_reference(case):
    """Every pair verdict of detect_errors against a Fraction comparison
    with the oracle bounds, written out here."""
    name, rows = case
    ctx = CONTEXTS[name]
    k = ctx.order
    for row, diag in zip(rows, detect_errors(rows, ctx)):
        assert [(p.j, p.jp) for p in diag.pairs] == list(combinations(range(k), 2))
        for p in diag.pairs:
            num, den = row[p.j], row[p.jp]
            dev = _reference_deviation(num, den, float(ctx.tau_powers[p.jp - p.j]))
            assert p.rel_deviation == dev
            bounds = _reference_ratio_bounds(ctx.matrix, p.j, p.jp)
            assert p.consistent == _reference_within(num, den, *bounds)


BOUNDS = st.one_of(st.sampled_from([-math.inf, math.inf]),
                   st.fractions(min_value=-9, max_value=9, max_denominator=9))


@DERANDOMIZED
@given(st.lists(BOUNDS, min_size=2, max_size=2).map(sorted), st.integers(-9, 9),
       st.integers(-9, 9))
@example([-math.inf, -math.inf], 1, 0)      # +inf against an upper bound of -inf
@example([math.inf, math.inf], -1, 0)       # -inf against a lower bound of +inf
def test_within_matches_the_fraction_reference(bounds, num, den):
    lo, hi = bounds
    assert _within(*cross_bound(lo), *cross_bound(hi), num, den) == \
        _reference_within(num, den, lo, hi)


def test_pair_verdicts_read_x_over_0_by_its_sign_beside_a_zero_column():
    # M_1 = [[2, 1, 1], [3, 1, 0], [3, 2, 1]]: columns 1 over 2 reach +inf.
    ctx = CONTEXTS["general-3-zeros"]
    assert ctx.ratio_bounds[(1, 2)] == (1, 1, 1, 0)
    diagnoses = detect_errors([[2, 1, 0], [-2, -1, 0], [0, 0, 0], [2, 1, -1]], ctx)
    assert [p.consistent for diag in diagnoses for p in diag.pairs if (p.j, p.jp) == (1, 2)] == \
        [True, False, True, False]


@DERANDOMIZED
@given(st.sampled_from(sorted(KEYS)), st.lists(st.integers(0, 255), max_size=200))
@example("right_form-5-zeros", [1, 0, 0, 0, 0])     # the row [2, 1, 1, 0, 0] reads 1/0
@example("general-3-zeros", [0, 1, 0])              # the row [3, 1, 0] reads 3/0 and 1/0
def test_genuine_rows_pass_the_exact_test(name, plain):
    ctx = CONTEXTS[name]
    k = ctx.order
    rows = encrypt_rows(ctx, plain[:len(plain) - len(plain) % k])
    assert failing_rows(ctx, rows) == set()
    assert all(d.clean for d in detect_errors([rows[i:i + k] for i in range(0, len(rows), k)], ctx))


def test_a_ratio_beyond_the_float_range_is_reported_not_raised():
    ctx = CONTEXTS["symmetric-3"]
    row = encrypt_rows(ctx, [65, 76, 71])
    row[1] = 10 ** 400
    (diag,) = detect_errors([row], ctx)
    pair = next(p for p in diag.pairs if (p.j, p.jp) == (1, 2))
    assert pair.rel_deviation is None and not pair.consistent
    assert diag.flagged == (1,)
    assert failing_rows(ctx, row) == {0}


def test_absolute_ranges_hold_every_genuine_entry():
    ctx = CONTEXTS["general-3-zeros"]
    assert ctx.matrix == ((2, 1, 1), (3, 1, 0), (3, 2, 1))
    assert ctx.entry_ranges == ((0, 2040), (0, 1020), (0, 510))
    assert encrypt_rows(ctx, [255] * 3) == [2040, 1020, 510]
    assert CONTEXTS["general-3"].entry_ranges == tuple(
        (0, 255 * sum(col)) for col in CONTEXTS["general-3"].columns)


# The keys of the golden run, the two keys above whose M_n has zero entries
# (+/-inf bounds), and one whose M_n has a negative entry, so that a
# checking range can be cut at the low end of its column's range.
REPAIR_CONTEXTS = {
    **{name: KeyContext(load_key(Path(__file__).parent / "golden" / f"{name}.json"))
       for name in ("k3", "k5", "abt", "primitive", "right")},
    "general-3-zeros": CONTEXTS["general-3-zeros"],
    "right_form-5-zeros": CONTEXTS["right_form-5-zeros"],
    "signed-2": KeyContext(symmetric_key((1, 1), (2, -1), 0)),      # M_0 = [[1, 2], [2, -1]]
}


def _repair(block, diagnoses, ctx):
    """correct's result and its report bytes, or the fault it raised."""
    try:
        result = correct(block, diagnoses, ctx, budget=500)
    except GuardError as exc:
        return type(exc), str(exc)
    return result, json.dumps(_correction_json(0, result), indent=2).encode()


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(REPAIR_CONTEXTS)), st.binary(min_size=1, max_size=80),
       st.sampled_from(MODELS), st.integers(1, 2), st.integers(0, 2 ** 16))
def test_correct_from_the_failing_rows_alone_matches_correct_from_every_row(name, plain, model,
                                                                            count, seed):
    """`rmc correct` diagnoses only the rows failing_rows names; correct
    skips clean rows, so its result and report are those from every row."""
    ctx = REPAIR_CONTEXTS[name]
    blocks, _ = digitize(plain, ctx.order)
    received, _ = corrupt_blocks(encrypt(blocks, ctx),
                                 ErrorModel(kind=model, count=count, seed=seed))
    for block in received:
        every = detect_errors(block, ctx)
        rows = sorted(failing_rows(ctx, [v for row in block for v in row]))
        failing = detect_errors(block, ctx, rows)
        assert failing == [d for d in every if d.row in rows]
        assert _repair(block, failing, ctx) == _repair(block, every, ctx)


def _reference_checking_range(ctx, j, ref, c_ref):
    """checking_range in Fractions from the oracle bounds; None where the
    range holds no integer."""
    ends = sorted(c_ref * bound for bound in _reference_ratio_bounds(ctx.matrix, j, ref))
    col_lo, col_hi = ctx.entry_ranges[j]
    lower, upper = max(ends[0], Fraction(col_lo)), min(ends[1], Fraction(col_hi))
    lo, hi = math.ceil(lower), math.floor(upper)
    if lo > hi:
        return None
    estimate = math.floor(c_ref * ctx.tau_powers[ref - j] + Fraction(1, 2))
    return CheckingRange(lower, upper, lo, hi, min(max(estimate, lo), hi))


def test_checking_range_matches_a_fraction_formula():
    seen = set()
    for name, ctx in {**CONTEXTS, **REPAIR_CONTEXTS}.items():
        for j, ref in permutations(range(ctx.order), 2):
            if ref not in ctx.reference_columns[j]:
                with pytest.raises(ValueError):         # before the sign of the reference
                    checking_range(ctx, j, ref, -1)
                continue
            ref_lo, ref_hi = ctx.entry_ranges[ref]
            col_lo, col_hi = ctx.entry_ranges[j]
            lo_bound, hi_bound = _reference_ratio_bounds(ctx.matrix, j, ref)
            for c_ref in {0, 1, 2, 41, -1, -7, ref_lo, ref_hi, ref_hi // 2, ref_hi // 3, 10 ** 30}:
                expect = _reference_checking_range(ctx, j, ref, c_ref)
                if expect is None:
                    with pytest.raises(EmptyCheckingRangeError):
                        checking_range(ctx, j, ref, c_ref)
                    seen.add("empty")
                    continue
                got = checking_range(ctx, j, ref, c_ref)
                assert got == expect, (name, j, ref, c_ref)
                assert type(got.lower) is type(got.upper) is Fraction
                lower, upper = sorted((c_ref * lo_bound, c_ref * hi_bound))
                seen |= {tag for tag, hit in [("zero", c_ref == 0), ("negative", c_ref < 0),
                                              ("low cut", lower < col_lo),
                                              ("high cut", upper > col_hi)] if hit}
    assert seen == {"zero", "negative", "empty", "low cut", "high cut"}


def test_a_checking_range_estimate_on_an_exact_half_rounds_up():
    # M_1 = [[5, 2], [2, 3]]: against c_ref = 100 in column 1, column 0
    # lies in [200/3, 250].  A power of tau of 135/200 puts the product on
    # 67.5, which rounds up to 68.
    ctx = KeyContext(symmetric_key((1, 1), (3, -1), 1))
    vars(ctx)["tau_powers"] = {**ctx.tau_powers, 1: Fraction(135, 200)}
    rng = checking_range(ctx, 0, 1, 100)
    assert (rng.lo, rng.hi, rng.estimate) == (67, 250, 68)
    assert rng == _reference_checking_range(ctx, 0, 1, 100)


def test_a_transition_ratio_power_beyond_the_float_range_is_reported_as_null(tmp_path):
    # tau = 10**100 passes validation; tau**4 is beyond the float range, so
    # the pairs four columns apart have no expected ratio and no deviation,
    # and the report stays strict JSON.
    key = symmetric_key((1, 0, 0, 0, 10 ** 100), (1, 0, 0, 0, 0), 3)
    keyfile, msg = tmp_path / "k.json", tmp_path / "m.txt"
    save_key(key, keyfile)
    msg.write_bytes(b"ALGORITHM" * 3)
    files = [str(tmp_path / name) for name in ("c.rmc", "bad.rmc", "d.json")]
    assert main(["encrypt", str(keyfile), str(msg), "--out", files[0]]) == 0
    assert main(["corrupt", files[0], "--seed", "1", "--out", files[1]]) == 0
    assert main(["detect", str(keyfile), files[1], "--out", files[2]]) == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    report = json.loads(Path(files[2]).read_text(), parse_constant=refuse)
    pairs = [p for block in report["blocks"] for row in block["rows"] for p in row["pairs"]]
    far = [p for p in pairs if p["jp"] - p["j"] == 4]
    assert far and all(p["expected"] is None and p["rel_deviation"] is None for p in far)
    assert all(p["expected"] is not None for p in pairs if p["jp"] - p["j"] < 4)


# ---------------------------------------------------------------------------
# through the command line
# ---------------------------------------------------------------------------

# Two of the keys have zeros in M_n: a genuine row can then have a zero
# below a nonzero entry, and x/0 is consistent where its bound is infinite.
CLI_KEYS = ["symmetric-3", "general-3", "general-3-zeros", "right_form-3",
            "right_form-5-zeros"]


@pytest.fixture(scope="module")
def keyfiles(tmp_path_factory):
    folder = tmp_path_factory.mktemp("keys")
    paths = {}
    for name in CLI_KEYS:
        paths[name] = folder / f"{name}.json"
        save_key(KEYS[name], paths[name])
    return paths


@settings(derandomize=True, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CLI_KEYS), st.binary(max_size=120))
def test_detect_passes_clean_ciphertexts(keyfiles, tmp_path, name, plain):
    msg, cfile, out = tmp_path / "m.bin", tmp_path / "c.rmc", tmp_path / "d.json"
    msg.write_bytes(plain)
    assert main(["encrypt", str(keyfiles[name]), str(msg), "--out", str(cfile)]) == 0
    assert main(["detect", str(keyfiles[name]), str(cfile), "--out", str(out)]) == 0
    k = KEYS[name].order
    blocks = -(-len(plain) // (k * k))
    assert json.loads(out.read_text()) == {"blocks": [], "clean": True,
                                           "counts": {"clean": blocks, "flagged": 0}}


def _clean_ciphertext(keyfiles, tmp_path, blocks: int):
    msg, cfile = tmp_path / f"m{blocks}.bin", tmp_path / f"c{blocks}.rmc"
    msg.write_bytes(random.Random(blocks).randbytes(9 * blocks))
    assert main(["encrypt", str(keyfiles["symmetric-3"]), str(msg), "--out", str(cfile)]) == 0
    return cfile


def _detect(keyfiles, cfile, out) -> int:
    """The tracemalloc peak of one `rmc detect`."""
    tracemalloc.start()
    try:
        assert main(["detect", str(keyfiles["symmetric-3"]), str(cfile), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_detect_report_and_memory_do_not_grow_with_the_file(keyfiles, tmp_path):
    reports = {}
    for blocks in (40, 400):
        out = tmp_path / f"d{blocks}.json"
        _detect(keyfiles, _clean_ciphertext(keyfiles, tmp_path, blocks), out)
        reports[blocks] = out.read_text()
    assert reports[400] == reports[40].replace('"clean": 40', '"clean": 400')
    # Once the file is past one read batch (64 KiB of text) and one chunk
    # (1024 matrix lines), detect holds a batch and a chunk at a time: four
    # times the blocks, much the same peak.
    peaks = {blocks: _detect(keyfiles, _clean_ciphertext(keyfiles, tmp_path, blocks),
                             tmp_path / "d.json")
             for blocks in (2000, 8000)}
    assert peaks[8000] < 1.1 * peaks[2000], peaks


def test_a_malformed_tail_outranks_a_failed_repair_and_nothing_is_written(keyfiles, tmp_path,
                                                                         capsys):
    # Block 0 gets a row with no consistent column pair, which correct cannot
    # repair (exit 3); the file spans two reader chunks, and a stray line at
    # its end is a format fault (exit 2) that ranks first.
    cfile = _clean_ciphertext(keyfiles, tmp_path, 400)
    lines = cfile.read_text().splitlines()
    lines[1] = "1 1000000 1"
    bad = tmp_path / "bad.rmc"
    out, report = tmp_path / "fixed.rmc", tmp_path / "r.json"
    key = str(keyfiles["symmetric-3"])
    correct = ["correct", key, str(bad), "--out", str(out), "--report", str(report)]
    for tail, code, message in [([], 3, "error: row 0 has no trusted entry"),
                                (["1 2 3"], 2, f"error: cannot load ciphertext {bad}: ")]:
        bad.write_text("\n".join(lines + tail) + "\n")
        out.write_text("kept")
        report.write_text("kept")
        capsys.readouterr()
        assert main(correct) == code
        assert capsys.readouterr().err.startswith(message)
        assert out.read_text() == report.read_text() == "kept"
    assert main(["detect", key, str(bad), "--out", str(out)]) == 2
    assert out.read_text() == "kept"


def test_corrupt_threads_one_generator_across_chunks(keyfiles, tmp_path):
    # 1200 matrix lines: two reader chunks, with block 341 split between them.
    cfile = _clean_ciphertext(keyfiles, tmp_path, 400)
    out, sidecar = tmp_path / "bad.rmc", tmp_path / "truth.json"
    assert main(["corrupt", str(cfile), "--model", "additive_noise", "--count", "2",
                 "--seed", "9", "--out", str(out), "--sidecar", str(sidecar)]) == 0
    header, blocks = cipher_from_text(cfile.read_text())
    expect, records = corrupt_blocks(blocks, ErrorModel(kind="additive_noise", count=2, seed=9))
    assert out.read_text() == cipher_to_text(expect, header.length, header.order,
                                             header.fingerprint)
    assert json.loads(sidecar.read_text())["corruptions"] == records_to_json(records)


def test_an_entry_outside_its_absolute_range_is_flagged_not_trusted(keyfiles, tmp_path):
    # An entry of 10**400 in column 0 meets its +inf ratio bound against the
    # zero of M_1's column 2, so by the ratio tests alone it was trusted and
    # the genuine entry 1 flagged, with ~10**399 candidates to search.
    key = str(keyfiles["general-3-zeros"])
    msg, cfile, bad, report, fixed = (tmp_path / name for name in
                                      ("m.txt", "c.rmc", "bad.rmc", "r.json", "f.rmc"))
    msg.write_bytes(b"ABCDEFGHI")
    assert main(["encrypt", key, str(msg), "--out", str(cfile)]) == 0
    header, first, rest = cfile.read_text().split("\n", 2)
    bad.write_text("\n".join([header, " ".join([str(10 ** 400), *first.split()[1:]]), rest]))
    assert main(["detect", key, str(bad), "--out", str(report)]) == 0
    row = json.loads(report.read_text())["blocks"][0]["rows"][0]
    assert (row["trusted"], row["flagged"]) == ([1, 2], [0])
    assert next(p for p in row["pairs"] if (p["j"], p["jp"]) == (0, 2))["consistent"]
    assert main(["correct", key, str(bad), "--out", str(fixed), "--report", str(report)]) == 3
    (block,) = json.loads(report.read_text())["blocks"]
    assert (block["tested"], block["unique"], block["budget_exhausted"]) == (398, False, False)


def test_every_single_entry_corruption_ends_in_a_repair_exit_code(keyfiles, tmp_path, capsys):
    """Under the keys with zeros in M_n, every corruption of one entry per
    block ends in exit 0, 3 or 4, never 2 and never a traceback: a flagged
    entry reads its range only from a trusted entry with finite bounds.
    Exit codes only: at these small indices an exit 0 may leave an error
    in place (ROADMAP item 4)."""
    msg, cfile, bad = tmp_path / "m.bin", tmp_path / "c.rmc", tmp_path / "bad.rmc"
    outs = ["--out", str(tmp_path / "f.rmc"), "--report", str(tmp_path / "r.json")]
    codes = {}
    for name in ("general-3-zeros", "right_form-5-zeros"):
        key = str(keyfiles[name])
        for m in range(4):
            msg.write_bytes(random.Random(m).randbytes(50))
            assert main(["encrypt", key, str(msg), "--out", str(cfile)]) == 0
            for model in MODELS:
                for seed in range(8):
                    assert main(["corrupt", str(cfile), "--model", model, "--seed", str(seed),
                                 "--out", str(bad)]) == 0
                    code = main(["correct", key, str(bad), *outs])
                    codes[code] = codes.get(code, 0) + 1
    capsys.readouterr()
    assert set(codes) <= {0, 3, 4}, codes
