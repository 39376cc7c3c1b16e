import csv
import json
import random
import re
from pathlib import Path

import pytest

from rmcipher import formats, is_primitive, symmetric_key
from rmcipher.cli import main
from rmcipher.formats import cipher_from_text, cipher_to_text, save_key
from rmcipher.keygen import primitive_seed
from tests.conftest import ALGORITHM, C_ALGORITHM_15


@pytest.fixture
def two_fib_keyfile(tmp_path):
    path = tmp_path / "key.json"
    save_key(symmetric_key((1, 0, 1), (1, 0, 0), 15), path)
    return str(path)


@pytest.fixture
def two_fib_29_keyfile(tmp_path):
    path = tmp_path / "key29.json"
    save_key(symmetric_key((1, 0, 1), (1, 0, 0), 29), path)
    return str(path)


def _write(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_keygen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["keygen", "--method", "sieve", "--k", "3", "--range", "0,2",
            "--seed", "99", "--budget", "500"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_keygen_abt_writes_family_key(tmp_path):
    out = tmp_path / "abt.json"
    assert main(["keygen", "--method", "abt", "--r", "2", "--m", "3",
                 "--seed", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["coefficients"] == ["-1", "0", "0", "2", "1", "1"]


def test_keygen_right_form(tmp_path):
    out = tmp_path / "rf.json"
    assert main(["keygen", "--method", "right-form", "--coeffs", "2,0,1",
                 "--seed", "8", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "right_form"


def test_keygen_primitive(tmp_path):
    out = tmp_path / "prim.json"
    assert main(["keygen", "--method", "primitive", "--k", "3", "--range", "0,2",
                 "--seed", "21", "--budget", "120", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "general"


def _refused(argv, capsys, message):
    """main(argv) exits 2 with one error line that starts with message."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def test_keygen_sieve_that_exhausts_its_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "k.json"
    _refused(["keygen", "--range", "0,0", "--budget", "7", "--out", str(out)], capsys,
             "sieve exhausted its budget with no feasible key: {'tried': 7")
    assert not out.exists()


def test_keygen_primitive_growth_without_a_key_exits_2(tmp_path, capsys):
    out = tmp_path / "k.json"
    _refused(["keygen", "--method", "primitive", "--tau-max", "0.1", "--budget", "5",
              "--out", str(out)], capsys, "primitive growth emitted no key: {'tried': 5")
    assert not out.exists()


def test_keygen_right_form_without_coeffs_exits_2(tmp_path, capsys):
    out = tmp_path / "k.json"
    _refused(["keygen", "--method", "right-form", "--out", str(out)], capsys,
             "--method right-form requires --coeffs a_0,a_1,...")
    assert not out.exists()


@pytest.mark.parametrize("method", [["sieve"], ["abt"], ["primitive"],
                                    ["right-form", "--coeffs", "1,0,1"]])
@pytest.mark.parametrize("index_range", ["5,1", "-5,3"])
def test_keygen_refuses_an_empty_or_negative_index_range(method, index_range, tmp_path, capsys):
    out = tmp_path / "k.json"
    lo, hi = index_range.split(",")
    _refused(["keygen", "--method", *method, f"--index-range={index_range}", "--out", str(out)],
             capsys, f"index range ({lo}, {hi}) is empty or negative")
    assert not out.exists()


def test_analyze_reports_smallest_n(two_fib_keyfile, tmp_path):
    out = tmp_path / "a.json"
    assert main(["analyze", two_fib_keyfile, "--text", "ALGORITHM", "--json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["spectral"]["tau"].startswith("1.4655712318")
    assert data["spectral"]["pisot"] == "yes"
    assert data["smallest_unambiguous_n"]["2,1"] == 29
    assert data["validation"]["ok"] is True


def test_analyze_text_view_lists_the_smallest_n_table(two_fib_keyfile, tmp_path):
    out = tmp_path / "a.txt"
    assert main(["analyze", two_fib_keyfile, "--text", "ALGORITHM", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind: symmetric  order: 3  fingerprint: ")
    assert "validation: ok" in lines
    assert lines[-3:] == ["smallest n with a sub-unit checking range (suspect,reference):",
                          "  columns (1,0): 28", "  columns (2,1): 29"]


def test_analyze_table_of_a_negated_key(tmp_path):
    # x0 = (-1, 0, 0) negates every M_n, so every reference entry is negative.
    keyfile, out = tmp_path / "neg.json", tmp_path / "a.json"
    save_key(symmetric_key((1, 0, 1), (-1, 0, 0), 15), keyfile)
    assert main(["analyze", str(keyfile), "--text", "ALGORITHM", "--json",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["smallest_unambiguous_n"] == {"1,0": 28, "2,1": 29}


def test_analyze_tetranacci_tau(tmp_path):
    keyfile = tmp_path / "tet.json"
    save_key(symmetric_key((1, 1, 1, 1), (1, 0, 0, 0), 5), keyfile)
    out = tmp_path / "a.json"
    assert main(["analyze", str(keyfile), "--json", "--out", str(out)]) == 0
    tau = float(json.loads(out.read_text())["spectral"]["tau"])
    assert abs(tau - 1.927562) < 1e-5


def test_encrypt_decrypt_worked_example(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    _header, blocks = cipher_from_text(cfile.read_text())
    assert blocks == [C_ALGORITHM_15]
    out = tmp_path / "out.bin"
    assert main(["decrypt", two_fib_keyfile, str(cfile), "--out", str(out)]) == 0
    assert out.read_bytes() == ALGORITHM


def test_encrypt_empty_file(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "empty.txt", b"")
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    text = cfile.read_text()
    assert text.count("\n") == 1 and "blocks=0" in text
    out = tmp_path / "out.bin"
    assert main(["decrypt", two_fib_keyfile, str(cfile), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_megabyte_roundtrip(two_fib_keyfile, tmp_path):
    rng = random.Random(8)
    payload = rng.randbytes(1 << 20)
    msg = _write(tmp_path, "big.bin", payload)
    cfile = tmp_path / "big.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    out = tmp_path / "big.out"
    assert main(["decrypt", two_fib_keyfile, str(cfile), "--out", str(out)]) == 0
    assert out.read_bytes() == payload


def test_fingerprint_mismatch_detected(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    other = tmp_path / "other.json"
    save_key(symmetric_key((1, 0, 1), (1, 0, 0), 16), other)
    assert main(["decrypt", str(other), str(cfile), "--out", str(tmp_path / "x")]) == 2


def test_a_header_with_the_keys_fingerprint_and_another_k_exits_2(two_fib_keyfile, tmp_path,
                                                                   capsys):
    fp = json.loads(Path(two_fib_keyfile).read_text())["fingerprint"]
    cfile = _write(tmp_path, "c.rmc", f"RMCv1 k=2 blocks=1 len=4 fp={fp}\n1 2\n3 4\n".encode())
    out = tmp_path / "out"
    _refused(["decrypt", two_fib_keyfile, cfile, "--out", str(out)], capsys,
             "dimension mismatch: ciphertext k=2, key k=3")
    assert not out.exists()


def test_negative_length_header_is_refused(two_fib_keyfile, tmp_path, capsys):
    msg = _write(tmp_path, "msg.bin", random.Random(3).randbytes(3100))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    cfile.write_text(cfile.read_text().replace(" len=3100 ", " len=-7 ", 1))
    out = tmp_path / "plain.bin"
    capsys.readouterr()
    assert main(["decrypt", two_fib_keyfile, str(cfile), "--out", str(out)]) == 2
    assert not out.exists()
    assert "malformed header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decrypt", "detect", "corrupt"])
def test_non_utf8_ciphertext_is_a_format_fault(two_fib_keyfile, tmp_path, capsys, command):
    cfile = _write(tmp_path, "c.rmc", b"RMCv1 k=3 blocks=1 len=9 fp=\xff\xfe\n")
    argv = [command, cfile] if command == "corrupt" else [command, two_fib_keyfile, cfile]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load ciphertext {cfile}: ") and "codec" in err
    assert not out.exists()


@pytest.mark.parametrize("at", [40000, 45000, 50000])
def test_a_decode_error_anywhere_outranks_a_malformed_header(two_fib_keyfile, tmp_path, capsys,
                                                             at):
    # The header and the byte lie in different read batches beyond the first.
    msg = _write(tmp_path, "msg.bin", random.Random(5).randbytes(24000))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    head, body = cfile.read_bytes().split(b"\n", 1)
    data = bytearray(re.sub(rb"blocks=\d+", b"blocks=zz", head) + b"\n" + body)
    assert len(data) > 2 * at
    data[at] = 0xff
    cfile.write_bytes(data)
    capsys.readouterr()
    assert main(["decrypt", two_fib_keyfile, str(cfile), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"codec can't decode byte 0xff in position {at}:" in err
    assert "malformed header" not in err


@pytest.mark.parametrize("command", ["decrypt", "detect", "correct", "corrupt"])
def test_a_decode_error_names_its_offset_in_the_file(two_fib_keyfile, tmp_path, capsys, command):
    # Text reads decode the file a chunk at a time; the byte lies past the first.
    msg = _write(tmp_path, "msg.bin", random.Random(5).randbytes(24000))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    data = bytearray(cfile.read_bytes())
    data[70001] = 0xff
    cfile.write_bytes(data)
    capsys.readouterr()
    argv = [command, str(cfile)] if command == "corrupt" else [command, two_fib_keyfile, str(cfile)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "codec can't decode byte 0xff in position 70001: invalid start byte" in err
    assert not (tmp_path / "out").exists()


HUGE_K = b"RMCv1 k=100000000000000000000 blocks=1 len=0 fp=0\n1\n"


@pytest.mark.parametrize("command", ["decrypt", "detect", "correct", "corrupt"])
def test_a_huge_k_in_the_header_is_a_line_count_fault(two_fib_keyfile, tmp_path, capsys,
                                                       command):
    # The header's k sizes no allocation: the one row falls short of its lines.
    cfile = _write(tmp_path, "c.rmc", HUGE_K)
    argv = [command, cfile] if command == "corrupt" else [command, two_fib_keyfile, cfile]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot load ciphertext {cfile}: "
                                       f"expected 100000000000000000000 matrix lines, found 1\n")
    assert not out.exists()


def test_malformed_key_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2


def test_corrupt_count_zero_is_identity(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)])
    out = tmp_path / "same.rmc"
    assert main(["corrupt", str(cfile), "--count", "0", "--out", str(out)]) == 0
    assert out.read_text() == cfile.read_text()


def test_corrupt_detect_correct_pipeline(two_fib_29_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    corrupted = tmp_path / "bad.rmc"
    sidecar = tmp_path / "truth.json"
    assert main(["corrupt", str(cfile), "--model", "replace_uniform", "--count", "1",
                 "--seed", "5", "--out", str(corrupted), "--sidecar", str(sidecar)]) == 0
    truth = json.loads(sidecar.read_text())
    assert len(truth["corruptions"]) == 1

    detect_out = tmp_path / "d.json"
    assert main(["detect", two_fib_29_keyfile, str(corrupted), "--out", str(detect_out)]) == 0
    diag = json.loads(detect_out.read_text())
    assert diag["clean"] is False
    rec = truth["corruptions"][0]
    flagged = [(r["row"], c) for b in diag["blocks"] for r in b["rows"] for c in r["flagged"]]
    assert (rec["row"], rec["col"]) in flagged

    fixed = tmp_path / "fixed.rmc"
    report = tmp_path / "rep.json"
    assert main(["correct", two_fib_29_keyfile, str(corrupted), "--out", str(fixed),
                 "--report", str(report)]) == 0
    assert fixed.read_text() == cfile.read_text()
    rep = json.loads(report.read_text())
    assert rep["blocks"][0]["status"] == "corrected"
    assert rep["blocks"][0]["unique"] is True


def test_correct_ambiguous_at_small_index(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)])
    corrupted = tmp_path / "bad.rmc"
    main(["corrupt", str(cfile), "--seed", "5", "--out", str(corrupted)])
    fixed = tmp_path / "fixed.rmc"
    report = tmp_path / "rep.json"
    code = main(["correct", two_fib_keyfile, str(corrupted), "--out", str(fixed),
                 "--report", str(report)])
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["blocks"][0]["unique"] is False
    # The block is written as received, not as the first accepted repair.
    assert fixed.read_text() == corrupted.read_text()
    assert main(["decrypt", two_fib_keyfile, str(fixed), "--out", str(tmp_path / "d.txt")]) == 3


def test_correct_clean_input_is_noop(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)])
    fixed = tmp_path / "fixed.rmc"
    report = tmp_path / "rep.json"
    assert main(["correct", two_fib_keyfile, str(cfile), "--out", str(fixed),
                 "--report", str(report)]) == 0
    assert fixed.read_text() == cfile.read_text()
    rep = json.loads(report.read_text())
    assert rep["blocks"] == [] and rep["counts"] == {"clean": 1, "corrected": 0, "failed": 0}


def test_ciphertexts_on_stdout_are_the_bytes_written_with_out(two_fib_keyfile, tmp_path,
                                                              capsysbinary):
    plain = ALGORITHM * 400                          # 1200 rows: two chunks at k=3
    msg = _write(tmp_path, "msg.txt", plain)
    cfile, bad = tmp_path / "c.rmc", tmp_path / "bad.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    assert main(["corrupt", str(cfile), "--seed", "2", "--out", str(bad)]) == 0
    capsysbinary.readouterr()
    assert main(["encrypt", two_fib_keyfile, msg]) == 0
    assert capsysbinary.readouterr().out == cfile.read_bytes()
    assert main(["corrupt", str(cfile), "--seed", "2"]) == 0
    assert capsysbinary.readouterr().out == bad.read_bytes()
    assert main(["decrypt", two_fib_keyfile, str(cfile)]) == 0
    assert capsysbinary.readouterr().out == plain


def test_correct_formats_no_rows_without_out(two_fib_29_keyfile, tmp_path, monkeypatch):
    msg = _write(tmp_path, "msg.txt", ALGORITHM * 40)
    cfile, bad = tmp_path / "c.rmc", tmp_path / "bad.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    assert main(["corrupt", str(cfile), "--seed", "1", "--out", str(bad)]) == 0
    with_out, without = tmp_path / "r1.json", tmp_path / "r2.json"
    code = main(["correct", two_fib_29_keyfile, str(bad), "--out", str(tmp_path / "fixed.rmc"),
                 "--report", str(with_out)])
    calls = []
    monkeypatch.setattr(formats, "format_rows", lambda *args: calls.append(args))
    assert main(["correct", two_fib_29_keyfile, str(bad), "--report", str(without)]) == code
    assert calls == [] and without.read_bytes() == with_out.read_bytes()
    assert json.loads(without.read_text())["counts"]["corrected"] > 0


@pytest.mark.parametrize("command", ["detect", "correct"])
def test_a_tolerance_option_is_bad_syntax(two_fib_keyfile, tmp_path, command):
    # Only the exact checking relations decide a receiver verdict.
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)]) == 0
    with pytest.raises(SystemExit) as exc:
        main([command, two_fib_keyfile, str(cfile), "--tol", "0.01"])
    assert exc.value.code == 2


def test_correct_budget_exhaustion_exit_code(two_fib_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    main(["encrypt", two_fib_keyfile, msg, "--out", str(cfile)])
    corrupted = tmp_path / "bad.rmc"
    main(["corrupt", str(cfile), "--seed", "5", "--out", str(corrupted)])
    assert main(["correct", two_fib_keyfile, str(corrupted), "--budget", "2",
                 "--report", str(tmp_path / "r.json")]) == 4


def test_bench_zero_trials_header_only(two_fib_keyfile, tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", two_fib_keyfile, "--trials", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("key_fp,n,model,count,magnitude,trials,")


def test_bench_csv_sanity(two_fib_keyfile, tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", two_fib_keyfile, "--n-grid", "15,29", "--trials", "12",
                 "--seed", "3", "--plaintext", "ALGORITHM", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["n"] for r in rows] == ["15", "29"]
    by_n = {r["n"]: r for r in rows}
    assert float(by_n["29"]["success_rate"]) == 1.0
    assert float(by_n["29"]["mean_candidates"]) < float(by_n["15"]["mean_candidates"])


def test_detect_compiles_the_key_once(two_fib_29_keyfile, tmp_path, monkeypatch):
    from rmcipher import coding, spectral
    calls = {"roots": 0, "builds": 0}
    roots, init = spectral.all_roots, coding.MatrixBuilder.__init__

    def counting_roots(*args, **kwargs):
        calls["roots"] += 1
        return roots(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["builds"] += 1
        init(self, *args, **kwargs)

    msg = _write(tmp_path, "msg.bin", random.Random(4).randbytes(40 * 9))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    monkeypatch.setattr(spectral, "all_roots", counting_roots)
    monkeypatch.setattr(coding.MatrixBuilder, "__init__", counting_init)
    assert main(["detect", two_fib_29_keyfile, str(cfile), "--out", str(tmp_path / "d.json")]) == 0
    assert json.loads((tmp_path / "d.json").read_text())["counts"] == {"clean": 40, "flagged": 0}
    assert calls["roots"] == 1      # validation and tau share one root solve
    assert calls["builds"] <= 2      # the key's positivity check, then the context


@pytest.mark.parametrize("command", ["detect", "correct"])
def test_key_without_dominant_root_exits_2(tmp_path, capsys, command):
    keyfile = tmp_path / "key.json"
    save_key(symmetric_key((1, 0), (1, 0), 10), keyfile)    # X[n+2] = X[n]: roots +-1
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", str(keyfile), msg, "--out", str(cfile)]) == 0
    capsys.readouterr()
    assert main([command, str(keyfile), str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dominant root" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("delta", [37, -37])
def test_correct_repairs_a_zero_padding_row(two_fib_29_keyfile, tmp_path, delta):
    msg = _write(tmp_path, "msg.txt", b"ABCDEF")
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    header, blocks = cipher_from_text(cfile.read_text())
    blocks[0][2][1] += delta
    bad = tmp_path / "bad.rmc"
    bad.write_text(cipher_to_text(blocks, header.length, header.order, header.fingerprint))
    fixed = tmp_path / "fixed.rmc"
    assert main(["correct", two_fib_29_keyfile, str(bad), "--out", str(fixed),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert fixed.read_text() == cfile.read_text()


def test_correct_printable_ascii_repairs_a_zero_padding_row(two_fib_29_keyfile, tmp_path):
    msg = _write(tmp_path, "msg.txt", b"ABCDEF")             # row 2 of block 0 is padding
    cfile, bad, fixed = tmp_path / "c.rmc", tmp_path / "bad.rmc", tmp_path / "fixed.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    assert main(["corrupt", str(cfile), "--model", "replace_uniform", "--seed", "0",
                 "--out", str(bad)]) == 0
    assert main(["correct", two_fib_29_keyfile, str(bad), "--printable-ascii",
                 "--out", str(fixed), "--report", str(tmp_path / "r.json")]) == 0
    assert fixed.read_text() == cfile.read_text()


def test_correct_printable_ascii_refuses_nonzero_padding(two_fib_29_keyfile, tmp_path):
    # 6 bytes of text then three bytes past the stored length: a plaintext
    # with 'A' in the padding is rejected, so no candidate is accepted.
    msg = _write(tmp_path, "msg.txt", b"ABCDEFAAA")
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    text = cfile.read_text().replace(" len=9 ", " len=6 ")
    lines = text.splitlines()
    parts = lines[3].split()
    parts[1] = str(int(parts[1]) + 37)
    lines[3] = " ".join(parts)
    bad = tmp_path / "bad.rmc"
    bad.write_text("\n".join(lines) + "\n")
    args = ["correct", two_fib_29_keyfile, str(bad), "--report", str(tmp_path / "r.json")]
    assert main(args) == 0
    assert main(args + ["--printable-ascii"]) == 3


@pytest.mark.parametrize("coeffs", ["-4,0,5", "1,0", "-1,0", "1,-1", "-1,1,1"])
def test_right_form_keygen_without_spf_exits_2(coeffs, tmp_path, capsys):
    out = tmp_path / "rf.json"
    assert main(["keygen", "--method", "right-form", f"--coeffs={coeffs}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_abt_keygen_without_spf_exits_2(tmp_path, capsys):
    # r = m = 1, plus, geometric: z**2 - 1, whose roots +1 and -1 tie.
    out = tmp_path / "abt.json"
    assert main(["keygen", "--method", "abt", "--r", "1", "--m", "1", "--sign", "plus",
                 "--variant", "geometric", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: family polynomial's companion matrix lacks the strong Perron-Frobenius "
        "property: dominance margin within tolerance\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, check", [
    (["--method", "right-form", "--coeffs", "1,1,0,0", "--pisot"], "the Pisot check"),
    (["--method", "abt", "--r", "2", "--m", "2", "--sign", "plus", "--variant", "geometric",
      "--pisot"], "the Pisot check"),
    (["--method", "right-form", "--coeffs", "1,1", "--tau-max", "1.1"], "the cap on tau"),
    (["--method", "right-form", "--coeffs", "5,5,5"], "the cap on tau"),
], ids=["right-form-pisot", "abt-pisot", "right-form-tau-max", "right-form-default-cap"])
def test_single_candidate_keygen_keeps_the_cap_and_the_pisot_check(argv, check, tmp_path,
                                                                    capsys):
    out = tmp_path / "k.json"
    assert main(["keygen", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" fails {check}: " in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_a_key_with_a_column_of_both_signs_detects_a_clean_file_clean(tmp_path):
    # Column 4 of this key's M_33 reads -, -, -, -, +: its row ratios bound
    # no ratio of column sums, so no pair with that denominator is bounded.
    key, plain, cipher = (str(tmp_path / name) for name in ("k.json", "p.bin", "c.rmc"))
    assert main(["keygen", "--k", "5", "--seed", "138", "--out", key]) == 0
    Path(plain).write_bytes(random.Random(0).randbytes(8192))
    assert main(["encrypt", key, plain, "--out", cipher]) == 0
    assert main(["detect", key, cipher, "--out", str(tmp_path / "d.json")]) == 0
    assert json.loads((tmp_path / "d.json").read_text())["clean"] is True
    fixed = tmp_path / "fixed.rmc"
    assert main(["correct", key, cipher, "--out", str(fixed),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert fixed.read_bytes() == Path(cipher).read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_key_whose_entries_are_all_negative_repairs_against_negative_references(seed,
                                                                                  tmp_path):
    # Every entry of this key's M_27 is negative, so every trusted
    # reference is too: its checking ranges are c_ref times the ratio
    # bounds, swapped.
    key, plain, cipher, bad, fixed, back = (str(tmp_path / name) for name in (
        "k.json", "p.txt", "c.rmc", "bad.rmc", "fixed.rmc", "back.txt"))
    assert main(["keygen", "--k", "3", "--seed", "9", "--out", key]) == 0
    assert main(["analyze", key, "--json", "--out", str(tmp_path / "a.json")]) == 0
    validation = json.loads((tmp_path / "a.json").read_text())["validation"]
    assert {"name": "entries_eventually_positive", "status": "fail", "hard": False,
            "detail": "entries stabilize negative; negate the initial data"} in validation["checks"]
    Path(plain).write_bytes(b"ALGORITHM checking relations")
    assert main(["encrypt", key, plain, "--out", cipher]) == 0
    assert main(["corrupt", cipher, "--seed", str(seed), "--magnitude", "1000000000",
                 "--out", bad]) == 0
    assert main(["correct", key, bad, "--out", fixed, "--report", str(tmp_path / "r.json")]) == 0
    assert main(["decrypt", key, fixed, "--out", back]) == 0
    assert Path(back).read_bytes() == b"ALGORITHM checking relations"


@pytest.mark.parametrize("k", range(2, 9))
def test_default_primitive_seed_is_primitive(k):
    assert is_primitive(primitive_seed(k))


def test_default_primitive_seed_is_unchanged_at_k_2_and_odd_k():
    assert primitive_seed(2) == [[1, 1], [1, 0]]
    assert primitive_seed(5) == [[0, 1, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                 [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]


def test_keygen_primitive_at_k_4(tmp_path):
    out = tmp_path / "prim4.json"
    assert main(["keygen", "--method", "primitive", "--k", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == 4


def _key_text_with(two_fib_keyfile, **fields):
    data = json.loads(Path(two_fib_keyfile).read_text())
    data.pop("fingerprint")
    data.update(fields)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    "[1, 0, 1]", '"rmc-key-v1"', "null", "17",
    "KEY:coefficients=[1.5, 0, 1]", "KEY:coefficients=[true, false, true]",
    'KEY:coefficients="101"', "KEY:order=3.0", "KEY:index=true",
    '{"format": "rmc-key-v1", "order": ' + "9" * 5000 + "}", "[" * 5000,
], ids=["list", "string", "null", "number", "float-leaf", "bool-leaf", "string-list",
        "float-order", "bool-index", "huge-json-int", "nested-json"])
def test_malformed_key_files_exit_2(text, two_fib_keyfile, tmp_path, capsys):
    if text.startswith("KEY:"):
        name, value = text[4:].split("=", 1)
        text = _key_text_with(two_fib_keyfile, **{name: json.loads(value)})
    keyfile = _write(tmp_path, "bad.json", text.encode())
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    assert main(["encrypt", keyfile, msg, "--out", str(tmp_path / "c.rmc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load key {keyfile}: ")


def test_integer_and_decimal_string_leaves_are_accepted(two_fib_keyfile, tmp_path):
    text = _key_text_with(two_fib_keyfile, coefficients=[1, "0", 1], order="3", index=15)
    keyfile = _write(tmp_path, "ok.json", text.encode())
    msg = _write(tmp_path, "msg.txt", ALGORITHM)
    out = tmp_path / "c.rmc"
    assert main(["encrypt", keyfile, msg, "--out", str(out)]) == 0
    assert cipher_from_text(out.read_text())[1][0] == C_ALGORITHM_15


def test_main_builds_one_parser_and_flags_do_not_carry_over(tmp_path, monkeypatch):
    from rmcipher import cli
    builds = [0]
    build = cli.build_parser

    def counting():
        builds[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    keys = [tmp_path / f"{i}.json" for i in range(3)]
    base = ["keygen", "--k", "3", "--range=-2,2", "--seed", "2"]
    assert main(base + ["--out", str(keys[0])]) == 0
    assert main(base + ["--pisot", "--out", str(keys[1])]) == 0
    assert main(base + ["--out", str(keys[2])]) == 0
    assert keys[0].read_bytes() != keys[1].read_bytes()        # --pisot mattered once
    assert keys[2].read_bytes() == keys[0].read_bytes()
    reports = [tmp_path / f"{i}.txt" for i in range(2)]
    assert main(["analyze", str(keys[0]), "--json", "--out", str(reports[0])]) == 0
    assert main(["analyze", str(keys[0]), "--out", str(reports[1])]) == 0
    json.loads(reports[0].read_text())
    with pytest.raises(json.JSONDecodeError):
        json.loads(reports[1].read_text())
    assert builds[0] == 1
    cli._parser.cache_clear()
