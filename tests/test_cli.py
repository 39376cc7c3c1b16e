import csv
import json
import random

import pytest

from rmcipher import symmetric_key
from rmcipher.cli import main
from rmcipher.formats import load_cipher, save_cipher, save_key
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


def test_analyze_reports_smallest_n(two_fib_keyfile, tmp_path):
    out = tmp_path / "a.json"
    assert main(["analyze", two_fib_keyfile, "--text", "ALGORITHM", "--json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["spectral"]["tau"].startswith("1.4655712318")
    assert data["spectral"]["pisot"] == "yes"
    assert data["smallest_unambiguous_n"]["2,1"] == 29
    assert data["validation"]["ok"] is True


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
    ct = load_cipher(cfile)
    assert ct.block_list() == [C_ALGORITHM_15]
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
    assert rep["blocks"][0]["status"] == "clean"


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
    calls = {"tau": 0, "builds": 0}
    tau, init = spectral.transition_ratio, coding.MatrixBuilder.__init__

    def counting_tau(*args, **kwargs):
        calls["tau"] += 1
        return tau(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["builds"] += 1
        init(self, *args, **kwargs)

    msg = _write(tmp_path, "msg.bin", random.Random(4).randbytes(40 * 9))
    cfile = tmp_path / "c.rmc"
    assert main(["encrypt", two_fib_29_keyfile, msg, "--out", str(cfile)]) == 0
    monkeypatch.setattr(spectral, "transition_ratio", counting_tau)
    monkeypatch.setattr(coding.MatrixBuilder, "__init__", counting_init)
    assert main(["detect", two_fib_29_keyfile, str(cfile), "--out", str(tmp_path / "d.json")]) == 0
    assert len(json.loads((tmp_path / "d.json").read_text())["blocks"]) == 40
    assert calls["tau"] == 1
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
    ct = load_cipher(cfile)
    blocks = ct.block_list()
    blocks[0][2][1] += delta
    bad = tmp_path / "bad.rmc"
    save_cipher(blocks, ct.length, ct.order, ct.fingerprint, bad)
    fixed = tmp_path / "fixed.rmc"
    assert main(["correct", two_fib_29_keyfile, str(bad), "--out", str(fixed),
                 "--report", str(tmp_path / "r.json")]) == 0
    assert fixed.read_text() == cfile.read_text()
