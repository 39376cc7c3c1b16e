"""Failure contract, by seeded fuzzing: every command that reads a key file
or a ciphertext, fed damaged ones, ends in a documented exit code (0, 2,
3 or 4) and lets no exception escape `main`."""

import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from rmcipher import right_form_key, symmetric_key
from rmcipher.cli import main
from rmcipher.formats import MODELS, save_key

SEED = 5
EXIT_CODES = {0, 2, 3, 4}
HUGE = "7" * 5000                     # past int()'s 4300-digit limit
REPLACEMENTS = [[1, 2], "abc", 1.5, True, None, -3, "-3", HUGE, int(HUGE[:60])]
HUGE_INDICES = [10 ** 6, 10 ** 100]   # valid keys whose ciphertexts could not be written

KEYS = {
    "symmetric": symmetric_key((1, 0, 1), (1, 0, 0), 15),
    "right_form": right_form_key((1, 0, 1), [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 12),
}


def _run(argv) -> int:
    try:
        code = main([str(a) for a in argv])
    except BaseException as exc:      # noqa: BLE001 - the contract is that nothing escapes
        pytest.fail(f"{' '.join(map(str, argv))}: {type(exc).__name__} escaped main: {exc}")
    assert code in EXIT_CODES, argv
    return code


def _key_commands(keyfile, cipherfile, msgfile, out):
    return [
        ["encrypt", keyfile, msgfile, "--out", out],
        ["decrypt", keyfile, cipherfile, "--out", out],
        ["detect", keyfile, cipherfile, "--out", out],
        ["correct", keyfile, cipherfile, "--budget", "50", "--report", out],
        ["analyze", keyfile, "--json", "--out", out],
        ["bench", keyfile, "--trials", "1", "--out", out],
    ]


def _cipher_commands(keyfile, cipherfile, out):
    return [
        ["decrypt", keyfile, cipherfile, "--out", out],
        ["detect", keyfile, cipherfile, "--out", out],
        ["correct", keyfile, cipherfile, "--budget", "50", "--report", out],
        ["corrupt", cipherfile, "--seed", "1", "--out", out],
    ]


@pytest.fixture
def files(tmp_path):
    """A valid key file, a message and its ciphertext, for each key kind."""
    made = {}
    for name, key in KEYS.items():
        keyfile, msg, cfile = (tmp_path / f"{name}.json", tmp_path / "msg.txt",
                               tmp_path / f"{name}.rmc")
        save_key(key, keyfile)
        msg.write_bytes(b"ALGORITHM EXTRA")
        assert main(["encrypt", str(keyfile), str(msg), "--out", str(cfile)]) == 0
        made[name] = keyfile, msg, cfile
    return made


def _damaged_keys(text: str, rng: random.Random):
    """Truncations, the whole object replaced, each field replaced, and
    (with the fingerprint dropped, so that validation is reached) integer
    leaves replaced or the index made huge."""
    for cut in sorted(rng.sample(range(len(text)), 6)) + [0]:
        yield text[:cut]
    for value in REPLACEMENTS:
        yield json.dumps(value)
    data = json.loads(text)
    for field in data:
        for value in REPLACEMENTS:
            yield json.dumps({**data, field: value})
    bare = {f: v for f, v in data.items() if f != "fingerprint"}
    for field, value in bare.items():
        if not isinstance(value, list):
            continue
        for value_new in rng.sample(REPLACEMENTS, 4) + ["-1", "0", "2"]:
            leaf = json.loads(json.dumps(value))
            if isinstance(leaf[0], list):
                leaf[rng.randrange(len(leaf))][rng.randrange(len(leaf))] = value_new
            else:
                leaf[rng.randrange(len(leaf))] = value_new
            yield json.dumps({**bare, field: leaf})
    for index in HUGE_INDICES:
        yield json.dumps({**bare, "index": str(index)})


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_damaged_key_files(kind, files, tmp_path):
    keyfile, msg, cfile = files[kind]
    rng = random.Random(f"{SEED}-key-{kind}")
    codes = Counter()
    bad = tmp_path / "bad.json"
    for text in _damaged_keys(keyfile.read_text(), rng):
        bad.write_text(text)
        for argv in _key_commands(bad, cfile, msg, tmp_path / "out"):
            codes[_run(argv)] += 1
    assert codes[2] > 0 and codes[0] > 0           # refusals, and keys that still work


@pytest.mark.parametrize("index", HUGE_INDICES, ids=["1e6", "1e100"])
def test_huge_index_is_refused_at_key_load(files, tmp_path, capsys, index):
    keyfile, msg, cfile = files["symmetric"]
    data = {f: v for f, v in json.loads(keyfile.read_text()).items() if f != "fingerprint"}
    bad, out = tmp_path / "huge.json", tmp_path / "out"
    bad.write_text(json.dumps({**data, "index": str(index)}))
    capsys.readouterr()
    tracemalloc.start()
    try:
        for argv in _key_commands(bad, cfile, msg, out):
            assert _run(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: cannot load key {bad}: ")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22 and not out.exists()


def _damaged_ciphers(text: str, rng: random.Random):
    """Truncations, garbled headers, and entries replaced; each with whether
    its header is garbled."""
    for cut in sorted(rng.sample(range(len(text)), 5)) + [0]:
        yield text[:cut], False
    header, body = text.split("\n", 1)
    parts = header.split()
    garbles = ["", "RMCv2", "k=", "k=0", "k=-2", "k=4", "blocks=-1", "blocks=999",
               "len=-7", "len=99999", "fp=0000", f"k={HUGE}", "k=1.5", "x=y"]
    for i in range(len(parts)):
        for garble in rng.sample(garbles, 5):
            yield " ".join(parts[:i] + [garble] + parts[i + 1:]) + "\n" + body, True
    yield header + " extra=1\n" + body, True
    lines = body.splitlines()
    for value in ["x", "1.5", "-5", "0", HUGE, str(10 ** 200), "", "1 2"]:
        r = rng.randrange(len(lines))
        entries = lines[r].split()
        entries[rng.randrange(len(entries))] = value
        yield "\n".join([header] + lines[:r] + [" ".join(entries)] + lines[r + 1:]) + "\n", False
    # An entry 10**400 times its row neighbour: a ratio beyond the float range.
    first = lines[0].split()
    yield "\n".join([header, " ".join([str(10 ** 400)] + first[1:])] + lines[1:]) + "\n", False
    yield text.replace("\n", "\r\n"), False
    yield text + "\n\n", False


def test_damaged_ciphertexts(files, tmp_path):
    keyfile, _msg, cfile = files["symmetric"]
    rng = random.Random(f"{SEED}-cipher")
    codes = Counter()
    bad = tmp_path / "bad.rmc"
    for text, garbled in _damaged_ciphers(cfile.read_text(), rng):
        bad.write_text(text)
        for argv in _cipher_commands(keyfile, bad, tmp_path / "out"):
            code = _run(argv)
            codes[code] += 1
            # A garbled header is refused by every command that reads it with the key.
            assert code == 2 or not garbled or argv[0] == "corrupt", (text.split("\n")[0], argv)
    assert codes[2] > 0 and codes[0] > 0 and codes[3] > 0


def test_non_utf8_key_file_exits_2(files, tmp_path):
    _keyfile, msg, _cfile = files["symmetric"]
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "\xff\xfe"}')
    assert _run(["encrypt", bad, msg, "--out", tmp_path / "out"]) == 2


# A seed matrix is read as strictly as a key file's matrices: a bare
# number, a nested list, a float or a boolean is refused, not truncated;
# so is JSON nested past the parser's recursion limit.
BAD_SEED_MATRICES = ["5", "[[1,[2]],[1,0]]", "[[1.7,1],[1,0]]", "[[true,1],[1,0]]", "null",
                     '"[[1,1],[1,0]]"', "{}", "[[1,1],[1]]", "[]", "[[-1,1],[1,0]]", "not json",
                     pytest.param("[" * 5000, id="nested-json")]


@pytest.mark.parametrize("text", BAD_SEED_MATRICES)
def test_malformed_seed_matrix_exits_2(tmp_path, capsys, text):
    seed, out = tmp_path / "seed.json", tmp_path / "key.json"
    seed.write_text(text)
    argv = ["keygen", "--method", "primitive", "--k", "2", "--seed-matrix", seed, "--out", out]
    assert _run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_seed_matrix_of_decimal_strings_is_read_as_integers(tmp_path):
    seeds = []
    for name, text in [("ints", "[[1,1],[1,0]]"), ("strings", '[["1","1"],["1","0"]]')]:
        seed, out = tmp_path / f"{name}.json", tmp_path / f"{name}.key"
        seed.write_text(text)
        assert _run(["keygen", "--method", "primitive", "--k", "2", "--seed-matrix", seed,
                     "--out", out]) == 0
        seeds.append(out.read_text())
    assert seeds[0] == seeds[1]


@pytest.mark.parametrize("method, k", [
    (["--method", "primitive", "--seed-matrix", "seed.json"], 2),
    (["--method", "right-form", "--coeffs", "1,0,1"], 5),
], ids=["seed-matrix", "right-form"])
def test_keygen_refuses_a_k_that_differs_from_the_key_order(tmp_path, capsys, monkeypatch,
                                                            method, k):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.json").write_text("[[1,1,0],[0,1,1],[1,0,1]]")
    out = tmp_path / "key.json"
    assert _run(["keygen", *method, "--k", k, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --k {k} differs from the generated key's order 3\n"
    assert not out.exists()
    assert _run(["keygen", *method, "--k", 3, "--out", out]) == 0
    assert json.loads(out.read_text())["order"] == 3


@pytest.mark.parametrize("row", [99, 3, -1])
def test_analyze_row_outside_the_block_exits_2(files, tmp_path, capsys, row):
    keyfile = files["symmetric"][0]
    out = tmp_path / "analysis.json"
    capsys.readouterr()
    assert _run(["analyze", keyfile, "--text", "ab", "--row", row, "--json", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --row must lie in [0, 3), got {row}\n"
    assert not out.exists()
    assert _run(["analyze", keyfile, "--text", "ab", "--row", 2, "--json", "--out", out]) == 0


def test_bench_refuses_a_negative_index(files, tmp_path, capsys):
    keyfile = files["symmetric"][0]
    out = tmp_path / "bench.csv"
    capsys.readouterr()
    assert _run(["bench", keyfile, "--trials", 2, "--n-grid", -3, "--out", out]) == 2
    assert capsys.readouterr().err == "error: index must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_correct_of_negated_entries_exits_3(kind, files, tmp_path, capsys):
    """Negating a row's first two entries keeps their ratio, but both leave
    their columns' absolute ranges, so detect trusts neither; the third
    entry alone is no clique, so the row has nothing to repair from."""
    keyfile, _msg, cfile = files[kind]
    header, first, rest = cfile.read_text().split("\n", 2)
    bad, fixed, report = tmp_path / "bad.rmc", tmp_path / "fixed.rmc", tmp_path / "r.json"
    entries = first.split()
    bad.write_text("\n".join([header, " ".join(["-" + entries[0], "-" + entries[1],
                                                 *entries[2:]]), rest]))
    assert _run(["detect", keyfile, bad, "--out", report]) == 0
    row = json.loads(report.read_text())["blocks"][0]["rows"][0]
    assert (row["trusted"], row["flagged"]) == ([], [0, 1, 2])
    assert next(p for p in row["pairs"] if (p["j"], p["jp"]) == (0, 1))["consistent"]
    capsys.readouterr()
    assert _run(["correct", keyfile, bad, "--out", fixed, "--report", report]) == 3
    assert capsys.readouterr().err.startswith("error: row 0 has no trusted entry that bounds "
                                              "entry (0, 0)")
    assert not fixed.exists()



GOLDEN = Path(__file__).parent / "golden"


def test_correct_exits_0_3_or_4_wherever_one_entry_changes(tmp_path, capsys):
    """Each entry of a 19-byte message in turn, padding rows included, changed
    to zero, a negative, a neighbour or an out-of-range magnitude: correct
    ends in 0, 3 or 4 under every golden key, never in a traceback, and its
    output after an exit 0 decrypts."""
    msg, cfile, bad = tmp_path / "msg.txt", tmp_path / "c.rmc", tmp_path / "bad.rmc"
    msg.write_bytes(b"checking relations!")
    codes = Counter()
    for name in ["k3", "k5", "abt", "primitive", "right"]:
        keyfile = GOLDEN / f"{name}.json"
        assert _run(["encrypt", keyfile, msg, "--out", cfile]) == 0
        header, *lines = cfile.read_text().splitlines()
        for r, line in enumerate(lines):
            for j, entry in enumerate(line.split()):
                c = int(entry)
                for value in [0, -1, -c, c - 1, c + 1, 10 ** 400, -10 ** 400, 10 ** 4299]:
                    entries = line.split()
                    entries[j] = str(value)
                    bad.write_text("\n".join([header, *lines[:r], " ".join(entries),
                                              *lines[r + 1:]]) + "\n")
                    codes[_correct_then_decrypt(keyfile, bad, tmp_path)] += 1
    capsys.readouterr()
    assert set(codes) == {0, 3, 4}


def _correct_then_decrypt(keyfile, bad, tmp_path) -> int:
    """rmc correct of bad, and after an exit 0 rmc decrypt of its --out,
    which must succeed: exit 0 of correct means every block decrypts."""
    fixed = tmp_path / "fixed.rmc"
    code = _run(["correct", keyfile, bad, "--budget", "200", "--out", fixed,
                 "--report", tmp_path / "r.json"])
    assert code in (0, 3, 4)
    if code == 0:
        assert _run(["decrypt", keyfile, fixed, "--out", tmp_path / "plain"]) == 0
    return code


def test_correct_exits_0_3_or_4_where_two_entries_or_a_channel_model_change_a_block(tmp_path,
                                                                                  capsys):
    """Two entries of every block changed to the values of the one-entry
    census, and rmc corrupt's three models at one to three entries per
    block: correct ends in 0, 3 or 4 under every golden key, and its
    output after an exit 0 decrypts."""
    msg, cfile, bad = tmp_path / "msg.txt", tmp_path / "c.rmc", tmp_path / "bad.rmc"
    msg.write_bytes(b"checking relations!")
    codes = Counter()
    for name in ["k3", "k5", "abt", "primitive", "right"]:
        keyfile = GOLDEN / f"{name}.json"
        assert _run(["encrypt", keyfile, msg, "--out", cfile]) == 0
        for model in MODELS:
            for count in (1, 2, 3):
                for seed in range(4):
                    assert _run(["corrupt", cfile, "--model", model, "--count", count,
                                 "--seed", seed, "--out", bad]) == 0
                    codes[_correct_then_decrypt(keyfile, bad, tmp_path)] += 1
        header, *lines = cfile.read_text().splitlines()
        rows = [list(map(int, line.split())) for line in lines]
        k = len(rows[0])
        rng = random.Random(name)
        for _ in range(40):
            changed = [row[:] for row in rows]
            for b in range(0, len(rows), k):
                for r, j in rng.sample([(b + r, j) for r in range(k) for j in range(k)], 2):
                    c = rows[r][j]
                    changed[r][j] = rng.choice([0, -1, -c, c - 1, c + 1, 10 ** 400,
                                                -10 ** 400, 10 ** 4299])
            bad.write_text("\n".join([header, *(" ".join(map(str, row)) for row in changed)])
                           + "\n")
            codes[_correct_then_decrypt(keyfile, bad, tmp_path)] += 1
    capsys.readouterr()
    assert set(codes) == {0, 3, 4}
