"""Golden outputs: the exact bytes and exit codes of `rmc` commands on fixed
seeds and inputs.  Each case runs in order in one directory, so later
commands read the keys and ciphertexts that earlier ones wrote; every
file a case writes is compared with tests/golden/<name>.

To regenerate after a deliberate change of output:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from rmcipher.cli import main

GOLDEN = Path(__file__).parent / "golden"
MESSAGE = b"ALGORITHM checking relations"

# (name, argv, exit code, [(file written, golden name)]).  Paths are
# relative to the working directory; "-" names the command's stdout.
CASES = [
    ("keygen-sieve-k3", ["keygen", "--pisot", "--range", "0,2", "--k", "3", "--seed", "1",
                         "--out", "k3.json"], 0, [("k3.json", "k3.json")]),
    ("keygen-sieve-k5", ["keygen", "--pisot", "--range", "0,2", "--k", "5", "--seed", "2",
                         "--out", "k5.json"], 0, [("k5.json", "k5.json")]),
    ("keygen-abt", ["keygen", "--method", "abt", "--seed", "3", "--out", "abt.json"], 0,
     [("abt.json", "abt.json")]),
    ("keygen-primitive", ["keygen", "--method", "primitive", "--seed", "4",
                          "--out", "primitive.json"], 0, [("primitive.json", "primitive.json")]),
    ("keygen-right-form", ["keygen", "--method", "right-form", "--coeffs", "1,0,1",
                           "--seed", "5", "--out", "right.json"], 0,
     [("right.json", "right.json")]),
    ("analyze-k3", ["analyze", "k3.json"], 0, [("-", "analyze-k3.txt")]),
    ("analyze-k5", ["analyze", "k5.json"], 0, [("-", "analyze-k5.txt")]),
    ("analyze-abt", ["analyze", "abt.json"], 0, [("-", "analyze-abt.txt")]),
    ("analyze-k3-json", ["analyze", "k3.json", "--json"], 0, [("-", "analyze-k3.json")]),
    ("analyze-abt-json", ["analyze", "abt.json", "--json"], 0, [("-", "analyze-abt.json")]),
    ("analyze-primitive", ["analyze", "primitive.json", "--json"], 0,
     [("-", "analyze-primitive.json")]),
    ("analyze-right-form", ["analyze", "right.json", "--json"], 0,
     [("-", "analyze-right.json")]),
    ("encrypt", ["encrypt", "k3.json", "msg.txt", "--out", "c.rmc"], 0, [("c.rmc", "c.rmc")]),
    ("corrupt", ["corrupt", "c.rmc", "--seed", "6", "--sidecar", "side.json",
                 "--out", "bad.rmc"], 0, [("bad.rmc", "bad.rmc"), ("side.json", "side.json")]),
    ("detect", ["detect", "k3.json", "bad.rmc"], 0, [("-", "detect.json")]),
    ("correct", ["correct", "k3.json", "bad.rmc", "--report", "correct.json",
                 "--out", "fixed.rmc"], 3, [("correct.json", "correct.json"),
                                            ("fixed.rmc", "fixed.rmc")]),
    ("bench", ["bench", "k3.json", "--trials", "3", "--n-grid", "5,12", "--magnitude", "100000",
               "--seed", "7", "--out", "bench.csv"], 0, [("bench.csv", "bench.csv")]),
]

# The receiver under each other key, one corruption model each; the
# right-form case changes two entries per block.  The k3 case above and the
# primitive case exit 3: each holds a block that fails exact decryption
# with no entry that the checking relations flag (ROADMAP item 1), written
# to fixed*.rmc as received.
for _key, _model, _count, _code in [("k5", "replace_uniform", "1", 0),
                                    ("abt", "digit_transpose", "1", 0),
                                    ("primitive", "additive_noise", "1", 3),
                                    ("right", "replace_uniform", "2", 0)]:
    CASES += [
        (f"encrypt-{_key}", ["encrypt", f"{_key}.json", "msg.txt", "--out", f"c-{_key}.rmc"], 0,
         [(f"c-{_key}.rmc", f"c-{_key}.rmc")]),
        (f"corrupt-{_key}", ["corrupt", f"c-{_key}.rmc", "--model", _model, "--count", _count,
                             "--seed", "6", "--out", f"bad-{_key}.rmc"], 0,
         [(f"bad-{_key}.rmc", f"bad-{_key}.rmc")]),
        (f"detect-{_key}", ["detect", f"{_key}.json", f"bad-{_key}.rmc"], 0,
         [("-", f"detect-{_key}.json")]),
        (f"correct-{_key}", ["correct", f"{_key}.json", f"bad-{_key}.rmc",
                             "--report", f"correct-{_key}.json", "--out", f"fixed-{_key}.rmc"],
         _code,
         [(f"correct-{_key}.json", f"correct-{_key}.json"),
          (f"fixed-{_key}.rmc", f"fixed-{_key}.rmc")]),
    ]


def _without_wall_ms(data: bytes) -> bytes:
    """The CSV without its last column, the wall time, line ends kept."""
    assert data.partition(b"\r\n")[0].endswith(b",wall_ms")
    return re.sub(rb",[^,\r\n]*(\r?\n)", rb"\1", data)


def run_cases(workdir: Path) -> dict[str, tuple[int, dict[str, bytes]]]:
    """Every case's exit code and the bytes of the files it wrote."""
    (workdir / "msg.txt").write_bytes(MESSAGE)
    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, _code, outputs in CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            written = {}
            for path, golden in outputs:
                data = stdout.getvalue().encode() if path == "-" else Path(path).read_bytes()
                written[golden] = _without_wall_ms(data) if golden.endswith(".csv") else data
            results[name] = code, written
    finally:
        os.chdir(cwd)
    return results


def test_outputs_are_byte_identical(tmp_path):
    for name, (code, written) in run_cases(tmp_path).items():
        expected_code = next(c for n, _argv, c, _out in CASES if n == name)
        assert code == expected_code, name
        for golden, data in written.items():
            assert data == (GOLDEN / golden).read_bytes(), f"{name}: {golden}"


def test_a_detect_report_lists_every_flagged_row_as_failing():
    """In every golden detect report, a block's "failing_rows" (the rows
    that fail exact decryption) holds each row with a flagged entry."""
    for path in sorted(GOLDEN.glob("detect*.json")):
        for block in json.loads(path.read_bytes())["blocks"]:
            flagged = {row["row"] for row in block["rows"] if row["flagged"]}
            assert flagged <= set(block["failing_rows"]), (path.name, block["block"])


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (code, written) in run_cases(Path(tmp)).items():
            print(name, code, file=sys.stderr)
            for golden, data in written.items():
                (GOLDEN / golden).write_bytes(data)
