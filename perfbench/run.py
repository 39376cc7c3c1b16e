#!/usr/bin/env python3
"""Benchmark of the `rmc` command line on generated files.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Every command goes through `rmcipher.cli.main(argv)` in this process, one
at a time, so only argv, exit codes and file bytes are relied on.  A run
prepares its inputs from the seed, repairs the defect census and runs one
warm-up round, both untimed, then repeats rounds of the workload (README.md
lists them) for --seconds and checks every output.  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics of a separate
traced pass with --trace 1.  `--workload all` runs every workload in both
modes, each in its own process, and prints the ROADMAP baselines.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 15
REFERENCE_ITERATIONS = 15_000
REFERENCE_SECONDS = 0.003        # nominal time of reference_loop; scales setup_s
MESSAGE_LENGTHS = (40, 120)
ERROR_MODELS = ("replace_uniform", "digit_transpose", "additive_noise")
COMMANDS = ("encrypt", "decrypt", "corrupt", "detect", "correct", "keygen", "analyze")


class BenchError(RuntimeError):
    """The benchmark cannot run: no program, or an input could not be made."""


@dataclass(frozen=True)
class Workload:
    """One round of a workload runs, in order: a round trip of the payload,
    `rmc detect` of a clean ciphertext, the repair of `messages` corrupted
    short messages, and a sieve keygen plus analyze for each order.
    `census` messages of the defect census are repaired once, untimed."""

    name: str
    key: Optional[tuple]          # (coefficients, initial vector, index n)
    payload_bytes: int = 0
    detect_bytes: int = 0
    messages: int = 0
    error_models: tuple = ERROR_MODELS
    census: int = 0
    keygen_orders: tuple = ()
    keygen_seeds: tuple = ()

    @property
    def cycle(self) -> int:
        """Timed rounds come in whole passes of this many rounds."""
        return len(self.keygen_seeds) or 1

    @property
    def k(self) -> int:
        return len(self.key[0])


KEY_K3 = ((1, 0, 1), (1, 0, 0), 29)
KEY_K5 = ((1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 200)
WORKLOADS = {w.name: w for w in (
    Workload("bulk-k3", KEY_K3, payload_bytes=256 * 1024),
    # At k=3, n=29 a checking range is at most 5 wide for printable text,
    # and a digit transposition moves an entry by at least 9, so every
    # error of the timed messages is visible to the checking relations.
    Workload("repair-k3", KEY_K3, detect_bytes=1024, messages=4,
             error_models=("digit_transpose",), census=12),
    Workload("bigint-k5", KEY_K5, payload_bytes=32 * 1024, detect_bytes=512, messages=4,
             census=6),
    # A fixed list of keygen seeds, each used equally often: the number of
    # candidates a seed needs varies several-fold, so seeded draws would
    # make runs differ by which seeds they happened to get.
    Workload("keygen-sieve", None, keygen_orders=(3, 5), keygen_seeds=tuple(range(8))),
)}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, *labels) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def run_inputs(w: Workload, seed: int) -> dict:
    """Inputs shared by every round: the bulk payload and the plaintext
    of the clean ciphertext that `rmc detect` checks."""
    return {"payload": _rng(seed, w.name, "payload").randbytes(w.payload_bytes),
            "clean": _rng(seed, w.name, "clean").randbytes(w.detect_bytes)}


def round_inputs(w: Workload, seed: int, r: int) -> dict:
    """Inputs of round r.  A message is printable text that fills b blocks
    of k x k bytes but for p < k bytes, so its zero padding (p bytes) never
    fills a row.  Message m draws b from the m-th equal slice of the block
    counts that fit MESSAGE_LENGTHS, and the second half mirrors the first
    (b and lo + hi - b, p and k - 1 - p), so every round carries the same
    number of bytes while the length and padding of each message still
    vary.  The error models come in a seeded order."""
    k = w.k if w.key is not None else 0
    lo = -(-(MESSAGE_LENGTHS[0] + k - 1) // (k * k)) if k else 0
    hi = MESSAGE_LENGTHS[1] // (k * k) if k else 0
    span = hi - lo + 1
    models = _rng(seed, w.name, "models", r).sample(w.error_models, len(w.error_models))
    shapes: list[tuple[int, int]] = []
    messages = []
    for m in range(w.messages):
        rng = _rng(seed, w.name, "message", r, m)
        mirror = w.messages - 1 - m
        if mirror < m:
            b, p = shapes[mirror]
            shapes.append((lo + hi - b, k - 1 - p))
        elif mirror == m:
            shapes.append(((lo + hi) // 2, (k - 1) // 2))
        else:
            first = lo + m * span // w.messages
            shapes.append((rng.randint(first, max(first, lo + (m + 1) * span // w.messages - 1)),
                           rng.randrange(k)))
        b, p = shapes[-1]
        messages.append({"plain": bytes(rng.randint(32, 126) for _ in range(k * k * b - p)),
                         "model": models[m % len(models)],
                         "corrupt_seed": rng.getrandbits(31)})
    keygens = []
    if w.keygen_seeds:
        order = _rng(seed, w.name, "keygen-order").sample(w.keygen_seeds, len(w.keygen_seeds))
        keygens = [(k, order[r % len(order)]) for k in w.keygen_orders]
    return {"messages": messages, "keygens": keygens}


def census_inputs(w: Workload, seed: int) -> list[dict]:
    """Messages of the defect census: random bytes of any length in
    MESSAGE_LENGTHS, so any amount of padding occurs, each with one of all
    three error models in turn."""
    rng = _rng(seed, w.name, "census")
    lo, hi = MESSAGE_LENGTHS
    return [{"plain": rng.randbytes(rng.randint(lo, hi)),
             "model": ERROR_MODELS[i % len(ERROR_MODELS)],
             "corrupt_seed": rng.getrandbits(31)} for i in range(w.census)]


def write_key(path: Path, key: tuple) -> None:
    """A symmetric key file in the documented rmc-key-v1 grammar."""
    coeffs, x0, index = key
    path.write_text(json.dumps({
        "format": "rmc-key-v1", "kind": "symmetric", "order": len(coeffs),
        "index": str(index), "coefficients": [str(c) for c in coeffs],
        "initial_vector": [str(v) for v in x0]}, indent=2) + "\n")


# ---------------------------------------------------------------------------
# driving the CLI
# ---------------------------------------------------------------------------

def load_cli():
    """Import rmcipher.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "rmcipher" / "cli.py").is_file():
        raise BenchError(f"no program: {SRC / 'rmcipher' / 'cli.py'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rmcipher.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "rmcipher").resolve():
        raise BenchError(f"imported rmcipher from {cli.__file__}, not from {SRC}")
    return cli


def reference_loop() -> float:
    """Seconds taken by a fixed loop of integer arithmetic and decimal
    formatting, the kind of work the program does.  It makes no object
    the garbage collector tracks, so the program's heap does not slow it."""
    start = time.perf_counter()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += len(str(i * 7919)) + (i << 40) % 13
    return time.perf_counter() - start


class Session:
    """Runs `rmc` commands in process and keeps what they did.

    Exit codes 3 and 4 of `rmc correct` are documented outcomes; any other
    non-zero exit, an uncaught exception, or exit 0 with wrong output is a
    failed operation, and wrong output also fails a gate, which makes the
    run incorrect.  Each measured command is bracketed by the reference
    loop; its cost is its time over the loop's mean time around it."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.dir = workdir
        self.tracer: Optional[tracing.Tracer] = None
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: Counter = Counter()
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.kib: Counter = Counter()
        self.repairs = 0
        self.repaired = 0
        self.round_seconds = 0.0
        self.round_cost = 0.0
        self.last_stderr = ""

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, name: str) -> bytes:
        return (self.dir / name).read_bytes()

    def unlink(self, name: str) -> None:
        (self.dir / name).unlink(missing_ok=True)

    def _invoke(self, argv: list[str]) -> tuple[int, float]:
        err = io.StringIO()
        span = self.tracer.open("cli." + argv[0]) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failure to count, not a reason to stop
            code = 1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
            self.tracer.counters[f"cli.exit.{code}"] += 1
        self.last_stderr = err.getvalue()
        return code, seconds

    def helper(self, *argv: str) -> None:
        """A command that makes inputs; it must succeed."""
        code, _ = self._invoke(list(argv))
        if code != 0:
            raise BenchError(f"input step {' '.join(argv)} exited {code}: {self.last_stderr}")

    def measure(self, *argv: str, kib: float = 0.0, documented=()) -> int:
        before = reference_loop()
        code, seconds = self._invoke(list(argv))
        self.round_cost += seconds / ((before + reference_loop()) / 2)
        self.round_seconds += seconds
        self.attempted += 1
        self.seconds[argv[0]].append(seconds)
        self.kib[argv[0]] += kib
        if code != 0 and code not in documented:
            last = self.last_stderr.strip().splitlines()
            self.fail(f"{argv[0]} exit {code}: {last[-1] if last else ''}")
        return code

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] += 1

    def gate(self, ok: bool, what: str) -> None:
        """An output check on a command that exited 0."""
        if not ok:
            self.fail(what)
            self.wrong.append(what)


def prepare(s: Session, w: Workload, seed: int) -> None:
    inputs = run_inputs(w, seed)
    if w.key is not None:
        write_key(s.dir / "key.json", w.key)
    (s.dir / "payload.bin").write_bytes(inputs["payload"])
    (s.dir / "clean.bin").write_bytes(inputs["clean"])
    if w.detect_bytes:
        s.helper("encrypt", s.path("key.json"), s.path("clean.bin"), "--out", s.path("clean.rmc"))


def run_round(s: Session, w: Workload, seed: int, r: int) -> None:
    key = s.path("key.json")
    if w.payload_bytes:
        kib = w.payload_bytes / 1024
        s.unlink("back.bin")
        if (s.measure("encrypt", key, s.path("payload.bin"), "--out", s.path("payload.rmc"), kib=kib) == 0
                and s.measure("decrypt", key, s.path("payload.rmc"), "--out", s.path("back.bin"),
                              kib=kib) == 0):
            s.gate(s.read("back.bin") == s.read("payload.bin"),
                   "decrypt does not reproduce the payload")
    if w.detect_bytes:
        if s.measure("detect", key, s.path("clean.rmc"), "--out", s.path("detect.json"),
                     kib=w.detect_bytes / 1024) == 0:
            report = json.loads(s.read("detect.json"))
            s.gate(report.get("clean") is True, "detect flags a clean ciphertext")
    inputs = round_inputs(w, seed, r)
    for msg in inputs["messages"]:
        corrupt_message(s, msg)
        code = s.measure("correct", key, s.path("bad.rmc"), "--out", s.path("fixed.rmc"),
                         "--report", s.path("report.json"), documented=(3, 4))
        s.repairs += 1
        if code == 0:
            repaired = s.read("fixed.rmc").split() == s.read("msg.rmc").split()
            s.repaired += repaired
            s.gate(repaired, "correct exit 0 differs from the original ciphertext")
    for k, kseed in inputs["keygens"]:
        keyfile = s.path(f"key{k}.json")
        if (s.measure("keygen", "--method", "sieve", "--pisot", "--range", "0,2",
                      "--k", str(k), "--seed", str(kseed), "--out", keyfile) == 0
                and s.measure("analyze", keyfile, "--json", "--out", s.path("analyze.json")) == 0):
            report = json.loads(s.read("analyze.json"))
            s.gate(report.get("validation", {}).get("ok") is True
                   and report.get("spectral", {}).get("pisot") == "yes",
                   "analyze does not confirm a generated Pisot key")


def corrupt_message(s: Session, msg: dict) -> None:
    """Encrypt a message to msg.rmc and corrupt one entry per block into
    bad.rmc."""
    (s.dir / "msg.bin").write_bytes(msg["plain"])
    s.helper("encrypt", s.path("key.json"), s.path("msg.bin"), "--out", s.path("msg.rmc"))
    s.helper("corrupt", s.path("msg.rmc"), "--model", msg["model"], "--count", "1",
             "--seed", str(msg["corrupt_seed"]), "--out", s.path("bad.rmc"))
    s.unlink("fixed.rmc")


def repair_outcome(code: int, stderr: str, original: list, received: list,
                   repaired: Optional[list]) -> str:
    """What an `rmc correct` of a census message came to, in words."""
    if code in (3, 4):
        return f"exit {code} (documented)"
    if code != 0:
        last = stderr.strip().splitlines()
        return f"exit {code}: {last[-1] if last else ''}"
    if repaired == original:
        return "ok"
    if all(f == b for o, b, f in zip(original, received, repaired) if f != o):
        return "exit 0 with an undetected error left in place"
    return "exit 0 with a sound entry rewritten"


def run_census(s: Session, w: Workload, seed: int) -> Counter:
    """Repair each census message once, untimed and outside `attempted`.

    The census keeps the known repair defects in view: random bytes of any
    length, so corruption lands in all-zero padding rows (ROADMAP item 5),
    and all three error models, so at k=3 an error can stay inside its
    checking range.  The timed messages avoid both, because a workload's
    operations must not fail."""
    outcomes: Counter = Counter()
    for msg in census_inputs(w, seed):
        corrupt_message(s, msg)
        code, _ = s._invoke(["correct", s.path("key.json"), s.path("bad.rmc"),
                             "--out", s.path("fixed.rmc")])
        repaired = s.read("fixed.rmc").split() if code == 0 else None
        outcomes[repair_outcome(code, s.last_stderr, s.read("msg.rmc").split(),
                                s.read("bad.rmc").split(), repaired)] += 1
    return outcomes


def census_metrics(outcomes: Counter) -> dict[str, tuple[float, str]]:
    """Census messages whose repair failed (an exit other than 0, 3 or 4,
    or exit 0 with output that differs from the original), and those with
    a documented exit 3."""
    failed = sum(n for what, n in outcomes.items()
                 if what != "ok" and "(documented)" not in what)
    return {"census.failed": (failed, "count"),
            "census.exit_3": (outcomes.get("exit 3 (documented)", 0), "count")}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rmcipher.cli
if len(sys.argv) > 2:
    code = rmcipher.cli.main(["encrypt", sys.argv[2], sys.argv[3], "--out", sys.argv[4]])
    if code != 0:
        sys.exit(code)
print(repr(time.perf_counter() - t0))
"""


class SetupProbe:
    """Set-up time in a fresh interpreter: importing rmcipher.cli and, for a
    keyed workload, `rmc encrypt` of an empty file (key load, validation
    and M_n, the work every command pays before its first block).

    Probes are taken between timed rounds rather than back to back, so
    their median spans the run instead of one moment of machine load.
    Like a command's cost, each probe is divided by the reference loop
    timed around it; `median` returns that cost times REFERENCE_SECONDS,
    the set-up time at the reference loop's nominal speed."""

    def __init__(self, s: Session, w: Workload, repeats: int):
        self.argv = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)]
        if w.key is not None:
            (s.dir / "empty.bin").write_bytes(b"")
            self.argv += [s.path("key.json"), s.path("empty.bin"), s.path("empty.rmc")]
        self.cwd = s.dir
        self.repeats = repeats
        self.times: list[float] = []
        self.costs: list[float] = []

    def step(self) -> None:
        if len(self.times) >= self.repeats:
            return
        before = reference_loop()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                              cwd=self.cwd)
        after = reference_loop()
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))
        self.costs.append(self.times[-1] / ((before + after) / 2))

    def median(self) -> float:
        while len(self.times) < self.repeats:
            self.step()
        return statistics.median(self.costs) * REFERENCE_SECONDS


def timed_rounds(s: Session, w: Workload, seed: int, seconds: float,
                 count: Optional[int] = None, between=None):
    """Rounds 1, 2, ... in whole passes of w.cycle rounds until `seconds`
    have passed (or exactly `count` rounds).  Returns the measured seconds
    and the cost of each round."""
    busy: list[float] = []
    cost: list[float] = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(busy) >= count:
                break
        elif busy and len(busy) % w.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        s.round_seconds = s.round_cost = 0.0
        run_round(s, w, seed, len(busy) + 1)
        busy.append(s.round_seconds)
        cost.append(s.round_cost)
        if between is not None:
            between()
    return busy, cost


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def detail_metrics(s: Session) -> list[tuple[str, float, str, int]]:
    """Per-command figures of the timed rounds: (name, value, unit, samples)."""
    out = []
    for command, name in (("encrypt", "encrypt_kib_s"), ("decrypt", "decrypt_kib_s"),
                          ("detect", "verify_kib_s")):
        if s.seconds[command] and s.kib[command]:
            out.append((name, s.kib[command] / sum(s.seconds[command]), "KiB/s",
                        len(s.seconds[command])))
    for command, percentiles in (("correct", (0.5, 0.9)), ("keygen", (0.5, 0.9)),
                                 ("analyze", (0.5,))):
        label = "repair" if command == "correct" else command
        for q in percentiles:
            if s.seconds[command]:
                out.append((f"{label}_ms_p{round(q * 100)}",
                            1000 * nearest_rank(s.seconds[command], q), "ms",
                            len(s.seconds[command])))
    if s.repairs:
        out.append(("repair_success_rate", s.repaired / s.repairs, "fraction", s.repairs))
    out.append(("ops_failed_share", s.failed / s.attempted, "fraction", s.attempted))
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    cli = load_cli()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        s = Session(cli, workdir)
        prepare(s, w, seed)
        census = run_census(s, w, seed)
        run_round(s, w, seed, 0)                     # warm-up, untimed
        s.seconds.clear()
        s.kib.clear()
        metrics: dict[str, tuple[float, str]] = {}
        if trace:
            # Untraced rounds for half the time, then the same rounds traced;
            # the overhead compares their costs, which machine drift spares.
            _, plain = timed_rounds(s, w, seed, seconds / 2)
            s.tracer = tracing.Tracer()
            with s.tracer:
                _, traced = timed_rounds(s, w, seed, 0, count=len(plain))
            metrics.update(tracing.summarize(s.tracer, COMMANDS, len(plain)))
            metrics["trace.overhead"] = (sum(traced) / sum(plain) - 1, "fraction")
            metrics["ops_failed_share"] = (s.failed / s.attempted, "fraction")
            metrics.update(census_metrics(census))
            lines = [f"missing: {name}" for name in s.tracer.missing]
        else:
            probe = SetupProbe(s, w, setup_repeats)
            busy, cost = timed_rounds(s, w, seed, seconds, between=probe.step)
            metrics["setup_s"] = (probe.median(), "s")
            metrics["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            metrics["round_cost_mean"] = (statistics.fmean(cost), "ref")
            lines = [f"rounds {len(busy)}",
                     f"metric setup_wall_s {statistics.median(probe.times)!r} s n={len(probe.times)}",
                     f"metric round_ms_p50 {1000 * statistics.median(busy)!r} ms n={len(busy)}",
                     f"metric round_ms_mean {1000 * statistics.fmean(busy)!r} ms n={len(busy)}"] + [
                f"metric {name} {value!r} {unit} n={n}" for name, value, unit, n in detail_metrics(s)]
        lines += [f"census {count}x {what}" for what, count in sorted(census.items())]
        lines += [f"failure {count}x {what}" for what, count in s.failures.items()]
        lines += [f"wrong output: {what}" for what in s.wrong]
        return {"lines": lines, "result": {
            "correct": not s.wrong, "attempted": s.attempted, "failed": s.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh process, then the
    baselines the ROADMAP quotes."""
    results: dict[tuple[str, int], dict] = {}
    details: dict[str, dict[str, float]] = defaultdict(dict)
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            *lines, last = proc.stdout.strip().splitlines()
            results[(name, trace)] = json.loads(last)
            print(f"== {name} --trace {trace}: correct={results[(name, trace)]['correct']} "
                  f"attempted={results[(name, trace)]['attempted']} "
                  f"failed={results[(name, trace)]['failed']}")
            for line in lines:
                print("  " + line)
                if line.startswith("metric "):
                    _, metric, value, _unit, _n = line.split()
                    details[name][metric] = float(value)
            if trace == 0:
                for metric, m in results[(name, trace)]["metrics"].items():
                    print(f"  {metric} {m['value']:.6g} {m['unit']}")
    layers = {name: results[(name, 1)]["metrics"] for name in WORKLOADS}
    kib = WORKLOADS["bulk-k3"].payload_bytes / 1024
    print("== ROADMAP baselines")
    print(f"  rmc encrypt of {kib:g} KiB: {kib / details['bulk-k3']['encrypt_kib_s']:.3f} s")
    print(f"  rmc decrypt of {kib:g} KiB: {kib / details['bulk-k3']['decrypt_kib_s']:.3f} s")
    print(f"  rmc detect: {details['repair-k3']['verify_kib_s']:.3f} KiB/s")
    rk = layers["repair-k3"]
    print(f"  detect_errors: {rk['guard.detect_ms_per_block']['value']:.2f} ms per block, "
          f"{100 * rk['guard.detect_tau_share']['value']:.0f}% of it in transition_ratio")
    ks = layers["keygen-sieve"]
    print(f"  sieve keygen: {ks['keygen.roots_per_candidate']['value']:.2f} all_roots calls "
          f"per candidate ({ks['keygen.sieve.tried']['value']:.2f} candidates per round)")
    overheads = ", ".join(f"{n} {100 * layers[n]['trace.overhead']['value']:.0f}%" for n in WORKLOADS)
    print(f"  tracing overhead: {overheads}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed; a perf claim must also hold on seed 2")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
