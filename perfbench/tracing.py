"""Per-layer tracing of the rmcipher package, applied from outside.

The package carries no instrumentation of its own, so the traced run
replaces each public function named in TARGETS with a wrapper that records
a span (name, start, end, parent) and, for some targets, counters read off
the arguments or the result.  A function imported by name into another
module is bound there too, so every module attribute that *is* the original
object is replaced, and restored afterwards.  A target that no longer
exists is reported as missing instead of stopping the run.

Spans stay in memory; `summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Optional

PACKAGE = "rmcipher"
SIEVE_REJECT_REASONS = ("a0_zero", "not_spf", "tau_above_cap", "not_pisot",
                        "no_cyclic_vector", "validation")


def _product_counts(tracer: "Tracer", blocks) -> None:
    """Blocks, multiply-adds (B * k**3) and ciphertext bits of one block product."""
    if not blocks:
        return
    k = len(blocks[0])
    tracer.counters["cipher.blocks"] += len(blocks)
    tracer.counters["cipher.mul_adds"] += len(blocks) * k ** 3
    tracer.counters["cipher.cipher_bits"] += sum(
        int(v).bit_length() for block in blocks for row in block for v in row)


def _after_encrypt(tracer, args, kwargs, result) -> None:
    _product_counts(tracer, result)


def _after_decrypt(tracer, args, kwargs, result) -> None:
    _product_counts(tracer, args[0] if args else kwargs["blocks"])


def _after_to_text(tracer, args, kwargs, result) -> None:
    tracer.counters["formats.cipher_to_text.bytes"] += len(result)


def _after_from_text(tracer, args, kwargs, result) -> None:
    tracer.counters["formats.cipher_from_text.bytes"] += len(args[0] if args else kwargs["text"])


def _after_detect(tracer, args, kwargs, result) -> None:
    tracer.counters["guard.rows_flagged"] += sum(1 for d in result if d.flagged)


def _after_correct(tracer, args, kwargs, result) -> None:
    tracer.counters["guard.candidates_tested"] += result.tested_total
    tracer.counters["guard.candidates_accepted"] += sum(len(rc.accepted) for rc in result.rows)
    tracer.counters["guard.budget_exhausted"] += int(bool(result.budget_exhausted))


def _on_sieve_call(tracer, args, kwargs, result) -> None:
    # Called when the generator is created.  The caller's GenStats object
    # is filled in while the generator runs; keep it, read it at the end.
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "tried") and hasattr(value, "rejected"):
            tracer.sieve_stats.append(value)


# (span name, module, attribute or Class.method, hook after a call or,
# for a generator, when it is created)
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("spectral.transition_ratio", "spectral", "transition_ratio", None),
    ("spectral.all_roots", "spectral", "all_roots", None),
    ("spectral.is_pisot", "spectral", "is_pisot", None),
    ("spectral.is_strong_perron_frobenius", "spectral", "is_strong_perron_frobenius", None),
    ("coding.validate_key", "coding", "validate_key", None),
    ("coding.key_fingerprint", "coding", "key_fingerprint", None),
    ("coding.MatrixBuilder", "coding", "MatrixBuilder.__init__", None),
    ("coding.MatrixBuilder.matrix", "coding", "MatrixBuilder.matrix", None),
    ("coding.MatrixBuilder.inverse", "coding", "MatrixBuilder.inverse", None),
    ("exactmat.det_exact", "exactmat", "det_exact", None),
    ("exactmat.inverse_exact", "exactmat", "inverse_exact", None),
    ("recurrence.extend_forward", "recurrence", "extend_forward", None),
    ("recurrence.step_backward", "recurrence", "step_backward", None),
    ("cipher.digitize", "cipher", "digitize", None),
    ("cipher.encrypt", "cipher", "encrypt", _after_encrypt),
    ("cipher.decrypt", "cipher", "decrypt", _after_decrypt),
    ("formats.cipher_to_text", "formats", "cipher_to_text", _after_to_text),
    ("formats.cipher_from_text", "formats", "cipher_from_text", _after_from_text),
    ("formats.load_key", "formats", "load_key", None),
    ("guard.detect_errors", "guard", "detect_errors", _after_detect),
    ("guard.column_ratio_bounds", "guard", "column_ratio_bounds", None),
    ("guard.correct", "guard", "correct", _after_correct),
    ("keygen.sieve", "keygen", "sieve_companion", _on_sieve_call),
]


class Tracer:
    """Spans and counters of one traced run; single-threaded."""

    def __init__(self) -> None:
        # Parallel lists, one entry per span; parent is -1 for a root span.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.sieve_stats: list = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[name + ".raised"] += 1
                raise
            finally:
                self.close(idx)
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        """Spans cover each step of the generator, not its creation."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                self._run_hook(name, hook, args, kwargs, None)
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    idx = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item
            return steps()
        return traced

    def _run_hook(self, name, hook, args, kwargs, result) -> None:
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, KeyError, TypeError, IndexError):
            # The result no longer has the shape the counters read.
            if name + " counters" not in self.missing:
                self.missing.append(name + " counters")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every module binding site in the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module_name, attr, hook in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._patch(owner, method, self.wrap(name, original, hook))
                    continue
                original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], start), min(ends[c], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _has_ancestor(parents, names, i: int, target: str) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == target:
            return True
        p = parents[p]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Metrics that are already ratios; every other metric is divided by the
# number of traced rounds, so it does not grow when the program gets
# faster and more rounds fit in a run.
RATIOS = {"guard.candidate_yield": "fraction", "guard.detect_ms_per_block": "ms",
          "guard.detect_tau_share": "fraction", "keygen.sieve.yield": "fraction",
          "keygen.roots_per_candidate": "calls/candidate", "trace.missing": "count"}


def summarize(tr: Tracer, commands, rounds: int = 1) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}, per traced round.
    Metrics of layers that never ran read 0."""
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for name, start, end, s in zip(tr.names, tr.starts, tr.ends, selfs):
        calls[name] += 1
        busy[name] += end - start
        own[name] += s
    m: dict[str, float] = {}
    for name in ("spectral.transition_ratio", "guard.detect_errors", "guard.correct",
                 "coding.validate_key"):
        m[name + ".calls"] = calls[name]
        m[name + ".self_s"] = own[name]
    for name in ("spectral.all_roots", "exactmat.det_exact", "exactmat.inverse_exact"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = busy[name]
    for name in ("spectral.is_pisot", "spectral.is_strong_perron_frobenius",
                 "coding.key_fingerprint", "recurrence.extend_forward",
                 "recurrence.step_backward", "guard.column_ratio_bounds"):
        m[name + ".calls"] = calls[name]
    m["coding.MatrixBuilder.builds"] = calls["coding.MatrixBuilder"]
    for name in ("coding.MatrixBuilder.matrix", "coding.MatrixBuilder.inverse",
                 "cipher.digitize", "cipher.encrypt", "cipher.decrypt",
                 "formats.cipher_to_text", "formats.cipher_from_text"):
        m[name + ".s"] = busy[name]
    m["formats.load_key.self_s"] = own["formats.load_key"]
    for name in ("cipher.blocks", "cipher.mul_adds", "cipher.cipher_bits",
                 "formats.cipher_to_text.bytes", "formats.cipher_from_text.bytes",
                 "guard.rows_flagged", "guard.candidates_tested",
                 "guard.candidates_accepted", "guard.budget_exhausted", "guard.correct.raised"):
        m[name] = tr.counters[name]
    m["guard.candidate_yield"] = _ratio(m["guard.candidates_accepted"],
                                        m["guard.candidates_tested"])

    # Detection cost per block, and the share of it spent finding tau.
    tau_in_detect = sum(tr.ends[i] - tr.starts[i] for i, n in enumerate(tr.names)
                        if n == "spectral.transition_ratio"
                        and _has_ancestor(tr.parents, tr.names, i, "guard.detect_errors"))
    m["guard.detect_ms_per_block"] = 1000 * _ratio(busy["guard.detect_errors"],
                                                   calls["guard.detect_errors"])
    m["guard.detect_tau_share"] = _ratio(tau_in_detect, busy["guard.detect_errors"])

    rejected: Counter = Counter()
    for st in tr.sieve_stats:
        rejected.update(st.rejected)
    m["keygen.sieve.tried"] = sum(st.tried for st in tr.sieve_stats)
    m["keygen.sieve.emitted"] = sum(st.emitted for st in tr.sieve_stats)
    m["keygen.sieve.yield"] = _ratio(m["keygen.sieve.emitted"], m["keygen.sieve.tried"])
    for reason in SIEVE_REJECT_REASONS:
        m["keygen.sieve.rejected." + reason] = rejected[reason]
    roots_in_sieve = sum(1 for i, n in enumerate(tr.names) if n == "spectral.all_roots"
                         and _has_ancestor(tr.parents, tr.names, i, "keygen.sieve"))
    m["keygen.roots_per_candidate"] = _ratio(roots_in_sieve, m["keygen.sieve.tried"])

    for command in commands:
        m[f"cli.{command}.calls"] = calls["cli." + command]
        m[f"cli.{command}.s"] = busy["cli." + command]
    for code in range(5):
        m[f"cli.exit.{code}"] = tr.counters[f"cli.exit.{code}"]
    m["trace.missing"] = len(tr.missing)
    return {name: (float(value), RATIOS[name]) if name in RATIOS
            else (value / rounds, unit_of(name)) for name, value in m.items()}


def unit_of(name: str) -> str:
    """Unit of a per-round metric."""
    if name.rsplit(".", 1)[-1] in ("s", "self_s"):
        return "s/round"
    if name.endswith(".bytes"):
        return "bytes/round"
    if name.endswith("cipher_bits"):
        return "bits/round"
    return "count/round"
