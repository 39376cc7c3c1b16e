"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(w: run.Workload) -> run.Workload:
    return dataclasses.replace(
        w, payload_bytes=min(w.payload_bytes, 2048), detect_bytes=min(w.detect_bytes, 64),
        messages=min(w.messages, 1), census=min(w.census, 1), keygen_seeds=w.keygen_seeds[:1])


def per_layer_names() -> list[str]:
    names = list(tracing.summarize(tracing.Tracer(), run.COMMANDS))
    return names + ["trace.overhead", "ops_failed_share"] + list(run.census_metrics({}))


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    w = tiny(run.WORKLOADS[name])
    assert run.run_inputs(w, 7) == run.run_inputs(w, 7)
    assert [run.round_inputs(w, 7, r) for r in range(4)] == \
        [run.round_inputs(w, 7, r) for r in range(4)]
    if w.payload_bytes:
        assert run.run_inputs(w, 7) != run.run_inputs(w, 8)
    if w.messages:
        assert run.round_inputs(w, 7, 1) != run.round_inputs(w, 8, 1)
    assert run.census_inputs(w, 7) == run.census_inputs(w, 7)
    # Files made through the CLI from those inputs are byte-identical too.
    cli = run.load_cli()
    files = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        run.prepare(run.Session(cli, tmp_path / sub), w, 7)
        files.append({p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())})
    assert files[0] == files[1]


@pytest.mark.parametrize("name", ["repair-k3", "bigint-k5"])
def test_padding_varies_but_never_fills_a_row(name):
    w = run.WORKLOADS[name]
    k = w.k
    lo, hi = run.MESSAGE_LENGTHS
    totals, paddings = set(), set()
    for r in range(60):
        messages = run.round_inputs(w, 3, r)["messages"]
        lengths = [len(m["plain"]) for m in messages]
        assert lo <= min(lengths) and max(lengths) <= hi
        assert all(32 <= c <= 126 for m in messages for c in m["plain"])
        assert {m["model"] for m in messages} == set(w.error_models)
        totals.add(sum(lengths))
        paddings.update(-n % (k * k) for n in lengths)
    assert len(totals) == 1          # every round carries the same bytes
    assert paddings == set(range(k))


def test_census_keeps_every_padding_and_model():
    w = dataclasses.replace(run.WORKLOADS["repair-k3"], census=60)
    census = run.census_inputs(w, 3)
    assert {len(m["plain"]) % 9 for m in census} == set(range(9))
    assert {m["model"] for m in census} == set(run.ERROR_MODELS)


def test_metric_names_and_spec_agree():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in e2e + layer + [w["name"] for w in SPEC["workloads"]])
    assert layer == per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_repair_outcomes_are_told_apart():
    original, received = b"RMCv1 5 7 9".split(), b"RMCv1 5 8 9".split()
    outcome = [run.repair_outcome(0, "", original, received, original),
               run.repair_outcome(0, "", original, received, received),
               run.repair_outcome(0, "", original, received, b"RMCv1 6 7 9".split()),
               run.repair_outcome(3, "", original, received, None),
               run.repair_outcome(2, "error: reference entry must be positive\n",
                                  original, received, None)]
    assert outcome == ["ok", "exit 0 with an undetected error left in place",
                       "exit 0 with a sound entry rewritten", "exit 3 (documented)",
                       "exit 2: error: reference entry must be positive"]
    metrics = run.census_metrics(Counter(outcome))
    assert metrics == {"census.failed": (3, "count"), "census.exit_3": (1, "count")}


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping), [6, 7]
    # (holding a grandchild [6.2, 6.5]) and [9, 12], clipped to [9, 10].
    starts = [0.0, 1.0, 2.0, 6.0, 6.2, 9.0]
    ends = [10.0, 3.0, 5.0, 7.0, 6.5, 12.0]
    parents = [-1, 0, 0, 0, 3, 0]
    got = tracing.self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 4 - 1 - 1, 2.0, 3.0, 0.7, 0.3, 3.0])


def test_every_binding_site_is_patched_and_restored():
    run.load_cli()
    import rmcipher.cli as cli
    import rmcipher.coding as coding
    import rmcipher.formats as formats
    import rmcipher.keygen as keygen
    original = coding.validate_key
    with tracing.Tracer():
        wrapped = coding.validate_key
        assert wrapped is not original
        assert cli.validate_key is formats.validate_key is keygen.validate_key is wrapped
    assert cli.validate_key is formats.validate_key is keygen.validate_key is original


def test_missing_target_is_reported_not_fatal(monkeypatch):
    run.load_cli()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("guard.gone", "guard", "no_such_function", None),
        ("coding.Gone.matrix", "coding", "NoSuchClass.matrix", None)])
    with tracing.Tracer() as tr:
        pass
    assert tr.missing == ["guard.gone", "coding.Gone.matrix"]
    assert tracing.summarize(tr, run.COMMANDS)["trace.missing"][0] == 2


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes_its_gates(name):
    w = tiny(run.WORKLOADS[name])
    out = run.run_workload(w, seed=1, seconds=0, trace=False, setup_repeats=1)["result"]
    assert out["correct"] and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert [m["unit"] for m in out["metrics"].values()] == [m["unit"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())
    traced = run.run_workload(w, seed=1, seconds=0, trace=True)["result"]
    assert traced["correct"]
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["trace.missing"]["value"] == 0
