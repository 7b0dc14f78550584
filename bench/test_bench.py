"""Self-test of the benchmark at toy sizes (S4/S5, B3).

    python3 -m pytest -q bench

Checks that every metric BENCHMARK.json names is emitted, that traced call
counts repeat exactly, and that each workload's gate trips on doctored output.
"""

from __future__ import annotations

import collections
import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

import clock
import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(name):
    return {
        "census-s6": lambda: workloads.Census(n=5),
        "scan-s6": lambda: workloads.Scan(n=5, min_pairs=6),
        "sample-s6": lambda: workloads.Sample(n=4, cells=3),
        "crossval": lambda: workloads.Crossval(n=4, cartans=("B3",), rounds=2),
    }[name]()


def first_step(wl, seed=3):
    state = wl.setup(run.load_library(), seed)
    x = state["inputs"][0]
    return wl, state, x, wl.step(state, x).emitted


def rewrite(emitted: bytes, index: int, edit) -> bytes:
    lines = [json.loads(line) for line in emitted.decode().splitlines()]
    edit(lines[index])
    return b"".join(workloads.encode(rec) for rec in lines)


def test_spec_matches_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()
    assert SPEC["paths"] == [run.HERE.name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted(name):
    wl = toy(name)
    timed = run.run_timed(wl, seed=3, seconds=0.0)
    assert timed.failed == 0 and timed.attempted >= timed.items > 0
    assert timed.passes == run.MIN_PASSES
    assert [(k, m["unit"]) for k, m in timed.metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in timed.metrics.values())

    traced = run.run_traced(wl, seed=3)
    assert traced.failed == 0
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert traced.metrics["trace.overhead_ratio"]["value"] > 0
    assert traced.sha256 == timed.sha256


def test_clock_scales_by_the_ticks_near_an_interval():
    c = clock.Clock()
    for mid, seconds in [(0.0, 0.001), (0.1, 0.003), (10.0, 0.002)]:
        c.mids.append(mid)
        c.cumulative.append(c.cumulative[-1] + seconds)
    assert c.scale(0.05, 0.06) == pytest.approx(clock.NOMINAL_S / 0.002)
    assert c.scale(9.9, 9.95) == pytest.approx(clock.NOMINAL_S / 0.002)
    assert c.scale(5.0, 5.0) == pytest.approx(clock.NOMINAL_S / 0.003)  # none near


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        layers = run.run_traced(toy("crossval"), seed=5).metrics
        counts.append({k: m["value"] for k, m in layers.items() if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["pairs.is_good_chain.calls"] > 0 and counts[0]["weyl.mul.calls"] > 0


def test_census_gate_trips_on_wrong_bad_count():
    wl, state, command, emitted = first_step(toy("census-s6"))
    assert command == "enumerate" and wl.gate(state, command, emitted) == 0
    doctored = rewrite(emitted, -1, lambda rec: rec.update(bad_count=rec["bad_count"] - 1))
    assert wl.gate(state, command, doctored) == 65
    verify = wl.step(state, "verify").emitted
    assert wl.gate(state, "verify", verify) == 0
    mismatch = rewrite(verify, 0, lambda rec: rec["mismatches"].append({"w": "12345"}))
    assert wl.gate(state, "verify", mismatch) == 1


def test_scan_gate_trips_on_flipped_witness_check():
    wl, state, pair, emitted = first_step(toy("scan-s6"))
    assert wl.gate(state, pair, emitted) == 0
    flipped = rewrite(emitted, 0, lambda rec: rec["witness"]["checks"].update(membership=False))
    assert wl.gate(state, pair, flipped) == 1
    unknown = rewrite(emitted, 0, lambda rec: rec.update(status="unknown", witness=None))
    assert wl.gate(state, pair, unknown) == 1  # unknown outside README's S6 family


def test_sample_gate_trips_on_failed_family():
    wl, state, cell, emitted = first_step(toy("sample-s6"))
    assert wl.gate(state, cell, emitted) == 0
    doctored = rewrite(emitted, 0, lambda rec: rec["families"].update(incidence=False))
    assert wl.gate(state, cell, doctored) == wl.POINTS_PER_CELL


def test_crossval_gate_trips_on_disagreement():
    wl = toy("crossval")
    state = wl.setup(run.load_library(), 3)
    items = state["inputs"]
    pair = items[0]
    emitted = wl.step(state, pair).emitted
    assert wl.gate(state, pair, emitted) == 0
    flip = {"good": "bad", "bad": "good"}
    doctored = rewrite(emitted, 0, lambda rec: rec["verdicts"].update(chain=flip[rec["verdicts"]["chain"]]))
    assert wl.gate(state, pair, doctored) == 1
    dw = next(x for x in items if x[0] == "dw")
    emitted = wl.step(state, dw).emitted
    assert wl.gate(state, dw, emitted) == 0
    assert wl.gate(state, dw, rewrite(emitted, 0, lambda rec: rec.update(d_w=rec["d_w"] + 1))) == 1


def test_failed_items_feed_the_result():
    class Doctored(workloads.Scan):
        def step(self, state, pair):
            step = super().step(state, pair)
            step.emitted = step.emitted.replace(b'"ok": true', b'"ok": false')
            return step

    timed = run.run_timed(Doctored(n=5, min_pairs=6), seed=3, seconds=0.0)
    assert timed.failed == timed.attempted == run.MIN_PASSES * timed.items > 0


def test_dw_draws_follow_the_cycle_counts():
    lib = run.load_library()
    perms = [lib.weyl.Permutation(p) for p in itertools.permutations(range(1, 7))]
    draws = workloads._by_cycles(perms, 100, random.Random(1))
    counts = collections.Counter(len(w.orbits()) for w in draws)
    # Stirling numbers of the first kind c(6, k) out of 720, scaled to 100
    assert counts == {1: 17, 2: 38, 3: 31, 4: 12, 5: 2}


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "census-s6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
