#!/usr/bin/env python3
"""The weylpairs benchmark: one workload per process run.

    python3 bench/run.py --workload census-s6 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports ``weylpairs`` from ``src/``
there and nowhere else, and exits 1 without a result if that source is
missing.  Workloads (defined and justified in ``bench/workloads.py`` and
``BENCHMARK.json``): ``census-s6``, ``scan-s6``, ``sample-s6``, ``crossval``.

A workload runs in passes over the same seeded inputs; each pass starts
from a fresh ``import weylpairs``, so every pass sees cold caches.
``--trace 0`` runs passes until ``--seconds`` seconds were spent in library
calls, and at least ``MIN_PASSES``.  Between items, and around every
set-up, a calibration kernel is timed (``bench/clock.py``); every time is
converted to nominal seconds by the kernel timings around it, which takes
out the slow spells other tenants cause on a shared host.  Each item, and
each step's time outside its items, keeps its median over the passes.  It
reports the end-to-end metrics, all times in nominal seconds:

* ``setup_s``: median over passes of the set-up: the fresh import, input
  generation, group construction and one untimed warm-up item;
* ``items_per_s``: items of a pass ÷ the sum of those median times;
* ``item_p50_ms``, ``item_p90_ms``: percentiles of the items' median latencies;
* ``peak_rss_mb``: ``ru_maxrss`` of this process after its first pass.

The provenance line also gives the wall-clock ``setup_s`` and
``items_per_s`` (medians over passes) and the median ratio of nominal to
wall-clock time.

``--trace 1`` runs one pass with spans recorded around every traced layer
(``bench/tracing.py``), set-up included, then one untraced pass on a fresh
import for ``trace.overhead_ratio``.  It reports the per-layer metrics and
writes the spans to ``bench/out/trace-<workload>.tsv.gz``.

Both modes check every item's output (``gate`` in ``workloads.py``) and that
all passes emit the same bytes.  The line before the result holds the
provenance: Python version, CPU count, git sha, seed, input size, items per
pass, ``fail_rate`` and the sha256 of the JSON one pass emitted, which two
commits must share.  The last line is the result; the exit code is 1 when
any item failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "pairs", "patterns", "weyl", "mingen", "roots", "linalg", "poly",
           "varieties", "serialize")
MIN_PASSES = 3


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit 1."""
    if not (SRC / "weylpairs" / "__init__.py").is_file():
        raise SystemExit(f"error: no weylpairs source at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def load_library() -> types.SimpleNamespace:
    """Import weylpairs afresh, so every set-up starts from cold caches."""
    for name in [m for m in sys.modules if m == "weylpairs" or m.startswith("weylpairs.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module("weylpairs"))
    for mod in MODULES:
        setattr(lib, mod, importlib.import_module("weylpairs." + mod))
    return lib


@dataclass
class Pass:
    """One pass over a workload's inputs: its steps and their outputs' digest."""

    steps: list = field(default_factory=list)  # Step, with emitted bytes dropped
    attempted: int = 0
    failed: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def items(self) -> int:
        return sum(len(s.items) for s in self.steps)

    @property
    def items_per_s(self) -> float:
        """Items per wall-clock second."""
        total = sum(s.busy for s in self.steps)
        return self.items / total if total else 0.0

    def nominal(self, clock) -> tuple[list, list]:
        """Per item, and per step outside its items, the time in nominal
        seconds (``clock.py``)."""
        latencies, other = [], []
        for s in self.steps:
            raw = [(end - start) * clock.scale(start, end) for start, end in s.items]
            latencies.extend(raw)
            outside = s.busy - sum(end - start for start, end in s.items)
            other.append(outside * clock.scale(s.start, s.end))
        return latencies, other


def drive(wl, state, clock=None, tracer=None) -> Pass:
    """Run one step per input, gating each step's output; between steps the
    clock may tick."""
    run = Pass()
    state["clock"] = clock
    for x in state["inputs"]:
        if clock is not None:
            clock.maybe_tick()
        try:
            step = wl.step(state, x)
            bad = wl.gate(state, x, step.emitted)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            run.attempted += 1
            run.failed += 1
            break
        run.attempted += max(len(step.items), bad)
        run.failed += bad
        run.digest.update(step.emitted)
        if tracer is not None:
            tracer.counters["serialize.bytes"] += len(step.emitted)
        step.emitted = b""
        run.steps.append(step)
    return run


def _setup(wl, seed: int) -> dict:
    gc.collect()
    return wl.setup(load_library(), seed)


def _percentiles_ms(latencies: list) -> tuple[float, float]:
    if len(latencies) < 2:
        return 0.0, 0.0
    q = statistics.quantiles(latencies, n=100)
    return q[49] * 1e3, q[89] * 1e3


@dataclass
class Result:
    passes: int
    items: int
    attempted: int
    failed: int
    sha256: str
    metrics: dict
    wall: dict = field(default_factory=dict)  # wall-clock figures, for reference


def run_timed(wl, seed: int, seconds: float) -> Result:
    """Passes, each on a fresh import, until ``seconds`` were busy.

    The clock ticks before and after every set-up and between items, and
    every time is converted to nominal seconds by the ticks around it.
    Every pass runs the same inputs, so each item, and each step's time
    outside its items, keeps its median over the passes.
    """
    clock = Clock()
    setups, passes = [], []
    while len(passes) < MIN_PASSES or sum(s.busy for p in passes for s in p.steps) < seconds:
        clock.tick()
        start = time.perf_counter()
        state = _setup(wl, seed)
        setups.append((start, time.perf_counter()))
        clock.tick()
        passes.append(drive(wl, state, clock))
        if len(passes) == 1:
            # the peak so far: later passes repeat this one, and only the
            # benchmark's own records of them would add to it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.tick()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest.hexdigest() for p in passes}
    shapes = {tuple(len(s.items) for s in p.steps) for p in passes}
    if len(digests) != 1 or len(shapes) != 1:
        print("error: passes over the same inputs differ", file=sys.stderr)
        failed += 1
    nominal = [p.nominal(clock) for p in passes]
    latency = [statistics.median(t) for t in zip(*(lat for lat, _ in nominal))]
    other = [statistics.median(t) for t in zip(*(oth for _, oth in nominal))]
    total = sum(latency) + sum(other)
    p50, p90 = _percentiles_ms(latency)
    metrics = {
        "setup_s": (statistics.median((b - a) * clock.scale(a, b) for a, b in setups), "s"),
        "items_per_s": (len(latency) / total if total else 0.0, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "setup_s": statistics.median(b - a for a, b in setups),
        "items_per_s": statistics.median(p.items_per_s for p in passes),
        "nominal_per_wall_s": statistics.median(clock.scale(a, a) for a in clock.mids),
    }
    return Result(len(passes), len(latency), attempted, failed, passes[0].digest.hexdigest(),
                  {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, wall)


def run_traced(wl, seed: int) -> Result:
    """One traced pass, set-up included, then one untraced reference pass."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    lib = load_library()
    tracer.install(lib, extra=[("serialize.encode", workloads, "encode")])
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(lib, seed)
        tracer.counters.clear()
        tracer.distinct.clear()
        with tracer.span(tracing.ITEMS_ROOT):
            traced = drive(wl, state, tracer=tracer)
    finally:
        tracer.uninstall()
    reference = drive(wl, _setup(wl, seed))
    failed = traced.failed + reference.failed
    if reference.digest.hexdigest() != traced.digest.hexdigest():
        print("error: traced and untraced passes emitted different bytes", file=sys.stderr)
        failed += 1
    groups = [g for _, g, _ in state.get("groups", ()) if isinstance(g, lib.weyl.ReflectionGroup)]
    ratio = traced.items_per_s / reference.items_per_s if reference.items_per_s else 0.0
    metrics = tracing.collect(tracer, lib, groups, ratio)
    tracer.write(HERE / "out" / f"trace-{wl.name}.tsv.gz")
    return Result(2, traced.items, traced.attempted + reference.attempted, failed,
                  traced.digest.hexdigest(), metrics)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    result = run_traced(wl, args.seed) if args.trace else run_timed(wl, args.seed, args.seconds)
    provenance = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "input": wl.describe(),
        "passes": result.passes,
        "items_per_pass": result.items,
        "sha256": result.sha256,
        "wall_clock": result.wall,
        "fail_rate": {"value": result.failed / max(result.attempted, 1), "unit": "ratio"},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed,
                      "metrics": result.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
