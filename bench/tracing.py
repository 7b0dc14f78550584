"""Span tracing from outside the library, and the per-layer metrics.

``Tracer.install`` wraps the public functions and methods listed in
``FUNCTIONS`` and ``METHODS``.  A function is patched in every ``weylpairs``
module that holds it, because callers look a name up in their own module
(``cli`` calls ``enumerate_pairs`` through ``weylpairs.cli``).  Each call
records one span in memory: name, start, end and the span open when it was
called.  A generator function records one span per resumption, so the
consumer's work between items stays outside it.

Self time is a span's duration minus the durations of its direct children.
Per-layer metrics count only spans under the ``bench.items`` root; group
construction, which happens in set-up, is read from every root.
"""

from __future__ import annotations

import gzip
import inspect
import math
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

ITEMS_ROOT = "bench.items"

# span name -> (module, attribute)
FUNCTIONS = {
    "cli.dispatch": ("cli", "dispatch"),
    "pairs.enumerate_pairs": ("pairs", "enumerate_pairs"),
    "pairs.is_good_chain": ("pairs", "is_good_chain"),
    "pairs.is_good_parabolic": ("pairs", "is_good_parabolic"),
    "pairs.is_good_orbitwise": ("pairs", "is_good_orbitwise"),
    "pairs.is_good_flattening": ("pairs", "is_good_flattening"),
    "patterns.verify_pattern_theorem": ("patterns", "verify_pattern_theorem"),
    "patterns.left_bad_exists": ("patterns", "left_bad_exists"),
    "patterns.right_bad_exists": ("patterns", "right_bad_exists"),
    "patterns.has_pattern": ("patterns", "has_pattern"),
    "weyl.standardize_subsystem": ("weyl", "standardize_subsystem"),
    "mingen.min_gen_subsystem": ("mingen", "min_gen_subsystem"),
    "mingen.reflection_length": ("mingen", "reflection_length"),
    "roots.build_from_cartan": ("roots", "build_from_cartan"),
    "linalg.in_span": ("linalg", "in_span"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.det": ("linalg", "det"),
    "linalg.mat_inverse": ("linalg", "mat_inverse"),
    "varieties.p_polynomials": ("varieties", "p_polynomials"),
    "varieties.verify_witness": ("varieties", "verify_witness"),
    "varieties.additional_equation_scan": ("varieties", "additional_equation_scan"),
    "varieties.check_point_families": ("varieties", "check_point_families"),
    "varieties.sample_point_on_Vw": ("varieties", "sample_point_on_Vw"),
    "serialize.verdict_dict": ("serialize", "verdict_dict"),
    "serialize.counterexample_dict": ("serialize", "counterexample_dict"),
    "serialize.witness_dict": ("serialize", "witness_dict"),
}

# span name -> (module, class names, attribute names)
METHODS = {
    "weyl.bruhat_leq": ("weyl", ("SymmetricGroup", "ReflectionGroup"), ("bruhat_leq",)),
    "weyl.mul": ("weyl", ("SymmetricGroup", "ReflectionGroup"), ("mul",)),
    "weyl.parabolic_decompose": ("weyl", ("SymmetricGroup", "ReflectionGroup"), ("parabolic_decompose",)),
    "poly.evaluate": ("poly", ("SparsePolynomial",), ("evaluate",)),
    "poly.mul": ("poly", ("SparsePolynomial",), ("__mul__", "__rmul__")),
}

# layers reported with calls and self time, and with self time only
CALL_LAYERS = [
    name for name in (*FUNCTIONS, *METHODS)
    if name not in ("pairs.enumerate_pairs", "patterns.verify_pattern_theorem",
                    "roots.build_from_cartan") and not name.startswith("serialize.")
]
SELF_LAYERS = ["pairs.enumerate_pairs", "patterns.verify_pattern_theorem", "roots.build_from_cartan"]
SETUP_LAYERS = {"roots.build_from_cartan"}

# (module, lru_cache'd function) read through cache_info()
CACHES = [
    ("poly", "symbolic_minor"),
    ("varieties", "_colinearity_sum"),
    ("weyl", "_sorted_prefixes"),
    ("varieties", "_cached_sample_assignment"),
    ("varieties", "plucker_relations"),
    ("varieties", "incidence_relations"),
]
MEMOS = ["_mul_cache", "_bruhat_memo"]  # ReflectionGroup dicts

COUNT, SECONDS, RATIO = "count", "s", "ratio"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in CALL_LAYERS:
        out += [(name + ".calls", COUNT, "lower"), (name + ".self_s", SECONDS, "lower")]
    out += [(name + ".self_s", SECONDS, "lower") for name in SELF_LAYERS]
    out += [
        ("pairs.visited", COUNT, "lower"),
        ("pairs.comparable", COUNT, "higher"),
        ("pairs.comparable_ratio", RATIO, "higher"),
        ("varieties.p_polynomials.distinct_w", COUNT, "lower"),
        ("varieties.p_polynomials.reuse_ratio", RATIO, "higher"),
        ("varieties.scan.refuted", COUNT, "higher"),
        ("varieties.scan.unknown", COUNT, "lower"),
        ("poly.symbolic_minor.calls", COUNT, "lower"),
        ("poly.symbolic_minor.hit_ratio", RATIO, "higher"),
        ("serialize.self_s", SECONDS, "lower"),
        ("serialize.bytes", "B", "lower"),
        ("trace.overhead_ratio", RATIO, "higher"),
    ]
    for _, fn in CACHES:
        key = "cache." + fn.lstrip("_")
        out += [(key + ".hits", COUNT, "higher"), (key + ".misses", COUNT, "lower"),
                (key + ".size", COUNT, "lower")]
    out += [("weyl." + m.lstrip("_") + ".size", COUNT, "lower") for m in MEMOS]
    return out


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.first = array("b")  # 0 for a generator's later resumptions
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, first: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.first.append(first)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._id(name), 1)
        try:
            yield
        finally:
            self._close(sid)

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self._id(name)
        post = _POST.get(name)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._resumptions(nid, fn(*args, **kwargs), post, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                sid = self._open(nid, 1)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(sid)
                if post is not None:
                    post(self, args, kwargs, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _resumptions(self, nid, it, post, args, kwargs):
        first = 1
        while True:
            sid = self._open(nid, first)
            first = 0
            try:
                item = next(it)
            except StopIteration:
                self._close(sid)
                if post is not None:
                    post(self, args, kwargs, None)
                return
            except BaseException:
                self._close(sid)
                raise
            self._close(sid)
            yield item

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, lib, extra=()) -> None:
        """Wrap every target present in ``lib``; ``extra`` adds
        (span name, module, attribute) targets from the benchmark itself."""
        modules = list(vars(lib).values())
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(getattr(lib, mod), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
        for name, (mod, classes, attrs) in METHODS.items():
            for cls_name in classes:
                cls = getattr(getattr(lib, mod), cls_name, None)
                for attr in attrs:
                    if cls is not None and attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for name, module, attr in extra:
            self._patch(module, attr, self._wrap(name, getattr(module, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reports --------------------------------------------------------------
    def layer_stats(self) -> dict[str, list]:
        """name -> [calls, self seconds] over spans under the items root,
        and over every root for the set-up layers."""
        n = len(self.start)
        child = [0.0] * n
        root = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p < 0:
                root[i] = i
            else:
                root[i] = root[p]
                child[p] += end[i] - start[i]
        items_id = self._ids.get(ITEMS_ROOT)
        setup_ids = {self._ids[s] for s in SETUP_LAYERS if s in self._ids}
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        name, first = self.name, self.first
        for i in range(n):
            nid = name[i]
            if self.name[root[i]] != items_id and nid not in setup_ids:
                continue
            s = stats[self.names[nid]]
            s[0] += first[i]
            s[1] += end[i] - start[i] - child[i]
        return stats

    def write(self, path: Path) -> None:
        """Write every span as tab-separated name, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


# Counters recorded when a call returns (a generator: when it is exhausted).
def _p_polynomials_post(tracer, args, kwargs, result) -> None:
    tracer.distinct["varieties.p_polynomials"].add(args[0])


def _scan_post(tracer, args, kwargs, result) -> None:
    tracer.counters["varieties.scan." + result.status] += 1


def _enumerate_post(tracer, args, kwargs, result) -> None:
    # enumerate_pairs walks every ordered pair of S_n once
    tracer.counters["pairs.visited"] += math.factorial(args[0]) ** 2
    summary = kwargs.get("summary", args[3] if len(args) > 3 else None)
    if summary is not None:
        tracer.counters["pairs.comparable"] += summary.total_comparable


_POST = {
    "pairs.enumerate_pairs": _enumerate_post,
    "varieties.p_polynomials": _p_polynomials_post,
    "varieties.additional_equation_scan": _scan_post,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def collect(tracer: Tracer, lib, reflection_groups, overhead_ratio: float) -> dict:
    """Every per-layer metric, by name, as {"value", "unit"}."""
    stats = tracer.layer_stats()
    c = tracer.counters
    values: dict[str, float] = {}
    for name in CALL_LAYERS:
        calls, self_s = stats.get(name, (0, 0.0))
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    for name in SELF_LAYERS:
        values[name + ".self_s"] = stats.get(name, (0, 0.0))[1]
    pp_calls = values["varieties.p_polynomials.calls"]
    distinct_w = len(tracer.distinct["varieties.p_polynomials"])
    values.update({
        "pairs.visited": c["pairs.visited"],
        "pairs.comparable": c["pairs.comparable"],
        "pairs.comparable_ratio": _ratio(c["pairs.comparable"], c["pairs.visited"]),
        "varieties.p_polynomials.distinct_w": distinct_w,
        "varieties.p_polynomials.reuse_ratio": _ratio(distinct_w, pp_calls),
        "varieties.scan.refuted": c["varieties.scan.refuted"],
        "varieties.scan.unknown": c["varieties.scan.unknown"],
        "serialize.self_s": sum(s[1] for nm, s in stats.items() if nm.startswith("serialize.")),
        "serialize.bytes": c["serialize.bytes"],
        "trace.overhead_ratio": overhead_ratio,
    })
    for mod, fn in CACHES:
        cached = getattr(getattr(lib, mod), fn, None)
        info = cached.cache_info() if cached is not None else (0, 0, 0, 0)
        key = "cache." + fn.lstrip("_")
        values.update({key + ".hits": info[0], key + ".misses": info[1],
                       key + ".size": info[3]})
    sm = values["cache.symbolic_minor.hits"] + values["cache.symbolic_minor.misses"]
    values["poly.symbolic_minor.calls"] = sm
    values["poly.symbolic_minor.hit_ratio"] = _ratio(values["cache.symbolic_minor.hits"], sm)
    for memo in MEMOS:
        values["weyl." + memo.lstrip("_") + ".size"] = sum(len(getattr(g, memo)) for g in reflection_groups)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
