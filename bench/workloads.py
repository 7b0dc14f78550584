"""The four benchmark workloads.

A workload is run in passes over the same seeded inputs.  ``setup`` makes
the inputs of one pass (``state["inputs"]``, the same for the same seed) and
runs one warm-up item, ``step`` makes the timed library calls for one input
and returns the JSON bytes they emit, and ``gate`` checks those bytes and
returns the number of items that failed.  The gate reads only the emitted
bytes, so the self-test can doctor them and watch the gate trip.

Every workload takes the library as ``lib``, a namespace of freshly imported
``weylpairs`` modules, and looks functions up on the module at call time, so
that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass

# README's reference table: n -> (comparable pairs, bad pairs) of S_n.
CENSUS_COUNTS = {5: (3781, 65), 6: (98407, 3753)}

# README: the only S6 bad pairs `counterexample scan` leaves `unknown` are
# w' in {(34), (34)(56), (12)(34), (12)(34)(56)} against these four w.
UNKNOWN_FAMILY_S6 = frozenset(
    (w, wp)
    for w in ("563412", "563421", "653412", "653421")
    for wp in ("124356", "124365", "214356", "214365")
)

# Cartan matrices in the convention of weylpairs.roots.build_from_cartan.
CARTAN = {
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def encode(obj) -> bytes:
    """One JSON line in the CLI's layout (sorted keys, ", " and ": ")."""
    return (json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n").encode()


def _lines(emitted: bytes) -> list[dict]:
    return [json.loads(line) for line in emitted.decode().splitlines()]


def _perms(lib, n: int) -> list:
    return [lib.weyl.Permutation(t) for t in sorted(itertools.permutations(range(1, n + 1)))]


@dataclass
class Step:
    emitted: bytes
    items: list  # (start, end) perf_counter times of each item the step finished
    start: float
    end: float
    paused: float = 0.0  # seconds inside the step spent in clock ticks

    @property
    def busy(self) -> float:
        """Seconds spent in library calls and serialization."""
        return self.end - self.start - self.paused


class _StampedOut(io.StringIO):
    """Captured stdout that timestamps every write (one write per record),
    and lets the clock tick after a write, where no item is being timed."""

    def __init__(self, clock=None):
        super().__init__()
        self.clock = clock
        self.stamps: list[float] = []  # when each write began
        self.resumed: list[float] = []  # when the code that wrote it resumed

    def write(self, text: str) -> int:
        self.stamps.append(time.perf_counter())
        written = super().write(text)
        if self.clock is not None:
            self.clock.maybe_tick()
        self.resumed.append(time.perf_counter())
        return written


class Census:
    """`pairs enumerate --n 6 --filter bad`, then `patterns verify --n 6`,
    each one step through the CLI's own dispatch.  An item is one streamed
    bad-pair record; its latency is the wait from the previous record.  The
    pattern pass counts in items_per_s but has no items of its own."""

    name = "census-s6"
    why = ("exhaustive S6 sweep: weyl/pairs comparability filter, box counts, "
           "pattern search and brute-force partner scan, 3,753 records serialized; "
           "no poly, varieties or linalg")

    COMMANDS = {
        "enumerate": ["pairs", "enumerate", "--filter", "bad", "--jobs", "1"],
        "verify": ["patterns", "verify"],
    }

    def __init__(self, n: int = 6):
        self.n = n

    def describe(self) -> dict:
        return {"n": self.n, "ordered_pairs_per_sweep": math.factorial(self.n) ** 2}

    def setup(self, lib, seed: int) -> dict:
        state = {"lib": lib, "n": self.n - 1}
        for command in self.COMMANDS:  # warm-up on S_{n-1}: same code paths
            self.step(state, command)
        # the sweep is exhaustive, so the seed does not change its input
        return {"lib": lib, "n": self.n, "inputs": list(self.COMMANDS)}

    def step(self, state, command: str) -> Step:
        out = _StampedOut(state.get("clock"))
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            state["lib"].cli.dispatch(self.COMMANDS[command] + ["--n", str(state["n"])])
        end = time.perf_counter()
        items = []
        if command == "enumerate":
            # the last write is the summary record
            items = list(zip([start] + out.resumed[:-2], out.stamps[:-1]))
        paused = sum(b - a for a, b in zip(out.stamps, out.resumed))
        return Step(out.getvalue().encode(), items, start, end, paused)

    def gate(self, state, command: str, emitted: bytes) -> int:
        lines = _lines(emitted)
        n = state["n"]
        if command == "verify":
            return 0 if lines == [{"mismatches": [], "n": n}] else 1
        records, summary = lines[:-1], lines[-1]
        comparable, bad = CENSUS_COUNTS[n]
        if not (summary.get("summary") is True and summary.get("total_comparable") == comparable
                and summary.get("bad_count") == bad and len(records) == bad):
            return max(len(records), 1)
        return sum(
            1 for r in records
            if r.get("verdict") != "bad" or r.get("comparable") is not True
            or r.get("violating_orbit") is None
        )


class Scan:
    """`counterexample scan` on every bad pair (w, w') whose w' lies in a
    seeded order of the w' that have bad partners, whole w' groups at a time.
    An item is one pair: `additional_equation_scan` plus its JSON record."""

    name = "scan-s6"
    why = ("counterexample scan of seeded whole w' groups of S6 bad pairs: "
           "p_polynomials rebuilt per pair, witness checks on sparse points; "
           "the shape a per-w' EquationSet cache acts on")

    def __init__(self, n: int = 6, min_pairs: int = 100):
        self.n = n
        self.min_pairs = min_pairs

    def describe(self) -> dict:
        return {"n": self.n, "min_pairs_per_pass": self.min_pairs}

    def setup(self, lib, seed: int) -> dict:
        perms = _perms(lib, self.n)
        wprimes = [w for w in perms if lib.patterns.right_bad_exists(w).has_bad_partner]
        random.Random(seed).shuffle(wprimes)
        pairs = []
        for wp in wprimes:  # whole w' groups, in the seeded order
            if len(pairs) >= self.min_pairs:
                break
            pairs += [(w, wp) for w in perms if lib.pairs.is_good_orbitwise(wp, w).verdict == "bad"]
        state = {"lib": lib, "inputs": pairs}
        # warm-up on the last w' of the order, which no pass reaches
        wp = wprimes[-1]
        self.step(state, next((w, wp) for w in perms if lib.pairs.is_good_orbitwise(wp, w).verdict == "bad"))
        return state

    def step(self, state, pair) -> Step:
        lib = state["lib"]
        w, wp = pair
        start = time.perf_counter()
        report = lib.varieties.additional_equation_scan(w, wp)
        emitted = encode(lib.serialize.counterexample_dict(report))
        end = time.perf_counter()
        return Step(emitted, [(start, end)], start, end)

    def gate(self, state, pair, emitted: bytes) -> int:
        (rec,) = _lines(emitted)
        key = (pair[0].to_string(), pair[1].to_string())
        if (rec.get("w"), rec.get("w_prime")) != key:
            return 1
        in_family = self.n == 6 and key in UNKNOWN_FAMILY_S6
        if rec.get("status") == "unknown":
            return 0 if in_family and rec.get("witness") is None else 1
        witness = rec.get("witness")
        ok = (
            rec.get("status") == "refuted"
            and not in_family
            and bool(rec.get("hits"))
            and witness is not None
            and witness.get("ok") is True
            and bool(witness.get("checks"))
            and all(v is True for v in witness["checks"].values())
        )
        return 0 if ok else 1


class Sample:
    """`sample check` on cells w of every length, with several seeded points
    each: the cell's equations are built once, then each point is drawn and
    every family evaluated.  An item is one point."""

    name = "sample-s6"
    why = ("sample check on 20 S6 cells of every length, 5 seeded dense points each: "
           "linalg in the sampler, poly.evaluate on dense points; equations built "
           "once per cell, so no cache helps")

    POINTS_PER_CELL = 5

    def __init__(self, n: int = 6, cells: int = 20):
        self.n = n
        self.cells = cells

    def describe(self) -> dict:
        return {"n": self.n, "cells_per_pass": self.cells, "points_per_cell": self.POINTS_PER_CELL}

    def setup(self, lib, seed: int) -> dict:
        perms = _perms(lib, self.n)
        by_length: dict = {}
        for w in perms:
            by_length.setdefault(w.length(), []).append(w)
        # A point's cost varies twofold between cells, even of one length, so
        # seeded cells made runs with different seeds disagree by more than
        # any useful bound.  The cells are fixed instead: lengths spread
        # evenly from 0 to the longest, distinct cells evenly spaced within
        # each length in lexicographic order.  The seed draws the points.
        top = max(by_length)
        lengths = [round(i * top / (self.cells - 1)) for i in range(self.cells)]
        rng = random.Random(seed)
        cells = []
        for length in sorted(set(lengths)):
            same_length, count = by_length[length], lengths.count(length)
            for m in range(1, count + 1):
                cells.append((same_length[m * len(same_length) // (count + 1)], rng.randrange(1, 10**6)))
        state = {"lib": lib, "inputs": cells}
        chosen = {w for w, _ in cells}
        self.step(state, (next(w for w in reversed(perms) if w not in chosen), 0))  # warm-up
        return state

    def step(self, state, cell) -> Step:
        lib = state["lib"]
        w, base_seed = cell
        families = {"plucker": True, "incidence": True, "cell": True, "p_equations": True}
        items = []
        start = time.perf_counter()
        eqs = lib.varieties.p_polynomials(w)
        for s in range(self.POINTS_PER_CELL):
            t0 = time.perf_counter()
            plucker_values, psi = lib.varieties.sample_point_on_Vw(w, base_seed + s)
            point = lib.varieties.point_assignment(self.n, plucker_values, psi)
            for fam, ok in lib.varieties.check_point_families(eqs, point).items():
                families[fam] = families[fam] and ok
            items.append((t0, time.perf_counter()))
        # the record `weylpairs sample check` prints for the same cell and seed
        emitted = encode({
            "n": self.n, "w": w.to_string(), "samples": self.POINTS_PER_CELL,
            "seed": base_seed, "families": families, "ok": all(families.values()),
        })
        return Step(emitted, items, start, time.perf_counter())

    def gate(self, state, cell, emitted: bytes) -> int:
        (rec,) = _lines(emitted)
        families = rec.get("families") or {}
        ok = (
            rec.get("w") == cell[0].to_string()
            and rec.get("ok") is True
            and len(families) == 4
            and all(v is True for v in families.values())
        )
        return 0 if ok else self.POINTS_PER_CELL


class Crossval:
    """Cross-validation in a fixed rotation: a seeded comparable pair of each
    group under every criterion it supports (four on S_n, chain and parabolic
    on the Cartan-built groups), then a seeded element of each group whose
    d_w must equal its reflection length.  An item is one such check."""

    name = "crossval"
    why = ("criteria agreement on seeded S6 pairs and B4/D4 pairs built by "
           "build_from_cartan, plus d_w = reflection length: roots, mingen, "
           "chain BFS and parabolic machinery of ReflectionGroup")

    def __init__(self, n: int = 6, cartans: tuple = ("B4", "D4"), rounds: int = 200):
        self.n = n
        self.cartans = cartans
        self.rounds = rounds

    def describe(self) -> dict:
        return {"n": self.n, "cartan_groups": list(self.cartans), "rounds_per_pass": self.rounds}

    def setup(self, lib, seed: int) -> dict:
        groups = [("S%d" % self.n, lib.weyl.SymmetricGroup(self.n), _perms(lib, self.n))]
        for name in self.cartans:
            group = lib.weyl.ReflectionGroup(lib.roots.build_from_cartan(CARTAN[name], name=name))
            groups.append((name, group, list(range(group.size))))
        state = {"lib": lib, "groups": groups,
                 "inputs": self._items(groups, random.Random(seed), self.rounds)}
        for item in self._items(groups, random.Random(-1), 1):  # one item of each kind
            self.step(state, item)
        return state

    @staticmethod
    def _items(groups, rng, rounds: int) -> list:
        symmetric = groups[0][1]
        dw_draws = _by_cycles(groups[0][2], rounds, rng)
        items = []
        for r in range(rounds):
            for name, group, elements in groups:
                while True:
                    a, b = rng.choice(elements), rng.choice(elements)
                    if group.bruhat_leq(a, b):
                        break
                items.append(("pair", name, group, a, b))
            for name, group, elements in groups:
                w = dw_draws[r] if group is symmetric else rng.choice(elements)
                items.append(("dw", name, group, w, None))
        return items

    def step(self, state, item) -> Step:
        lib = state["lib"]
        kind, name, group, a, b = item
        typed = isinstance(group, lib.weyl.SymmetricGroup)
        label = (lambda e: e.to_string()) if typed else (lambda e: e)
        start = time.perf_counter()
        if kind == "pair":
            verdicts = {
                "chain": lib.pairs.is_good_chain(group, a, b).verdict,
                "parabolic": lib.pairs.is_good_parabolic(group, a, b).verdict,
            }
            if typed:
                verdicts["orbit"] = lib.pairs.is_good_orbitwise(a, b).verdict
                verdicts["flatten"] = lib.pairs.is_good_flattening(a, b).verdict
            record = {"group": name, "w1": label(a), "w2": label(b), "verdicts": verdicts}
        else:
            record = {
                "group": name, "w": label(a),
                "d_w": lib.mingen.min_gen_subsystem(group, a).d_w,
                "reflection_length": lib.mingen.reflection_length(group, a),
            }
        done = time.perf_counter()
        emitted = encode(record)
        return Step(emitted, [(start, done)], start, time.perf_counter())

    def gate(self, state, item, emitted: bytes) -> int:
        (rec,) = _lines(emitted)
        if item[0] == "pair":
            verdicts = set((rec.get("verdicts") or {}).values())
            return 0 if len(verdicts) == 1 and verdicts <= {"good", "bad"} else 1
        return 0 if rec.get("d_w") == rec.get("reflection_length") else 1


def _cycle_count(one_line: tuple) -> int:
    seen, cycles = set(), 0
    for start in one_line:
        if start not in seen:
            cycles += 1
            v = start
            while v not in seen:
                seen.add(v)
                v = one_line[v - 1]
    return cycles


def _by_cycles(perms: list, count: int, rng: random.Random) -> list:
    """``count`` seeded permutations, as many with each number of cycles as
    a uniform draw would give on average, in seeded order.

    reflection_length's search grows with n minus the number of cycles, and
    these draws set the p90 of crossval; uniform draws let its share of
    slow elements, and so the p90, swing from seed to seed.
    """
    by_cycles: dict = {}
    for w in perms:
        by_cycles.setdefault(_cycle_count(w.one_line), []).append(w)
    shares = {k: count * len(ws) / len(perms) for k, ws in by_cycles.items()}
    quota = {k: int(v) for k, v in shares.items()}
    for k in sorted(shares, key=lambda k: quota[k] - shares[k])[: count - sum(quota.values())]:
        quota[k] += 1  # largest remainders
    draws = [rng.choice(by_cycles[k]) for k in sorted(quota) for _ in range(quota[k])]
    rng.shuffle(draws)
    return draws


WORKLOADS = {w.name: w for w in (Census, Scan, Sample, Crossval)}
