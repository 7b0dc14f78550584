"""Command-line front end.

All structured output is JSON on stdout (JSON lines for enumerations);
progress goes to stderr.  Identical invocations with identical seeds produce
byte-identical output.  Exit codes: 0 for success including mathematically
negative answers ("the pair is bad", "status unknown"); 1 when a verification
check fails; 2 for usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import sys

from . import __version__
from .mingen import min_gen_subsystem, min_gen_type_A_orbits
from .pairs import CRITERIA, FILTERS, EnumerationSummary, enumerate_pairs, is_good_orbitwise
from .patterns import left_bad_exists, right_bad_exists, verify_pattern_theorem
from .serialize import (
    counterexample_dict,
    equation_set_dict,
    equation_set_text,
    mingen_dict,
    pattern_report_dict,
    verdict_dict,
    witness_dict,
)
from .varieties import (
    DEFAULT_SEED,
    additional_equation_scan,
    check_point_families,
    p_polynomials,
    point_assignment,
    sample_point_on_Vw,
    separated_hits,
    verify_witness,
)
from .weyl import Permutation, check_size, symmetric_group

INTERFACE_VERSION = "1.0"

CRITERIA_CHOICES = (*CRITERIA, "all")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _emit(obj, out) -> None:
    out.write(_dumps(obj) + "\n")


def _perm(token: str, n: int) -> Permutation:
    w = Permutation.from_string(token)
    if w.n != n:
        raise ValueError(f"permutation {token!r} does not have n = {n} letters")
    return w


def _require_together(args, first: str, second: str) -> None:
    if (getattr(args, first) is None) != (getattr(args, second) is None):
        raise ValueError(f"--{first} and --{second} must be given together")


def _bad_pair(args) -> tuple[Permutation, Permutation]:
    """The pair (w, w') named by --w and --wprime, which must be bad: the
    scanner's answers, "unknown" included, are statements about bad pairs."""
    w = _perm(args.w, args.n)
    wp = _perm(args.wprime, args.n)
    verdict = is_good_orbitwise(wp, w).verdict
    if verdict != "bad":
        reason = "good" if verdict == "good" else "not comparable (w' <= w fails)"
        raise ValueError(
            f"({w.to_string()}, {wp.to_string()}) is not a bad pair: it is {reason}"
        )
    return w, wp


@contextlib.contextmanager
def _output(path):
    """stdout, or the file at ``path``, closed when the block ends."""
    if not path:
        yield sys.stdout
        return
    try:
        out = open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    with out:
        yield out


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_pair_classify(args) -> int:
    if args.n < 2:
        raise ValueError(f"pair classification needs n >= 2, got n = {args.n}")
    w1 = _perm(args.w1, args.n)
    w2 = _perm(args.w2, args.n)
    names = tuple(CRITERIA) if args.criteria == "all" else (args.criteria,)
    if {"chain", "parabolic"} & set(names):
        check_size("group construction", args.n)
    results = {name: CRITERIA[name](args.n, w1, w2) for name in names}
    verdicts = {r.verdict for r in results.values()}
    if len(verdicts) != 1:
        _emit(
            {
                "n": args.n,
                "w1": w1.to_string(),
                "w2": w2.to_string(),
                "error": "criteria disagree",
                "criteria": {k: r.verdict for k, r in results.items()},
            },
            sys.stdout,
        )
        return 1
    group = symmetric_group(args.n)
    merged = {
        "n": args.n,
        "w1": w1.to_string(),
        "w2": w2.to_string(),
        "comparable": next(iter(results.values())).comparable,
        "verdict": next(iter(verdicts)),
        "criteria": {k: r.verdict for k, r in results.items()},
        "chain_witness": None,
        "violating_orbit": None,
        "parabolic": None,
    }
    for r in results.values():
        d = verdict_dict(r, group)
        for key in ("chain_witness", "violating_orbit", "parabolic"):
            if merged[key] is None and d[key] is not None:
                merged[key] = d[key]
    _emit(merged, sys.stdout)
    return 0


def _block_task(task) -> tuple[str, EnumerationSummary]:
    """Worker: the JSON lines of the pairs whose w1 has lexicographic index
    in [lo, hi), serialised here so that the parent only writes them, and
    the block's summary.  The parent has taken the opt-in for a large n."""
    n, lo, hi, verdict_filter = task
    block = EnumerationSummary(n)
    pairs = enumerate_pairs(
        n, verdict_filter, allow_large=True, summary=block, rows=(lo, hi)
    )
    return "".join(_dumps(verdict_dict(v)) + "\n" for v in pairs), block


def cmd_pairs_enumerate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    check_size("enumeration", args.n, args.allow_large)
    jobs = min(args.jobs, os.cpu_count() or 1)
    with _output(args.out) as out:
        if jobs > 1:
            summary = _enumerate_parallel(args, jobs, out)
        else:
            summary = EnumerationSummary(args.n)
            for v in enumerate_pairs(
                args.n, args.filter, allow_large=args.allow_large, summary=summary
            ):
                _emit(verdict_dict(v), out)
        _emit(
            {
                "summary": True,
                "n": args.n,
                "total_comparable": summary.total_comparable,
                "bad_count": summary.bad_count,
            },
            out,
        )
    return 0


def _enumerate_parallel(args, jobs: int, out) -> EnumerationSummary:
    total = math.factorial(args.n)
    nblocks = min(total, jobs * 4)
    bounds = [
        (total * k // nblocks, total * (k + 1) // nblocks) for k in range(nblocks)
    ]
    summary = EnumerationSummary(args.n)
    with multiprocessing.Pool(min(jobs, nblocks)) as pool:
        tasks = [(args.n, lo, hi, args.filter) for lo, hi in bounds]
        # imap preserves task order, so output stays deterministic while
        # blocks stream out as they finish
        for bidx, (text, block) in enumerate(pool.imap(_block_task, tasks)):
            summary.total_comparable += block.total_comparable
            summary.bad_count += block.bad_count
            out.write(text)
            print(f"block {bidx + 1}/{nblocks} done", file=sys.stderr)
    return summary


def cmd_patterns_verify(args) -> int:
    report = verify_pattern_theorem(args.n, allow_large=args.allow_large)
    _emit(report, sys.stdout)
    return 0 if not report["mismatches"] else 1


def cmd_patterns_query(args) -> int:
    w = Permutation.from_string(args.w)
    _emit(
        {
            "w": w.to_string(),
            "left": pattern_report_dict(left_bad_exists(w)),
            "right": pattern_report_dict(right_bad_exists(w)),
        },
        sys.stdout,
    )
    return 0


def cmd_mings_show(args) -> int:
    w = _perm(args.w, args.n)
    group = symmetric_group(args.n)
    sub = min_gen_subsystem(group, w)
    orbits, _ = min_gen_type_A_orbits(w)
    _emit(mingen_dict(w, sub, orbits), sys.stdout)
    return 0


def cmd_equations_emit(args) -> int:
    w = _perm(args.w, args.n)
    eqs = p_polynomials(w)
    if args.format == "text":
        sys.stdout.write(equation_set_text(eqs))
    else:
        _emit(equation_set_dict(eqs), sys.stdout)
    return 0


def cmd_counterexample_scan(args) -> int:
    check_size("equation generation", args.n)
    _require_together(args, "w", "wprime")
    pair = _bad_pair(args) if args.w is not None else None
    with _output(args.out) as out:
        if pair is not None:
            w, wp = pair
            _emit(counterexample_dict(additional_equation_scan(w, wp)), out)
            return 0
        count = 0
        for v in enumerate_pairs(args.n, "bad"):
            rep = additional_equation_scan(v.w2, v.w1)
            _emit(counterexample_dict(rep), out)
            count += 1
            if count % 50 == 0:
                print(f"scanned {count} bad pairs", file=sys.stderr)
    return 0


def cmd_witness_verify(args) -> int:
    check_size("equation generation", args.n)
    _require_together(args, "a", "b")
    w, wp = _bad_pair(args)
    hits = separated_hits(w, wp)
    if args.a is None and not hits:
        _emit(
            {"w": w.to_string(), "w_prime": wp.to_string(), "status": "unknown", "witness": None},
            sys.stdout,
        )
        return 0
    a, b = (hits[0].a, hits[0].b) if args.a is None else (args.a, args.b)
    result = verify_witness(w, wp, a, b)
    _emit(witness_dict(result), sys.stdout)
    return 0 if result.ok else 1


def cmd_sample_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    w = _perm(args.w, args.n)
    eqs = p_polynomials(w)
    families = {"plucker": True, "incidence": True, "cell": True, "p_equations": True}
    for s in range(args.samples):
        plucker_values, psi = sample_point_on_Vw(w, args.seed + s)
        point = point_assignment(args.n, plucker_values, psi)
        for fam, ok in check_point_families(eqs, point).items():
            families[fam] = families[fam] and ok
    record = {
        "n": args.n,
        "w": w.to_string(),
        "samples": args.samples,
        "seed": args.seed,
        "families": families,
        "ok": all(families.values()),
    }
    _emit(record, sys.stdout)
    return 0 if record["ok"] else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylpairs",
        description="exact-arithmetic toolkit for good/bad Weyl group pairs "
        "and flag-variety cell equations",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"weylpairs {__version__} (interface {INTERFACE_VERSION})",
    )
    top = parser.add_subparsers(dest="group", required=True)

    pair = top.add_parser("pair", help="single-pair classification")
    pair_sub = pair.add_subparsers(dest="verb", required=True)
    classify = pair_sub.add_parser("classify", help="classify one ordered pair")
    classify.add_argument("--n", type=int, required=True)
    classify.add_argument("--w1", required=True)
    classify.add_argument("--w2", required=True)
    classify.add_argument("--criteria", choices=CRITERIA_CHOICES, default="all")
    classify.set_defaults(func=cmd_pair_classify)

    pairs_p = top.add_parser("pairs", help="exhaustive pair enumeration")
    pairs_sub = pairs_p.add_subparsers(dest="verb", required=True)
    enum = pairs_sub.add_parser("enumerate", help="classify all comparable pairs")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--filter", choices=FILTERS, default="all")
    enum.add_argument("--out", default=None)
    enum.add_argument("--jobs", type=int, default=1)
    enum.add_argument("--allow-large", action="store_true")
    enum.set_defaults(func=cmd_pairs_enumerate)

    patterns_p = top.add_parser("patterns", help="pattern avoidance")
    patterns_sub = patterns_p.add_subparsers(dest="verb", required=True)
    pverify = patterns_sub.add_parser("verify", help="exhaustive theorem check")
    pverify.add_argument("--n", type=int, required=True)
    pverify.add_argument("--allow-large", action="store_true")
    pverify.set_defaults(func=cmd_patterns_verify)
    pquery = patterns_sub.add_parser("query", help="pattern report for one w")
    pquery.add_argument("--w", required=True)
    pquery.set_defaults(func=cmd_patterns_query)

    mings = top.add_parser("mings", help="minimal generating subsystems")
    mings_sub = mings.add_subparsers(dest="verb", required=True)
    show = mings_sub.add_parser("show", help="E_w, Phi_w and d_w for one w")
    show.add_argument("--n", type=int, required=True)
    show.add_argument("--w", required=True)
    show.set_defaults(func=cmd_mings_show)

    equations = top.add_parser("equations", help="cell equation families")
    equations_sub = equations.add_subparsers(dest="verb", required=True)
    emit = equations_sub.add_parser("emit", help="emit every equation family")
    emit.add_argument("--n", type=int, required=True)
    emit.add_argument("--w", required=True)
    emit.add_argument("--format", choices=("json", "text"), default="json")
    emit.set_defaults(func=cmd_equations_emit)

    ce = top.add_parser("counterexample", help="diagonal-equation scanner")
    ce_sub = ce.add_subparsers(dest="verb", required=True)
    scan = ce_sub.add_parser("scan", help="scan bad pairs for separated hits")
    scan.add_argument("--n", type=int, required=True)
    scan.add_argument("--w", default=None, help="scan a single pair: the larger element")
    scan.add_argument("--wprime", default=None, help="the smaller element")
    scan.add_argument("--out", default=None)
    scan.set_defaults(func=cmd_counterexample_scan)

    witness = top.add_parser("witness", help="witness point verification")
    witness_sub = witness.add_subparsers(dest="verb", required=True)
    wverify = witness_sub.add_parser("verify", help="verify the canonical witness")
    wverify.add_argument("--n", type=int, required=True)
    wverify.add_argument("--w", required=True)
    wverify.add_argument("--wprime", required=True)
    wverify.add_argument("--a", type=int, default=None)
    wverify.add_argument("--b", type=int, default=None)
    wverify.set_defaults(func=cmd_witness_verify)

    sample = top.add_parser("sample", help="random cell points")
    sample_sub = sample.add_subparsers(dest="verb", required=True)
    check = sample_sub.add_parser("check", help="evaluate equation families on samples")
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--w", required=True)
    check.add_argument("--samples", type=int, default=20)
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.set_defaults(func=cmd_sample_check)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
