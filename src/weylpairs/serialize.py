"""JSON-friendly dictionaries for every CLI-visible result type.

Exact numbers serialize as their ``str`` ("0", "5", "-3/2");
permutations as one-line strings; type-A roots as integer coordinate vectors.
All dictionaries are built with deterministic key and element order so that
identical runs emit byte-identical JSON.
"""

from __future__ import annotations

from .mingen import MinGenSubsystem
from .pairs import PairVerdict
from .patterns import PatternReport
from .varieties import CounterexampleReport, EquationSet, WitnessVerification
from .weyl import Permutation, SymmetricGroup


def pair_key_root(group: SymmetricGroup, key) -> list[int]:
    return list(group.root_vector(key))


def verdict_dict(v: PairVerdict, group: SymmetricGroup | None = None) -> dict:
    out = {
        "w1": v.w1.to_string() if isinstance(v.w1, Permutation) else str(v.w1),
        "w2": v.w2.to_string() if isinstance(v.w2, Permutation) else str(v.w2),
        "comparable": v.comparable,
        "verdict": v.verdict,
        "criterion": v.criterion,
    }
    if v.chain_witness is not None and group is not None:
        out["chain_witness"] = [pair_key_root(group, k) for k in v.chain_witness]
    else:
        out["chain_witness"] = None
    if v.violating_orbit is not None:
        orbit, i, j = v.violating_orbit
        out["violating_orbit"] = {"orbit": list(orbit), "i": i, "j": j}
    else:
        out["violating_orbit"] = None
    if v.parabolic is not None:
        p = v.parabolic
        out["parabolic"] = {
            "J": list(p.J),
            "u_J": p.u_J.to_string(),
            "v_J": p.v_J.to_string(),
            "w_J1": p.w_J1.to_string(),
            "w_J2": p.w_J2.to_string(),
        }
    else:
        out["parabolic"] = None
    return out


def mingen_dict(w: Permutation, sub: MinGenSubsystem, orbits) -> dict:
    return {
        "w": w.to_string(),
        "d_w": sub.d_w,
        "orbits": [list(o) for o in orbits],
        "phi_w": [list(v) for v in sub.phi_w],
    }


def pattern_report_dict(r: PatternReport) -> dict:
    out = {
        "w": r.w.to_string(),
        "side": r.side,
        "has_bad_partner": r.has_bad_partner,
        "witness_pattern": None,
        "witness_partner": None,
    }
    if r.witness_pattern is not None:
        pattern, sigma = r.witness_pattern
        out["witness_pattern"] = {
            "pattern": pattern.to_string(),
            "positions": list(sigma),
        }
    if r.witness_partner is not None:
        out["witness_partner"] = r.witness_partner.to_string()
    return out


def _indices_str(tup) -> str:
    return "".join(str(i) for i in tup)


def equation_set_dict(eqs: EquationSet) -> dict:
    p_rows = []
    for (d, indices, s) in sorted(eqs.p_equations):
        p_rows.append(
            {
                "d": d,
                "indices": list(indices),
                "s": s,
                "poly": eqs.p_equations[(d, indices, s)].canonical_str(),
            }
        )
    return {
        "n": eqs.n,
        "w": eqs.w.to_string(),
        "plucker": [p.canonical_str() for p in eqs.plucker],
        "incidence": [p.canonical_str() for p in eqs.incidence],
        "cell": {
            "nonvanishing": [list(t) for t in eqs.cell.nonvanishing],
            "vanishing": [[list(t) for t in tups] for tups in eqs.cell.vanishing],
        },
        "p_equations": p_rows,
    }


def equation_set_text(eqs: EquationSet) -> str:
    lines = [f"cell of w = {eqs.w.to_string()} (n = {eqs.n})"]
    lines.append("pluecker relations:")
    lines.extend(f"  {p.canonical_str()} = 0" for p in eqs.plucker)
    lines.append("incidence relations:")
    lines.extend(f"  {p.canonical_str()} = 0" for p in eqs.incidence)
    lines.append("cell (in)equations:")
    for d_idx, lead in enumerate(eqs.cell.nonvanishing):
        lines.append(f"  x{_indices_str(lead)} != 0")
        for t in eqs.cell.vanishing[d_idx]:
            lines.append(f"  x{_indices_str(t)} = 0")
    lines.append("colinearity coefficients:")
    for (d, indices, s) in sorted(eqs.p_equations):
        poly = eqs.p_equations[(d, indices, s)]
        lines.append(f"  P[{_indices_str(indices)}, s={s}]: {poly.canonical_str()} = 0")
    return "\n".join(lines) + "\n"


def witness_dict(wv: WitnessVerification) -> dict:
    return {
        "w": wv.w.to_string(),
        "w_prime": wv.w_prime.to_string(),
        "a": wv.a,
        "b": wv.b,
        "t": [str(x) for x in wv.point.diagonal],
        "plucker_nonzero": {
            _indices_str(tup): str(val)
            for tup, val in sorted(wv.point.plucker_values.items())
            if val != 0
        },
        "checks": dict(wv.checks),
        "ok": wv.ok,
    }


def counterexample_dict(rep: CounterexampleReport) -> dict:
    hits = [{"q": h.q, "a": h.a, "b": h.b, "variant": h.variant} for h in rep.hits]
    return {
        "w": rep.w.to_string(),
        "w_prime": rep.w_prime.to_string(),
        "status": rep.status,
        "hits": hits,
        # every hit is orbit-separated; the key stays until the interface version changes
        "orbit_separated_hits": hits,
        "witness": witness_dict(rep.witness) if rep.witness is not None else None,
    }
