"""Output checks: every CLI call's exit code and artifact against the README.

A check returns the problems it found (empty when the call is correct) and
the call's accuracy in decimal digits, or None when the call has no
accuracy figure. Checks never skip a call: a call whose artifact cannot be
parsed is a problem like any other.
"""

from __future__ import annotations

import json
import math

from workloads import BETA_THRESHOLD

ORACLE_TOL = 1e-8          # README: solver cross-validated against the oracle to 1e-8
CONJUGATE_TOL = 1e-10
VERIFY_ROWS = {"factorization", "resolvent-moment-0", "resolvent-moment-1",
               "residue-projection-product", "projection-equations",
               "adjoint-symmetry", "mirror-spectrum", "gram-identity"}


def _digits(error: float) -> float:
    return -math.log10(max(error, 1e-300))


def _sweep(call, art, csv, oracle_root):
    problems = []
    grid = call.facts["grid"]
    rows = art.get("rows", [])
    if [r.get("parameter") for r in rows] != grid:
        problems.append("sweep rows do not follow the grid one row per point")
        return problems, None
    worst = 0.0
    for beta, row in zip(grid, rows):
        expected = "ok" if beta < BETA_THRESHOLD else "inadmissible"
        if row.get("status") != expected:
            problems.append(f"beta={beta!r}: status {row.get('status')!r}, expected {expected!r}")
            continue
        if expected == "ok":
            err = abs(complex(row["re"], row["im"]) - oracle_root(beta))
            worst = max(worst, err)
            if not err <= ORACLE_TOL:
                problems.append(f"beta={beta!r}: solver differs from the oracle by {err:.3e}")
    lines = (csv or b"").decode("utf-8", "replace").splitlines()
    if len(lines) != len(rows) + 1 or not lines[0].startswith("parameter,"):
        problems.append("sweep CSV does not hold a header and one line per row")
    else:
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            if len(cells) != 8 or cells[-1] != row["status"] or float(cells[0]) != row["parameter"]:
                problems.append(f"CSV line {line!r} disagrees with the JSON row")
            elif row["status"] == "ok" and complex(float(cells[2]), float(cells[3])) != complex(row["re"], row["im"]):
                problems.append(f"CSV line {line!r} disagrees with the JSON eigenvalue")
    return problems, _digits(worst)


def _oracle(call, art, csv, oracle_root):
    problems = []
    cmp = art.get("solver_comparison") or {}
    diff = cmp.get("difference", math.inf)
    if not diff <= ORACLE_TOL:
        problems.append(f"oracle: solver differs from the closed form by {diff!r}")
    roots = {r["nu"]: complex(*r["z"]) for r in art.get("resonances", [])}
    if set(roots) != {1, -1} or not abs(roots[1] - roots[-1].conjugate()) <= CONJUGATE_TOL:
        problems.append("oracle: resonances on the two sheets are not a conjugate pair")
    return problems, _digits(diff)


def _verify(call, art, csv, oracle_root):
    problems = []
    rows = art.get("identities", [])
    if art.get("all_pass") is not True:
        problems.append("verify: all_pass is not true")
    if {r.get("name") for r in rows} != VERIFY_ROWS:
        problems.append("verify: identity rows differ from the README suite")
    margins = []
    for r in rows:
        if not r.get("pass") or (not r.get("skipped") and not r["residual"] <= r["threshold"]):
            problems.append(f"verify: row {r.get('name')!r} fails")
        elif not r.get("skipped") and r["residual"] > 0.0:
            margins.append(math.log10(r["threshold"] / r["residual"]))
    return problems, (min(margins) if margins else None)


def _solve(call, art, csv, oracle_root):
    if call.expect_code != 0:
        if (art.get("certificate") or {}).get("admissible") is not False:
            return ["solve: inadmissible artifact without an inadmissible certificate"], None
        return [], None
    problems = []
    sol = art.get("solution", {})
    total = sum(e["algebraic_multiplicity"] for e in art.get("eigenvalues", []))
    if sol.get("n") != call.facts["n"] or total != call.facts["n"]:
        problems.append(f"solve: algebraic multiplicities sum to {total}, expected n={call.facts['n']}")
    bound = sol.get("a_posteriori_bound", math.inf)
    if not 0.0 <= bound < 1.0:
        problems.append(f"solve: a-posteriori bound {bound!r} is not a small finite number")
        return problems, None
    return problems, _digits(bound)


_CHECKS = {"sweep": _sweep, "oracle": _oracle, "verify": _verify, "solve": _solve}
_EXPECTED_STATUS = {0: "ok", 2: "inadmissible"}


def check_call(call, code: int, artifact: bytes, csv: bytes | None, oracle_root):
    """Problems found in one call's output, and its accuracy in digits.

    ``oracle_root(beta)`` is the closed-form Friedrichs resonance on the
    upper sheet, used to cross-validate every admissible sweep row.
    """
    if code != call.expect_code:
        return [f"{call.command}: exit code {code}, expected {call.expect_code}"], None
    try:
        art = json.loads(artifact.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"{call.command}: artifact is not JSON ({exc})"], None
    if not isinstance(art, dict) or art.get("status") != _EXPECTED_STATUS[call.expect_code]:
        status = art.get("status") if isinstance(art, dict) else None
        return [f"{call.command}: status {status!r}"], None
    try:
        return _CHECKS[call.command](call, art, csv, oracle_root)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{call.command}: artifact is missing fields ({exc!r})"], None
