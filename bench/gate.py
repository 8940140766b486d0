"""Correctness gate for one op's report.

Every op must exit 0, print one JSON report on the op's config, pass its own
checks, carry only finite numbers and satisfy the report's invariants. For
the default seed the checked values are also compared with values recorded
in ``reference.json``. Tolerances are no looser than the program's own
certificates: 1e-8 * c_max on c_min and c_max, 1e-12 relative on closed-form
and exact-scan values, 1e-8 relative on values that go through a matrix
product or an eigensolve.
"""

from __future__ import annotations

import json
import math

# (field, tolerance kind, tolerance); "cmax" scales by the report's c_max, and
# by the value itself in reports that carry no c_max (c_min <= c_max)
_TOLERANCES = {
    "c_min": ("cmax", 1e-8),
    "c_max": ("cmax", 1e-8),
    "min_ratio": ("rel", 1e-8),
    "empirical_c_min": ("rel", 1e-8),
    "c_predicted": ("rel", 1e-12),
    "T_threshold": ("rel", 1e-12),
    "gamma_hat": ("rel", 1e-12),
    "argmin_k": ("exact", 0),
    "value": ("rel", 1e-12),
    "attained_n": ("exact", 0),
    "m_p": ("rel", 1e-12),
    "M_p": ("rel", 1e-12),
    "gamma": ("rel", 1e-12),
    "lhs": ("rel", 1e-8),
    "rhs": ("rel", 1e-8),
}


def checked_values(command: str, result) -> dict:
    """The numbers of a report that are compared with the reference."""
    if command == "scan-t":
        return {
            f"rows.{i}.{key}": row[key]
            for i, row in enumerate(result["rows"])
            for key in ("c_min", "c_predicted")
        }
    fields = {
        "constants": ("c_min", "c_max"),
        "verify": ("c_predicted", "T_threshold", "min_ratio", "empirical_c_min"),
        "diophantine": ("gamma_hat", "argmin_k"),
        "mab": ("value", "attained_n"),
        "symmetry": ("m_p", "M_p"),
        "ingham": ("gamma", "lhs", "rhs"),
        "oracle-check": (),
    }[command]
    return {key: result[key] for key in fields}


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


def _invariants(command: str, r) -> list:
    problems = []
    if command == "constants":
        if not 0 <= r["c_min"] <= r["c_max"]:
            problems.append("need 0 <= c_min <= c_max")
    elif command == "verify":
        if not r["passed"]:
            problems.append("verify reported passed=false")
        if not r["min_ratio"] >= r["c_predicted"] * (1 - 1e-9):
            problems.append("min_ratio below c_predicted")
    elif command == "scan-t":
        for row in r["rows"]:
            if not (row["pass"] and row["c_min"] >= row["c_predicted"] * (1 - 1e-9)):
                problems.append(f"scan row T={row['T']} fails")
    elif command == "oracle-check":
        if not (r["passed"] and r["max_rel_err"] <= r["tolerance"]):
            problems.append("oracle max_rel_err above tolerance")
    elif command == "diophantine":
        if not r["gamma_hat"] > 0:
            problems.append("need gamma_hat > 0")
    elif command == "ingham":
        if not (r["holds"] and r["lhs"] >= r["rhs"] * (1 - 1e-9)):
            problems.append("ingham bound does not hold")
        if not r["gamma"] > 0:
            problems.append("need gamma > 0")
    elif command == "mab":
        if not 0 < r["value"] <= math.pi / 2 + 1e-15:
            problems.append("need 0 < m_ab <= pi/2")
    elif command == "symmetry":
        if not 0 < r["m_p"] <= r["M_p"] <= 1 + 1e-15:
            problems.append("need 0 < m_p <= M_p <= 1")
    return problems


def _compare(values: dict, reference: dict, c_max) -> list:
    problems = []
    if set(values) != set(reference):
        return [f"checked fields {sorted(values)} differ from reference {sorted(reference)}"]
    for key, want in reference.items():
        got = values[key]
        kind, tol = _TOLERANCES[key.rsplit(".", 1)[-1]]
        if kind == "exact":
            ok = got == want
        elif kind == "cmax" and c_max:
            ok = abs(got - want) <= tol * c_max
        else:  # relative, also for a c_min reported without its c_max
            ok = abs(got - want) <= tol * abs(want)
        if not ok:
            problems.append(f"{key}={got!r} differs from reference {want!r}")
    return problems


def check(op, code: int, text: str, reference=None) -> list:
    """Problems with one op's outcome; an empty list means the op passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if report.get("command") != op.command or report.get("config") != op.config:
        return ["report does not echo the op's command and config"]
    result = report["result"]
    problems = [] if all(math.isfinite(x) for x in _numbers(result)) else ["non-finite number"]
    try:
        problems += _invariants(op.command, result)
        if reference is not None:
            c_max = reference.get("c_max", 0.0)
            problems += _compare(checked_values(op.command, result), reference, c_max)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
