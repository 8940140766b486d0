"""Batch experiment runner: every verification as a subcommand.

All parameters come from one JSON config file; reports embed that config plus
the library version and contain no timestamps, so identical config and seed
give byte-identical output. Exit codes: 0 pass, 1 verification failure,
2 config error, 3 theorem precondition (time horizon below threshold).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .diophantine import build_algebraic_points, estimate_gamma
from .inequalities import (
    ExponentialSum,
    ThresholdError,
    check_theorem,
    empirical_constants,
    m_ab,
    mehrenberger_check,
    scan_theorem,
    symmetry_constants,
    theorem_symmetries,
    verify_observability,
)
from .observation import ObservationSpec, assemble_gram, quadrature_oracle
from .spectrum import build_mode_set, RectangleGeometry
from .states import EnergyWeight, project_p_symmetric, random_state, random_states

# seeds drawn per block of verify states: it bounds the states held at once
_CHUNK = 256


def _geometry(config: dict) -> RectangleGeometry:
    g = config["geometry"]
    if isinstance(g, dict):
        return RectangleGeometry(g["ell1"], g["ell2"])
    return RectangleGeometry(g[0], g[1])


def _mode_set(config: dict):
    K1, K2 = config["truncation"]  # ModeSet rejects a fractional bound
    return build_mode_set(_geometry(config), K1, K2)


def _integer(name: str, value) -> int:
    """An integer config field; a fractional value is an error, never truncated."""
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _specs(config: dict, T=None) -> list:
    """Observation specs from config; top-level model and T fill omitted keys."""
    raw = config.get("specs") or [config["spec"]]
    out = []
    for d in raw:
        merged = dict(d)
        merged.setdefault("model", config.get("model"))
        override = T if T is not None else config.get("T")
        if override is not None:
            merged["T"] = override
        else:
            merged.setdefault("T", d.get("T"))
        out.append(ObservationSpec.from_dict(merged))
    return out


def _projected_states(config: dict, specs: list, mode_set, seed: int):
    """Random states projected to the theorem's symmetries, drawn lazily _CHUNK seeds at a time."""
    n = _integer("samples", config.get("samples", 100))
    decay = float(config.get("decay", 0.0))
    sym = theorem_symmetries(config["theorem"], specs, config.get("params", {}), mode_set.geometry)
    for start in range(0, n, _CHUNK):
        block = random_states(mode_set, range(seed + start, seed + min(start + _CHUNK, n)), decay)
        for s in sym:
            block = project_p_symmetric(block, s)
        yield block


def cmd_verify(config: dict, seed: int) -> tuple:
    theorem = config["theorem"]
    ms = _mode_set(config)
    specs = _specs(config)
    params = dict(config.get("params", {}))
    if _integer("samples", config.get("samples", 100)) == 0:
        # eigen-certificate only: the truncated-space minimizer is the check
        result = check_theorem(theorem, specs, ms, params, require_threshold=True)
    else:
        states = _projected_states(config, specs, ms, seed)
        result = verify_observability(theorem, specs, states, params)
    return result, result["passed"]


def cmd_scan_t(config: dict, seed: int) -> tuple:
    if "T_values" in config:
        ts = [float(t) for t in config["T_values"]]
    else:
        ts = np.linspace(
            float(config["T_start"]),
            float(config["T_stop"]),
            _integer("T_count", config["T_count"]),
        ).tolist()
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 0:
        raise ValueError("T values must be positive and increasing")
    ms = _mode_set(config)
    params = dict(config.get("params", {}))
    rows = []
    for r in scan_theorem(config["theorem"], _specs(config, T=ts[0]), ms, params, ts):
        c = math.nan if r["c_predicted"] is None else r["c_predicted"]
        row = {"T": r["T"], "c_min": r["empirical_c_min"], "c_predicted": c, "pass": r["passed"]}
        rows.append(row)
    return {"rows": rows}, all(r["pass"] for r in rows if not math.isnan(r["c_predicted"]))


def cmd_constants(config: dict, seed: int) -> tuple:
    ms = _mode_set(config)
    specs = _specs(config)
    s = float(config.get("weight", {}).get("s", 1))
    weight = EnergyWeight(s, specs[0].model)
    report = empirical_constants(specs, weight, ms)
    return json.loads(report.to_json()), True


def cmd_diophantine(config: dict, seed: int) -> tuple:
    # integer fields go through as given: the library rejects a fractional value
    points = build_algebraic_points(config["M"], float(config.get("ell1", math.pi)))
    report = estimate_gamma(points, config["K_max"])
    return json.loads(report.to_json()), True


def cmd_mab(config: dict, seed: int) -> tuple:
    return m_ab(float(config["a"]), float(config["b"])), True


def cmd_symmetry(config: dict, seed: int) -> tuple:
    sc = symmetry_constants(config["p"], float(config["alpha"]))
    return asdict(sc), True


def cmd_ingham(config: dict, seed: int) -> tuple:
    w = [float(x) for x in config["exponents"]]
    coeffs = [complex(re, im) for re, im in config["coefficients"]]
    n = config["n"]
    indices = config.get("indices")
    gamma = config.get("gamma", "auto")
    gamma = None if gamma == "auto" else float(gamma)  # None: the gap of the exponents
    es = ExponentialSum(tuple(w), tuple(coeffs), n, gamma, indices)
    result = mehrenberger_check(es, float(config["T"]))
    result["gamma"] = es.gamma
    return result, result["holds"]


def cmd_oracle_check(config: dict, seed: int) -> tuple:
    ms = _mode_set(config)
    specs = _specs(config)
    n = _integer("samples", config.get("samples", 5))
    if n < 1:
        raise ValueError("samples must be >= 1")
    resolution = _integer("resolution", config.get("resolution", 256))
    tol = float(config.get("tolerance", 1e-6))
    decay = float(config.get("decay", 0.0))
    grams = [assemble_gram(s, ms) for s in specs]
    worst = 0.0
    for i in range(n):
        st = random_state(ms, seed + i, decay)
        for spec, gram in zip(specs, grams):
            closed = gram.quadratic_form(st)
            quad = quadrature_oracle(st, spec, resolution)
            rel = abs(closed - quad) / max(abs(closed), 1e-300)
            # a non-finite value fails the check; max() would drop a nan
            worst = max(worst, rel if math.isfinite(closed) and math.isfinite(quad) else math.inf)
    result = {
        "samples": n,
        "resolution": resolution,
        "tolerance": tol,
        "max_rel_err": worst,
        "passed": worst <= tol,
    }
    return result, result["passed"]


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_scan(rows, config: dict) -> str:
    lines = [f"# version={__version__}"]
    lines.append("# config=" + json.dumps(config, sort_keys=True))
    lines.append("T,c_min,c_predicted,pass")
    for r in rows:
        c = "nan" if math.isnan(r["c_predicted"]) else repr(r["c_predicted"])
        lines.append(f"{r['T']!r},{r['c_min']!r},{c},{str(r['pass']).lower()}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "verify": cmd_verify,
    "scan-t": cmd_scan_t,
    "constants": cmd_constants,
    "diophantine": cmd_diophantine,
    "mab": cmd_mab,
    "symmetry": cmd_symmetry,
    "ingham": cmd_ingham,
    "oracle-check": cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obslab",
        description="Observability experiments on rectangular membranes and plates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--format", choices=["json", "csv"], dest="fmt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        seed = args.seed if args.seed is not None else _integer("seed", config.get("seed", 0))
        if args.fmt == "csv" and args.command != "scan-t":
            raise ValueError("csv output is only defined for scan-t")
        result, passed = COMMANDS[args.command](config, seed)
        if args.command == "scan-t" and args.fmt != "json":
            _emit(_csv_scan(result["rows"], config), args.out)
            return 0 if passed else 1
    except ThresholdError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    # OverflowError: int() of an infinite config value
    except (ValueError, KeyError, TypeError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "result": result,
    }
    _emit(json.dumps(report, sort_keys=True) + "\n", args.out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
