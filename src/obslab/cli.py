"""Batch experiment runner: every verification as a subcommand.

All parameters come from one JSON config file; reports embed that config plus
the library version and contain no timestamps, so identical config and seed
give byte-identical output. Exit codes: 0 pass, 1 verification failure,
2 config error (a malformed value, or sizes whose arrays cannot be allocated),
3 theorem precondition (time horizon below threshold).
Config values go to the library as given, which checks them; only the
numbers read here (seed, samples, resolution, tolerance, the scan-t T grid,
the ingham coefficients) are checked here, by the same spectrum.number.
"""

from __future__ import annotations

import argparse
import functools
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
from .observation import ObservationSpec, assemble_gram, quadrature_nodes, quadrature_oracle
from .spectrum import build_mode_set, number, RectangleGeometry
from .states import EnergyWeight, SpectralState, random_state, random_states

# seeds drawn per block of verify and oracle-check states: it bounds the states held at once
_CHUNK = 256


def _mode_set(config: dict):
    g = config["geometry"]  # exactly two sides: a third entry or key is a TypeError
    geometry = RectangleGeometry(**g) if isinstance(g, dict) else RectangleGeometry(*g)
    K1, K2 = config["truncation"]  # ModeSet rejects a fractional bound
    return build_mode_set(geometry, K1, K2)


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
        out.append(ObservationSpec.from_dict(merged))
    return out


def _projected_states(config: dict, specs: list, mode_set, seed: int, n: int):
    """n random states with only the modes the theorem's symmetries admit, drawn lazily _CHUNK seeds at a time.

    Each block is drawn on the conjunction of SymmetrySpec.admits, so it is
    already projected, and no block is held here once it is yielded: not
    while it is swept, nor while the next is drawn.
    """
    decay = config.get("decay", 0.0)
    sym = theorem_symmetries(config["theorem"], specs, config.get("params", {}), mode_set.geometry)
    admits = np.logical_and.reduce([s.admits(mode_set) for s in sym]) if sym else None
    for start in range(0, n, _CHUNK):
        yield random_states(mode_set, range(seed + start, seed + min(start + _CHUNK, n)), decay, admits)


def cmd_verify(config: dict, seed: int) -> tuple:
    theorem = config["theorem"]
    ms = _mode_set(config)
    specs = _specs(config)
    params = dict(config.get("params", {}))
    n = number(config.get("samples", 100), "samples", integer=True)
    if n == 0:
        # eigen-certificate only: the truncated-space minimizer is the check
        result = check_theorem(theorem, specs, ms, params, require_threshold=True)
    else:
        states = _projected_states(config, specs, ms, seed, n)
        result = verify_observability(theorem, specs, states, params)
    return result, result["passed"]


def cmd_scan_t(config: dict, seed: int) -> tuple:
    if "T_values" in config:
        ts = [float(number(t, "T_values")) for t in config["T_values"]]
    else:
        ts = np.linspace(
            float(number(config["T_start"], "T_start")),
            float(number(config["T_stop"], "T_stop")),
            number(config["T_count"], "T_count", integer=True),
        ).tolist()
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])) or ts[0] <= 0:
        raise ValueError("T values must be positive and increasing")
    ms = _mode_set(config)
    params = dict(config.get("params", {}))
    rows = []
    for r in scan_theorem(config["theorem"], _specs(config, T=ts[0]), ms, params, ts):
        # c_predicted is None below the threshold: null in JSON, nan in CSV
        c = r["c_predicted"]
        rows.append({"T": r["T"], "c_min": r["empirical_c_min"], "c_predicted": c, "pass": r["passed"]})
    return {"rows": rows}, all(r["pass"] for r in rows if r["c_predicted"] is not None)


def cmd_constants(config: dict, seed: int) -> tuple:
    ms = _mode_set(config)
    specs = _specs(config)
    weight = EnergyWeight(config.get("weight", {}).get("s", 1), specs[0].model)
    return empirical_constants(specs, weight, ms).to_dict(), True


def cmd_diophantine(config: dict, seed: int) -> tuple:
    points = build_algebraic_points(config["M"], config.get("ell1", math.pi))
    report = estimate_gamma(points, config["K_max"])
    return json.loads(report.to_json()), True


def cmd_mab(config: dict, seed: int) -> tuple:
    return m_ab(config["a"], config["b"]), True


def cmd_symmetry(config: dict, seed: int) -> tuple:
    sc = symmetry_constants(config["p"], config["alpha"])
    return asdict(sc), True


def cmd_ingham(config: dict, seed: int) -> tuple:
    coeffs = [complex(*(number(x, "coefficients") for x in (re, im))) for re, im in config["coefficients"]]
    gamma = None if config.get("gamma", "auto") == "auto" else config["gamma"]  # None: the gap of the exponents
    es = ExponentialSum(tuple(config["exponents"]), tuple(coeffs), config["n"], gamma, config.get("indices"))
    result = mehrenberger_check(es, config["T"])
    result["gamma"] = es.gamma
    return result, result["holds"]


def cmd_oracle_check(config: dict, seed: int) -> tuple:
    ms = _mode_set(config)
    specs = _specs(config)
    n = number(config.get("samples", 5), "samples", integer=True)
    if n < 1:
        raise ValueError("samples must be >= 1")
    resolution = number(config.get("resolution", 256), "resolution", integer=True)
    tol = float(number(config.get("tolerance", 1e-6), "tolerance"))
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    decay = config.get("decay", 0.0)
    worst, nodes = 0.0, 0
    for spec in specs:  # spec by spec: the oracle samples a spec's Grams once for all its rows
        gram = assemble_gram(spec, ms)
        for start in range(0, n, _CHUNK):
            rows = [random_state(ms, seed + i, decay) for i in range(start, min(start + _CHUNK, n))]
            block = SpectralState(ms, np.stack([r.a for r in rows]), np.stack([r.b for r in rows]))
            closed, quad = gram.quadratic_form(block), quadrature_oracle(block, spec, resolution)
            with np.errstate(all="ignore"):  # a non-finite value gives inf or nan: both fail
                rel = np.abs(closed - quad) / np.maximum(np.abs(closed), 1e-300)
            worst = max(worst, float(np.where(np.isnan(rel), math.inf, rel).max()))
        nodes = max(nodes, quadrature_nodes(spec, ms, resolution))
    result = {
        "samples": n,
        "resolution": resolution,
        "nodes": nodes,
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
        c = "nan" if r["c_predicted"] is None else repr(r["c_predicted"])
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


@functools.cache
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
        seed = args.seed if args.seed is not None else number(config.get("seed", 0), "seed", integer=True)
        if args.fmt == "csv" and args.command != "scan-t":
            raise ValueError("csv output is only defined for scan-t")
        result, passed = COMMANDS[args.command](config, seed)
        if args.command == "scan-t" and args.fmt != "json":
            _emit(_csv_scan(result["rows"], config), args.out)
            return 0 if passed else 1
    except ThresholdError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    # OverflowError: a size beyond a C long; MemoryError: sizes too large to allocate
    except (ValueError, KeyError, TypeError, OverflowError, MemoryError, OSError) as exc:
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
