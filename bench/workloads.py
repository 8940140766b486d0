"""Seeded inputs for the four benchmark workloads.

A workload is a fixed cycle of op slots; op ``i`` of a run fills slot
``i % len(slots)`` in cycle ``i // len(slots)``. Every op draws its inputs from
its own generator, keyed by workload, seed and op index, so the same seed
gives the same op list however many ops a run completes, and no two ops of a
run share a config. Each slot has a fixed problem size and a seeded geometry,
so the cost of a cycle barely depends on the seed.

Thresholds are computed here from the theorems' closed forms, independently
of the package, and every time horizon is drawn above them. This module
imports nothing from obslab, numpy or scipy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PI = math.pi
SQUARE = [PI, PI]
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``obslab <command> --config <file> [extra]``."""

    index: int
    slot: str
    command: str
    config: dict
    extra: tuple = ()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _interval(rng: random.Random, lo: float, hi: float, width: tuple) -> list:
    w = rng.uniform(*width)
    start = rng.uniform(lo, hi - w)
    return [start, start + w]


def _coprime(rng: random.Random, p: int) -> int:
    return rng.choice([j for j in range(1, p) if math.gcd(j, p) == 1])


def m_ab_lower(a: float, b: float, n_max: int = 4096) -> float:
    """Lower bound on inf_n int_a^b sin(n y)^2 dy.

    Term n equals (b-a)/2 - (sin 2nb - sin 2na)/(4n) >= (b-a)/2 - 1/(2n), so
    the scan up to n_max plus that tail bound is a valid lower bound.
    """
    half = (b - a) / 2.0
    best = min(
        half - (math.sin(2 * n * b) - math.sin(2 * n * a)) / (4 * n) for n in range(1, n_max + 1)
    )
    return min(best, half - 1.0 / (2 * n_max))


def symmetry_extremes(p: int, alpha: float) -> tuple:
    values = [math.sin(k * alpha) ** 2 for k in range(1, p)]
    nonzero = [v for v in values if v > 1e-12]
    return min(nonzero), max(nonzero)


def two_strips_threshold(a, b, c, d) -> float:
    m = min(m_ab_lower(a, b), m_ab_lower(c, d))
    return math.sqrt(32 * PI**2 + 16 * PI**3 / m)


def two_lines_threshold(p, alpha, q, beta) -> float:
    mp, Mp = symmetry_extremes(p, alpha)
    mq, Mq = symmetry_extremes(q, beta)
    return math.sqrt(32 * PI**2 * max(mp + Mq, mq + Mp))


def line_plus_strip_threshold(p, alpha, c, d) -> float:
    mp, Mp = symmetry_extremes(p, alpha)
    mcd = m_ab_lower(c, d)
    return math.sqrt(max(32 * PI**2 + 16 * PI**3 / mp, 32 * PI**2 + 32 * PI**2 * Mp / mcd))


def _above(rng: random.Random, threshold: float) -> float:
    return threshold * rng.uniform(1.05, 1.5)


def _symmetric_line(rng: random.Random) -> tuple:
    p = rng.choice([2, 3, 4, 5])
    return p, _coprime(rng, p) * PI / p


# ---------------------------------------------------------------------------
# pencil: one large constants solve per op, K = 24 (2n = 1152)

_PENCIL_K = [24, 24]


def _pencil_base(rng, model) -> dict:
    return {"geometry": SQUARE, "truncation": _PENCIL_K, "model": model, "T": rng.uniform(20.0, 50.0)}


def _pencil_cross(rng, cycle):
    a, b = _interval(rng, 0.3, PI - 0.3, (0.6, 1.2))
    c, d = _interval(rng, 0.3, PI - 0.3, (0.6, 1.2))
    region = {"kind": "CrossStrips", "a": a, "b": b, "c": c, "d": d}
    return "constants", {**_pencil_base(rng, "wave"), "spec": {"region": region, "field": "velocity"}}


def _pencil_lines(rng, cycle):
    specs = [
        {"region": {"kind": "VerticalLine", "alpha": rng.uniform(0.3, PI - 0.3)}, "field": "velocity"},
        {"region": {"kind": "HorizontalLine", "beta": rng.uniform(0.3, PI - 0.3)}, "field": "velocity"},
    ]
    return "constants", {**_pencil_base(rng, "wave"), "specs": specs}


def _pencil_gamma0(rng, cycle):
    spec = {"region": {"kind": "BoundaryGamma0"}, "field": "normal_derivative"}
    return "constants", {**_pencil_base(rng, "wave"), "spec": spec}


def _pencil_segments(rng, cycle):
    segments = [[rng.uniform(0.3, PI - 0.3), _interval(rng, 0.2, PI - 0.2, (0.8, 2.0))] for _ in range(2)]
    spec = {"region": {"kind": "VerticalSegments", "segments": segments}, "field": "displacement"}
    return "constants", {**_pencil_base(rng, "plate"), "spec": spec, "weight": {"s": -1}}


def _pencil_open_rect(rng, cycle):
    t0, t1 = _interval(rng, 0.0, 3.0, (0.5, 1.5))
    x0, x1 = _interval(rng, 0.2, PI - 0.2, (0.6, 1.5))
    region = {"kind": "OpenRect", "t0": t0, "t1": t1, "x0": x0, "x1": x1}
    spec = {"region": region, "field": "displacement"}
    return "constants", {**_pencil_base(rng, "plate"), "spec": spec, "weight": {"s": 0}}


# ---------------------------------------------------------------------------
# sweep: many state evaluations of one K = 16 system, plus a T scan

_SWEEP_K = [16, 16]


def _strips(rng) -> tuple:
    a, b = _interval(rng, 0.4, PI - 0.4, (0.8, 1.4))
    c, d = _interval(rng, 0.4, PI - 0.4, (0.8, 1.4))
    return a, b, c, d


def _sweep_two_strips(rng, cycle):
    a, b, c, d = _strips(rng)
    config = {
        "geometry": SQUARE,
        "truncation": _SWEEP_K,
        "theorem": "two_strips",
        "model": "wave",
        "T": _above(rng, two_strips_threshold(a, b, c, d)),
        "samples": 1000,
        "seed": rng.randrange(2**31),
        "specs": [{"region": {"kind": "CrossStrips", "a": a, "b": b, "c": c, "d": d}, "field": "velocity"}],
        "params": {},
    }
    return "verify", config


def _sweep_two_lines(rng, cycle):
    p, alpha = _symmetric_line(rng)
    q, beta = _symmetric_line(rng)
    config = {
        "geometry": SQUARE,
        "truncation": _SWEEP_K,
        "theorem": "two_lines",
        "model": "wave",
        "T": _above(rng, two_lines_threshold(p, alpha, q, beta)),
        "samples": 500,
        "seed": rng.randrange(2**31),
        "specs": [
            {"region": {"kind": "VerticalLine", "alpha": alpha}, "field": "velocity"},
            {"region": {"kind": "HorizontalLine", "beta": beta}, "field": "velocity"},
        ],
        "params": {"p": p, "q": q, "alpha": alpha, "beta": beta},
    }
    return "verify", config


def _sweep_line_strip(rng, cycle):
    p, alpha = _symmetric_line(rng)
    c, d = _interval(rng, 0.4, PI - 0.4, (0.8, 1.4))
    config = {
        "geometry": SQUARE,
        "truncation": _SWEEP_K,
        "theorem": "line_plus_strip",
        "model": "wave",
        "T": _above(rng, line_plus_strip_threshold(p, alpha, c, d)),
        "samples": 500,
        "seed": rng.randrange(2**31),
        "specs": [
            {"region": {"kind": "VerticalLine", "alpha": alpha}, "field": "velocity"},
            {"region": {"kind": "HorizontalStrip", "c": c, "d": d}, "field": "velocity"},
        ],
        "params": {"p": p, "alpha": alpha},
    }
    return "verify", config


def _sweep_scan(rng, cycle):
    a, b, c, d = _strips(rng)
    thr = two_strips_threshold(a, b, c, d)
    ts = [thr * (1.05 + 0.1 * k + rng.uniform(0.0, 0.05)) for k in range(8)]
    config = {
        "geometry": SQUARE,
        "truncation": _SWEEP_K,
        "theorem": "two_strips",
        "model": "wave",
        "T_values": ts,
        "specs": [{"region": {"kind": "CrossStrips", "a": a, "b": b, "c": c, "d": d}, "field": "velocity"}],
        "params": {},
    }
    return "scan-t", config


# ---------------------------------------------------------------------------
# oracle: closed Gram against the Simpson oracle, K = 8, resolution 2048


def _oracle(region: dict, field: str, model: str):
    def make(rng, cycle):
        config = {
            "geometry": SQUARE,
            "truncation": [8, 8],
            "model": model,
            "T": rng.uniform(3.0, 5.0),
            "samples": 3,
            "resolution": 2048,
            "tolerance": 1e-6,
            "seed": rng.randrange(2**31),
            "spec": {"region": dict(region), "field": field},
        }
        draw = config["spec"]["region"]
        for key, value in region.items():
            if isinstance(value, float):
                draw[key] = value + rng.uniform(-0.15, 0.15)
        if region["kind"] == "VerticalSegments":
            draw["segments"] = [
                [rng.uniform(0.3, PI - 0.3), _interval(rng, 0.2, PI - 0.2, (0.8, 2.0))] for _ in range(2)
            ]
        return "oracle-check", config

    return make


# ---------------------------------------------------------------------------
# number-theory: pure-Python scans, no BLAS

_DIOPHANTINE_K_MAX = {1: 1_000_000, 2: 500_000, 3: 320_000, 4: 300_000}


def _diophantine(M: int):
    def make(rng, cycle):
        # the cycle number in the last digits keeps every K_max of a run distinct
        k_max = int(_DIOPHANTINE_K_MAX[M] * rng.uniform(0.98, 1.02)) // 1000 * 1000 + cycle
        return "diophantine", {"M": M, "K_max": k_max, "ell1": PI}

    return make


def _ingham(terms: int):
    def make(rng, cycle):
        n_terms = int(terms * rng.uniform(0.98, 1.02))
        # |w_k' - w_k| >= |k' - k| - 0.4, so the gap constant is at least 0.6
        exponents = [k + rng.uniform(-0.2, 0.2) for k in range(1, n_terms + 1)]
        coefficients = []
        for _ in range(n_terms):
            r, phi = math.sqrt(rng.random()), 2 * PI * rng.random()
            coefficients.append([r * math.cos(phi), r * math.sin(phi)])
        config = {
            "exponents": exponents,
            "coefficients": coefficients,
            "n": rng.randint(1, 5),
            "T": (2 * PI / 0.6) * rng.uniform(1.1, 1.5),
            "gamma": "auto",
        }
        return "ingham", config

    return make


def _mab(rng, cycle):
    a, b = _interval(rng, 0.0, PI, (0.2, 2.5))
    return "mab", {"a": a, "b": b}


def _symmetry(rng, cycle):
    # the order grows with the cycle, so every symmetry op of a run is distinct
    p = 3 + cycle
    return "symmetry", {"p": p, "alpha": _coprime(rng, p) * PI / p}


WORKLOADS = {
    "pencil": [
        ("CrossStrips", _pencil_cross),
        ("two_lines", _pencil_lines),
        ("BoundaryGamma0", _pencil_gamma0),
        ("VerticalSegments", _pencil_segments),
        ("OpenRect", _pencil_open_rect),
    ],
    "sweep": [
        ("verify.two_strips", _sweep_two_strips),
        ("verify.two_lines", _sweep_two_lines),
        ("verify.line_plus_strip", _sweep_line_strip),
        ("scan-t.two_strips", _sweep_scan),
    ],
    "oracle": [
        ("VerticalSegments", _oracle({"kind": "VerticalSegments"}, "displacement", "plate")),
        ("BoundaryGamma0", _oracle({"kind": "BoundaryGamma0"}, "normal_derivative", "wave")),
        ("VerticalStrip", _oracle({"kind": "VerticalStrip", "a": 1.0, "b": 2.0}, "velocity", "wave")),
        ("HorizontalStrip", _oracle({"kind": "HorizontalStrip", "c": 1.0, "d": 2.0}, "velocity", "wave")),
        (
            "CrossStrips",
            _oracle({"kind": "CrossStrips", "a": 1.0, "b": 2.0, "c": 1.0, "d": 2.0}, "velocity", "wave"),
        ),
        ("VerticalLine", _oracle({"kind": "VerticalLine", "alpha": PI / 2}, "velocity", "wave")),
        ("HorizontalLine", _oracle({"kind": "HorizontalLine", "beta": PI / 2}, "velocity", "wave")),
        (
            "OpenRect",
            _oracle({"kind": "OpenRect", "t0": 0.2, "t1": 1.0, "x0": 0.5, "x1": 1.5}, "displacement", "plate"),
        ),
    ],
    "number-theory": [
        ("diophantine.M1", _diophantine(1)),
        ("diophantine.M2", _diophantine(2)),
        ("diophantine.M3", _diophantine(3)),
        ("diophantine.M4", _diophantine(4)),
        ("ingham.500", _ingham(500)),
        ("ingham.1000", _ingham(1000)),
        ("mab.1", _mab),
        ("mab.2", _mab),
        ("symmetry", _symmetry),
    ],
}


def make_op(workload: str, seed: int, index: int) -> Op:
    slots = WORKLOADS[workload]
    cycle, slot = divmod(index, len(slots))
    name, make = slots[slot]
    command, config = make(_rng(workload, seed, index), cycle)
    extra = ("--format", "json") if command == "scan-t" else ()
    return Op(index, name, command, config, extra)


def make_cycle(workload: str, seed: int, cycle: int) -> list:
    n = len(WORKLOADS[workload])
    return [make_op(workload, seed, cycle * n + k) for k in range(n)]
