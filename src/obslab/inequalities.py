"""Observability constants: eigenvalue pencils, explicit formulas, Ingham-type checks.

The empirical constants are the extremal eigenvalues of D^{-1/2} G D^{-1/2}
where G is an observation Gram matrix and D the diagonal energy weight; the
predicted constants are closed-form functions of the time horizon and of the
interval and symmetry constants m_{a,b}, m_p, M_p. Both sides meet in
check_theorem, which compares the predicted constant with the smallest
eigenvalue on the admissible modes, and in verify_observability, which also
sweeps explicit states through the inequality observation >= c * energy. The
theorems' region compositions, constants and symmetries live in one table.

empirical_constants solves the pencil on its real sectors. Each closed Gram
is a phase around [[X, Y], [Y, X]] (see observation), so with one window
centre the pencil splits into the real n x n sectors D^{-1/2} (X + Y) D^{-1/2}
(even in time) and D^{-1/2} (X - Y) D^{-1/2} (odd in time); pieces centred
apart are rotated to one centre and solved as one real 2n x 2n matrix. The
minimiser is lifted back through the sector sign, 1/sqrt 2 and the phase,
and its Rayleigh quotient on the complex Gram certifies c_min.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .observation import (
    BoundaryEdgeBottom,
    CrossStrips,
    GramForm,
    HorizontalLine,
    HorizontalStrip,
    ObservationSpec,
    VerticalLine,
    VerticalStrip,
    _interval_kernel,
    assemble_gram,
)
from .spectrum import ModeSet, partial_gap_analysis
from .states import EnergyWeight, SpectralState, SymmetrySpec, energy_seminorm_sq


class _Theorem(NamedTuple):
    """The facts of one membrane theorem that its formula does not show.

    compositions lists the sets of region kinds it observes; constants names
    the interval (m_ab, m_cd) and symmetry (m_o, M_o) constants its formula
    reads; symmetries holds one (order key, axis, anchor key) per symmetry its
    states carry. Order o yields m_o and M_o, and the anchor key names both the
    params entry and the field of the line region on that axis.
    """

    compositions: tuple
    constants: tuple
    symmetries: tuple = ()


_THEOREMS = {
    "two_strips": _Theorem(
        ({"CrossStrips"}, {"VerticalStrip", "HorizontalStrip"}), ("m_ab", "m_cd")
    ),
    "strip_plus_edge": _Theorem(({"VerticalStrip", "BoundaryEdgeBottom"},), ("m_ab",)),
    "line_plus_strip": _Theorem(
        ({"VerticalLine", "HorizontalStrip"},), ("m_p", "M_p", "m_cd"), (("p", "x1", "alpha"),)
    ),
    "line_plus_edge": _Theorem(
        ({"VerticalLine", "BoundaryEdgeBottom"},), ("m_p", "M_p"), (("p", "x1", "alpha"),)
    ),
    "two_lines": _Theorem(
        ({"VerticalLine", "HorizontalLine"},),
        ("m_p", "M_p", "m_q", "M_q"),
        (("p", "x1", "alpha"), ("q", "x2", "beta")),
    ),
}

THEOREM_IDS = tuple(_THEOREMS)

_PI = math.pi


class ThresholdError(ValueError):
    """Raised when the time horizon is below a theorem's threshold."""


def _theorem(theorem: str) -> _Theorem:
    if theorem not in _THEOREMS:
        raise ValueError(f"theorem must be one of {THEOREM_IDS}")
    return _THEOREMS[theorem]


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class SymmetryConstants:
    """Extremes of the nonzero values of sin^2(k1 alpha), k1 = 1..p-1."""

    p: int
    alpha: float
    m_p: float
    M_p: float

    def __post_init__(self) -> None:
        if not 0 < self.m_p <= self.M_p <= 1.0 + 1e-15:
            raise ValueError("need 0 < m_p <= M_p <= 1")


@dataclass(frozen=True)
class ExponentialSum:
    """Finite exponential sum with a certified partial gap (n, gamma).

    Integer labels default to 1..N by position; gamma must be admissible for
    the partial gap condition |w_k' - w_k| >= gamma |k' - k| over all pairs
    with max(|k'|, |k|) >= n.
    """

    exponents: tuple
    coefficients: tuple
    n: int
    gamma: float
    indices: tuple = None

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.exponents)
        a = tuple(complex(x) for x in self.coefficients)
        if len(w) != len(a):
            raise ValueError("exponents and coefficients must have equal length")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("n must be a nonnegative integer")
        if not w:
            raise ValueError("need at least one exponent")
        idx = self.indices
        idx = tuple(range(1, len(w) + 1)) if idx is None else tuple(int(k) for k in idx)
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if len(w) >= 2:  # a single exponential satisfies the gap vacuously
            actual = partial_gap_analysis(w, self.n, indices=idx)["gamma"]
            if not actual >= self.gamma * (1 - 1e-12):
                raise ValueError(
                    f"partial gap condition fails: claimed gamma={self.gamma}, "
                    f"actual minimum ratio {actual}"
                )
        object.__setattr__(self, "exponents", w)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class ConstantReport:
    """Empirical two-sided constants for one observation/energy pair.

    specs is the tuple of observation pieces whose Gram matrices were summed;
    c_min and c_max are the extreme eigenvalues of the weighted pencil and
    argmin_state attains c_min up to the eigensolver certificate.
    """

    specs: tuple
    weight: EnergyWeight
    K1: int
    K2: int
    c_min: float
    c_max: float
    argmin_state: SpectralState

    def __post_init__(self) -> None:
        if not 0 <= self.c_min <= self.c_max:
            raise ValueError("need 0 <= c_min <= c_max")

    def to_json(self) -> str:
        from .states import state_to_json

        doc = {
            "specs": [s.to_dict() for s in self.specs],
            "weight": {"s": self.weight.s, "model": self.weight.model},
            "K1": self.K1,
            "K2": self.K2,
            "c_min": self.c_min,
            "c_max": self.c_max,
            "argmin_state": json.loads(state_to_json(self.argmin_state)),
        }
        return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# eigenvalue pencil


def _as_spec_tuple(spec) -> tuple:
    if isinstance(spec, ObservationSpec):
        return (spec,)
    specs = tuple(spec)
    if not specs or not all(isinstance(s, ObservationSpec) for s in specs):
        raise ValueError("spec must be an ObservationSpec or a nonempty list of them")
    return specs


def _summed_gram(specs: tuple, mode_set: ModeSet) -> np.ndarray:
    total = None
    for s in specs:
        g = assemble_gram(s, mode_set).matrix
        total = g.copy() if total is None else total + g
    return total


def _weight_diagonal(weight: EnergyWeight, mode_set: ModeSet) -> np.ndarray:
    d = weight.diagonal(mode_set)
    if not np.all(d > 0):
        raise ValueError("energy weight must be strictly positive on every mode")
    return d


def _doubled_weight(weight: EnergyWeight, mode_set: ModeSet) -> np.ndarray:
    return np.tile(_weight_diagonal(weight, mode_set), 2)


def _pencil_matrix(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    r = 1.0 / np.sqrt(d)
    return g * np.outer(r, r)


def _real_sectors(grams: list, d: np.ndarray) -> list:
    """Real symmetric matrices whose spectra together are the pencil's.

    Each closed Gram is conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle,
    -angle)}. Rotated to the first piece's angle, the sum is [[A, B], [conj B,
    conj A]], and W = [[I, iI], [I, -iI]] / sqrt 2 takes it to the real
    symmetric [[Re(A+B), Im(B-A)], [Im(A+B), Re(A-B)]]. When every piece
    shares the first one's angle, A and B are real and that matrix splits
    into the sectors A+B (even in time) and A-B (odd in time).
    """
    angle = grams[0].centred[2]
    a = b = 0.0
    for g in grams:
        x, y, theta = g.centred
        if np.array_equal(theta, angle):
            a, b = a + x, b + y
        else:  # a piece centred elsewhere: rotate its phase to the reference angle
            psi = theta - angle
            a = a + x * np.exp(1j * (psi[None, :] - psi[:, None]))
            b = b + y * np.exp(-1j * (psi[None, :] + psi[:, None]))
    r = 1.0 / np.sqrt(d)
    rr = np.outer(r, r)
    a, b = a * rr, b * rr
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return [np.block([[(a + b).real, (b - a).imag], [(a + b).imag, (a - b).real]])]
    return [a + b, a - b]


def empirical_constants(spec, weight: EnergyWeight, mode_set: ModeSet) -> ConstantReport:
    """Extreme eigenvalues of the observation/energy pencil on the mode set.

    c_min certifies observation >= c_min * energy on the truncated space and
    c_max the reverse bound. The pencil is solved on its real sectors (see
    _real_sectors): with one window centre, D^{-1/2} (X + Y) D^{-1/2} and
    D^{-1/2} (X - Y) D^{-1/2}, each n x n, for their extreme eigenpairs. The
    minimiser u of a sector is lifted to the doubled coefficients
    D^{-1/2} conj(p) (u1 + i u2, u1 - i u2) / sqrt 2, where (u1, u2) is (u, 0)
    in the even sector and (0, u) in the odd one. The returned argmin_state
    attains c_min with a Rayleigh quotient, taken on the complex doubled Gram
    of GramForm.quadratic_form, within 1e-8 * c_max.
    """
    specs = _as_spec_tuple(spec)
    grams = [assemble_gram(s, mode_set) for s in specs]
    d = _weight_diagonal(weight, mode_set)
    n = len(mode_set)
    c_max, low, offset = -math.inf, None, 0
    for s in _real_sectors(grams, d):
        m = len(s)
        evals, evecs = scipy.linalg.eigh(s, subset_by_index=[0, 0])
        top = scipy.linalg.eigh(s, subset_by_index=[m - 1, m - 1], eigvals_only=True)
        c_max = max(c_max, float(top[0]))
        if low is None or evals[0] < low[0]:
            u = np.zeros(2 * n)
            u[offset : offset + m] = evecs[:, 0]
            low = (float(evals[0]), u)
        offset += m
    c_min = max(low[0], 0.0)
    u1, u2 = low[1][:n], low[1][n:]
    phase = np.exp(-1j * grams[0].centred[2]) / np.sqrt(d)
    coeffs = np.concatenate([phase * (u1 + 1j * u2), np.conj(phase) * (u1 - 1j * u2)])
    coeffs /= math.sqrt(2)
    state = SpectralState(mode_set, coeffs[:n], coeffs[n:])
    observed = sum(g.quadratic_form(coeffs) for g in grams)
    rayleigh = observed / energy_seminorm_sq(state, weight)
    if abs(rayleigh - c_min) > 1e-8 * max(c_max, 1e-300):
        raise RuntimeError(
            f"eigensolver certificate failed: rayleigh={rayleigh}, c_min={c_min}"
        )
    return ConstantReport(specs, weight, mode_set.K1, mode_set.K2, c_min, c_max, state)


# ---------------------------------------------------------------------------
# interval and symmetry constants


def m_ab(a: float, b: float) -> dict:
    """Infimum over n >= 1 of the sine-squared mass of (a, b) in (0, pi).

    The per-n values are (b-a)/2 - [sin(2nb) - sin(2na)]/(4n) and tend to
    (b-a)/2; once the tail bound (b-a)/2 - 1/(2n) clears the running minimum
    the search result is exact over all n. If the scan cap is reached without
    that certificate, the infimum sits within 5e-7 of the limit (b-a)/2; the
    best value seen (clamped by the limit) is returned with attained_n =
    "limit".
    """
    a, b = float(a), float(b)
    if not (0 <= a < b <= _PI):
        raise ValueError("need 0 <= a < b <= pi")
    half = (b - a) / 2.0
    best = math.inf
    best_n = 0
    cap = 10**6
    chunk = 1 << 15
    lo = 1
    cutoff = cap
    exact = False
    while lo <= cap:
        n = np.arange(lo, min(lo + chunk, cap + 1), dtype=float)
        v = half - (np.sin(2 * n * b) - np.sin(2 * n * a)) / (4 * n)
        i = int(np.argmin(v))
        if v[i] < best:
            best, best_n = float(v[i]), int(n[i])
        last = int(n[-1])
        if half - 1.0 / (2 * (last + 1)) > best:
            cutoff = last
            exact = True
            break
        lo = last + 1
    if exact and best < half:
        value, attained = best, best_n
    else:
        # uncertified: everything, explored or not, is within 5e-7 of (b-a)/2
        value = min(best, half)
        attained = "limit"
    if not 0 < value <= _PI / 2 + 1e-15:
        raise RuntimeError(f"computed m_ab={value} violates 0 < m <= pi/2")
    return {"value": value, "attained_n": attained, "cutoff": cutoff}


def symmetry_constants(p: int, alpha: float) -> SymmetryConstants:
    """Min and max of the nonzero sin^2(k1 alpha) over k1 = 1..p-1.

    p must be the smallest positive integer with p*alpha/pi integer, which
    makes the scan of p-1 values exhaustive by periodicity.
    """
    if p != int(p) or p < 2:
        raise ValueError("p must be an integer >= 2")
    p = int(p)
    alpha = float(alpha)
    if not 0 < alpha < _PI:
        raise ValueError("alpha must lie in (0, pi)")
    SymmetrySpec(p, "x1", alpha)  # rejects a p that is not the minimal order of alpha
    k = np.arange(1, p)
    values = np.sin(k * alpha) ** 2
    nonzero = values[values > 1e-12]
    return SymmetryConstants(p, alpha, float(nonzero.min()), float(nonzero.max()))


# ---------------------------------------------------------------------------
# predicted constants


def predicted_constant(theorem: str, params: dict, paper_literal: bool = False) -> dict:
    """Explicit threshold and constant for observation >= c * energy.

    The energy is the full first-order quantity (gradient plus velocity mass);
    below the threshold c is undefined and flagged rather than raised.
    paper_literal switches the two_strips constant to the uncorrected printed
    form whose middle sign disagrees with its own derivation.
    """
    missing = [k for k in _theorem(theorem).constants + ("T",) if k not in params]
    if missing:
        raise ValueError(f"missing params for {theorem}: {missing}")
    T = float(params["T"])
    if not T > 0:
        raise ValueError("T must be positive")
    pi2 = _PI**2
    pi3 = _PI**3
    out = {"theorem": theorem, "T": T}

    if theorem == "two_strips":
        m = min(float(params["m_ab"]), float(params["m_cd"]))
        thr2 = 32 * pi2 + 16 * pi3 / m
        sign = 1.0 if paper_literal else -1.0
        c = (2 * m / (pi2 * T)) * (T**2 - 32 * pi2 + sign * 16 * pi3 / m)
    elif theorem == "strip_plus_edge":
        m = float(params["m_ab"])
        thr2 = max(32 * pi2 + 32 * pi3, 32 * pi2 + 32 * pi2 / m)
        c = (1 / (pi2 * T)) * min(
            T**2 - 32 * pi2 - 32 * pi3, 2 * T**2 * m - 64 * pi2 * m - 64 * pi2
        )
    elif theorem == "line_plus_strip":
        mp, Mp = float(params["m_p"]), float(params["M_p"])
        mcd = float(params["m_cd"])
        thr2 = max(32 * pi2 + 16 * pi3 / mp, 32 * pi2 + 32 * pi2 * Mp / mcd)
        c = (2 / (pi2 * T)) * min(
            T**2 * mp - 32 * pi2 * mp - 16 * pi3,
            T**2 * mcd - 32 * pi2 * mcd - 32 * pi2 * Mp,
        )
    elif theorem == "line_plus_edge":
        mp, Mp = float(params["m_p"]), float(params["M_p"])
        thr2 = 32 * pi2 * max(1 + 2 * Mp, 1 + 1 / mp)
        c = (1 / (pi2 * T)) * min(
            T**2 - 32 * pi2 - 64 * pi2 * Mp, 2 * T**2 * mp - 64 * pi2 * mp - 64 * pi2
        )
    else:  # two_lines
        mp, Mp = float(params["m_p"]), float(params["M_p"])
        mq, Mq = float(params["m_q"]), float(params["M_q"])
        Mpq = max(mp + Mq, mq + Mp)
        thr2 = 32 * pi2 * Mpq
        c = (2 / (pi2 * T)) * (T**2 - 32 * pi2 * Mpq)
        out["M_pq"] = Mpq

    below = not T**2 > thr2
    out["T_threshold"] = math.sqrt(thr2)
    out["below_threshold"] = below
    out["c"] = None if below else c
    return out


# ---------------------------------------------------------------------------
# verification sweeps


def _check_composition(theorem: str, specs: tuple) -> None:
    names = sorted(type(s.region).__name__ for s in specs)
    allowed = [sorted(c) for c in _theorem(theorem).compositions]
    if names not in allowed:
        raise ValueError(f"{theorem} expects regions {allowed}, got {names}")
    if len({s.T for s in specs}) != 1:
        raise ValueError("all observation pieces must share the time horizon")
    if any(s.model != "wave" for s in specs):
        raise ValueError("these theorems concern the wave model")


def _region_of(specs: tuple, cls):
    for s in specs:
        if isinstance(s.region, cls):
            return s.region
    return None


def fill_theorem_params(theorem: str, specs: tuple, params: dict, geometry) -> dict:
    """Complete missing interval/symmetry constants from the regions.

    Interval constants are derived only on the pi-square, where the regions
    live in the same coordinates as m_ab; otherwise they must be supplied.
    """
    p = dict(params)
    entry = _theorem(theorem)
    square = abs(geometry.ell1 - _PI) < 1e-12 and abs(geometry.ell2 - _PI) < 1e-12

    def fill_interval(key, lo, hi):
        if key not in p:
            if not square:
                raise ValueError(f"{key} must be supplied for non-square geometry")
            p[key] = m_ab(lo, hi)["value"]

    cross = _region_of(specs, CrossStrips)
    vstrip = _region_of(specs, VerticalStrip) or (cross and cross.vertical)
    hstrip = _region_of(specs, HorizontalStrip) or (cross and cross.horizontal)
    if "m_ab" in entry.constants and vstrip is not None:
        fill_interval("m_ab", vstrip.a, vstrip.b)
    if "m_cd" in entry.constants and hstrip is not None:
        fill_interval("m_cd", hstrip.c, hstrip.d)
    for order, axis, anchor in entry.symmetries:
        low, high = f"m_{order}", f"M_{order}"
        if low not in p or high not in p:
            cls = VerticalLine if axis == "x1" else HorizontalLine
            line = _region_of(specs, cls)
            if line is None:
                raise ValueError(f"{theorem} needs a {cls.__name__} region for {low} and {high}")
            ell = geometry.ell1 if axis == "x1" else geometry.ell2
            sc = symmetry_constants(int(p[order]), getattr(line, anchor) * _PI / ell)
            p.setdefault(low, sc.m_p)
            p.setdefault(high, sc.M_p)
    return p


def theorem_symmetries(theorem: str, params: dict) -> tuple:
    """The symmetries a theorem's states must carry, as SymmetrySpecs.

    Each order and its anchor point come from params (p and alpha along x1,
    q and beta along x2); project states with project_p_symmetric.
    """
    return tuple(
        SymmetrySpec(int(params[order]), axis, float(params[anchor]))
        for order, axis, anchor in _theorem(theorem).symmetries
    )


def _admissible_mode_mask(theorem: str, mode_set: ModeSet, params: dict) -> np.ndarray:
    mask = np.ones(len(mode_set), dtype=bool)
    for order, axis, _ in _theorem(theorem).symmetries:
        if order not in params:
            raise ValueError(f"{theorem} requires the symmetry order {order}")
        ks = mode_set.k1 if axis == "x1" else mode_set.k2
        mask &= (ks % int(params[order])) != 0
    return mask


def admissible_c_min(theorem: str, gram: np.ndarray, mode_set: ModeSet, params: dict) -> float:
    """Smallest eigenvalue of the gram / wave-energy pencil on the admissible modes.

    gram is the summed observation Gram of the theorem's composite; the modes
    its symmetry restriction excludes (params p and q) are dropped first.
    """
    d = _doubled_weight(EnergyWeight(1, "wave"), mode_set)
    mask = _admissible_mode_mask(theorem, mode_set, params)
    keep = np.concatenate([mask, mask])
    return float(scipy.linalg.eigvalsh(_pencil_matrix(gram, d)[np.ix_(keep, keep)])[0])


def _check(
    theorem: str, specs: tuple, mode_set: ModeSet, params: dict, require_threshold: bool
) -> tuple:
    """check_theorem's result and the summed Gram it was computed from."""
    _check_composition(theorem, specs)
    T = specs[0].T
    filled = fill_theorem_params(theorem, specs, params, mode_set.geometry)
    pred = predicted_constant(theorem, {**filled, "T": T}, bool(params.get("paper_literal")))
    c = pred["c"]
    if require_threshold and c is None:
        raise ThresholdError(f"T={T} is below the {theorem} threshold {pred['T_threshold']}")
    gram = _summed_gram(specs, mode_set)
    c_min = admissible_c_min(theorem, gram, mode_set, filled)
    result = {
        "theorem": theorem,
        "T": T,
        "T_threshold": pred["T_threshold"],
        "c_predicted": c,
        "n_states": 0,
        "empirical_c_min": c_min,
        "passed": c is not None and c_min >= c * (1 - 1e-9),
    }
    return result, gram


def check_theorem(
    theorem: str, spec, mode_set: ModeSet, params: dict, *, require_threshold: bool = False
) -> dict:
    """Check a theorem on the truncated space by its admissible eigenvalue alone.

    spec is the theorem's composite observation (one ObservationSpec or a
    list). The regions must match the theorem; missing interval and symmetry
    constants are filled from them. passed compares empirical_c_min, the raw
    admissible_c_min of the summed Gram, with c_predicted. Below the threshold
    c_predicted is None and passed is False; empirical_c_min is still given,
    unless require_threshold is set: then ThresholdError is raised before any
    Gram is assembled.
    """
    return _check(theorem, _as_spec_tuple(spec), mode_set, params, require_threshold)[0]


def verify_observability(theorem: str, spec, states, params: dict) -> dict:
    """Sweep explicit states through observation >= c_predicted * energy.

    spec is one ObservationSpec or the list making up the theorem's composite
    observation (integrals add). For the symmetry-restricted theorems every
    state must be pre-projected; the reported eigenvalue minimum is taken on
    the admissible subspace, where the inequality is meaningful. The report
    extends check_theorem's, whose Gram the states are swept through. Below
    the threshold it raises ThresholdError before any Gram is assembled.
    """
    specs = _as_spec_tuple(spec)
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    ms = states[0].mode_set
    for st in states:
        if st.mode_set is not ms and (
            st.mode_set.geometry != ms.geometry
            or st.mode_set.K1 != ms.K1
            or st.mode_set.K2 != ms.K2
        ):
            raise ValueError("all states must share one mode set")

    result, g = _check(theorem, specs, ms, params, require_threshold=True)
    c_pred = result["c_predicted"]

    mask = _admissible_mode_mask(theorem, ms, params)
    weight = EnergyWeight(1, "wave")
    coeffs = np.array([st.doubled() for st in states])
    if not np.all(mask):
        excluded = np.concatenate([~mask, ~mask])
        stray = np.abs(coeffs[:, excluded]).max(axis=1)
        scale = np.abs(coeffs).max(axis=1)
        bad = stray > 1e-12 * np.maximum(scale, 1e-300)
        if np.any(bad):
            raise ValueError(
                f"{int(bad.sum())} states carry mass on symmetry-excluded modes; "
                "project them first"
            )

    obs = np.einsum("si,ij,sj->s", coeffs.conj(), g, coeffs).real
    energies = np.array([energy_seminorm_sq(st, weight) for st in states])
    if np.any(energies <= 0):
        raise ValueError("zero-energy states are excluded")
    ratios = obs / energies

    min_ratio = float(ratios.min())
    return {
        **result,
        "n_states": len(states),
        "min_ratio": min_ratio,
        "argmin_state": int(np.argmin(ratios)),
        "passed": bool(min_ratio >= c_pred * (1 - 1e-9)),
    }


# ---------------------------------------------------------------------------
# Ingham-type checks


def _ingham_kernel(w: np.ndarray, T: float) -> np.ndarray:
    """Time kernel of the exponents w over (0, T), once its arguments are known to be finite.

    The centred kernel evaluates sinc and the phase at |w_j - w_i| T / 2 at most.
    """
    if not math.isfinite((float(w.max()) - float(w.min())) * T):
        raise ValueError(f"the horizon T={T} overflows the time kernel of these exponents")
    return _interval_kernel(w[None, :] - w[:, None], 0.0, T)


def _ingham_result(lhs: float, rhs: float) -> dict:
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"the horizon overflows the bound: lhs={lhs}, rhs={rhs}")
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs >= rhs * (1 - 1e-9))}


def mehrenberger_check(es: ExponentialSum, T: float) -> dict:
    """Partial-gap Ingham inequality on a finite exponential sum.

    lhs is the exact time integral of the squared sum; rhs the guaranteed
    lower bound from the gap data (n, gamma). Requires a finite T > 2 pi / gamma
    small enough that both sides stay finite.
    """
    T = float(T)
    if not (math.isfinite(T) and T > 2 * _PI / es.gamma):
        raise ValueError("need a finite T > 2*pi/gamma")
    w = np.array(es.exponents)
    a = np.array(es.coefficients)
    kernel = _ingham_kernel(w, T)
    lhs = float(np.real(np.vdot(a, kernel @ a)))
    idx = np.array(es.indices)
    total = float(np.sum(np.abs(a) ** 2))
    tail = float(np.sum(np.abs(a[np.abs(idx) >= es.n]) ** 2))
    rhs = (2 * T / _PI) * (tail - (2 * _PI / (T * es.gamma)) ** 2 * total)
    return _ingham_result(lhs, rhs)


def corollary33_check(k2: int, a, b, T: float) -> dict:
    """Two-branch Ingham bound at fixed k2 with |k| = sqrt(k1^2 + k2^2).

    a and b list the branch coefficients over k1 = 1..N. Requires the
    universal horizon T > 4*sqrt(2)*pi coming from the gap 1/(2*sqrt(2)), and
    a finite T small enough that both sides stay finite.
    """
    T = float(T)
    if k2 != int(k2) or k2 < 1:
        raise ValueError("k2 must be a positive integer")
    if not (math.isfinite(T) and T > 4 * math.sqrt(2) * _PI):
        raise ValueError("need a finite T > 4*sqrt(2)*pi")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("a and b must be equal-length nonempty vectors")
    k1 = np.arange(1, a.size + 1)
    freq = np.sqrt(k1**2 + float(k2) ** 2)
    w = np.concatenate([freq, -freq])
    coeffs = np.concatenate([a, b])
    kernel = _ingham_kernel(w, T)
    lhs = float(np.real(np.vdot(coeffs, kernel @ coeffs)))
    mass = np.abs(a) ** 2 + np.abs(b) ** 2
    strong = float(mass[k1 >= k2].sum())
    weak = float(mass[k1 < k2].sum())
    rhs = (2 * T / _PI - 64 * _PI / T) * strong - (64 * _PI / T) * weak
    return _ingham_result(lhs, rhs)


def sin_sum_lower_bound_check(k1: int, alphas, ell1: float, M: int, gamma_hat: float) -> bool:
    """Check sum_j sin^2(k1 alpha_j pi / ell1) >= 4 gamma_hat^2 k1^(-2/M)."""
    if k1 < 1:
        raise ValueError("k1 must be a positive integer")
    alphas = np.asarray(alphas, dtype=float)
    lhs = float(np.sum(np.sin(k1 * alphas * _PI / float(ell1)) ** 2))
    rhs = 4.0 * float(gamma_hat) ** 2 * float(k1) ** (-2.0 / M)
    return bool(lhs >= rhs)
