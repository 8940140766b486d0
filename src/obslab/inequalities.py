"""Observability constants: eigenvalue pencils, explicit formulas, Ingham-type checks.

The empirical constants are the extremal eigenvalues of D^{-1/2} G D^{-1/2}
where G is an observation Gram matrix and D the diagonal energy weight; the
predicted constants are closed-form functions of the time horizon and of the
interval and symmetry constants m_{a,b}, m_p, M_p. Both sides meet in
check_theorem, which compares the predicted constant with the smallest
eigenvalue on the admissible modes, in scan_theorem, its run over many
horizons T with the work that does not depend on T done once, and in
verify_observability, which also sweeps explicit states, a chunk of rows at a
time, through the inequality observation >= c * energy. The theorems' region
compositions, constants and symmetries live in one table.

Every solve goes through one pencil (pencil, Pencil) built from the closed
Grams' centred blocks. Each closed Gram is a phase around [[X, Y], [Y, X]]
(see observation), so with one window centre the pencil splits into the real
n x n sectors D^{-1/2} (X + Y) D^{-1/2} (even in time) and
D^{-1/2} (X - Y) D^{-1/2} (odd in time); pieces centred apart are rotated to
one centre and form one real 2n x 2n sector. A theorem's symmetry mask acts
per mode, so each sector is restricted to the admissible modes before its
solve. empirical_constants lifts the minimiser back through the sector sign,
1/sqrt 2 and the phase, and certifies c_min by its Rayleigh quotient on the
doubled form of each Gram. check_theorem takes the smallest eigenvalue of
the masked sectors, and verify_observability sweeps states through the
sector quadratic forms, a few hundred states per real GEMM. No solve builds
the complex Gram matrix.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .observation import (
    ObservationSpec,
    _closed_gram,
    _spatial_sum,
    _window_sinc,
    assemble_gram,
)
from .spectrum import ModeSet, partial_gap_analysis
from .states import EnergyWeight, SpectralState, SymmetrySpec, energy_seminorm_sq


class _Theorem(NamedTuple):
    """The facts of one membrane theorem that its formula does not show.

    compositions lists the sets of region kinds it observes; constants names
    the interval (m_ab, m_cd) and symmetry (m_o, M_o) constants its formula
    reads; symmetries holds one (order key, axis) per symmetry its states
    carry. Order o yields m_o and M_o; its anchor is the point of the line
    region on that axis (see theorem_symmetries).
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
        ({"VerticalLine", "HorizontalStrip"},), ("m_p", "M_p", "m_cd"), (("p", "x1"),)
    ),
    "line_plus_edge": _Theorem(
        ({"VerticalLine", "BoundaryEdgeBottom"},), ("m_p", "M_p"), (("p", "x1"),)
    ),
    "two_lines": _Theorem(
        ({"VerticalLine", "HorizontalLine"},),
        ("m_p", "M_p", "m_q", "M_q"),
        (("p", "x1"), ("q", "x2")),
    ),
}

THEOREM_IDS = tuple(_THEOREMS)

_PI = math.pi
# rows per chunk of the sweep: it bounds the temporaries of
# Pencil.quadratic_forms, so no stack of every state's coefficients is held at once
_CHUNK = 256
# rows per block of the sinc matrix in the Ingham forms
_INGHAM_BLOCK = 128


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
    with max(|k'|, |k|) >= n. When gamma is None it is that largest admissible
    gap itself, which needs at least two exponents.
    """

    exponents: tuple
    coefficients: tuple
    n: int
    gamma: float = None
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
        gamma = self.gamma
        if gamma is None or len(w) >= 2:  # a single exponential satisfies the gap vacuously
            actual = partial_gap_analysis(w, self.n, indices=idx)["gamma"]
            gamma = actual if gamma is None else gamma
            if not actual >= gamma * (1 - 1e-12):
                raise ValueError(
                    f"partial gap condition fails: claimed gamma={gamma}, "
                    f"actual minimum ratio {actual}"
                )
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "exponents", w)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "gamma", float(gamma))
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


def _weight_diagonal(weight: EnergyWeight, mode_set: ModeSet) -> np.ndarray:
    d = weight.diagonal(mode_set)
    if not np.all(d > 0):
        raise ValueError("energy weight must be strictly positive on every mode")
    return d


class Pencil:
    """The pencil D^{-1/2} G D^{-1/2} of summed closed Grams G, on its real sectors.

    Each closed Gram is conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i
    (angle, -angle)} (see observation). Rotated to the first piece's angle,
    the sum is [[A, B], [conj B, conj A]], and W = [[I, iI], [I, -iI]] / sqrt 2
    takes it to the real symmetric [[Re(A+B), Im(B-A)], [Im(A+B), Re(A-B)]]
    in the sector coordinates u = (u1, u2) = W^H p D^{1/2} c of the doubled
    coefficients c. When every piece shares the first one's angle, A and B
    are real and that matrix splits into the n x n sectors A+B (even in time,
    on u1) and A-B (odd in time, on u2); otherwise it is one real 2n x 2n
    sector. The mode mask acts per mode, so it commutes with that split: each
    sector keeps the rows and columns of the masked modes.

    sectors lists (matrix, index) pairs, index locating the sector's rows in
    u; grams are the assembled pieces and d the energy weight diagonal.
    """

    def __init__(self, grams: list, d: np.ndarray, mask=None) -> None:
        n = len(d)
        self.grams, self.d, self.angle = grams, d, grams[0].centred[2]
        self.mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if self.mask.shape != (n,) or not self.mask.any():
            raise ValueError(f"mask must select some of the {n} modes")
        keep = np.flatnonzero(self.mask)
        sub = np.ix_(keep, keep)
        a = b = 0.0
        for g in grams:
            x, y, theta = g.centred
            if mask is not None:
                x, y = x[sub], y[sub]
            if np.array_equal(theta, self.angle):
                a, b = a + x, b + y
            else:  # a piece centred elsewhere: rotate its phase to the reference angle
                # per-mode phase products, not e^{i (psi_j - psi_i)}: a rounded angle
                # difference would be off by ulp(angle), far more than eps when |angle| >> 1
                q = (np.exp(1j * theta) * np.exp(-1j * self.angle))[keep]
                a = a + x * np.outer(q.conj(), q)
                b = b + y * np.outer(q.conj(), q.conj())
        r = 1.0 / np.sqrt(d[keep])
        rr = np.outer(r, r)
        a, b = a * rr, b * rr
        if np.iscomplexobj(a) or np.iscomplexobj(b):
            full = np.block([[(a + b).real, (b - a).imag], [(a + b).imag, (a - b).real]])
            self.sectors = [(full, np.concatenate([keep, n + keep]))]
        else:
            self.sectors = [(a + b, keep), (a - b, n + keep)]

    def lowest(self) -> tuple:
        """The smallest eigenvalue over the sectors and its unit eigenvector u in sector coordinates."""
        low = None
        for s, index in self.sectors:
            evals, evecs = scipy.linalg.eigh(s, subset_by_index=[0, 0])
            if low is None or evals[0] < low[0]:
                u = np.zeros(2 * len(self.d))
                u[index] = evecs[:, 0]
                low = (float(evals[0]), u)
        return low

    def extremes(self) -> tuple:
        """(smallest eigenvalue, largest eigenvalue, eigenvector u of the smallest)."""
        c_min, u = self.lowest()
        c_max = max(
            float(scipy.linalg.eigh(s, subset_by_index=[len(s) - 1] * 2, eigvals_only=True)[0])
            for s, _ in self.sectors
        )
        return c_min, c_max, u

    def lift(self, u: np.ndarray) -> np.ndarray:
        """Doubled coefficients D^{-1/2} conj(p) (u1 + i u2, u1 - i u2) / sqrt 2 of sector coordinates u."""
        n = len(self.d)
        u1, u2 = u[:n], u[n:]
        phase = np.exp(-1j * self.angle) / np.sqrt(self.d)
        coeffs = np.concatenate([phase * (u1 + 1j * u2), np.conj(phase) * (u1 - 1j * u2)])
        coeffs /= math.sqrt(2)
        return coeffs

    def quadratic_forms(self, coeffs) -> np.ndarray:
        """Observation c^H G c of each row c of coeffs, restricted to the masked modes.

        The rows go to sector coordinates u at once, and each sector S gives
        Re(u)^T S Re(u) + Im(u)^T S Im(u) from one real GEMM; callers bound the
        temporaries by the number of rows they pass.
        """
        c = np.asarray(coeffs, dtype=complex)
        n = len(self.d)
        if c.ndim != 2 or c.shape[1] != 2 * n:
            raise ValueError(f"coefficient rows must have length {2 * n}")
        scale = np.exp(1j * self.angle) * np.sqrt(self.d)
        z1, z2 = c[:, :n] * scale, c[:, n:] * scale.conj()
        u = np.concatenate([z1 + z2, 1j * (z2 - z1)], axis=1) / math.sqrt(2)
        out = np.zeros(len(c))
        for s, index in self.sectors:
            v = np.concatenate([u[:, index].real, u[:, index].imag])
            f = np.sum((v @ s) * v, axis=1)
            out += f[: len(c)] + f[len(c) :]
        return out


def pencil(specs, weight: EnergyWeight, mode_set: ModeSet, mask=None) -> Pencil:
    """The observation/energy pencil of one ObservationSpec or a list of them, on its real sectors.

    The pieces' closed Grams add; mask, a boolean per mode, restricts the
    pencil to the modes it selects (all modes when None). See Pencil.
    """
    grams = [assemble_gram(s, mode_set) for s in _as_spec_tuple(specs)]
    return Pencil(grams, _weight_diagonal(weight, mode_set), mask)


def empirical_constants(spec, weight: EnergyWeight, mode_set: ModeSet) -> ConstantReport:
    """Extreme eigenvalues of the observation/energy pencil on the mode set.

    c_min certifies observation >= c_min * energy on the truncated space and
    c_max the reverse bound. The pencil is solved on its real sectors (see
    Pencil): with one window centre, D^{-1/2} (X + Y) D^{-1/2} and
    D^{-1/2} (X - Y) D^{-1/2}, each n x n, for their extreme eigenpairs. The
    minimiser u of a sector is lifted to the doubled coefficients
    D^{-1/2} conj(p) (u1 + i u2, u1 - i u2) / sqrt 2, where (u1, u2) is (u, 0)
    in the even sector and (0, u) in the odd one. The returned argmin_state
    attains c_min with a Rayleigh quotient, taken on the doubled form of
    GramForm.quadratic_form, within 1e-8 * c_max.
    """
    specs = _as_spec_tuple(spec)
    pen = pencil(specs, weight, mode_set)
    low, c_max, u = pen.extremes()
    if c_max < sys.float_info.min:
        raise ValueError(
            f"the pencil underflows: c_max = {c_max} is below the smallest normal float"
        )
    c_min = max(low, 0.0)
    coeffs = pen.lift(u)
    n = len(mode_set)
    state = SpectralState(mode_set, coeffs[:n], coeffs[n:])
    observed = sum(g.quadratic_form(coeffs) for g in pen.grams)
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


def _factor(specs: tuple, axis: str, kind: str) -> tuple:
    """Positions of the first factor of this kind on axis ("x1" or "x2") among the specs' pieces."""
    i = 1 if axis == "x1" else 2
    return next(t[i][1:] for s in specs for t in s.region.pieces(s.T)[1] if t[i][0] == kind)


def theorem_symmetries(theorem: str, specs, params: dict, geometry) -> tuple:
    """The symmetries a theorem's states must carry, as SymmetrySpecs.

    specs is the theorem's composite observation (one ObservationSpec or a
    list), whose regions must match the theorem and share one time horizon.
    Each order (params p along x1, q along x2) must be an integer; its anchor
    is the point x of the line region on that axis, at x * pi / ell in the
    pi-scaled coordinate, and SymmetrySpec requires the order to be the
    minimal one of that anchor. Project states with project_p_symmetric.
    """
    entry = _theorem(theorem)
    specs = _as_spec_tuple(specs)
    names = sorted(type(s.region).__name__ for s in specs)
    allowed = [sorted(c) for c in entry.compositions]
    if names not in allowed:
        raise ValueError(f"{theorem} expects regions {allowed}, got {names}")
    if len({s.T for s in specs}) != 1:
        raise ValueError("all observation pieces must share the time horizon")
    out = []
    for order, axis in entry.symmetries:
        if order not in params:
            raise ValueError(f"{theorem} requires the symmetry order {order}")
        value = params[order]
        if value != int(value):
            raise ValueError(f"{order} must be an integer, got {value}")
        (x,) = _factor(specs, axis, "point")
        ell = geometry.ell1 if axis == "x1" else geometry.ell2
        out.append(SymmetrySpec(int(value), axis, x * _PI / ell))
    return tuple(out)


def fill_theorem_params(theorem: str, specs, params: dict, geometry) -> dict:
    """Complete missing interval/symmetry constants from the regions.

    The symmetry constants come from theorem_symmetries, which checks the
    regions against the theorem. Interval constants are derived only on the
    pi-square, where the regions live in the same coordinates as m_ab;
    otherwise they must be supplied.
    """
    symmetries = theorem_symmetries(theorem, specs, params, geometry)
    return _filled(theorem, _as_spec_tuple(specs), params, geometry, symmetries)


def _filled(theorem: str, specs: tuple, params: dict, geometry, symmetries: tuple) -> dict:
    """fill_theorem_params on specs already checked, whose symmetries are given."""
    entry = _theorem(theorem)
    p = dict(params)
    square = abs(geometry.ell1 - _PI) < 1e-12 and abs(geometry.ell2 - _PI) < 1e-12
    for key, axis in (("m_ab", "x1"), ("m_cd", "x2")):
        if key in entry.constants and key not in p:
            if not square:
                raise ValueError(f"{key} must be supplied for non-square geometry")
            p[key] = m_ab(*_factor(specs, axis, "interval"))["value"]
    for (order, _), sym in zip(entry.symmetries, symmetries):
        low, high = f"m_{order}", f"M_{order}"
        if low not in p or high not in p:
            sc = symmetry_constants(sym.p, sym.alpha)
            p.setdefault(low, sc.m_p)
            p.setdefault(high, sc.M_p)
    return p


def _scan(
    theorem: str,
    specs: tuple,
    mode_set: ModeSet,
    params: dict,
    T_values: list,
    require_threshold: bool,
):
    """check_theorem's result and admissible pencil at each T of T_values, as pairs.

    The composition check, the constants m_ab, m_cd, m_o and M_o, the mode
    mask and each spec's spatial sum (observation._spatial_sum) are computed
    once; the terms of a region do not depend on T, only its time window.
    Per T only the time blocks, the velocity amplitude, the pencil and its
    lowest eigenvalue are built, so every row has the bits of a run at that
    T alone. With require_threshold, ThresholdError is raised for the first
    T below the threshold, before any Gram is assembled.
    """
    geometry = mode_set.geometry
    symmetries = theorem_symmetries(theorem, specs, params, geometry)
    filled = _filled(theorem, specs, params, geometry, symmetries)
    literal = bool(params.get("paper_literal"))
    preds = [predicted_constant(theorem, {**filled, "T": T}, literal) for T in T_values]
    for T, pred in zip(T_values, preds):
        if require_threshold and pred["c"] is None:
            raise ThresholdError(f"T={T} is below the {theorem} threshold {pred['T_threshold']}")
    mask = np.ones(len(mode_set), dtype=bool)
    for sym in symmetries:
        mask &= (mode_set.k1 if sym.axis == "x1" else mode_set.k2) % sym.p != 0
    d = _weight_diagonal(EnergyWeight(1, "wave"), mode_set)
    for s in specs:
        s.validate_geometry(geometry)
    spatial = [_spatial_sum(s, mode_set) for s in specs]
    for T, pred in zip(T_values, preds):
        grams = [_closed_gram(replace(s, T=T), mode_set, sp) for s, sp in zip(specs, spatial)]
        pen = Pencil(grams, d, mask)
        c, c_min = pred["c"], pen.lowest()[0]
        result = {
            "theorem": theorem,
            "T": T,
            "T_threshold": pred["T_threshold"],
            "c_predicted": c,
            "n_states": 0,
            "empirical_c_min": c_min,
            "passed": c is not None and c_min >= c * (1 - 1e-9),
        }
        yield result, pen


def _check(
    theorem: str, specs: tuple, mode_set: ModeSet, params: dict, require_threshold: bool
) -> tuple:
    """check_theorem's result and the admissible pencil it was computed from."""
    return next(_scan(theorem, specs, mode_set, params, [specs[0].T], require_threshold))


def check_theorem(
    theorem: str, spec, mode_set: ModeSet, params: dict, *, require_threshold: bool = False
) -> dict:
    """Check a theorem on the truncated space by its admissible eigenvalue alone.

    spec is the theorem's composite observation (one ObservationSpec or a
    list). The regions must match the theorem; missing interval and symmetry
    constants are filled from them. empirical_c_min is the smallest eigenvalue
    of the composite's observation / wave-energy pencil on the modes that
    theorem_symmetries admits, and passed compares it with c_predicted. Below
    the threshold c_predicted is None and passed is False; empirical_c_min is
    still given, unless require_threshold is set: then ThresholdError is
    raised before any Gram is assembled. This is the one-T case of
    scan_theorem.
    """
    return _check(theorem, _as_spec_tuple(spec), mode_set, params, require_threshold)[0]


def scan_theorem(theorem: str, spec, mode_set: ModeSet, params: dict, T_values) -> list:
    """check_theorem at each horizon of T_values, one result dict per T.

    Every spec's horizon is set to T; row i equals check_theorem of the specs
    at T_values[i] to the last bit. The work that does not depend on T (the
    composition check, m_ab, m_o/M_o, the mode mask and each spec's spatial
    sum) is done once per scan, and only one T's Grams and pencil are held at
    a time.
    """
    T_values = [float(T) for T in T_values]
    if not T_values:
        raise ValueError("need at least one T")
    rows = _scan(theorem, _as_spec_tuple(spec), mode_set, params, T_values, False)
    return [result for result, _ in rows]


def _row_chunks(blocks, mode_set: ModeSet):
    """The doubled coefficient rows of the state blocks, regrouped _CHUNK rows at a time.

    Every block is a SpectralState holding one state or a stack of rows. The
    rows are copied into one (_CHUNK, 2n) buffer, which is yielded each time
    it fills (and, shorter, at the end), so the chunks, and the bits of each
    sweep, do not depend on how the states were split into blocks. The
    buffer is reused: a chunk is valid until the next one is drawn.
    """
    n = len(mode_set)
    buf = np.empty((_CHUNK, 2 * n), dtype=complex)
    fill = 0
    for block in blocks:
        if block.mode_set != mode_set:
            raise ValueError("all states must share one mode set")
        a, b = block.a.reshape(-1, n), block.b.reshape(-1, n)
        start = 0
        while start < len(a):
            take = min(_CHUNK - fill, len(a) - start)
            buf[fill : fill + take, :n] = a[start : start + take]
            buf[fill : fill + take, n:] = b[start : start + take]
            fill, start = fill + take, start + take
            if fill == _CHUNK:
                yield buf
                fill = 0
    if fill:
        yield buf[:fill]


def verify_observability(theorem: str, spec, states, params: dict) -> dict:
    """Sweep explicit states through observation >= c_predicted * energy.

    spec is one ObservationSpec or the list making up the theorem's composite
    observation (integrals add). states is one SpectralState, holding one
    state or a stack of them (see random_states), or an iterable of such
    blocks, which may be drawn lazily: the first block is drawn before the
    threshold check, the others as the sweep reaches them, and argmin_state
    counts rows across blocks. For the symmetry-restricted theorems every
    state must be pre-projected; the reported eigenvalue minimum is taken on
    the admissible subspace, where the inequality is meaningful. The report
    extends check_theorem's, whose admissible pencil the rows are swept
    through _CHUNK at a time (Pencil.quadratic_forms), however they were
    split into blocks. Below the threshold it raises ThresholdError before
    any Gram is assembled.
    """
    specs = _as_spec_tuple(spec)
    blocks = iter([states] if isinstance(states, SpectralState) else states)
    first = next(blocks, None)
    if first is None:
        raise ValueError("need at least one state")
    ms = first.mode_set

    result, pen = _check(theorem, specs, ms, params, require_threshold=True)
    c_pred = result["c_predicted"]

    # chunks of rows: stray mass, energies sum_k d_k (|a_k|^2 + |b_k|^2) and the sector forms
    n = len(ms)
    excluded = ~np.concatenate([pen.mask, pen.mask])
    minima = []  # (smallest ratio, its row) per chunk
    count = stray = zero = 0
    for coeffs in _row_chunks(itertools.chain([first], blocks), ms):
        mag = np.abs(coeffs)
        if excluded.any():
            scale = np.maximum(mag.max(axis=1), 1e-300)
            stray += int(np.sum(mag[:, excluded].max(axis=1) > 1e-12 * scale))
        energies = (mag[:, :n] ** 2 + mag[:, n:] ** 2) @ pen.d
        zero += int(np.sum(energies <= 0))
        positive = np.where(energies > 0, energies, math.inf)
        ratios = pen.quadratic_forms(coeffs) / positive
        i = int(np.argmin(ratios))
        minima.append((ratios[i], count + i))
        count += len(coeffs)
    if not count:
        raise ValueError("need at least one state")
    if stray:
        raise ValueError(
            f"{stray} states carry mass on symmetry-excluded modes; project them first"
        )
    if zero:
        raise ValueError("zero-energy states are excluded")

    # the first chunk holding the smallest ratio, as argmin over all rows would pick it
    min_ratio, argmin = minima[int(np.argmin([m for m, _ in minima]))]
    min_ratio = float(min_ratio)
    return {
        **result,
        "n_states": count,
        "min_ratio": min_ratio,
        "argmin_state": argmin,
        "passed": bool(min_ratio >= c_pred * (1 - 1e-9)),
    }


# ---------------------------------------------------------------------------
# Ingham-type checks


def _ingham_form(w: np.ndarray, coeffs: np.ndarray, T: float) -> float:
    """integral over (0, T) of |sum_k c_k e^{i w_k t}|^2 dt for finite exponents w.

    About the window centre T/2 the time kernel is e^{i (w_k - w_j) T/2} times
    the real symmetric sinc block S (observation._window_sinc), so with
    b = c e^{i (w - min w) T/2} the form is Re(b)' S Re(b) + Im(b)' S Im(b).
    S is built a block of rows at a time; it and the phases need the
    arguments |w_k - w_j| T / 2, which must stay finite.
    """
    if not math.isfinite((float(w.max()) - float(w.min())) * T):
        raise ValueError(f"the horizon T={T} overflows the time kernel of these exponents")
    b = coeffs * np.exp(1j * ((w - w.min()) * (T / 2.0)))
    parts = np.stack([b.real, b.imag], axis=1)
    lhs = 0.0
    for r0 in range(0, w.size, _INGHAM_BLOCK):
        rows = slice(r0, r0 + _INGHAM_BLOCK)
        block = _window_sinc(w[None, :] - w[rows, None], 0.0, T)
        lhs += float(np.vdot(parts[rows], block @ parts))
    return lhs


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
    lhs = _ingham_form(w, a, T)
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
    lhs = _ingham_form(w, coeffs, T)
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
