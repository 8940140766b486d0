"""Truncated solution data, energy seminorms, symmetry projection, random states.

A state holds one complex coefficient pair (a_k, b_k) per mode; the solution it
represents is sum_k (a_k e^{i w_k t} + b_k e^{-i w_k t}) e_k(x) with w_k the
model frequency. Energy seminorms are diagonal in the coefficients, so they
serve as the D side of every observability pencil.

A SpectralState may also hold a stack of states, a and b of shape (N, n), one
row per state. random_states draws such a stack from one generator per seed,
and random_state is its one-row case; energy_seminorm_sq and
project_p_symmetric act on every row at once, so a sweep over many seeded
states handles arrays a block of rows at a time, never one object per state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ModeSet, RectangleGeometry, build_mode_set

_MODELS = ("plate", "wave")


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Coefficients (a_k, b_k) over a mode set, of one state or of a stack of them.

    a and b have shape (n,) for one state or (N, n) for a stack of N states,
    one per row. Two are equal when the mode set and the coefficient bytes are.
    """

    mode_set: ModeSet
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.ascontiguousarray(self.a, dtype=complex)
        b = np.ascontiguousarray(self.b, dtype=complex)
        n = len(self.mode_set)
        if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[-1] != n:
            raise ValueError(f"coefficient arrays must have shape ({n},) or (N, {n})")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("coefficients must be finite")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _key(self) -> tuple:
        return (self.mode_set, self.a.tobytes(), self.b.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralState):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def doubled(self) -> np.ndarray:
        """Coefficients over the doubled index: a-block then b-block (per row for a stack)."""
        return np.concatenate([self.a, self.b], axis=-1)


def _single(state: SpectralState) -> SpectralState:
    if state.a.ndim != 1:
        raise ValueError("expected one state, not a stack of them")
    return state


@dataclass(frozen=True)
class EnergyWeight:
    """Diagonal energy form selector.

    plate: weight lambda_k^s on both coefficient families (the s-seminorm).
    wave:  the physical energy of the membrane; s is ignored and the weight is
           (l1 l2 / 2) lambda_k, which integrates |grad u0|^2 + |u1|^2 exactly.
    """

    s: float
    model: str

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if not math.isfinite(self.s):
            raise ValueError("exponent must be finite")

    def diagonal(self, mode_set: ModeSet) -> np.ndarray:
        """Per-mode weights (not doubled); both families share the same weight."""
        lam = mode_set.lam
        if self.model == "plate":
            return lam**self.s
        g = mode_set.geometry
        return 0.5 * g.ell1 * g.ell2 * lam


@dataclass(frozen=True)
class SymmetrySpec:
    """Order-p translation symmetry along one axis, anchored at the point alpha.

    p must be the smallest positive integer with p*alpha/pi an integer; then
    sin(n*alpha) vanishes exactly for the multiples of p and nowhere else.
    """

    p: int
    axis: str
    alpha: float

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if self.axis not in ("x1", "x2"):
            raise ValueError("axis must be 'x1' or 'x2'")
        ratio = self.p * self.alpha / math.pi
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"p*alpha/pi = {ratio} is not an integer")
        for q in range(1, self.p):
            r = q * self.alpha / math.pi
            if abs(r - round(r)) <= 1e-9:
                raise ValueError(f"p is not minimal: {q}*alpha/pi is already an integer")


def energy_seminorm_sq(state: SpectralState, weight: EnergyWeight):
    """Weighted energy of the state: a float, or one per row for a stack of states."""
    w = weight.diagonal(state.mode_set)
    e = np.sum(w * (np.abs(state.a) ** 2 + np.abs(state.b) ** 2), axis=-1)
    return float(e) if e.ndim == 0 else e


def project_p_symmetric(state: SpectralState, spec: SymmetrySpec) -> SpectralState:
    """Zero the coefficients whose index along spec.axis is a multiple of p.

    This is the orthogonal projection onto p-symmetric data: a sine series is
    p-symmetric exactly when its coefficients vanish at multiples of p. A
    stack of states is projected by one mask multiply over all its rows.
    """
    ks = state.mode_set.k1 if spec.axis == "x1" else state.mode_set.k2
    keep = (ks % spec.p) != 0
    return SpectralState(state.mode_set, state.a * keep, state.b * keep)


def symmetry_residual(f_samples, p: int) -> float:
    """Worst violation of sum_{k=1}^{p} f(t + 2 k pi / p) = 0 on the grid.

    f_samples[i] = f(i*pi/N) for i = 0..N-1 samples a function on (0, pi); it is
    extended to a 2pi-periodic odd function, which the shifts then permute. N
    must be a multiple of 2p so every shifted point is again a grid node.
    """
    f = np.asarray(f_samples)
    n = f.shape[0]
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n == 0 or n % (2 * p) != 0:
        raise ValueError(f"grid size must be a nonzero multiple of 2p, got {n} for p={p}")
    ext = np.zeros(2 * n, dtype=f.dtype if np.iscomplexobj(f) else float)
    ext[:n] = f
    ext[n] = 0.0
    ext[n + 1 :] = -f[:0:-1]  # odd reflection: f(pi + y) = -f(pi - y)
    shift = 2 * n // p
    total = np.zeros_like(ext)
    for k in range(1, p + 1):
        total += np.roll(ext, -k * shift)
    return float(np.max(np.abs(total)))


def axis_trace(state: SpectralState, axis: str, transverse: float, n_samples: int) -> np.ndarray:
    """Sample u0 = sum (a+b)_k e_k along one axis at a fixed transverse point.

    Returns u0 on the grid i*ell_axis/n_samples, i = 0..n_samples-1, the grid
    convention symmetry_residual expects (for the pi-length axes of the square).
    """
    ms = _single(state).mode_set
    g = ms.geometry
    c = state.a + state.b
    if axis == "x1":
        x = np.arange(n_samples) * (g.ell1 / n_samples)
        along, across, ell_a, ell_c = ms.k1, ms.k2, g.ell1, g.ell2
    elif axis == "x2":
        x = np.arange(n_samples) * (g.ell2 / n_samples)
        along, across, ell_a, ell_c = ms.k2, ms.k1, g.ell2, g.ell1
    else:
        raise ValueError("axis must be 'x1' or 'x2'")
    point = np.sin(across * (math.pi * transverse / ell_c))
    # (n_samples, n_modes) sine table contracted against weighted coefficients
    table = np.sin(np.outer(x, along * (math.pi / ell_a)))
    return table @ (c * point)


def random_states(mode_set: ModeSet, seeds, decay: float = 0.0) -> SpectralState:
    """Deterministic random states, one row per seed, with |a_k|, |b_k| <= lambda_k^(-decay).

    Coefficients are uniform on the complex unit disc, then scaled; decay 0
    gives rough data, decay >= 2 the smooth regime. Row i draws 4n uniforms
    from np.random.default_rng(seeds[i]): the radii and angles of a, then
    those of b; the square roots, phases and scale then act on the whole
    stack. A decay whose scale underflows to zero on every mode is rejected,
    since its states would all be zero.
    """
    decay = float(decay)
    if not math.isfinite(decay) or decay < 0:
        raise ValueError(f"decay must be finite and >= 0, got {decay}")
    n = len(mode_set)
    scale = mode_set.lam ** (-decay) if decay != 0 else np.ones(n)
    if not np.any(scale):
        raise ValueError(f"decay {decay} underflows lambda^(-decay) to zero on every mode")
    seeds = list(seeds)
    u = np.empty((len(seeds), 4, n))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row.reshape(-1))
    r = np.sqrt(u[:, 0::2])
    phi = 2.0 * math.pi * u[:, 1::2]
    a, b = np.moveaxis(r * np.exp(1j * phi) * scale, 1, 0)
    dead = ~(a.any(axis=1) | b.any(axis=1))
    a[dead, 0] = scale[0]  # measure-zero guard: a state is never all zero
    return SpectralState(mode_set, a, b)


def random_state(mode_set: ModeSet, seed: int, decay: float = 0.0) -> SpectralState:
    """The one-row case of random_states: one state with |a_k|, |b_k| <= lambda_k^(-decay)."""
    batch = random_states(mode_set, [seed], decay)
    return SpectralState(mode_set, batch.a[0], batch.b[0])


def state_to_json(state: SpectralState) -> str:
    """Serialize one state to JSON; float repr makes the round trip bit-exact."""
    ms = _single(state).mode_set
    rows = [
        [k1, k2, a.real, a.imag, b.real, b.imag]
        for k1, k2, a, b in zip(ms.k1.tolist(), ms.k2.tolist(), state.a.tolist(), state.b.tolist())
    ]
    doc = {
        "geometry": {"ell1": ms.geometry.ell1, "ell2": ms.geometry.ell2},
        "K1": ms.K1,
        "K2": ms.K2,
        "coefficients": rows,
    }
    return json.dumps(doc, sort_keys=True)


def state_from_json(text: str) -> SpectralState:
    doc = json.loads(text)
    geom = RectangleGeometry(doc["geometry"]["ell1"], doc["geometry"]["ell2"])
    ms = build_mode_set(geom, doc["K1"], doc["K2"])
    a = np.zeros(len(ms), dtype=complex)
    b = np.zeros(len(ms), dtype=complex)
    for k1, k2, ra, ia, rb, ib in doc["coefficients"]:
        i = ms.index_of(int(k1), int(k2))
        a[i] = complex(ra, ia)
        b[i] = complex(rb, ib)
    return SpectralState(ms, a, b)
