"""Truncated solution data, energy seminorms, symmetry projection, random states.

A state holds one complex coefficient pair (a_k, b_k) per mode; the solution it
represents is sum_k (a_k e^{i w_k t} + b_k e^{-i w_k t}) e_k(x) with w_k the
model frequency. Energy seminorms are diagonal in the coefficients, so they
serve as the D side of every observability pencil.

A SpectralState may also hold a stack of states, a and b of shape (N, n), one
row per state. random_states draws such a stack, each row from the stream
of np.random.default_rng(seed), and random_state is its one-row case;
energy_seminorm_sq and project_p_symmetric act on every row at once, so a
sweep over many seeded states handles arrays a block of rows at a time,
never one object per state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ModeSet, RectangleGeometry, build_mode_set, number, number_array

_MODELS = ("plate", "wave")
_DRAW_ROWS = 16  # rows random_states draws into its scratch at a time


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

    s: float  # held as a float, so a report gives an integer s as 1.0
    model: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", float(number(self.s, "s")))
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")

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
    sin(n*alpha) vanishes exactly for the multiples of p and nowhere else. An
    integral float p is taken as its integer. admits holds the one rule that
    the projection and the admissible pencil share: a p-symmetric state has
    no mode whose index along the axis is a multiple of p.
    """

    p: int
    axis: str
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", number(self.p, "p", integer=True))
        number(self.alpha, "alpha")
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

    def admits(self, mode_set: ModeSet) -> np.ndarray:
        """Per-mode booleans: True where the index along the axis is not a multiple of p."""
        ks = mode_set.k1 if self.axis == "x1" else mode_set.k2
        return ks % self.p != 0


def energy_seminorm_sq(state: SpectralState, weight: EnergyWeight):
    """Weighted energy of the state: a float, or one per row for a stack of states."""
    w = weight.diagonal(state.mode_set)
    e = np.sum(w * (np.abs(state.a) ** 2 + np.abs(state.b) ** 2), axis=-1)
    return float(e) if e.ndim == 0 else e


def project_p_symmetric(state: SpectralState, spec: SymmetrySpec) -> SpectralState:
    """Zero the coefficients of the modes that spec does not admit (SymmetrySpec.admits).

    This is the orthogonal projection onto p-symmetric data: a sine series is
    p-symmetric exactly when its coefficients vanish at multiples of p along
    the axis. A stack of states is projected by one mask multiply over all its rows.
    """
    keep = spec.admits(state.mode_set)
    return SpectralState(state.mode_set, state.a * keep, state.b * keep)


def symmetry_residual(f_samples, p: int) -> float:
    """Worst violation of sum_{k=1}^{p} f(t + 2 k pi / p) = 0 on the grid.

    f_samples[i] = f(i*pi/N) for i = 0..N-1 samples a function on (0, pi); it is
    extended to a 2pi-periodic odd function, which the shifts then permute. N
    must be a multiple of 2p so every shifted point is again a grid node; an
    integral float p is taken as its integer, a fractional one rejected. The
    samples, real or complex, are checked by number_array.
    """
    f = number_array(f_samples, "f_samples", complex)
    n = f.shape[0]
    p = number(p, "p", integer=True)
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n == 0 or n % (2 * p) != 0:
        raise ValueError(f"grid size must be a nonzero multiple of 2p, got {n} for p={p}")
    ext = np.zeros(2 * n, dtype=complex)
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
    transverse, n_samples = number(transverse, "transverse"), number(n_samples, "n_samples", integer=True)
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
    # (n_samples, n_modes) sine table summed against the weighted coefficients
    table = np.sin(np.outer(x, along * (math.pi / ell_a)))
    return np.sum(table * (c * point), axis=-1)


# numpy's SeedSequence.generate_state: output word i mixes pool word i % 4 by the hash constants
# _HASH[i] and _HASH[i + 1], the powers of its multiplier 0x58F38DED times 0x8B51F9DD, mod 2^32
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)], dtype=np.uint32)
# PCG64's 128-bit LCG multiplier and modulus
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MASK = (1 << 128) - 1


def _seeded(seeds: list):
    """Yield, once per seed of the int list seeds, a Generator whose next draws are np.random.default_rng(seed)'s.

    default_rng(seed) is Generator(PCG64(SeedSequence(seed))), and PCG64 is
    seeded by generate_state(4, uint64) of that sequence. The first seed's
    generator is built so, which a one-seed call pays as default_rng would.
    For the later seeds the eight uint32 words of generate_state are formed
    from each seed's SeedSequence(seed).pool for the whole batch at once,
    and PCG64's (state, inc) are derived from them as pcg64_set_seed does and
    set on the one generator: a batch makes one PCG64 and one Generator, not
    one per seed. A negative seed raises default_rng's ValueError.
    """
    bits = np.random.PCG64(seeds[0])
    rng = np.random.Generator(bits)
    yield rng
    if len(seeds) == 1:
        return
    pools = np.array([np.random.SeedSequence(seed).pool for seed in seeds[1:]], dtype=np.uint32)
    words = (np.tile(pools, 2) ^ _HASH[:8]) * _HASH[1:]  # uint32 arithmetic wraps mod 2^32
    words ^= words >> 16
    # generate_state reads the words as little-endian uint64 pairs: the state seed, then the increment's
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & _PCG_MASK
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _PCG_MASK
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        yield rng


def random_states(mode_set: ModeSet, seeds, decay: float = 0.0, admits=None) -> SpectralState:
    """Deterministic random states, one row per seed, with |a_k|, |b_k| <= lambda_k^(-decay).

    Coefficients are uniform on the complex unit disc, then scaled; decay 0
    gives rough data, decay >= 2 the smooth regime. Row i draws 4n uniforms
    from np.random.default_rng(seeds[i]): the radii and angles of a, then
    those of b. The seeds share one generator whose state is set per seed
    (_seeded), so no default_rng is built per seed, yet each row has the
    bits of default_rng(seed).random(4n), as tests/test_states.py checks
    against numpy itself. Each seed is checked by number as an integer: None,
    a SeedSequence, a Generator and a bool are rejected, and a negative seed
    raises default_rng's ValueError. The phases 2 pi u go through cos and
    sin into unit-stride scratch (the cosines into the spent angles' rows),
    and their products with the square roots of the radii, formed in that
    scratch, into the real and imaginary parts of one (2, N, n) array,
    which, for a nonzero decay, the scale then multiplies; so a and b come
    out contiguous. The stack is filled _DRAW_ROWS rows at a time from one
    scratch of that many rows' uniforms and phases (6 n floats a row), each
    value as a pass over the whole stack would give it; so the call holds
    its output, that scratch, the seeds' generator states and the
    finiteness checks' booleans, about 1.14 times the output at K = 24 and
    N = 256. A decay whose scale underflows to zero on every mode is
    rejected, since its states would all be zero.

    admits, a boolean per mode such as SymmetrySpec.admits (or their
    conjunction), draws only the admitted modes: each row still draws its
    4n uniforms, but the phases, cosines, sines and square roots are taken
    on the admitted modes alone and every other coefficient is zero. The
    admitted coefficients have the bits that project_p_symmetric leaves of
    the unmasked draw. A mask that admits no mode is rejected.
    """
    return SpectralState(mode_set, *_drawn(mode_set, seeds, decay, "seeds", admits))


def random_state(mode_set: ModeSet, seed: int, decay: float = 0.0) -> SpectralState:
    """The one-row case of random_states: one state with |a_k|, |b_k| <= lambda_k^(-decay)."""
    a, b = _drawn(mode_set, [seed], decay, "seed")
    return SpectralState(mode_set, a[0], b[0])


def _drawn(mode_set: ModeSet, seeds, decay, name: str, admits=None) -> np.ndarray:
    """random_states' coefficients (a, b), one (2, N, n) array, its seeds checked under name, zero off admits."""
    decay = float(number(decay, "decay"))
    if decay < 0:
        raise ValueError(f"decay must be >= 0, got {decay}")
    n = len(mode_set)
    scale = mode_set.lam ** (-decay) if decay != 0 else np.ones(n)
    if not np.any(scale):
        raise ValueError(f"decay {decay} underflows lambda^(-decay) to zero on every mode")
    keep = slice(None)
    if admits is not None:
        admits = np.asarray(admits)
        if admits.dtype != bool or admits.shape != (n,):
            raise ValueError(f"admits must be {n} booleans, one per mode")
        if not admits.any():
            raise ValueError("admits no mode")
        keep = np.flatnonzero(admits)
    seeds = [number(seed, name, integer=True) for seed in seeds]
    generators = _seeded(seeds)
    z = np.zeros((2, len(seeds), n), dtype=complex)
    u = np.empty((min(_DRAW_ROWS, len(seeds)), 4, n))  # uniforms of a block of rows
    phi = np.empty((2, len(u), len(scale[keep])))  # its admitted phases, then their sines
    for lo in range(0, len(seeds), _DRAW_ROWS):
        rows = z[:, lo : lo + _DRAW_ROWS]
        k = rows.shape[1]
        for row, rng in zip(u[:k], generators):
            rng.random(out=row.reshape(-1))
        drawn = u[:k, :, keep]  # a view of the uniforms, or a copy of the admitted ones
        radii, angles = np.moveaxis(drawn[:, 0::2], 1, 0), np.moveaxis(drawn[:, 1::2], 1, 0)
        np.multiply(2.0 * math.pi, angles, out=phi[:, :k])
        np.cos(phi[:, :k], out=angles)  # the spent angles take the cosines
        np.sin(phi[:, :k], out=phi[:, :k])
        np.sqrt(radii, out=radii)
        rows.real[..., keep] = np.multiply(angles, radii, out=angles)
        rows.imag[..., keep] = np.multiply(phi[:, :k], radii, out=phi[:, :k])
        if decay != 0:
            rows *= scale
    a, b = z
    dead = ~(a.any(axis=1) | b.any(axis=1))
    first = np.arange(n)[keep][0]
    a[dead, first] = scale[first]  # measure-zero guard: a state is never all zero
    return z


def state_to_dict(state: SpectralState) -> dict:
    """One state as the JSON object state_to_json writes."""
    ms = _single(state).mode_set
    rows = [
        [k1, k2, a.real, a.imag, b.real, b.imag]
        for k1, k2, a, b in zip(ms.k1.tolist(), ms.k2.tolist(), state.a.tolist(), state.b.tolist())
    ]
    return {
        "geometry": {"ell1": ms.geometry.ell1, "ell2": ms.geometry.ell2},
        "K1": ms.K1,
        "K2": ms.K2,
        "coefficients": rows,
    }


def state_to_json(state: SpectralState) -> str:
    """Serialize one state to JSON; float repr makes the round trip bit-exact."""
    return json.dumps(state_to_dict(state), sort_keys=True)


def state_from_json(text: str) -> SpectralState:
    """The one state of a state_to_json document.

    A mode without a row stays zero. Each entry is checked by number: a
    k1 or k2 that is not an integer, a coefficient part that is not a finite
    real (a JSON true included), or a mode that two rows give, raises
    ValueError; a mode outside the truncation KeyError.
    """
    doc = json.loads(text)
    geom = RectangleGeometry(doc["geometry"]["ell1"], doc["geometry"]["ell2"])
    ms = build_mode_set(geom, doc["K1"], doc["K2"])
    # one row per mode: k1, k2, Re a, Im a, Re b, Im b
    rows = np.array(doc["coefficients"], dtype=object).reshape(len(doc["coefficients"]), 6)
    index = [ms.index_of(number(k1, "k1", integer=True), number(k2, "k2", integer=True)) for k1, k2 in rows[:, :2]]
    if len(set(index)) < len(index):
        raise ValueError("a mode is given by two rows")
    a, b = np.zeros((2, len(ms)), dtype=complex)
    a.real[index], a.imag[index], b.real[index], b.imag[index] = number_array(rows[:, 2:], "coefficients", float).T
    return SpectralState(ms, a, b)
