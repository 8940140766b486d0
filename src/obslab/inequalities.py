"""Observability constants: eigenvalue pencils, explicit formulas, Ingham-type checks.

The empirical constants are the extremal eigenvalues of D^{-1/2} G D^{-1/2}
where G is an observation Gram matrix and D the diagonal energy weight; the
predicted constants are closed-form functions of the time horizon and of the
interval and symmetry constants m_{a,b}, m_p, M_p. Both sides meet in
check_theorem, which compares the predicted constant with the smallest
eigenvalue on the admissible modes, in scan_theorem, its run over many
horizons T, which computes the constants and the mode mask once per scan,
and in verify_observability, which also sweeps explicit states, a chunk of
rows at a time, through the inequality observation >= c * energy. The
theorems' region compositions, constants and symmetries live in one table.

Every solve goes through one pencil (pencil, Pencil) built from the closed
Grams' centred blocks of its ObservationSpecs. Each closed Gram is a phase
around [[X, Y], [Y, X]] (see observation), so with one window centre the
pencil splits into the real n x n sectors D^{-1/2} (X + Y) D^{-1/2} (even in
time) and D^{-1/2} (X - Y) D^{-1/2} (odd in time); pieces centred apart are
rotated to one centre and form one real 2n x 2n sector. The pieces' rows are
summed, a block of whole k2-rows at a time, straight into A = sum X and B =
sum Y, with no GramForm, and each D-scaled sector is written in turn into
one slab, where LAPACK reduces it in place; A, B and the sectors hold only
the C-order upper triangle, all that any reader reads. A theorem's symmetry
mask acts per mode, so each sector is restricted to the admissible modes
before its solve. Only the solve reads sectors: the pencil's quadratic
forms are observation._doubled_forms of the unscaled A and B, the rule of
GramForm and the oracle. empirical_constants lifts the minimiser back
through the sector sign, 1/sqrt 2 and the phase, and certifies c_min by its
Rayleigh quotient on that form. check_theorem takes the smallest eigenvalue
of the masked sectors (Pencil.lowest, which computes no eigenvector), and
verify_observability sweeps states through the forms a chunk at a time.
Each sector is reduced to tridiagonal form once, and both its extreme
eigenvalues and the minimiser come from it, equal to scipy.linalg.eigh's to
the bit; lowest skips the reduction of a sector that a shifted Cholesky
factorisation proves to lie above the other's minimum. Its LAPACK calls go
through spectrum._lapack, which imports scipy on its first call; this
module imports no scipy and calls no BLAS helper.

The Ingham-type checks take their time integral from the real blocked form
of observation (_exponential_form) on the one axis (0, T), which makes no
BLAS or LAPACK call, so m_ab, the symmetry constants and the Ingham checks
never load scipy.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .observation import (
    _ROW_BLOCK,
    ObservationSpec,
    _centre_angle,
    _doubled_forms,
    _exponential_form,
    _gram_rows,
    assemble_gram,
)
from .spectrum import ModeSet, _lapack, _partial_gap, number, number_array
from .states import EnergyWeight, SpectralState, SymmetrySpec, energy_seminorm_sq, state_to_dict


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
# rows per chunk of the sweep, so no stack of every state's coefficients is held at once
_CHUNK = 256
# rows per _doubled_forms call of Pencil.quadratic_forms: the phased rows and the call's two buffers,
# 8 m floats a row, then take no more than the sweep's chunk of rows itself, 4 n floats a row
_FORM_ROWS = _CHUNK // 2


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
        w = tuple(float(number(x, "exponents")) for x in self.exponents)
        a = tuple(number_array(self.coefficients, "coefficients", complex).tolist())
        if len(w) != len(a):
            raise ValueError("exponents and coefficients must have equal length")
        n = number(self.n, "n", integer=True)
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if not w:
            raise ValueError("need at least one exponent")
        idx = self.indices
        idx = tuple(range(1, len(w) + 1)) if idx is None else tuple(number(k, "indices", integer=True) for k in idx)
        gamma = self.gamma if self.gamma is None else number(self.gamma, "gamma")
        if gamma is None or len(w) >= 2:  # a single exponential satisfies the gap vacuously
            actual = _partial_gap(np.array(w), n, None if self.indices is None else idx)
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
        object.__setattr__(self, "n", n)
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

    def to_dict(self) -> dict:
        return {
            "specs": [s.to_dict() for s in self.specs],
            "weight": {"s": self.weight.s, "model": self.weight.model},
            "K1": self.K1,
            "K2": self.K2,
            "c_min": self.c_min,
            "c_max": self.c_max,
            "argmin_state": state_to_dict(self.argmin_state),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# eigenvalue pencil


def _as_spec_tuple(spec) -> tuple:
    if isinstance(spec, ObservationSpec):
        return (spec,)
    specs = tuple(spec)
    if not specs or not all(isinstance(s, ObservationSpec) for s in specs):
        raise ValueError("spec must be an ObservationSpec or a nonempty list of them")
    if len({s.model for s in specs}) != 1:
        raise ValueError("all observation pieces must share one model")
    return specs


# LAPACK dsyevr reduces a matrix unscaled when its max-norm lies in [_RMIN, _RMAX]; dlamch("S")
# is the smallest normal double and dlamch("P") the machine epsilon, numpy's tiny and eps
_SAFMIN = float(np.finfo(float).tiny)
_SMLNUM = _SAFMIN / float(np.finfo(float).eps)
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(_SAFMIN)))


class _Reduction:
    """One real symmetric sector reduced to tridiagonal form, as eigh reduces it for a subset.

    scipy.linalg.eigh(s, subset_by_index=[i, i]) runs LAPACK dsyevr: dsytrd
    takes s to a tridiagonal T = Q^T s Q, dstebz bisects T for its
    eigenvalue i, dstein finds that eigenvalue's vector of T by inverse
    iteration and dormtr multiplies it by Q. Here the reduction is done once,
    so both extreme eigenvalues and the minimiser come from one dsytrd. Each
    step gets dsyevr's arguments and its share of dsyevr's workspace, and
    the finiteness check, the 1 x 1 case and the rescaling of a max-norm
    outside [_RMIN, _RMAX] are eigh's and dsyevr's, so every value and
    vector equals eigh's bit for bit. The F-ordered sector a is scaled and
    reduced in place, its lower triangle only: no copy is made.
    """

    def __init__(self, a: np.ndarray) -> None:
        n = self.n = len(a)
        # dsyevr's max-norm of the lower triangle, all that LAPACK reads: nan or inf when an
        # entry there is, which eigh rejects with this error
        norm = _lapack("dlantr", "M", a, uplo="L")
        if not math.isfinite(norm):
            raise ValueError("array must not contain infs or NaNs")
        if n == 1:  # dsyevr returns the entry, unscaled, and the vector 1
            self.d = a[0].copy()
            return
        self.lwork = int(_lapack("dsyevr_lwork", n, lower=1)[0])
        self.sigma = _RMIN / norm if 0 < norm < _RMIN else _RMAX / norm if norm > _RMAX else None
        if self.sigma is not None:  # dsyevr's dscal of each column of the lower triangle, none other
            for j in range(n):
                a[j:, j] *= self.sigma
        self.a, self.d, self.e, self.tau = _lapack(
            "dsytrd", a, lower=1, lwork=self.lwork - 5 * n, overwrite_a=1
        )

    def _bisect(self, i: int, order: str) -> tuple:
        """dstebz's (eigenvalues, blocks, splits) for eigenvalue i of T, with abstol 0."""
        m, w, block, split = _lapack("dstebz", self.d, self.e, 2, 0.0, 0.0, i + 1, i + 1, 0.0, order)
        return w[:m], block, split

    def _unscaled(self, w: np.ndarray) -> float:
        return float(w[0] if self.sigma is None else w[0] * (1.0 / self.sigma))

    def lowest(self) -> tuple:
        """eigh(s, subset_by_index=[0, 0])'s eigenvalue, and the bisection that vector reads."""
        if self.n == 1:
            return float(self.d[0]), None
        bisection = self._bisect(0, "B")
        return self._unscaled(bisection[0]), bisection

    def highest(self) -> float:
        """The largest eigenvalue of s, as eigh(s, subset_by_index=[n - 1] * 2, eigvals_only=True)."""
        if self.n == 1:
            return float(self.d[0])
        return self._unscaled(self._bisect(self.n - 1, "E")[0])

    def vector(self, bisection) -> np.ndarray:
        """The unit eigenvector of lowest's eigenvalue, eigh's to the bit, from lowest's bisection."""
        n = self.n
        if n == 1:
            return np.ones(1)
        w, block, split = bisection
        (z,) = _lapack("dstein", self.d, self.e, w, block, split)
        # dormtr for the lower triangle: dormqr with the reflectors below the subdiagonal, read in
        # place as the n x (n - 1) F-ordered matrix one entry into a (its last row is not read)
        v = self.a.reshape(-1, order="F")[1 : 1 + n * (n - 1)].reshape((n, n - 1), order="F")
        z[1:] = _lapack("dormqr", "L", "N", v, self.tau, z[1:], self.lwork - 2 * n)[0]
        return z[:, 0]


# Pencil.lowest skips a sector proven to lie above the lowest eigenvalue so far by this multiple of
# its norm, on sectors of at most _SKIP_DIM rows; see _exceeds
_SKIP_MARGIN = 1e-8
_SKIP_DIM = 2048


def _exceeds(s: np.ndarray, value: float) -> bool:
    """Whether every eigenvalue of the symmetric sector in the upper triangle of the C-ordered s is proven above value.

    The proof is a Cholesky factorisation, LAPACK dpotrf in place, of s -
    sigma I with sigma = value + margin, margin = _SKIP_MARGIN f and f the
    Frobenius norm of the triangle, so ||s||_2 <= sqrt(2) f. If it completes,
    R^T R = s - sigma I + E with ||E||_2 <= about (m + 1) m eps ||s - sigma I||_2
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.7, with
    |R^T||R| bounded by its trace as in Rump, BIT 46 (2006) 433-452), so every
    eigenvalue of s exceeds sigma - ||E||_2. The value a reduction of s would
    give (dsytrd, then bisection) lies within about m^2 eps ||s||_2 of its
    smallest eigenvalue. A completed factorisation had every pivot, so every
    s_jj - sigma, positive: sigma < ||s||_2. With m <= _SKIP_DIM and value >=
    -2 ||s||_2 both errors together stay below the margin, so that reduction
    would give more than value; with value < -2 ||s||_2 it would anyway. s is
    overwritten whatever the answer. A sector of more than _SKIP_DIM rows, or
    one whose norm is not finite or lies outside [_RMIN, _RMAX], is not tried.
    """
    m = len(s)
    f = _lapack("dlantr", "F", s.T, uplo="L")
    if not (m <= _SKIP_DIM and _RMIN <= f <= _RMAX):  # a nan norm fails too
        return False
    diagonal = s.reshape(-1)[:: m + 1]
    diagonal -= value + _SKIP_MARGIN * f
    try:
        _lapack("dpotrf", s.T, lower=1, clean=0, overwrite_a=1)
    except LinAlgError:  # a pivot that is not positive: s - sigma I is not proven definite
        return False
    return True


def _summed_blocks(sources: list, keep: np.ndarray, n: int) -> tuple:
    """(angle, work): the pieces' Grams summed about the first piece's angle, on the modes keep.

    sources holds each piece's (angle, rows): its observation._centre_angle,
    and its rows as observation._gram_rows yields them. work[0] and work[1]
    are A and B of the sum [[A, B], [conj B, conj A]] on the m sorted modes
    keep, into whose upper triangles each piece's rows are added in order,
    the first piece's to 0.0: a sum from zeros to the bit, -0.0 entries
    becoming +0.0, with no pass over zeroed memory. When every piece shares
    the first one's angle, A and B are the real sums of X and Y, and work[2]
    is a spare m x m slab for the sectors, in the same allocation: one array
    is faulted in once, and its pages are reused once it is freed, where
    several smaller ones fault page by page. A piece centred elsewhere is
    rotated to that angle, and work is the complex (A, B); the rotation is by
    per-mode phase products, not e^{i (psi_j - psi_i)}: a rounded angle
    difference would be off by ulp(angle), far more than eps when |angle| >> 1.
    """
    m, angle = len(keep), sources[0][0]
    phases = [
        None if np.array_equal(psi, angle) else (np.exp(1j * psi) * np.exp(-1j * angle))[keep]
        for psi, _ in sources
    ]
    work = np.empty((3, m, m)) if all(q is None for q in phases) else np.empty((2, m, m), complex)
    for k, ((_, rows), q) in enumerate(zip(sources, phases)):
        for r, x, y in rows:
            lo, hi = np.searchsorted(keep, (r.start, r.stop))
            if m < n:
                pick = np.ix_(keep[lo:hi] - r.start, keep[lo:] - r.start)
                x, y = x[pick], y[pick]
            if q is not None:
                x, y = x * (q[lo:hi, None].conj() * q[lo:]), y * (q[lo:hi, None].conj() * q[lo:].conj())
            for total, part in zip(work[:2, lo:hi, lo:], (x, y)):
                np.add(total if k else 0.0, part, out=total)  # the first piece is added to 0.0
    return angle, work


def _write_sector(blocks: np.ndarray, r: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write the upper triangle of sector k of D^{-1/2} [[A, B], [conj B, conj A]] D^{-1/2} into out.

    blocks is (A, B) on the m kept modes, in their upper triangles, and r =
    D^{-1/2} there; A and B are scaled by rr = r r^T a block of rows at a time.
    Real blocks give the even sector A rr + B rr (k = 0) and the odd A rr -
    B rr (k = 1); complex ones the real 2m x 2m [[Re(A+B), Im(B-A)], [Im(A+B),
    Re(A-B)]], its upper-right block Im(A+B)^T below its diagonal, as A is
    Hermitian and B symmetric. A weight entry so small that the
    scaling overflows writes inf or nan, with no warning: the solve rejects
    the sector (_Reduction), so the fault is reported once, as a ValueError.
    """
    m = len(r)
    step = max(1, _ROW_BLOCK // m)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            rr = np.multiply(r[lo:hi, None], r[lo:])
            a, b = blocks[0, lo:hi, lo:] * rr, blocks[1, lo:hi, lo:] * rr
            if np.iscomplexobj(blocks):
                out[lo:hi, lo:m], out[m + lo : m + hi, m + lo :] = (a + b).real, (a - b).real
                out[lo:hi, m + lo :] = (b - a).imag
                below = np.arange(lo, m)[:, None] > np.arange(lo, hi)
                np.copyto(out[lo:m, m + lo : m + hi], (a + b).imag.T, where=below)
            else:
                (np.add, np.subtract)[k](a, b, out=out[lo:hi, lo:])


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

    Pencil(specs, mode_set, d, mask) sums the Grams of the ObservationSpecs
    specs, each assembled a block of rows at a time, with no GramForm;
    pencil() builds it from an energy weight. d is the energy weight
    diagonal, one positive entry per mode, and mask None (all modes) or n
    booleans that select some mode, both checked before any Gram is
    assembled. blocks holds (A, B) on the masked modes in their upper
    triangles; the strict lower triangles are not defined. grams lists the
    pieces' GramForms, assembled on first access. For a solve, each D-scaled
    sector is written, its upper triangle only, into one slab: the slice
    that follows A and B in their array when real, its own 2m x 2m array
    when complex. lowest and extremes reduce each sector in turn in place to
    tridiagonal form once (_Reduction) and read the extreme eigenvalues from
    it by bisection: lowest only the smallest, as a float, and extremes both
    and the eigenvector of the smallest, from the winning sector's
    reduction. quadratic_forms reads A and B, never a sector.
    """

    def __init__(self, specs: tuple, mode_set: ModeSet, d: np.ndarray, mask) -> None:
        n = len(mode_set)
        if np.shape(d) != (n,) or not np.all(d > 0):  # nan fails d > 0, with no warning
            raise ValueError("energy weight must be strictly positive on every mode")
        self._specs, self._mode_set, self.d = specs, mode_set, d
        self.mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask)
        if self.mask.dtype != bool or self.mask.shape != (n,):
            raise ValueError(f"mask must be {n} booleans, one per mode")
        if not self.mask.any():
            raise ValueError(f"mask must select some of the {n} modes")
        self.keep = np.flatnonzero(self.mask)
        sources = [(_centre_angle(s, mode_set), _gram_rows(s, mode_set)) for s in specs]
        self.angle, work = _summed_blocks(sources, self.keep, n)
        # the slab each sector is written into in turn: the spare slice of real sums, or its own
        m = len(self.keep)
        self.blocks, self._slab = work[:2], work[2] if np.isrealobj(work) else np.empty((2 * m, 2 * m))

    @functools.cached_property
    def grams(self) -> list:
        return [assemble_gram(s, self._mode_set) for s in self._specs]

    def _indices(self) -> list:
        """Each sector's positions in the doubled coordinates: the even and the odd sector's, or the one sector's."""
        n, keep = len(self.d), self.keep
        return [keep, n + keep] if np.isrealobj(self.blocks) else [np.concatenate([keep, n + keep])]

    def _write(self, k: int) -> np.ndarray:
        """The one slab, with the upper triangle of sector k written into it."""
        _write_sector(self.blocks, 1.0 / np.sqrt(self.d[self.keep]), k, self._slab)
        return self._slab

    def _odd_first(self) -> bool:
        """Whether the odd sector's smallest diagonal entry, a bound on its smallest eigenvalue, is the lower one."""
        a, b = np.diagonal(self.blocks[0]), np.diagonal(self.blocks[1])
        with np.errstate(all="ignore"):  # an overflowing weight is rejected by the solve, not here
            w = 1.0 / self.d[self.keep]
            return bool(np.min((a - b) * w) < np.min((a + b) * w))

    def _solve(self, full: bool) -> tuple:
        """(smallest eigenvalue, largest, u) from at most one reduction per sector.

        The sectors are reduced in turn in the one slab, and u is read from a
        sector's reduction whenever it holds the smallest eigenvalue so far,
        before the next sector overwrites it; a tie goes to the first sector.
        LAPACK reads the lower triangle of an F-ordered matrix, which for the
        transposed view of the C-ordered slab is the upper triangle the
        sector was written to, so the slab is reduced in place.

        Without full, only the smallest is computed: (smallest, None, None).
        Then the sector whose smallest diagonal entry is lower goes first, and
        the other is not reduced at all when _exceeds proves, by a Cholesky
        factorisation shifted by the first one's smallest eigenvalue plus 1e-8
        times its norm, that it has no eigenvalue that low: that margin is far
        above the errors of both the proof and a reduction, so the skipped
        sector's reduction could not have given the minimum, which keeps its
        bits whichever sector went first. When the proof fails, the sector is
        written again and reduced.
        """
        sectors = list(enumerate(self._indices()))
        if not full and len(sectors) == 2 and self._odd_first():
            sectors.reverse()
        low = high = u = None
        for k, index in sectors:
            s = self._write(k)
            if low is not None and not full:
                if _exceeds(s, low):
                    continue
                s = self._write(k)  # the factorisation that failed overwrote it
            reduced = _Reduction(s.T)
            value, bisection = reduced.lowest()
            if full:
                top = reduced.highest()
                high = top if high is None else max(high, top)
            if low is None or value < low:
                low = value
                if full:
                    u = np.zeros(2 * len(self.d))
                    u[index] = reduced.vector(bisection)
        return low, high, u

    def lowest(self) -> float:
        """The smallest eigenvalue over the sectors, from at most one reduction per sector and no eigenvector.

        A sector that a shifted Cholesky factorisation proves to lie above the
        other's smallest eigenvalue is not reduced (see _solve); the value is
        the smaller of both sectors' reductions, eigh's minimum, to the bit.
        """
        return self._solve(False)[0]

    def extremes(self) -> tuple:
        """(smallest eigenvalue, largest eigenvalue, eigenvector u of the smallest).

        One tridiagonal reduction per sector (LAPACK dsytrd) gives both
        extremes by bisection, and u by inverse iteration and the reduction's
        reflectors, on the sector of the smallest eigenvalue only. Each value
        and u equal scipy.linalg.eigh's subset results on the sector to the
        bit.
        """
        return self._solve(True)

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

        The rows, gathered to the masked modes and phased by e^{+-i angle},
        go to observation._doubled_forms on the unscaled blocks A and B, the
        rule of GramForm.quadratic_form; no sector is written. They go
        _FORM_ROWS at a time: those rows' phased copies and the call's two
        buffers, 8 m floats a row, are all the call holds beyond the rows,
        and coeffs is only read.
        """
        c = np.asarray(coeffs, dtype=complex)
        n, keep = len(self.d), self.keep
        if c.ndim != 2 or c.shape[1] != 2 * n:
            raise ValueError(f"coefficient rows must have length {2 * n}")
        p = np.exp(1j * self.angle)[keep]
        modes = keep if len(keep) < n else slice(None)  # all modes are read in place, with no gather
        out = np.empty(len(c))
        for lo in range(0, len(c), _FORM_ROWS):
            rows = c[lo : lo + _FORM_ROWS]
            r1, r2 = p * rows[:, :n][:, modes], p.conj() * rows[:, n:][:, modes]
            out[lo : lo + _FORM_ROWS] = _doubled_forms(*self.blocks, r1, r2)
        return out


def pencil(specs, weight: EnergyWeight, mode_set: ModeSet, mask=None) -> Pencil:
    """The observation/energy pencil of one ObservationSpec or a list of them, on its real sectors.

    The pieces' closed Grams add, each assembled a block of rows at a time
    straight into the pencil's blocks; mask, a boolean per mode, restricts
    the pencil to the modes it selects (all modes when None). See Pencil.
    """
    return Pencil(_as_spec_tuple(specs), mode_set, weight.diagonal(mode_set), mask)


def empirical_constants(spec, weight: EnergyWeight, mode_set: ModeSet) -> ConstantReport:
    """Extreme eigenvalues of the observation/energy pencil on the mode set.

    c_min certifies observation >= c_min * energy on the truncated space and
    c_max the reverse bound. The pencil is solved on its real sectors (see
    Pencil): with one window centre, D^{-1/2} (X + Y) D^{-1/2} and
    D^{-1/2} (X - Y) D^{-1/2}, each n x n, each reduced to tridiagonal form
    once for both its extreme eigenvalues (Pencil.extremes); the eigenvector
    is computed on the sector that attains c_min only. That minimiser u is
    lifted to the doubled coefficients
    D^{-1/2} conj(p) (u1 + i u2, u1 - i u2) / sqrt 2, where (u1, u2) is (u, 0)
    in the even sector and (0, u) in the odd one. The returned argmin_state
    attains c_min with a Rayleigh quotient within 1e-8 * c_max. That quotient
    is taken on the doubled form of the summed, unscaled blocks
    [[A, B], [conj B, conj A]] on the phased coefficients, the sum of the
    pieces' GramForm.quadratic_form, taken by Pencil.quadratic_forms, so it
    sees a fault in any sector's scaling or split.
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
    rayleigh = pen.quadratic_forms(coeffs[None])[0] / energy_seminorm_sq(state, weight)
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
    a, b = float(number(a, "a")), float(number(b, "b"))
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
    """Min and max of sin^2(k1 alpha) over k1 = 1..p-1, the indices SymmetrySpec admits below p.

    p must be the smallest positive integer with p*alpha/pi integer, which
    makes the scan of p-1 values exhaustive by periodicity; SymmetrySpec
    checks that, so none of the p-1 values is zero and none is filtered out.
    An integral float p is taken as its integer.
    """
    alpha = float(number(alpha, "alpha"))
    if not 0 < alpha < _PI:
        raise ValueError("alpha must lie in (0, pi)")
    p = SymmetrySpec(p, "x1", alpha).p  # an integer >= 2, the minimal order of alpha
    values = np.sin(np.arange(1, p) * alpha) ** 2
    return SymmetryConstants(p, alpha, float(values.min()), float(values.max()))


# ---------------------------------------------------------------------------
# predicted constants


def predicted_constant(theorem: str, params: dict, paper_literal: bool = False) -> dict:
    """Explicit threshold and constant for observation >= c * energy.

    The energy is the full first-order quantity (gradient plus velocity mass);
    below the threshold c is undefined and flagged rather than raised.
    paper_literal switches the two_strips constant to the uncorrected printed
    form whose middle sign disagrees with its own derivation.
    """
    keys = _theorem(theorem).constants + ("T",)
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"missing params for {theorem}: {missing}")
    v = {k: float(number(params[k], k)) for k in keys}
    T = v["T"]
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
    pi2 = _PI**2
    pi3 = _PI**3
    out = {"theorem": theorem, "T": T}

    if theorem == "two_strips":
        m = min(v["m_ab"], v["m_cd"])
        thr2 = 32 * pi2 + 16 * pi3 / m
        sign = 1.0 if paper_literal else -1.0
        c = (2 * m / (pi2 * T)) * (T**2 - 32 * pi2 + sign * 16 * pi3 / m)
    elif theorem == "strip_plus_edge":
        m = v["m_ab"]
        thr2 = max(32 * pi2 + 32 * pi3, 32 * pi2 + 32 * pi2 / m)
        c = (1 / (pi2 * T)) * min(
            T**2 - 32 * pi2 - 32 * pi3, 2 * T**2 * m - 64 * pi2 * m - 64 * pi2
        )
    elif theorem == "line_plus_strip":
        mp, Mp, mcd = v["m_p"], v["M_p"], v["m_cd"]
        thr2 = max(32 * pi2 + 16 * pi3 / mp, 32 * pi2 + 32 * pi2 * Mp / mcd)
        c = (2 / (pi2 * T)) * min(
            T**2 * mp - 32 * pi2 * mp - 16 * pi3,
            T**2 * mcd - 32 * pi2 * mcd - 32 * pi2 * Mp,
        )
    elif theorem == "line_plus_edge":
        mp, Mp = v["m_p"], v["M_p"]
        thr2 = 32 * pi2 * max(1 + 2 * Mp, 1 + 1 / mp)
        c = (1 / (pi2 * T)) * min(
            T**2 - 32 * pi2 - 64 * pi2 * Mp, 2 * T**2 * mp - 64 * pi2 * mp - 64 * pi2
        )
    else:  # two_lines
        mp, Mp, mq, Mq = v["m_p"], v["M_p"], v["m_q"], v["M_q"]
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
        value = number(params[order], order, integer=True)
        (x,) = _factor(specs, axis, "point")
        ell = geometry.ell1 if axis == "x1" else geometry.ell2
        out.append(SymmetrySpec(value, axis, x * _PI / ell))
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
    mask (the modes every symmetry admits, SymmetrySpec.admits) and the
    energy weight diagonal are computed once. Per T the pencil, its Gram rows
    summed straight into its blocks, and its lowest eigenvalue are built, so
    every row has the bits of a run at that T alone. With
    require_threshold, ThresholdError is raised for the first T below
    the threshold, before any Gram is assembled.
    """
    geometry = mode_set.geometry
    symmetries = theorem_symmetries(theorem, specs, params, geometry)
    filled = _filled(theorem, specs, params, geometry, symmetries)
    literal = bool(params.get("paper_literal"))
    preds = [predicted_constant(theorem, {**filled, "T": T}, literal) for T in T_values]
    for T, pred in zip(T_values, preds):
        if require_threshold and pred["c"] is None:
            raise ThresholdError(f"T={T} is below the {theorem} threshold {pred['T_threshold']}")
    mask = np.logical_and.reduce([sym.admits(mode_set) for sym in symmetries]) if symmetries else None
    d = EnergyWeight(1, "wave").diagonal(mode_set)
    for T, pred in zip(T_values, preds):
        pen = Pencil(tuple(replace(s, T=T) for s in specs), mode_set, d, mask)
        c, c_min = pred["c"], pen.lowest()
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
    specs = _as_spec_tuple(spec)
    return next(_scan(theorem, specs, mode_set, params, [specs[0].T], require_threshold))[0]


def scan_theorem(theorem: str, spec, mode_set: ModeSet, params: dict, T_values) -> list:
    """check_theorem at each horizon of T_values, one result dict per T.

    Every spec's horizon is set to T; row i equals check_theorem of the specs
    at T_values[i] to the last bit. The work that does not depend on T (the
    composition check, m_ab, m_o/M_o and the mode mask) is done once per
    scan, and only one T's pencil is held at a time.
    """
    T_values = [float(number(T, "T_values")) for T in T_values]
    if not T_values:
        raise ValueError("need at least one T")
    return [row for row, _ in _scan(theorem, _as_spec_tuple(spec), mode_set, params, T_values, False)]


def _row_chunks(blocks, mode_set: ModeSet):
    """The doubled coefficient rows of the state blocks, regrouped _CHUNK rows at a time.

    Every block is a SpectralState holding one state or a stack of rows. The
    rows are copied into one buffer, yielded each time _CHUNK rows fill it
    (and, shorter, at the end), so the chunks, and the bits of each sweep, do
    not depend on how the states were split into blocks. The buffer grows, at
    least twofold and up to _CHUNK rows, only when a block brings more rows.
    It is reused: a chunk is valid until the next one is drawn. A block is
    let go as soon as its last row is copied, before that chunk is yielded,
    so the generator holds the buffer and at most the one block it is
    copying, never a consumed one while the next is drawn.
    """
    n = len(mode_set)
    buf = np.empty((0, 2 * n), dtype=complex)
    fill = 0
    for block in blocks:
        if block.mode_set != mode_set:
            raise ValueError("all states must share one mode set")
        a, b = block.a.reshape(-1, n), block.b.reshape(-1, n)
        del block
        if min(_CHUNK, fill + len(a)) > len(buf):
            grown = np.empty((min(_CHUNK, max(fill + len(a), 2 * len(buf))), 2 * n), dtype=complex)
            grown[:fill] = buf[:fill]
            buf = grown
        start = 0
        while a is not None:
            take = min(_CHUNK - fill, len(a) - start)
            buf[fill : fill + take, :n] = a[start : start + take]
            buf[fill : fill + take, n:] = b[start : start + take]
            fill, start = fill + take, start + take
            if start == len(a):
                a = b = None
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
    through _CHUNK at a time (Pencil.quadratic_forms: the doubled form of the
    unscaled blocks A and B, with no sector written), however they were
    split into blocks. Each row is scaled by a power of two before its energy
    and forms are taken: exact, so its ratio keeps its bits, and a row decayed
    toward the subnormals keeps the digits of its energy. A row's energy is
    sum_k d_k (|a_k|^2 + |b_k|^2) by energy_seminorm_sq's rule, a numpy
    product and sum, so it has the bits of energy_seminorm_sq of the scaled
    row. Below the threshold it raises ThresholdError before any Gram is
    assembled.

    Beside the pencil, the sweep holds one buffer of at most _CHUNK rows
    (_row_chunks), in which each chunk is scaled, and either the block being
    drawn and copied or the chunk's temporaries: its moduli, then the forms'
    phased rows and two buffers, of half a chunk each (_FORM_ROWS). No block
    is held once its rows are copied, so with lazy blocks of _CHUNK rows the
    sweep peaks near two chunks: 6.85 n^2 floats with the pencil's 3 n^2 for
    1000 states at K = 24.
    """
    specs = _as_spec_tuple(spec)
    blocks = iter([states] if isinstance(states, SpectralState) else states)
    head = [next(blocks, None)]
    if head[0] is None:
        raise ValueError("need at least one state")
    ms = head[0].mode_set

    result, pen = next(_scan(theorem, specs, ms, params, [specs[0].T], True))
    c_pred = result["c_predicted"]

    def drawn():  # the first block, popped so that nothing here holds it once it is swept
        yield head.pop()
        yield from blocks

    # chunks of rows: stray mass, energies sum_k d_k (|a_k|^2 + |b_k|^2) and the forms
    n = len(ms)
    excluded = ~np.concatenate([pen.mask, pen.mask])
    root = np.sqrt(np.concatenate([pen.d, pen.d]))
    min_ratio, argmin = math.inf, 0  # the smallest ratio so far and its row
    count = stray = zero = 0
    for coeffs in _row_chunks(drawn(), ms):
        # each row times 2^-e, 2^e about its largest sqrt(d)-weighted modulus: exact, so its ratio
        # keeps its bits, while the energies of a row decayed toward the subnormals keep their digits
        mag = np.abs(coeffs)
        e = np.clip(np.frexp(np.max(mag * root, axis=1))[1], -1022, 1022)
        power = np.ldexp(1.0, -e)[:, None]
        parts = coeffs.view(float)
        parts *= power
        mag *= power
        if excluded.any():
            scale = np.maximum(mag.max(axis=1), 1e-300)
            stray += int(np.sum(mag[:, excluded].max(axis=1) > 1e-12 * scale))
        np.square(mag, out=mag)
        energies = mag[:, :n] + mag[:, n:]
        energies *= pen.d  # formed in place, then summed as energy_seminorm_sq sums it
        energies = np.sum(energies, axis=-1)
        del mag  # not held while the forms take their two arrays
        zero += int(np.sum(energies <= 0))
        positive = np.where(energies > 0, energies, math.inf)
        ratios = pen.quadratic_forms(coeffs) / positive
        i = int(np.argmin(ratios))
        if ratios[i] < min_ratio:  # strict: the first row of the smallest ratio wins, as argmin's
            min_ratio, argmin = float(ratios[i]), count + i
        count += len(coeffs)
    if not count:
        raise ValueError("need at least one state")
    if stray:
        raise ValueError(
            f"{stray} states carry mass on symmetry-excluded modes; project them first"
        )
    if zero:
        raise ValueError("zero-energy states are excluded")

    return {
        **result,
        "n_states": count,
        "min_ratio": min_ratio,
        "argmin_state": argmin,
        "passed": bool(min_ratio >= c_pred * (1 - 1e-9)),
    }


# ---------------------------------------------------------------------------
# Ingham-type checks


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
    T = float(number(T, "T"))
    if not T > 2 * _PI / es.gamma:
        raise ValueError(f"need T > 2*pi/gamma, got T={T}")
    w = np.array(es.exponents)
    a = np.array(es.coefficients)
    lhs = _exponential_form(a, [(w, 0.0, T)])
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
    k2, T = number(k2, "k2", integer=True), float(number(T, "T"))
    if k2 < 1:
        raise ValueError(f"k2 must be >= 1, got {k2}")
    if not T > 4 * math.sqrt(2) * _PI:
        raise ValueError(f"need T > 4*sqrt(2)*pi, got T={T}")
    a, b = number_array(a, "a", complex), number_array(b, "b", complex)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("a and b must be equal-length nonempty vectors")
    k1 = np.arange(1, a.size + 1)
    freq = np.sqrt(k1**2 + float(k2) ** 2)
    w = np.concatenate([freq, -freq])
    coeffs = np.concatenate([a, b])
    lhs = _exponential_form(coeffs, [(w, 0.0, T)])
    mass = np.abs(a) ** 2 + np.abs(b) ** 2
    strong = float(mass[k1 >= k2].sum())
    weak = float(mass[k1 < k2].sum())
    rhs = (2 * T / _PI - 64 * _PI / T) * strong - (64 * _PI / T) * weak
    return _ingham_result(lhs, rhs)


def sin_sum_lower_bound_check(k1: int, alphas, ell1: float, M: int, gamma_hat: float) -> bool:
    """Check sum_j sin^2(k1 alpha_j pi / ell1) >= 4 gamma_hat^2 k1^(-2/M)."""
    k1, M = number(k1, "k1", integer=True), number(M, "M", integer=True)
    ell1, gamma_hat = number(ell1, "ell1"), number(gamma_hat, "gamma_hat")
    if k1 < 1:
        raise ValueError(f"k1 must be >= 1, got {k1}")
    alphas = number_array(alphas, "alphas", float)
    lhs = float(np.sum(np.sin(k1 * alphas * _PI / float(ell1)) ** 2))
    rhs = 4.0 * float(gamma_hat) ** 2 * float(k1) ** (-2.0 / M)
    return bool(lhs >= rhs)
