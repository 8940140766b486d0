"""Truncated sine-basis spectra for rectangles and gap-condition analysis.

Eigenfunctions on (0, l1) x (0, l2) with Dirichlet conditions are
sin(k1 pi x1 / l1) sin(k2 pi x2 / l2) with eigenvalue
lambda_k = u k1^2 + v k2^2, u = pi^2/l1^2, v = pi^2/l2^2. The membrane
oscillates at sqrt(lambda_k), the hinged plate at lambda_k itself.

Every BLAS and LAPACK call of the package goes through the three helpers
here, _symmetric_product, _row_gram and _lapack, the one place that knows
scipy; they import scipy.linalg on their first call, not before. numpy and
scipy each bundle an OpenBLAS with its own thread pool, and no module calls a
numpy routine that reaches numpy's (@, dot, numpy.linalg, ...), so scipy's
pool serves every call; a sum that needs no BLAS, such as a swept row's
energy, is a numpy elementwise product and reduction.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

# rows of the pair triangle per block of partial_gap_analysis
_GAP_BLOCK = 256
# index magnitudes below this keep every index difference inside int64
_MAX_INDEX = 1 << 62


def number(value, name: str, *, integer: bool = False):
    """value if it is a finite real number (with integer, an integral one), else a ValueError naming name.

    The one check of every number that enters the package, from a caller or a
    JSON config. A bool (numpy's too), a non-real value (str, None, complex,
    an array) and a non-finite one, an int beyond the float range included,
    are rejected: a JSON true is never read as 1. With integer a fraction is
    rejected, never truncated, and an integral value such as 4.0 is returned
    as the int 4; without it the value is returned unchanged. Ranges (T > 0,
    K >= 1) are checked by the caller.
    """
    try:  # float and int first: they skip the slower check of the numbers.Real ABC
        ok = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not (ok and (not integer or value == int(value))):
        raise ValueError(f"{name} must be a finite {'integer' if integer else 'real number'}, got {value!r}")
    return int(value) if integer else value


def number_array(values, name: str, dtype) -> np.ndarray:
    """values as a numpy array of dtype, float or complex, each entry checked by number.

    A complex entry, admitted only with dtype complex, is checked by its two
    parts. So an entry that np.asarray would read as a number, a JSON true as
    1, a string "1" as 1.0, is rejected as number rejects it, naming name.
    Entries that are all floats (or, with dtype complex, floats and
    complexes) are checked at once by the finiteness of the converted array,
    which is number's rule for those types.
    """
    entries = np.asarray(values, dtype=object)
    exact = {float, np.float64, complex, np.complex128} if dtype is complex else {float, np.float64}
    if {type(x) for x in entries.flat} <= exact:
        out = entries.astype(dtype)
        if np.isfinite(out).all():
            return out
    for x in entries.flat:
        complex_entry = dtype is complex and isinstance(x, (complex, np.complexfloating))
        for part in (x.real, x.imag) if complex_entry else (x,):
            number(part, name)
    return entries.astype(dtype)


@dataclass(frozen=True)
class RectangleGeometry:
    """Side lengths of the rectangle plus the derived constants u, v, z.

    A side whose u = pi^2/ell1^2 (or v = pi^2/ell2^2) is not a finite positive
    float, say ell1 = 1e-170 or 1e155, is rejected.
    """

    ell1: float
    ell2: float

    def __post_init__(self) -> None:
        for name in ("ell1", "ell2"):
            ell = number(getattr(self, name), name)
            try:
                unit = _wavenumber_sq(ell)
            except ArithmeticError:  # ell^2 overflows, or underflows to 0
                unit = math.inf
            if not (ell > 0 and 0 < unit < math.inf):
                raise ValueError(f"side {name}={ell!r} is out of range: it must be > 0 with pi^2/{name}^2 finite")

    @property
    def u(self) -> float:
        return _wavenumber_sq(self.ell1)

    @property
    def v(self) -> float:
        return _wavenumber_sq(self.ell2)

    @property
    def z(self) -> float:
        return math.pi / self.ell2


def _wavenumber_sq(ell: float) -> float:
    return math.pi**2 / ell**2


@functools.cache
def _scipy_linalg():
    """scipy.linalg, imported on the first BLAS or LAPACK call and not before.

    Only this module reaches scipy. Its import and its OpenBLAS cost about
    0.25 s and 28 MB, which a command that makes no dense product or solve
    (the Diophantine, interval-constant, symmetry and Ingham commands) never pays.
    """
    import scipy.linalg

    return scipy.linalg


def _lapack(name: str, *args, **kwargs):
    """The outputs of scipy's LAPACK routine name but its info, which must be 0.

    A routine that reports no info, the norm dlantr, gives its one output as it is.
    """
    out = getattr(_scipy_linalg().lapack, name)(*args, **kwargs)
    if not isinstance(out, tuple):
        return out
    *out, info = out
    if info != 0:
        raise LinAlgError(f"LAPACK {name} failed with info={info}")
    return out


def _symmetric_product(v: np.ndarray, s: np.ndarray, hermitian: bool = False, out=None) -> np.ndarray:
    """v @ S for the symmetric S, or Hermitian with hermitian, in the upper triangle of the C-ordered s.

    One dsymm, zsymm or zhemm (side L, lower 1) on the F-ordered views s.T and
    v.T gives (v S)^T, reading only the upper triangle of s; v is complex only if s is.
    out, a C-contiguous 2-D array of v's shape and type, takes the product in place of a new array.
    """
    if not np.size(v):
        return np.zeros(np.shape(v), np.result_type(v, s)) if out is None else out
    rows = np.ascontiguousarray(v).reshape(-1, len(s))
    name = "z" + ("hemm" if hermitian else "symm") if np.iscomplexobj(s) else "dsymm"
    blas = _scipy_linalg().blas
    if out is None:
        return getattr(blas, name)(1.0, s.T, rows.T, lower=1).T.reshape(np.shape(v))
    getattr(blas, name)(1.0, s.T, rows.T, c=out.T, overwrite_c=1, lower=1)  # beta 0: out is only written
    return out


def _row_gram(f: np.ndarray) -> np.ndarray:
    """f f^T for a C-contiguous real m x k table f, through scipy's BLAS.

    The F-ordered transpose of f goes to one dsyrk with trans=1, so f2py
    copies nothing, and the upper triangle the call writes is mirrored by one
    masked copy: the m x m result is C-contiguous and symmetric to the last bit.
    """
    # dsyrk fills the upper triangle, the lower of the view
    gram = _scipy_linalg().blas.dsyrk(1.0, f.T, trans=1).T
    np.copyto(gram, gram.T, where=np.tri(len(f), k=-1, dtype=bool).T)
    return gram


@dataclass(frozen=True)
class ModeSet:
    """All modes 1 <= k1 <= K1, 1 <= k2 <= K2, row-major in (k2, k1).

    The ordering (k1 varies fastest) is part of the contract: Gram matrices,
    coefficient vectors and serialized states all index modes by position here.
    The modes are held as the read-only arrays k1, k2 and lam = u k1^2 + v k2^2
    in that order; two mode sets are equal when geometry, K1 and K2 are.
    """

    geometry: RectangleGeometry
    K1: int
    K2: int
    k1: np.ndarray = field(init=False, compare=False, repr=False)
    k2: np.ndarray = field(init=False, compare=False, repr=False)
    lam: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        K1, K2 = number(self.K1, "K1", integer=True), number(self.K2, "K2", integer=True)
        if not (K1 >= 1 and K2 >= 1):
            raise ValueError(f"truncation bounds must be >= 1, got K1={K1}, K2={K2}")
        k1 = np.tile(np.arange(1, K1 + 1), K2)
        k2 = np.repeat(np.arange(1, K2 + 1), K1)
        g = self.geometry
        with np.errstate(over="ignore"):
            lam = g.u * k1 * k1 + g.v * k2 * k2
        if not np.isfinite(lam).all():
            raise ValueError(f"eigenvalues overflow at K1={K1}, K2={K2} on {g}")
        for values in (k1, k2, lam):
            values.flags.writeable = False
        vars(self).update(K1=K1, K2=K2, k1=k1, k2=k2, lam=lam)

    def __len__(self) -> int:
        return self.K1 * self.K2

    def index_of(self, k1: int, k2: int) -> int:
        if not (1 <= k1 <= self.K1 and 1 <= k2 <= self.K2):
            raise KeyError(f"({k1}, {k2}) outside truncation")
        return (k2 - 1) * self.K1 + (k1 - 1)


def build_mode_set(geometry: RectangleGeometry, K1: int, K2: int) -> ModeSet:
    """Enumerate the truncated rectangle [1..K1] x [1..K2] of modes."""
    return ModeSet(geometry, K1, K2)


def check_gap_lemma(k1: int, k1p: int, k2: int) -> dict:
    """Check |sqrt(k1^2+k2^2) - sqrt(k1p^2+k2^2)| >= |k1-k1p| / (2 sqrt 2).

    The bound requires max(k1, k1p) >= k2 and two distinct positive first
    indices; anything else is a misuse, not a counterexample.
    """
    k1, k1p, k2 = (number(k, name, integer=True) for k, name in ((k1, "k1"), (k1p, "k1p"), (k2, "k2")))
    if k1 < 1 or k1p < 1 or k2 < 1:
        raise ValueError("indices must be positive integers")
    if k1 == k1p:
        raise ValueError("k1 and k1p must differ")
    if max(k1, k1p) < k2:
        raise ValueError(f"hypothesis max(k1, k1p) >= k2 violated: ({k1}, {k1p}, {k2})")
    lhs = abs(math.sqrt(k1 * k1 + k2 * k2) - math.sqrt(k1p * k1p + k2 * k2))
    bound = abs(k1 - k1p) / (2.0 * math.sqrt(2.0))
    return {"lhs": lhs, "bound": bound, "holds": lhs >= bound}


def partial_gap_analysis(frequencies, n: int, indices=None) -> dict:
    """Largest gamma for which the partial gap condition holds.

    The condition asks |w_{k'} - w_k| >= |k' - k| * gamma for every pair whose
    larger index magnitude reaches n. Positions map to indices 1..N unless an
    explicit integer index list is supplied (e.g. a centered -N..N convention).
    Pairs entirely below n are exempt, so gamma is the minimum of
    |w_{k'} - w_k| / |k' - k| over admissible pairs, +inf if none exist.
    The pairs are taken in row blocks of the pair triangle, each ratio with the
    same float operations as a loop over pairs, so gamma is exact to the bit.
    Frequencies must be finite, and an admissible pair of equal indices is an
    error.
    """
    w = np.array([float(number(x, "frequencies")) for x in frequencies])
    if indices is not None:
        indices = [number(i, "indices", integer=True) for i in indices]
    gamma = _partial_gap(w, number(n, "n"), indices)
    return {"gamma": gamma, "satisfied": gamma > 0}


def _partial_gap(w: np.ndarray, n, indices) -> float:
    """partial_gap_analysis' gamma on checked input: a float array w, a real n, int indices or None."""
    if w.size < 2:
        raise ValueError("need at least two frequencies")
    if indices is None:
        idx = np.arange(1, w.size + 1)
    else:
        if len(indices) != w.size:
            raise ValueError("indices and frequencies must have equal length")
        if any(abs(i) >= _MAX_INDEX for i in indices):
            raise ValueError("indices must lie below 2^62 in magnitude")
        idx = np.array(indices, dtype=np.int64)
    high = np.abs(idx) >= n
    gamma = math.inf
    for a0 in range(0, w.size - 1, _GAP_BLOCK):
        a = np.arange(a0, min(a0 + _GAP_BLOCK, w.size - 1))[:, None]
        b = np.arange(a0 + 1, w.size)
        keep = (b > a) & (high[a] | high[b])
        step = np.abs(idx[b] - idx[a])[keep]
        if not step.all():
            raise ValueError("duplicate indices")
        if step.size:
            ratio = np.abs(w[b] - w[a])[keep] / step
            gamma = min(gamma, float(ratio.min()))
    return gamma
