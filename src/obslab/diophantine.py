"""Algebraic observation points and brute-force Diophantine scans.

The point set theta_j = frac(2^(j/(M+1))) lives in a degree-(M+1) real field,
so {theta_1, ..., theta_M, 1} are rationally independent by construction. The
scan for gamma_hat = min_k k^(1/M) max_j dist(k theta_j, Z) works on the 2^96
fixed-point grid: double precision would lose about six digits of the
fractional part by k = 10^6, while the quantization error here stays below
K_max * 2^-96. The multiples k theta_j mod 1 are formed exactly, in chunks of
k, as three 32-bit limbs in numpy uint64 arrays; a float filter with a proven
rounding margin picks the candidates for the minimum, and those are compared
exactly as Python integers, so the result is the one an integer loop gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .spectrum import number

_FP_BITS = 96
_FP_ONE = 1 << _FP_BITS
_FP_MASK = _FP_ONE - 1
_LIMB_BITS = 32
_LIMB_MAX = (1 << _LIMB_BITS) - 1
# k values per chunk of the gamma scan; the limb products need it below 2^31
_CHUNK = 1 << 14


def _int_nth_root(n: int, r: int) -> int:
    """Floor of the r-th root of a nonnegative integer, exactly."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if n == 0 or r == 1:
        return n
    if r == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // r)  # power of two at or above the root
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            return x
        x = y


@dataclass(frozen=True)
class AlgebraicPointSet:
    """M fractional parts of powers of one degree-(M+1) radical, scaled to (0, ell1).

    theta_fp holds floor(theta_j * 2^96) for exact modular accumulation; when
    constructed directly from floats it only carries double precision.
    """

    M: int
    theta: tuple
    alphas: tuple
    theta_fp: tuple = field(default=None, repr=False)

    def __post_init__(self) -> None:
        M = number(self.M, "M", integer=True)
        theta = tuple(float(number(t, "theta")) for t in self.theta)
        alphas = tuple(float(number(a, "alphas")) for a in self.alphas)
        if M < 1 or len(theta) != M or len(alphas) != M:
            raise ValueError("need M >= 1 points with matching alphas")
        if not all(0 < t < 1 for t in theta):
            raise ValueError("theta values must lie in (0, 1)")
        if len(set(theta)) != M:
            raise ValueError("theta values must be pairwise distinct")
        if not all(a > 0 for a in alphas):
            raise ValueError("alphas must be positive")
        fp = self.theta_fp
        fp = tuple(int(t * _FP_ONE) for t in theta) if fp is None else tuple(int(v) for v in fp)
        if len(fp) != M or not all(0 < v < _FP_ONE for v in fp):
            raise ValueError("theta_fp must hold M scaled values in (0, 2^96)")
        # an integral float M would turn the scan's exact k * d^M into a float
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "theta_fp", fp)

    @property
    def field_degree(self) -> int:
        return self.M + 1


@dataclass(frozen=True)
class DiophantineReport:
    """Empirical lower-bound constant from a finite scan k = 1..K_max."""

    gamma_hat: float
    K_max: int
    argmin_k: int
    points: AlgebraicPointSet

    def to_json(self) -> str:
        doc = {
            "M": self.points.M,
            "generator": (
                f"fractional parts of 2^(j/{self.points.M + 1}) for j = 1..{self.points.M}"
            ),
            "independence": (
                "rational independence of the thetas together with 1 holds by "
                "construction in the degree-(M+1) field; assumed, not re-proved"
            ),
            "theta": list(self.points.theta),
            "K_max": self.K_max,
            "gamma_hat": self.gamma_hat,
            "argmin_k": self.argmin_k,
        }
        return json.dumps(doc, sort_keys=True)


def build_algebraic_points(M: int, ell1: float) -> AlgebraicPointSet:
    """Point set theta_j = frac(2^(j/(M+1))), alphas scaled by ell1.

    The fixed-point values floor(2^(j/(M+1)) * 2^96) are computed by integer
    root extraction, so they are exact floors, not rounded floats.
    """
    M, ell1 = number(M, "M", integer=True), number(ell1, "ell1")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if not ell1 > 0:
        raise ValueError(f"ell1 must be > 0, got {ell1!r}")
    fps = []
    for j in range(1, M + 1):
        root = _int_nth_root(1 << (j + _FP_BITS * (M + 1)), M + 1)
        fps.append(root & _FP_MASK)
    theta = tuple(fp / _FP_ONE for fp in fps)
    alphas = tuple(float(ell1) * t for t in theta)
    return AlgebraicPointSet(M, theta, alphas, tuple(fps))


def dist_to_integers(x):
    """Distance to the nearest integer, in [0, 1/2]; elementwise on arrays."""
    arr = np.asarray(x, dtype=float)
    d = np.abs(arr - np.rint(arr))
    return float(d) if arr.ndim == 0 else d


def _limbs(x: int) -> tuple:
    """The three 32-bit limbs of a value below 2^96, least significant first."""
    return tuple(np.uint64((x >> (_LIMB_BITS * i)) & _LIMB_MAX) for i in range(3))


def _scaled_dist(base: int, fp: int, i: np.ndarray) -> np.ndarray:
    """dist(acc / 2^96, Z) for acc = (base + i * fp) mod 2^96, elementwise in i.

    acc and d = min(acc, 2^96 - acc) are formed exactly in limbs (i < 2^31
    keeps every limb sum below 2^64); only d is rounded, by two float
    additions, so the result carries a relative error of at most 2^-52.
    Rounding acc first and subtracting would cancel most of its bits.
    """
    mask = np.uint64(_LIMB_MAX)
    shift = np.uint64(_LIMB_BITS)
    b, f = _limbs(base), _limbs(fp)
    a0 = b[0] + i * f[0]
    a1 = b[1] + i * f[1] + (a0 >> shift)
    a2 = (b[2] + i * f[2] + (a1 >> shift)) & mask
    a0 &= mask
    a1 &= mask
    # 2^96 - acc = (~acc + 1) mod 2^96, taken where acc >= 2^95 (at 2^95 both sides agree)
    n0 = (a0 ^ mask) + np.uint64(1)
    n1 = (a1 ^ mask) + (n0 >> shift)
    n2 = ((a2 ^ mask) + (n1 >> shift)) & mask
    neg = a2 >= np.uint64(1 << (_LIMB_BITS - 1))
    d0 = np.where(neg, n0 & mask, a0).astype(float)
    d1 = np.where(neg, n1 & mask, a1).astype(float)
    d2 = np.where(neg, n2, a2).astype(float)
    return d2 * 2.0**-32 + (d1 * 2.0**-64 + d0 * 2.0**-96)


def estimate_gamma(points: AlgebraicPointSet, K_max: int) -> DiophantineReport:
    """Brute-force gamma_hat = min over k <= K_max of k^(1/M) max_j dist(k theta_j, Z).

    The minimum is taken exactly on the 2^96 grid, over the monotone transform
    val(k) = k * dmax(k)^M with dmax the largest integer distance; ties go to
    the first k. The scan runs in chunks of k and filters each chunk in
    floats. With u = 2^-53, each distance is formed exactly and rounded to
    within 2u (_scaled_dist), the power adds 2M u from its argument and at
    most one ulp (2u) of its own, and the product with k adds u, so
    val_f = k (d_f / 2^96)^M lies within e = (2M + 3)u of val to first
    order while d_f^M stays a normal float. The candidates are every k with
    val_f <= max(min val_f, k_hi * tiny) * (1 + 8 (M + 2) u), where k_hi is
    the chunk's last k and tiny the smallest normal float: the margin is
    more than twice the 2e that separates the exact minimiser's val_f from
    the chunk minimum, and the tiny floor covers an underflowed power, whose
    k and every k that could beat it have val_f at most about k_hi * tiny.
    The candidates are compared exactly as Python integers in increasing k
    with strict <, so each chunk's exact minimiser and its ties are among
    them and the first k of the minimum wins. Only the final gamma_hat is
    converted to float.
    """
    K_max = number(K_max, "K_max", integer=True)
    if K_max < 1:
        raise ValueError(f"K_max must be >= 1, got {K_max}")
    M = points.M
    fps = points.theta_fp
    margin = 1.0 + 8 * (M + 2) * 2.0**-53
    tiny = np.finfo(float).tiny
    steps = np.arange(_CHUNK, dtype=np.uint64)
    best_val = None
    best_k = 1
    best_d = 0
    for k0 in range(1, K_max + 1, _CHUNK):
        i = steps[: min(_CHUNK, K_max + 1 - k0)]
        dmax = _scaled_dist((k0 * fps[0]) & _FP_MASK, fps[0], i)
        for fp in fps[1:]:
            np.maximum(dmax, _scaled_dist((k0 * fp) & _FP_MASK, fp, i), out=dmax)
        val = (k0 + i.astype(float)) * dmax**M
        cand = np.flatnonzero(val <= max(float(val.min()), (k0 + len(i) - 1) * tiny) * margin)
        for k in (k0 + int(c) for c in cand):
            d = max(min(r, _FP_ONE - r) for r in ((k * fp) & _FP_MASK for fp in fps))
            v = k * d**M
            if best_val is None or v < best_val:
                best_val, best_k, best_d = v, k, d
    if best_d == 0:
        raise RuntimeError("scan hit an exactly representable integer multiple")
    gamma_hat = best_k ** (1.0 / M) * (best_d / _FP_ONE)
    return DiophantineReport(gamma_hat, K_max, best_k, points)


def sine_dist_check(x, k: int) -> bool:
    """Check |sin(kx)| >= 2 dist(kx/pi, Z) - 1e-12, over all given x."""
    k = number(k, "k", integer=True)
    arr = np.asarray(x, dtype=float)
    lhs = np.abs(np.sin(k * arr))
    rhs = 2.0 * np.abs(k * arr / math.pi - np.rint(k * arr / math.pi))
    return bool(np.all(lhs >= rhs - 1e-12))
