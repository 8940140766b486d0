"""Exact Hermitian Gram forms for observation functionals, plus a quadrature oracle.

Every observation integral here is a quadratic form c^H G c in the doubled
coefficient vector (a-block then b-block). Each region names its separable
pieces: a time window and a signed sum of products of an x1 factor and an x2
factor. The Gram is the field amplitude product times the Hadamard product of
three 1-D Grams, over time, x1 and x2. assemble_gram takes the 1-D Grams in
closed form; the oracle runs the same piece list and factorisation on
composite-Simpson sums over pointwise samples and shares no closed form. A
dense tensor-grid reference that guards the factorisation lives in the tests.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .spectrum import ModeSet, RectangleGeometry, build_mode_set

# Factors of the separable pieces. Each is a tuple (kind, *positions on its axis):
# the full axis, an interval, a point, the normal derivative at the x = 0 edge,
# no dependence on the axis, and the OpenRect profile e^{+-i z k2 x2} on an
# interval, whose sign follows the a/b block.
_FULL, _EDGE, _ONES = ("full",), ("edge",), ("ones",)


# ---------------------------------------------------------------------------
# regions


def _numbers(values):
    for v in values:
        if isinstance(v, tuple):
            yield from _numbers(v)
        else:
            yield v


@dataclass(frozen=True)
class _Region:
    """Base of the regions. pieces(T) returns (time window, ((sign, x1, x2), ...))."""

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in _numbers(astuple(self))):
            raise ValueError(f"{type(self).__name__} parameters must be finite")


@dataclass(frozen=True)
class VerticalSegments(_Region):
    """Segments {alpha_j} x I_j: displacement traces on interior vertical cuts."""

    segments: tuple  # of (alpha, (lo, hi))

    def __post_init__(self) -> None:
        segs = tuple((float(a), (float(lo), float(hi))) for a, (lo, hi) in self.segments)
        if not segs:
            raise ValueError("need at least one segment")
        for _, (lo, hi) in segs:
            if not lo < hi:
                raise ValueError("segment intervals must be nondegenerate")
        object.__setattr__(self, "segments", segs)
        super().__post_init__()

    def pieces(self, T):
        return (0.0, T), tuple((1.0, ("point", a), ("interval", *iv)) for a, iv in self.segments)


@dataclass(frozen=True)
class BoundaryEdgeBottom(_Region):
    def pieces(self, T):
        return (0.0, T), ((1.0, _FULL, _EDGE),)


@dataclass(frozen=True)
class BoundaryEdgeLeft(_Region):
    def pieces(self, T):
        return (0.0, T), ((1.0, _EDGE, _FULL),)


@dataclass(frozen=True)
class BoundaryGamma0(_Region):
    """Union of the left and bottom edges."""

    def pieces(self, T):
        return (0.0, T), ((1.0, _EDGE, _FULL), (1.0, _FULL, _EDGE))


@dataclass(frozen=True)
class VerticalStrip(_Region):
    a: float
    b: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.a < self.b:
            raise ValueError("strip interval must be nondegenerate")

    def pieces(self, T):
        return (0.0, T), ((1.0, ("interval", self.a, self.b), _FULL),)


@dataclass(frozen=True)
class HorizontalStrip(_Region):
    c: float
    d: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.c < self.d:
            raise ValueError("strip interval must be nondegenerate")

    def pieces(self, T):
        return (0.0, T), ((1.0, _FULL, ("interval", self.c, self.d)),)


@dataclass(frozen=True)
class CrossStrips(_Region):
    """Union of a vertical and a horizontal strip.

    The observation integrates over the set union, so the shared rectangle
    (a,b) x (c,d) is counted once.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.a < self.b and self.c < self.d):
            raise ValueError("strip intervals must be nondegenerate")

    @property
    def vertical(self) -> VerticalStrip:
        return VerticalStrip(self.a, self.b)

    @property
    def horizontal(self) -> HorizontalStrip:
        return HorizontalStrip(self.c, self.d)

    def pieces(self, T):
        ab, cd = ("interval", self.a, self.b), ("interval", self.c, self.d)
        return (0.0, T), ((1.0, ab, _FULL), (1.0, _FULL, cd), (-1.0, ab, cd))


@dataclass(frozen=True)
class VerticalLine(_Region):
    alpha: float

    def pieces(self, T):
        return (0.0, T), ((1.0, ("point", self.alpha), _FULL),)


@dataclass(frozen=True)
class HorizontalLine(_Region):
    beta: float

    def pieces(self, T):
        return (0.0, T), ((1.0, _FULL, ("point", self.beta)),)


@dataclass(frozen=True)
class OpenRect(_Region):
    """Rectangle (t0,t1) x (x0,x1) in the (t, x2) plane.

    Carries its own time interval; the ObservationSpec horizon T is not used here.
    """

    t0: float
    t1: float
    x0: float
    x1: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.t0 < self.t1 and self.x0 < self.x1):
            raise ValueError("rectangle must be nondegenerate")

    def pieces(self, T):
        return (self.t0, self.t1), ((1.0, _ONES, ("exp", self.x0, self.x1)),)


# field -> (regions it may be observed on, model); displacement traces live on
# plate segments and open (t,x2) rectangles, velocity on interior strips and
# lines of the membrane, normal derivatives on boundary edges of the membrane
_PAIRINGS = {
    "displacement": ((VerticalSegments, OpenRect), "plate"),
    "velocity": (
        (VerticalStrip, HorizontalStrip, CrossStrips, VerticalLine, HorizontalLine),
        "wave",
    ),
    "normal_derivative": ((BoundaryEdgeBottom, BoundaryEdgeLeft, BoundaryGamma0), "wave"),
}
FIELDS = tuple(_PAIRINGS)
_REGION_KINDS = {cls.__name__: cls for kinds, _ in _PAIRINGS.values() for cls in kinds}


def region_to_dict(region) -> dict:
    params = {f.name: getattr(region, f.name) for f in fields(region)}
    return {"kind": type(region).__name__, **params}


def region_from_dict(d: dict):
    kind = d["kind"]
    if kind not in _REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    return _REGION_KINDS[kind](**{k: v for k, v in d.items() if k != "kind"})


@dataclass(frozen=True)
class ObservationSpec:
    """Region + observed field + time horizon + spectral model."""

    region: object
    field: str
    T: float
    model: str

    def __post_init__(self) -> None:
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}")
        if self.model not in ("plate", "wave"):
            raise ValueError("model must be 'plate' or 'wave'")
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("time horizon must be positive and finite")
        kinds, model = _PAIRINGS[self.field]
        if not (isinstance(self.region, kinds) and self.model == model):
            raise ValueError(
                f"incompatible pairing: field={self.field}, "
                f"region={type(self.region).__name__}, model={self.model}"
            )

    def validate_geometry(self, geometry: RectangleGeometry) -> None:
        """Require every interval, point and profile position strictly inside its axis."""
        _, terms = self.region.pieces(self.T)
        for _, *factors in terms:
            for (kind, *positions), ell in zip(factors, (geometry.ell1, geometry.ell2)):
                for x in positions:
                    if not 0 < x < ell:
                        raise ValueError(f"{kind} position {x} not strictly inside (0, {ell})")

    def to_dict(self) -> dict:
        return {
            "region": region_to_dict(self.region),
            "field": self.field,
            "T": self.T,
            "model": self.model,
        }

    @staticmethod
    def from_dict(d: dict) -> "ObservationSpec":
        return ObservationSpec(region_from_dict(d["region"]), d["field"], d["T"], d["model"])


# ---------------------------------------------------------------------------
# closed-form kernels


def _interval_kernel(delta, lo: float, hi: float):
    """integral over (lo, hi) of e^{i delta s} ds, elementwise in delta.

    Written with odd/even real expressions so that the value at -delta is the
    exact floating-point conjugate; Gram matrices built from it are Hermitian
    to the last bit.
    """
    d = np.asarray(delta, dtype=float)
    out = np.empty(d.shape, dtype=complex)
    zero = d == 0.0
    dn = np.where(zero, 1.0, d)
    re = (np.sin(dn * hi) - np.sin(dn * lo)) / dn
    im = (np.cos(dn * lo) - np.cos(dn * hi)) / dn
    out.real = np.where(zero, hi - lo, re)
    out.imag = np.where(zero, 0.0, im)
    return out


def time_kernel(w1: float, w2: float, T: float) -> complex:
    """integral over (0, T) of e^{i (w1 - w2) t} dt; equals T when w1 = w2."""
    if not (T > 0 and math.isfinite(T)):
        raise ValueError("T must be positive and finite")
    return complex(_interval_kernel(np.float64(w1) - np.float64(w2), 0.0, T))


def sine_overlap(k: int, kp: int, interval, scale: float) -> float:
    """integral over the interval of sin(scale*k*y) sin(scale*kp*y) dy.

    scale is the wavenumber unit pi/ell; over the full axis (0, pi/scale) this
    reduces to orthogonality, (pi/(2 scale)) when k = kp and 0 otherwise.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if k < 1 or kp < 1:
        raise ValueError("mode indices must be >= 1")
    z = float(scale)
    if k == kp:
        return (hi - lo) / 2.0 - (math.sin(2 * z * k * hi) - math.sin(2 * z * k * lo)) / (4 * z * k)
    dm, dp = z * (k - kp), z * (k + kp)
    return 0.5 * (
        (math.sin(dm * hi) - math.sin(dm * lo)) / dm
        - (math.sin(dp * hi) - math.sin(dp * lo)) / dp
    )


def _sine_overlap_matrix(ks: np.ndarray, interval, scale: float) -> np.ndarray:
    """sine_overlap over all index pairs of ks, vectorized, exactly symmetric."""
    lo, hi = float(interval[0]), float(interval[1])
    z = float(scale)
    dm = z * (ks[None, :] - ks[:, None])  # antisymmetric exactly
    dp = z * (ks[None, :] + ks[:, None])
    same = dm == 0.0
    dmn = np.where(same, 1.0, dm)
    cross = 0.5 * (
        (np.sin(dmn * hi) - np.sin(dmn * lo)) / dmn
        - (np.sin(dp * hi) - np.sin(dp * lo)) / dp
    )
    kk = z * (ks[None, :] + ks[:, None])  # = 2 z k on the diagonal
    diag = (hi - lo) / 2.0 - (np.sin(kk * hi) - np.sin(kk * lo)) / (2.0 * kk)
    return np.where(same, diag, cross)


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass(frozen=True)
class GramForm:
    """Hermitian PSD matrix with c^H G c = observation integral of the state."""

    mode_set: ModeSet
    matrix: np.ndarray
    spec: ObservationSpec

    def __post_init__(self) -> None:
        g = np.ascontiguousarray(self.matrix, dtype=complex)
        n = 2 * len(self.mode_set)
        if g.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}")
        scale = np.max(np.abs(g))
        if scale > 0 and np.max(np.abs(g - g.conj().T)) > 1e-14 * scale:
            raise ValueError("matrix is not Hermitian to tolerance")
        g.flags.writeable = False
        object.__setattr__(self, "matrix", g)

    def quadratic_form(self, state_or_coeffs) -> float:
        c = getattr(state_or_coeffs, "doubled", lambda: np.asarray(state_or_coeffs))()
        c = np.asarray(c, dtype=complex)
        return float(np.real(np.vdot(c, self.matrix @ c)))

    def to_json(self) -> str:
        ms = self.mode_set
        doc = {
            "geometry": {"ell1": ms.geometry.ell1, "ell2": ms.geometry.ell2},
            "K1": ms.K1,
            "K2": ms.K2,
            "mode_order": [[m.k1, m.k2] for m in ms.modes],
            "spec": self.spec.to_dict(),
            "matrix_re": self.matrix.real.tolist(),
            "matrix_im": self.matrix.imag.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "GramForm":
        doc = json.loads(text)
        geom = RectangleGeometry(doc["geometry"]["ell1"], doc["geometry"]["ell2"])
        ms = build_mode_set(geom, doc["K1"], doc["K2"])
        g = np.array(doc["matrix_re"]) + 1j * np.array(doc["matrix_im"])
        return GramForm(ms, g, ObservationSpec.from_dict(doc["spec"]))


def _closed_axis_gram(factor, ks, z: float, ell: float):
    """Closed-form 1-D Gram of one factor over the axis modes ks (wavenumber unit z)."""
    kind, *args = factor
    if kind == "full":
        return (ell / 2.0) * (ks[:, None] == ks[None, :])
    if kind == "interval":
        return _sine_overlap_matrix(ks, args, z)
    if kind in ("point", "edge"):
        p = np.sin(ks * (z * args[0])) if kind == "point" else z * ks
        return np.outer(p, p)
    if kind == "ones":
        return 1.0
    wx = np.concatenate([z * ks, -z * ks])  # "exp": doubled index
    return _interval_kernel(wx[None, :] - wx[:, None], *args)


def _gram_matrix(spec: ObservationSpec, mode_set: ModeSet, axis_gram) -> np.ndarray:
    """conj(amp_i) amp_j Kt o tile(sum sign X1 o X2) over the region's separable pieces.

    axis_gram(factor, ks, z, ell) supplies each 1-D Gram. The time kernel Kt
    is the profile e^{+-i w t} over the window, with unit wavenumber scale.
    """
    g = mode_set.geometry
    w = np.sqrt(mode_set.lam) if spec.model == "wave" else mode_set.lam
    window, terms = spec.region.pieces(spec.T)
    kt = axis_gram(("exp", *window), w, 1.0, None)
    x1 = (mode_set.k1, math.pi / g.ell1, g.ell1)
    x2 = (mode_set.k2, math.pi / g.ell2, g.ell2)
    products = (s * axis_gram(f1, *x1) * axis_gram(f2, *x2) for s, f1, f2 in terms)
    sp = functools.reduce(np.add, products)
    if sp.shape != kt.shape:
        sp = np.tile(sp, (2, 2))
    if spec.field == "velocity":  # amplitude i w; every other field has amplitude 1
        amp = 1j * np.concatenate([w, -w])
        kt = np.conj(amp)[:, None] * amp[None, :] * kt
    return kt * sp


def assemble_gram(spec: ObservationSpec, mode_set: ModeSet) -> GramForm:
    """Closed-form Gram matrix of the observation integral on the mode set."""
    spec.validate_geometry(mode_set.geometry)
    return GramForm(mode_set, _gram_matrix(spec, mode_set, _closed_axis_gram), spec)


# ---------------------------------------------------------------------------
# quadrature oracle


def _simpson_weights(lo: float, hi: float, panels: int):
    """Composite Simpson nodes and weights with the given even panel count."""
    x = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / panels / 3.0
    return x, w


def _normalize_resolution(resolution: int) -> int:
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    return resolution + (resolution % 2)


def _sampled_axis_gram(factor, ks, z: float, ell: float, res: int):
    """Simpson 1-D Gram sum_x w_x conj(f_i(x)) f_j(x) of one factor from pointwise samples."""
    kind, *args = factor
    if kind == "ones":
        return 1.0  # the constant profile at one node of unit weight
    if kind in ("full", "interval", "exp"):
        x, wx = _simpson_weights(*(args or (0.0, ell)), res)
    else:  # one node of unit weight: the point, or the x = 0 edge
        x, wx = np.array(args or [0.0]), np.ones(1)
    if kind == "exp":
        f = np.exp(1j * np.outer(np.concatenate([z * ks, -z * ks]), x))
    elif kind == "edge":
        f = (z * ks)[:, None] * np.cos(np.outer(z * ks, x))
    else:
        f = np.sin(np.outer(z * ks, x))
    return (np.conj(f) * wx) @ f.T


def quadrature_oracle(state, spec: ObservationSpec, resolution: int) -> float:
    """Composite-Simpson value of the observation integral, from pointwise samples.

    Runs the assembly of assemble_gram, the region's pieces and the Hadamard
    product of 1-D Grams, on Simpson sums over pointwise samples of each axis
    profile, so it shares no closed form. Because the sampled field is a sum
    of products over the axes, the result is the Simpson tensor-grid integral
    of the squared field. resolution is the Simpson panel count per axis (odd
    values rounded up).
    """
    spec.validate_geometry(state.mode_set.geometry)
    res = _normalize_resolution(resolution)
    g = _gram_matrix(spec, state.mode_set, functools.partial(_sampled_axis_gram, res=res))
    c = state.doubled()
    return float(np.real(np.vdot(c, g @ c)))


# ---------------------------------------------------------------------------
# four-family form


def thm21_fourfamily_form(coeffs, omega: OpenRect, geometry: RectangleGeometry) -> float:
    """integral over omega of |f(t,x2)|^2 for the four-family exponential sum.

    coeffs is a 4-tuple of arrays shaped (K2, K1), indexed [k2-1, k1-1], for
    the families with exponents +zx-lt signs (+,+), (-,+), (+,-), (-,-) in
    (z k2 x2, lambda_k t). All kernels are the closed interval forms.
    """
    fams = [np.ascontiguousarray(f, dtype=complex) for f in coeffs]
    if len(fams) != 4 or any(f.shape != fams[0].shape or f.ndim != 2 for f in fams):
        raise ValueError("coeffs must be four equal-shape (K2, K1) arrays")
    K2, K1 = fams[0].shape
    k1 = np.tile(np.arange(1, K1 + 1), K2)
    k2 = np.repeat(np.arange(1, K2 + 1), K1)
    lam = geometry.u * k1**2 + geometry.v * k2**2
    signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
    wx = np.concatenate([sx * geometry.z * k2 for sx, _ in signs])
    wt = np.concatenate([st * lam for _, st in signs])
    cvec = np.concatenate([f.reshape(-1) for f in fams])
    kt = _interval_kernel(wt[None, :] - wt[:, None], omega.t0, omega.t1)
    kx = _interval_kernel(wx[None, :] - wx[:, None], omega.x0, omega.x1)
    return float(np.real(np.vdot(cvec, (kt * kx) @ cvec)))
