"""Exact Hermitian Gram forms for observation functionals, plus a quadrature oracle.

Every observation integral here is a quadratic form c^H G c in the doubled
coefficient vector (a-block then b-block). Each region names its separable
pieces: a time window and a signed sum of products of an x1 factor and an x2
factor. The Gram is the field amplitude product times the Hadamard product of
three 1-D Grams, over time, x1 and x2, and the doubled Gram is
[[A, B], [conj B, conj A]] in its a-a block A and a-b block B. assemble_gram
takes the 1-D Grams in closed form; the oracle runs the same piece list and
factorisation on composite-Simpson sums over pointwise samples and shares no
closed form. A dense tensor-grid reference that guards the factorisation lives
in the tests.

The closed forms are written about the centre c of each window of length L:
the integral over (lo, hi) of e^{i delta s} ds is e^{i delta c} L sinc(delta L / 2).
The e^{+-i z k2 x2} profile of OpenRect is centred on its x2 interval the same
way. The phases then factor out of every closed Gram as a diagonal unitary
congruence: G = conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle, -angle)}
and X, Y real symmetric, kept in GramForm.centred. Its spectrum is that of
X + Y (states even in time) and X - Y (odd in time). Those blocks are the data
of a Gram and of its JSON form: GramForm.quadratic_form evaluates
v^H [[X, Y], [Y, X]] v on the phased coefficients v = p c, and the complex
2n x 2n matrix is built only when GramForm.matrix is first read, as a dense
reference.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import FrozenInstanceError, astuple, dataclass, fields

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


def _window_sinc(delta, lo: float, hi: float):
    """(hi - lo) sinc(delta (hi - lo) / 2) elementwise: the modulus of the interval kernel.

    Exactly even in delta, and free of cancellation as delta -> 0.
    """
    h = (hi - lo) / 2.0
    u = np.asarray(delta, dtype=float) * h
    return (2.0 * h) * np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0.0)


def _interval_kernel(delta, lo: float, hi: float):
    """integral over (lo, hi) of e^{i delta s} ds, elementwise in delta.

    Written about the window centre c = (lo + hi)/2 as e^{i delta c} times
    the real modulus _window_sinc. The value at -delta is the exact
    floating-point conjugate, so Gram matrices built from it are Hermitian to
    the last bit.
    """
    d = np.asarray(delta, dtype=float)
    mag = _window_sinc(d, lo, hi)
    angle = d * ((lo + hi) / 2.0)
    out = np.empty(d.shape, dtype=complex)
    out.real = mag * np.cos(angle)
    out.imag = mag * np.sin(angle)
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


class GramForm:
    """Hermitian PSD form with c^H G c = observation integral of the state.

    The Gram is held as centred = (X, Y, angle): its matrix is conj(p_i) p_j
    [[X, Y], [Y, X]]_ij with p = e^{i (angle, -angle)} and X, Y real n x n and
    symmetric to the last bit, which makes it Hermitian to the last bit. The
    blocks are kept, not copied, and made read-only. quadratic_form reads the
    blocks; the complex matrix is built once, on the first read of .matrix.
    Two Grams are equal when their spec, mode set and blocks agree to the
    last bit, and the JSON form holds the blocks.
    """

    def __init__(self, mode_set: ModeSet, spec: ObservationSpec, x, y, angle) -> None:
        n = len(mode_set)
        x, y, angle = (np.ascontiguousarray(part, dtype=float) for part in (x, y, angle))
        if x.shape != (n, n) or y.shape != (n, n) or angle.shape != (n,):
            raise ValueError(f"centred blocks must be {n}x{n} with {n} angles")
        if not (np.array_equal(x, x.T) and np.array_equal(y, y.T)):
            raise ValueError("centred blocks must be symmetric")
        for part in (x, y, angle):
            part.flags.writeable = False
        vars(self).update(mode_set=mode_set, spec=spec, centred=(x, y, angle), _matrix=None)

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            g = _centred_matrix(*self.centred)
            g.flags.writeable = False
            vars(self)["_matrix"] = g
        return self._matrix

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _key(self) -> tuple:
        return (self.spec, self.mode_set, tuple(part.tobytes() for part in self.centred))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def quadratic_form(self, state_or_coeffs) -> float:
        c = getattr(state_or_coeffs, "doubled", lambda: np.asarray(state_or_coeffs))()
        c = np.asarray(c, dtype=complex)
        if c.shape != (2 * len(self.mode_set),):
            raise ValueError(f"coefficients must have shape ({2 * len(self.mode_set)},)")
        # v^H [[X, Y], [Y, X]] v with v = p c, the phased coefficients
        x, y, angle = self.centred
        n = len(angle)
        p = np.exp(1j * angle)
        v1, v2 = p * c[:n], p.conj() * c[n:]
        return float(np.real(np.vdot(v1, x @ v1 + y @ v2) + np.vdot(v2, y @ v1 + x @ v2)))

    def to_json(self) -> str:
        ms = self.mode_set
        x, y, angle = self.centred
        doc = {
            "geometry": {"ell1": ms.geometry.ell1, "ell2": ms.geometry.ell2},
            "K1": ms.K1,
            "K2": ms.K2,
            "mode_order": np.stack([ms.k1, ms.k2], axis=1).tolist(),
            "spec": self.spec.to_dict(),
            "x": x.tolist(),
            "y": y.tolist(),
            "angle": angle.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "GramForm":
        doc = json.loads(text)
        geom = RectangleGeometry(doc["geometry"]["ell1"], doc["geometry"]["ell2"])
        ms = build_mode_set(geom, doc["K1"], doc["K2"])
        spec = ObservationSpec.from_dict(doc["spec"])
        return GramForm(ms, spec, doc["x"], doc["y"], doc["angle"])


def _frequencies(spec: ObservationSpec, mode_set: ModeSet) -> np.ndarray:
    return np.sqrt(mode_set.lam) if spec.model == "wave" else mode_set.lam


def _closed_axis_gram(factor, ks, z: float, ell: float):
    """Closed-form 1-D Gram of one factor over the axis modes ks (wavenumber unit z).

    The exp profile e^{+-i z k s} on (lo, hi) gives the stack (X, Y) of the
    a-a and a-b blocks of its doubled Gram written about the interval centre,
    without the phase: L sinc of z (k_j - k_i) L / 2 and of z (k_i + k_j) L / 2.
    """
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
    f = z * ks
    x = _window_sinc(f[None, :] - f[:, None], *args)
    return np.stack([x, _window_sinc(f[None, :] + f[:, None], *args)])


def _spatial_sum(spec: ObservationSpec, mode_set: ModeSet, axis_gram=_closed_axis_gram):
    """sum sign X1 o X2 over the region's pieces: the part of a Gram that does not depend on T.

    axis_gram(factor, ks, z, ell) supplies each 1-D Gram (by default the
    closed forms): the x2 exp profile of OpenRect gives the stack of its a-a
    and a-b blocks, every other factor one matrix that serves both. A
    factor's Gram is built once per call, on the axis indices 1..K, and
    expanded to the mode set. Only the time window of a region depends on T,
    never its terms.
    """
    g = mode_set.geometry
    axes = ((mode_set.k1, mode_set.K1, g.ell1), (mode_set.k2, mode_set.K2, g.ell2))

    @functools.cache
    def expanded(factor, axis):
        ks, K, ell = axes[axis]
        gram = axis_gram(factor, np.arange(1, K + 1), math.pi / ell, ell)
        i = ks - 1
        return gram[..., i[:, None], i[None, :]] if np.ndim(gram) else gram

    terms = spec.region.pieces(spec.T)[1]
    return functools.reduce(np.add, (s * expanded(f1, 0) * expanded(f2, 1) for s, f1, f2 in terms))


def _gram_blocks(spec: ObservationSpec, mode_set: ModeSet, axis_gram, spatial=None) -> np.ndarray:
    """Stack (A, B) of the doubled Gram [[A, B], [conj B, conj A]] over the region's pieces.

    Each block is amp-weighted Kt o spatial, with spatial the sum
    _spatial_sum(spec, mode_set, axis_gram) unless it is given: a scan over T
    builds it once. axis_gram also supplies the time window's Gram Kt, the
    stack of its a-a and a-b blocks.
    """
    if spatial is None:
        spatial = _spatial_sum(spec, mode_set, axis_gram)
    w = _frequencies(spec, mode_set)
    window = spec.region.pieces(spec.T)[0]
    blocks = axis_gram(("exp", *window), w, 1.0, None) * spatial
    if spec.field == "velocity":  # amplitude i w: conj(amp_i) amp_j is w_i w_j, -w_i w_j
        blocks *= np.outer(w, w) * np.array([1.0, -1.0])[:, None, None]
    return blocks


def _centre_angle(spec: ObservationSpec, mode_set: ModeSet) -> np.ndarray:
    """Per-mode phase angle of a closed Gram: w t_c, plus z k2 x_c for an exp profile on x2.

    t_c and x_c are the centres of the time window and of the profile interval.
    """
    window, terms = spec.region.pieces(spec.T)
    angle = _frequencies(spec, mode_set) * ((window[0] + window[1]) / 2.0)
    z = math.pi / mode_set.geometry.ell2
    for _, x0, x1 in {f2 for _, _, f2 in terms if f2[0] == "exp"}:  # OpenRect's one term
        angle = angle + (z * mode_set.k2) * ((x0 + x1) / 2.0)
    return angle


def _doubled(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.block([[a, b], [b.conj(), a.conj()]])


def _centred_matrix(x: np.ndarray, y: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """The complex doubled Gram conj(p_i) p_j [[X, Y], [Y, X]]_ij, p = e^{i (angle, -angle)}.

    Its a-a block is conj(p_i) p_j X_ij and its a-b block conj(p_i p_j) Y_ij,
    with p = e^{i angle} here. The complex products are written out in real
    arithmetic, so the a-a block is Hermitian and the a-b block symmetric to
    the last bit.
    """
    pr, pi = np.cos(angle), np.sin(angle)
    rr, ii, ri = np.outer(pr, pr), np.outer(pi, pi), np.outer(pr, pi)
    a = np.empty(x.shape, dtype=complex)
    a.real = x * (rr + ii)
    a.imag = x * (ri - ri.T)
    b = np.empty(y.shape, dtype=complex)
    b.real = y * (rr - ii)
    b.imag = -(y * (ri + ri.T))
    return _doubled(a, b)


def _closed_gram(spec: ObservationSpec, mode_set: ModeSet, spatial=None) -> GramForm:
    """assemble_gram without the geometry check, on a given spatial sum when there is one."""
    x, y = _gram_blocks(spec, mode_set, _closed_axis_gram, spatial)
    return GramForm(mode_set, spec, x, y, _centre_angle(spec, mode_set))


def assemble_gram(spec: ObservationSpec, mode_set: ModeSet) -> GramForm:
    """Closed-form Gram of the observation integral on the mode set, kept as its centred blocks.

    The Gram is conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle,
    -angle)}; (X, Y, angle) is GramForm.centred, and the complex matrix,
    Hermitian to the last bit, is built only when GramForm.matrix is read.
    """
    spec.validate_geometry(mode_set.geometry)
    return _closed_gram(spec, mode_set)


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
    """Simpson 1-D Gram sum_x w_x conj(f_i(x)) f_j(x) of one factor from pointwise samples.

    The exp profile gives the stack of the a-a and a-b blocks of its doubled
    Gram, from the samples of e^{i z k x} and of e^{-i z k x}.
    """
    kind, *args = factor
    if kind == "ones":
        return 1.0  # the constant profile at one node of unit weight
    if kind in ("full", "interval", "exp"):
        x, wx = _simpson_weights(*(args or (0.0, ell)), res)
    else:  # one node of unit weight: the point, or the x = 0 edge
        x, wx = np.array(args or [0.0]), np.ones(1)
    if kind == "exp":
        f = np.exp(1j * np.outer(z * ks, x))
        fw = np.conj(f) * wx
        return np.stack([fw @ f.T, fw @ np.conj(f).T])
    if kind == "edge":
        f = (z * ks)[:, None] * np.cos(np.outer(z * ks, x))
    else:
        f = np.sin(np.outer(z * ks, x))
    return (f * wx) @ f.T


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
    c = state.doubled()
    if c.ndim != 1:
        raise ValueError("the oracle takes one state, not a stack of them")
    res = _normalize_resolution(resolution)
    a, b = _gram_blocks(spec, state.mode_set, functools.partial(_sampled_axis_gram, res=res))
    g = _doubled(a, b)
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
    ms = build_mode_set(geometry, K1, K2)  # row-major in (k2, k1), as the coefficients are
    signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
    wx = np.concatenate([sx * geometry.z * ms.k2 for sx, _ in signs])
    wt = np.concatenate([st * ms.lam for _, st in signs])
    cvec = np.concatenate([f.reshape(-1) for f in fams])
    kt = _interval_kernel(wt[None, :] - wt[:, None], omega.t0, omega.t1)
    kx = _interval_kernel(wx[None, :] - wx[:, None], omega.x0, omega.x1)
    return float(np.real(np.vdot(cvec, (kt * kx) @ cvec)))
