"""Exact Hermitian Gram forms for observation functionals, plus a quadrature oracle.

Every observation integral here is a quadratic form c^H G c in the doubled
coefficient vector (a-block then b-block). Each region names its separable
pieces: a time window and a signed sum of products of an x1 factor and an x2
factor. The Gram is the field amplitude product times the Hadamard product of
three 1-D Grams, over time, x1 and x2, and the doubled Gram is
[[A, B], [conj B, conj A]] in its a-a block A and a-b block B. The modes run
row-major in (k2, k1), so the spatial sum of x1 and x2 products is a sum of
Kronecker products of K x K axis Grams, and one producer (_gram_rows) writes
the upper triangle of every Gram a block of whole k2-rows at a time, with no
n x n gather or temporary. assemble_gram takes the 1-D Grams in closed form;
the oracle runs the same producer on composite-Simpson sums over pointwise
samples and shares no closed form: it samples each interval on the half of
its grid about the centre, in the real centred layout of the closed forms.
Both mirror the rows into a GramForm about _centre_angle (_gram_form); the
pencil of inequalities sums them, about the same angle, into the upper
triangles of its blocks, all that _doubled_forms reads. A dense tensor-grid
reference guarding the factorisation and the shared phase is in the tests.

The closed forms are written about the centre c of each window of length L:
the integral over (lo, hi) of e^{i delta s} ds is e^{i delta c} L sinc(delta L / 2).
The e^{+-i z k2 x2} profile of OpenRect is centred on its x2 interval the same
way. The phases then factor out of every closed Gram as a diagonal unitary
congruence: G = conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle, -angle)}
and X, Y real symmetric, kept in GramForm.centred. Its spectrum is that of
X + Y (states even in time) and X - Y (odd in time). Those blocks are all of
a Gram: GramForm.quadratic_form evaluates v^H [[X, Y], [Y, X]] v on the phased
coefficients v = p c, and no library path builds the complex 2n x 2n matrix.
The form and the oracle evaluate a stack of states by one doubled form, and
build the time Gram on the distinct frequencies, expanded to the modes.

Every exponential-sum integral over a box, the four-family form here and the
Ingham checks of inequalities, is one real form about the box centre
(_exponential_form): the product of the axes' sinc blocks, a block of rows
of its upper triangle at a time, on the phased coefficients. No complex
kernel is built for them, and no BLAS call is made: the Ingham commands
never load scipy, which only the Gram and oracle products here reach,
through the helpers of spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .spectrum import ModeSet, RectangleGeometry, _symmetric_product, _weighted_gram, build_mode_set
from .spectrum import number, number_array

# Factors of the separable pieces. Each is a tuple (kind, *positions on its axis):
# the full axis, an interval, a point, the normal derivative at the x = 0 edge,
# no dependence on the axis, and the OpenRect profile e^{+-i z k2 x2} on an
# interval, whose sign follows the a/b block.
_FULL, _EDGE, _ONES = ("full",), ("edge",), ("ones",)
# entries per block of Gram rows: whole k2-rows, at least one
_ROW_BLOCK = 1 << 14
# rows per block of the real kernel of _exponential_form
_INGHAM_BLOCK = 128


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class _Region:
    """Base of the regions. pieces(T) returns (time window, ((sign, x1, x2), ...)).

    Every number of every field (each position of a tuple of segments too)
    must be finite and real, named as kind.field; then the region is checked
    through its pieces: the time window and every interval and exp profile
    must be nondegenerate.
    """

    def __post_init__(self) -> None:
        kind = type(self).__name__
        for f in fields(self):
            for x in _entries(getattr(self, f.name)):
                number(x, f"{kind}.{f.name}")
        window, terms = self.pieces(1.0)
        factors = [("interval", *window)] + [f for _, *pair in terms for f in pair]
        if not all(xs[0] < xs[1] for k, *xs in factors if k in ("interval", "exp")):
            raise ValueError(f"{kind} intervals must be nondegenerate")


def _entries(value) -> list:
    """The numbers of a region field: the value itself, or those of each entry of a tuple or list."""
    return [x for v in value for x in _entries(v)] if isinstance(value, (tuple, list)) else [value]


@dataclass(frozen=True)
class VerticalSegments(_Region):
    """Segments {alpha_j} x I_j: displacement traces on interior vertical cuts; positions held as floats."""

    segments: tuple  # of (alpha, (lo, hi))

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("need at least one segment")
        super().__post_init__()
        segs = tuple((float(a), (float(lo), float(hi))) for a, (lo, hi) in self.segments)
        object.__setattr__(self, "segments", segs)

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

    def pieces(self, T):
        return (0.0, T), ((1.0, ("interval", self.a, self.b), _FULL),)


@dataclass(frozen=True)
class HorizontalStrip(_Region):
    c: float
    d: float

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
        if not number(self.T, "T") > 0:
            raise ValueError(f"T must be > 0, got {self.T!r}")
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
        return ObservationSpec(region_from_dict(d["region"]), d["field"], d.get("T"), d["model"])


# ---------------------------------------------------------------------------
# closed-form kernels


def _window_sinc(delta, lo: float, hi: float):
    """(hi - lo) sinc(delta (hi - lo) / 2) elementwise: the modulus of the interval kernel.

    Exactly even in delta, and free of cancellation as delta -> 0.
    """
    h = (hi - lo) / 2.0
    u = np.asarray(delta, dtype=float) * h
    return (2.0 * h) * np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0.0)


def _exponential_form(coeffs: np.ndarray, axes) -> float:
    """integral over the box of |sum_k c_k e^{i sum_a w_ak x_a}|^2, axes = [(w, lo, hi), ...].

    Each axis a carries the exponents w_a of the sum on it and its interval
    (lo, hi). About the box centre x_c the kernel is e^{i (w_k - w_j) . x_c}
    times the real symmetric product S of the axes' sinc blocks
    (_window_sinc), so with b = c e^{i sum_a (w_a - min w_a) x_ca} the form is
    Re(b)' S Re(b) + Im(b)' S Im(b). S is built a block of rows at a time from
    the diagonal on, its upper triangle of blocks: the diagonal block counts
    once and the part to its right twice, for its mirror below the diagonal.
    Each block meets the parts by elementwise products and sums, with no BLAS
    call, so the value depends on no thread pool. S and the phases need the
    arguments |w_ak - w_aj| (hi - lo) / 2, which must stay finite.
    """
    for w, lo, hi in axes:
        if not math.isfinite((float(w.max()) - float(w.min())) * (hi - lo)):
            raise ValueError(f"the interval ({lo}, {hi}) overflows the kernel of these exponents")
    b = coeffs * np.exp(1j * sum((w - w.min()) * ((lo + hi) / 2.0) for w, lo, hi in axes))
    parts = np.stack([b.real, b.imag])
    lhs = 0.0
    for r0 in range(0, b.size, _INGHAM_BLOCK):
        r1 = min(r0 + _INGHAM_BLOCK, b.size)
        block = functools.reduce(
            np.multiply, (_window_sinc(w[None, r0:] - w[r0:r1, None], lo, hi) for w, lo, hi in axes)
        )
        right = parts[:, r0:].copy()
        right[:, r1 - r0 :] *= 2.0
        for part, cols in zip(parts[:, r0:r1], right):
            lhs += float(np.sum(part * np.sum(block * cols, axis=1)))
    return lhs


def time_kernel(w1: float, w2: float, T: float) -> complex:
    """integral over (0, T) of e^{i (w1 - w2) t} dt; equals T when w1 = w2.

    Written about the window centre T/2 as e^{i delta T/2} times the real
    modulus _window_sinc, so the value at w2, w1 is the exact conjugate.
    """
    w1, w2, T = number(w1, "w1"), number(w2, "w2"), number(T, "T")
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T!r}")
    delta = np.float64(w1) - np.float64(w2)
    mag, angle = _window_sinc(delta, 0.0, T), delta * (T / 2.0)
    return complex(mag * np.cos(angle), mag * np.sin(angle))


def sine_overlap(k: int, kp: int, interval, scale: float) -> float:
    """integral over the interval of sin(scale*k*y) sin(scale*kp*y) dy.

    scale is the wavenumber unit pi/ell; over the full axis (0, pi/scale) this
    reduces to orthogonality, (pi/(2 scale)) when k = kp and 0 otherwise.
    It is one entry of the closed Gram's matrix form _sine_overlap_matrix.
    """
    if number(k, "k", integer=True) < 1 or number(kp, "kp", integer=True) < 1:
        raise ValueError("mode indices must be >= 1")
    return float(_sine_overlap_matrix(np.array([k, kp]), interval, number(scale, "scale"))[0, 1])


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
    diag = (hi - lo) / 2.0 - (np.sin(dp * hi) - np.sin(dp * lo)) / (2.0 * dp)  # dp = 2 z k there
    return np.where(same, diag, cross)


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass(frozen=True, eq=False)
class GramForm:
    """Hermitian PSD form with c^H G c = observation integral of the state.

    The Gram is held as its centred blocks X, Y and angle: its matrix is
    conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle, -angle)} and X, Y
    real n x n and symmetric to the last bit, which makes it Hermitian to the
    last bit. The blocks are kept, not copied, and made read-only;
    quadratic_form reads them. Two Grams are equal when their spec, mode set
    and blocks agree to the last bit.
    """

    mode_set: ModeSet
    spec: ObservationSpec
    x: np.ndarray
    y: np.ndarray
    angle: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.mode_set)
        x, y, angle = (np.ascontiguousarray(part, dtype=float) for part in self.centred)
        if x.shape != (n, n) or y.shape != (n, n) or angle.shape != (n,):
            raise ValueError(f"centred blocks must be {n}x{n} with {n} angles")
        if not (np.array_equal(x, x.T) and np.array_equal(y, y.T)):
            raise ValueError("centred blocks must be symmetric")
        for name, part in zip(("x", "y", "angle"), (x, y, angle)):
            part.flags.writeable = False
            object.__setattr__(self, name, part)

    @property
    def centred(self) -> tuple:
        """(X, Y, angle)."""
        return self.x, self.y, self.angle

    def _key(self) -> tuple:
        return (self.spec, self.mode_set, tuple(part.tobytes() for part in self.centred))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def quadratic_form(self, state_or_coeffs):
        """c^H G c, the doubled form of [[X, Y], [Y, X]] on p c: one value per row of a stack."""
        c = np.asarray(getattr(state_or_coeffs, "doubled", lambda: state_or_coeffs)(), dtype=complex)
        n = len(self.mode_set)
        if c.ndim not in (1, 2) or c.shape[-1] != 2 * n:
            raise ValueError(f"coefficients must have shape ({2 * n},) or (N, {2 * n})")
        p = np.exp(1j * self.angle)
        return _doubled_forms(self.x, self.y, p * c[..., :n], p.conj() * c[..., n:])


def _frequencies(spec: ObservationSpec, mode_set: ModeSet) -> np.ndarray:
    return np.sqrt(mode_set.lam) if spec.model == "wave" else mode_set.lam


def _closed_axis_gram(factor, ks, z: float, ell: float):
    """Closed-form 1-D Gram of one factor over the axis modes ks (wavenumber unit z).

    The exp profile e^{+-i z k s} on (lo, hi) gives the stack (X, Y) of the
    a-a and a-b blocks of its doubled Gram written about the interval centre,
    without the phase: L sinc of z (k_j - k_i) L / 2 and of z (k_i + k_j) L / 2.
    Both are computed on the upper triangle, a block of rows at a time with
    its diagonal block whole, and mirrored: the difference is exactly
    antisymmetric, the sum exactly symmetric and the sinc exactly even, so
    the bytes are those of the full square.
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
    f, n = z * ks, len(ks)
    out = np.empty((2, n, n))
    step = max(1, _ROW_BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for block, sign in zip(out, (-1.0, 1.0)):
            block[lo:hi, lo:] = _window_sinc(f[lo:] + sign * f[lo:hi, None], *args)
            block[hi:, lo:hi] = block[lo:hi, hi:].T
    return out


def _axis_factors(spec: ObservationSpec, mode_set: ModeSet, axis_gram=_closed_axis_gram) -> tuple:
    """The region's terms as pairs (sign X1, X2) of K x K axis Grams: the T-independent part of a Gram.

    The geometry is checked first. axis_gram(factor, ks, z, ell) supplies
    each 1-D Gram on the axis indices 1..K (by default the closed forms): the
    x2 exp profile of OpenRect gives the stack of its a-a and a-b blocks, the
    constant profile a scalar, here broadcast to K x K, every other factor
    one matrix that serves both. A factor's Gram is built once per call. Only
    the time window of a region depends on T, never its terms.
    """
    spec.validate_geometry(mode_set.geometry)
    g = mode_set.geometry
    axes = ((mode_set.K1, g.ell1), (mode_set.K2, g.ell2))

    @functools.cache
    def axis(factor, i):
        K, ell = axes[i]
        return axis_gram(factor, np.arange(1, K + 1), math.pi / ell, ell)

    def full(g, K):  # a read-only K x K view of a scalar
        return np.broadcast_to(g, np.shape(g)[:-2] + (K, K))

    return tuple(
        (full(s * axis(f1, 0), mode_set.K1), full(axis(f2, 1), mode_set.K2))
        for s, f1, f2 in spec.region.pieces(spec.T)[1]
    )


def _gram_rows(spec: ObservationSpec, mode_set: ModeSet, axis_gram=_closed_axis_gram):
    """Yield (rows, x, y): the centred blocks X and Y of the spec's Gram, a block of whole k2-rows at a time.

    The axis factors, _axis_factors(spec, mode_set, axis_gram), are built
    when the first block is drawn. The modes run row-major in (k2, k1), so on
    the rows of the k2-rows r the spatial sum sum sign X1 o X2 is a sum of
    Kronecker products: (sign X1)[k1, c1] X2[r, c2], one broadcast product
    per term, summed in order, with no n x n gather. axis_gram also supplies
    the time window's Gram Kt, the stack of its a-a and a-b blocks, on the
    distinct frequencies; a block takes its entries with one flat take.
    Each block is Kt o spatial, times the velocity amplitude products
    w_i w_j (in X) and -w_i w_j (in Y), from the block's diagonal block on:
    x and y are the two halves of one (2, rows, n - rows.start) array.
    """
    K1, n = mode_set.K1, len(mode_set)
    factors = _axis_factors(spec, mode_set, axis_gram)
    w = _frequencies(spec, mode_set)
    distinct, inverse = np.unique(w, return_inverse=True)
    kt = axis_gram(("exp", *spec.region.pieces(spec.T)[0]), distinct, 1.0, None).reshape(2, -1)
    offsets = inverse * len(distinct)
    step = K1 * max(1, _ROW_BLOCK // (K1 * n))
    for r0 in range(0, n, step):
        rows = slice(r0, min(r0 + step, n))
        k2 = slice(r0 // K1, rows.stop // K1)
        spatial = None
        for g1, g2 in factors:  # (k2, k1, c2, c1), summed in order
            term = g1[:, None, :] * g2[..., k2, None, k2.start :, None]
            spatial = term if spatial is None else spatial + term
        blocks = np.take(kt, offsets[rows, None] + inverse[r0:], axis=1)
        blocks *= spatial.reshape(spatial.shape[:-4] + blocks.shape[1:])
        if spec.field == "velocity":  # amplitude i w: conj(amp_i) amp_j is w_i w_j, -w_i w_j
            amp = np.multiply(w[rows, None], w[r0:])
            blocks[0] *= amp
            blocks[1] *= np.negative(amp, out=amp)
        yield rows, blocks[0], blocks[1]


def _gram_form(spec: ObservationSpec, mode_set: ModeSet, axis_gram=_closed_axis_gram) -> GramForm:
    """The GramForm of _gram_rows' upper rows, mirrored, about _centre_angle."""
    n = len(mode_set)
    out = np.empty((2, n, n))
    for rows, x, y in _gram_rows(spec, mode_set, axis_gram):
        lo, hi = rows.start, rows.stop
        out[0, lo:hi, lo:], out[1, lo:hi, lo:] = x, y
        out[0, hi:, lo:hi], out[1, hi:, lo:hi] = x[:, hi - lo :].T, y[:, hi - lo :].T
    return GramForm(mode_set, spec, out[0], out[1], _centre_angle(spec, mode_set))


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


def _doubled_forms(a: np.ndarray, b: np.ndarray, r1: np.ndarray, r2: np.ndarray):
    """c^H [[A, B], [conj B, conj A]] c for c = (r1, r2), A Hermitian, B symmetric: a float, or one per row.

    It is Re(r1^H A r1) + Re(s^H A s) + 2 Re(r1^H B r2), s = conj(r2): one _symmetric_product with each,
    reading the upper triangles of a and b. A real block multiplies the real and imaginary parts stacked.
    """
    def form(m, u, w, hermitian):  # Re(u^H M w) over the last axis
        if np.iscomplexobj(m):
            return np.sum(_symmetric_product(u.conj(), m, hermitian) * w, axis=-1).real
        f = np.sum(_symmetric_product(np.stack([u.real, u.imag]), m) * np.stack([w.real, w.imag]), axis=-1)
        return f[0] + f[1]
    u = np.stack([r1, r2.conj()])
    diag = form(a, u, u, True)
    f = diag[0] + diag[1] + 2.0 * form(b, r1, r2, False)
    return float(f) if f.ndim == 0 else f


def assemble_gram(spec: ObservationSpec, mode_set: ModeSet) -> GramForm:
    """Closed-form Gram of the observation integral on the mode set, kept as its centred blocks.

    The Gram is conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle,
    -angle)}, Hermitian to the last bit; (X, Y, angle) is GramForm.centred.
    """
    return _gram_form(spec, mode_set)


# ---------------------------------------------------------------------------
# quadrature oracle


def _simpson_weights(lo: float, hi: float, panels: int) -> np.ndarray:
    """Composite Simpson weights of the nodes c + s_m, m = 0..panels/2, about the centre c.

    Node m is node panels/2 + m of the even panel count's grid on (lo, hi),
    weighted 1, 4 or 2 times h/3 as that grid weighs it, and doubled for m >
    0, since it also stands for its mirror node c - s_m.
    """
    half = panels // 2
    w = np.where(np.arange(half, panels + 1) % 2, 4.0, 2.0)
    w[-1] = 1.0
    w *= (hi - lo) / panels / 3.0
    w[1:] *= 2.0
    return w


def _sampled_axis_gram(factor, ks, z: float, ell: float, res: int):
    """Simpson 1-D Gram sum_x w_x conj(f_i(x)) f_j(x) of one factor from pointwise samples.

    A point, or z k cos(z k x) at the x = 0 edge, is one node of unit weight
    and has the outer product of its samples. Any other factor is sampled at
    the Simpson nodes c + s_m, m = 0..res/2, about its interval centre c, each
    weighted also for c - s_m. With f = z k, the tables C = cos(f s) and
    S = sin(f s), filled in turn, give CC and SS by one dsyrk each
    (_weighted_gram). Cross terms cancel on each node pair: sin(f x) has the
    Gram (sigma sigma') o CC + (kappa kappa') o SS, sigma = sin(f c) and
    kappa = cos(f c), and e^{i f x} the stack (CC + SS, CC - SS), the a-a and
    a-b blocks of its doubled Gram without the phase, as _closed_axis_gram
    gives them. All are symmetric to the last bit.
    """
    kind, *args = factor
    if kind == "ones":
        return 1.0  # the constant profile at one node of unit weight
    f = z * ks
    if kind in ("point", "edge"):
        p = np.sin(f * args[0]) if kind == "point" else f
        return np.outer(p, p)
    lo, hi = args or (0.0, ell)
    half = res // 2
    wx = _simpson_weights(lo, hi, res)
    s = np.arange(half + 1) * ((hi - lo) / res)

    def gram(trig):  # one table, filled in place and dropped on return
        table = np.outer(f, s)
        return _weighted_gram(trig(table, out=table), wx)

    cc, ss = gram(np.cos), gram(np.sin)
    if kind == "exp":
        return np.stack([cc + ss, cc - ss])
    c = (lo + hi) / 2.0
    sigma, kappa = np.sin(f * c), np.cos(f * c)
    return np.outer(sigma, sigma) * cc + np.outer(kappa, kappa) * ss


@functools.lru_cache(maxsize=1)
def _sampled_blocks(spec: ObservationSpec, mode_set: ModeSet, res: int) -> GramForm:
    """The GramForm of _gram_form on Simpson samples, kept for the next call on the same spec."""
    return _gram_form(spec, mode_set, functools.partial(_sampled_axis_gram, res=res))


def quadrature_oracle(state, spec: ObservationSpec, resolution: int):
    """Composite-Simpson value of the observation integral, from pointwise samples.

    Runs the assembly of assemble_gram, the region's pieces and the Hadamard
    product of 1-D Grams, on Simpson sums over pointwise samples of each axis
    profile, so it shares no closed form: the Simpson tensor-grid integral of
    the squared field, resolution panels per axis (odd values rounded up).
    Its centred blocks share the closed Gram's centre angle, and
    GramForm.quadratic_form evaluates them: one state gives a float, a stack
    one value per row. Each axis Gram is sampled once per call, the time
    window's on the distinct frequencies, and kept for the next call on the
    same spec, so blocks of states share it.
    """
    spec.validate_geometry(state.mode_set.geometry)
    resolution = number(resolution, "resolution", integer=True)
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    return _sampled_blocks(spec, state.mode_set, resolution + resolution % 2).quadratic_form(state)


# ---------------------------------------------------------------------------
# four-family form


def thm21_fourfamily_form(coeffs, omega: OpenRect, geometry: RectangleGeometry) -> float:
    """integral over omega of |f(t,x2)|^2 for the four-family exponential sum.

    coeffs is a 4-tuple of arrays shaped (K2, K1), indexed [k2-1, k1-1], for
    the families with exponents +zx-lt signs (+,+), (-,+), (+,-), (-,-) in
    (z k2 x2, lambda_k t). It is the real blocked form _exponential_form on
    the time and x2 axes of omega, about its centre.
    """
    fams = [number_array(f, "coeffs", complex) for f in coeffs]
    if len(fams) != 4 or any(f.shape != fams[0].shape or f.ndim != 2 for f in fams):
        raise ValueError("coeffs must be four equal-shape (K2, K1) arrays")
    K2, K1 = fams[0].shape
    ms = build_mode_set(geometry, K1, K2)  # row-major in (k2, k1), as the coefficients are
    signs = ((1, 1), (-1, 1), (1, -1), (-1, -1))
    wx = np.concatenate([sx * geometry.z * ms.k2 for sx, _ in signs])
    wt = np.concatenate([st * ms.lam for _, st in signs])
    cvec = np.concatenate([f.reshape(-1) for f in fams])
    return _exponential_form(cvec, [(wt, omega.t0, omega.t1), (wx, omega.x0, omega.x1)])
