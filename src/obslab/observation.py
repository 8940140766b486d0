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
the oracle runs the same producer on composite Gauss-Legendre sums over
pointwise samples and shares no closed form: it samples each interval on the
half of its panels about the centre, in the real centred layout of the
closed forms.
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

from .spectrum import ModeSet, RectangleGeometry, _row_gram, _symmetric_product, build_mode_set
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
# Gauss-Legendre nodes per panel of the oracle, and the most radians of the
# integrand's fastest frequency that one panel spans
_GL_ORDER = 32
_PANEL_RAD = 40.0
# complex entries per block of an oracle table fill: its two scratch arrays stay small beside the table
_FILL_BLOCK = 1 << 12


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

    It is Re(r1^H A r1) + Re(s^H A s) + 2 Re(r1^H B r2), s = conj(r2), added in that order, each by one
    _symmetric_product reading the upper triangle of a or b. N rows of width m take two (2N x m) float
    buffers, the operand and its product: [Re u; Im u] for real blocks, whose halves' row sums add, and
    each read as (N x m) complex scratch for complex blocks, which take the real part of the row sums.
    """
    rows, r2 = np.reshape(r1, (-1, len(a))), np.reshape(r2, (-1, len(a)))
    n, real = len(rows), np.isrealobj(a)
    v, p = np.empty((2, 2 * n, len(a)))  # the operand and its product
    if not real:
        v, p = (x.reshape(n, 2 * len(a)).view(complex) for x in (v, p))

    def form(s, w=None, hermitian=False):  # Re(u^H S w) per row, u^H in v (u's parts if real); w None: u
        _symmetric_product(v, s, hermitian, out=p)
        if not real:  # u = conj(v), formed in v once the product has read it
            return np.sum(np.multiply(p, np.conjugate(v, out=v) if w is None else w, out=p), axis=1).real
        for half, x in zip((p[:n], p[n:]), (v[:n], v[n:]) if w is None else (w.real, w.imag)):
            half *= x
        f = np.sum(p, axis=1)
        return f[:n] + f[n:]

    if real:
        v[:n], v[n:] = rows.real, rows.imag
    else:
        np.conjugate(rows, out=v)
    cross, first = form(b, r2), form(a, hermitian=True)
    if real:  # the parts of s = conj(r2)
        v[:n] = r2.real
        np.negative(r2.imag, out=v[n:])
    else:  # conj(s) = r2
        v[...] = r2
    f = first + form(a, hermitian=True) + 2.0 * cross
    return float(f[0]) if np.ndim(r1) == 1 else f


def assemble_gram(spec: ObservationSpec, mode_set: ModeSet) -> GramForm:
    """Closed-form Gram of the observation integral on the mode set, kept as its centred blocks.

    The Gram is conj(p_i) p_j [[X, Y], [Y, X]]_ij with p = e^{i (angle,
    -angle)}, Hermitian to the last bit; (X, Y, angle) is GramForm.centred.
    """
    return _gram_form(spec, mode_set)


# ---------------------------------------------------------------------------
# quadrature oracle


@functools.cache
def _gauss_legendre() -> tuple:
    """The _GL_ORDER Gauss-Legendre nodes on (-1, 1), ascending, and their weights, computed on first use.

    Eight Newton steps on P_n from the guesses cos(pi (i - 1/4) / (n + 1/2)),
    with P_n and P_n' from the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} and
    P_n' = n (x P_n - P_{n-1}) / (x^2 - 1): the steps converge
    quadratically, and the fourth is already below 1e-16. The weights are
    2 / ((1 - x^2) P_n'(x)^2), and nodes and weights are then made exactly
    odd and even about 0. All of it is elementwise numpy, no LAPACK.
    """
    n = _GL_ORDER
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))

    def legendre(x):  # P_n(x) and P_n'(x)
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    for _ in range(8):
        p, dp = legendre(x)
        x = x - p / dp
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def _panels(factor, f, ell: float, res: int) -> tuple:
    """(lo, hi, panels): the interval of a sampled factor on an axis of length ell, and its even panel count.

    The panels hold at least res nodes, and no panel spans more than
    _PANEL_RAD radians of 2 max f, the fastest frequency of the integrand, a
    product of two profiles of frequency at most max f. A 32-node panel
    integrates cos to about 2e-15 up to 60 radians across it, 7e-12 at 70
    and 8e-9 at 80.
    """
    lo, hi = factor[1:] or (0.0, ell)
    return lo, hi, 2 * math.ceil(max(res / _GL_ORDER, 2.0 * float(np.max(f)) * (hi - lo) / _PANEL_RAD) / 2.0)


def _sampled_axis_gram(factor, ks, z: float, ell: float, res: int):
    """Gauss-Legendre 1-D Gram sum_x w_x conj(f_i(x)) f_j(x) of one factor from pointwise samples.

    A point, or z k cos(z k x) at the x = 0 edge, is one node of unit weight
    and has the outer product of its samples. Any other factor is sampled on
    composite Gauss-Legendre panels of _GL_ORDER nodes (_panels, f = z k),
    laid symmetrically about its interval centre c: the nodes are c + s and
    c - s for s = a_p + b_j on the right half, a_p the centres of its panels
    and b_j the in-panel offsets, and node c + s carries the weight of both.
    The tables C = cos(f s) and S = sin(f s) are the real and imaginary
    parts of e^{i f a_p} e^{i f b_j}, angle addition from D (P/2 + J)
    complex exponentials for D frequencies, P panels and J nodes a panel.
    They are filled in turn into one buffer, a block of panels at a time
    (at most _FILL_BLOCK products, or one panel's) from two contiguous
    operands of the block's size (e^{i f a_p} repeated over the block's
    offsets, e^{i f b_j} tiled over its panels once per call), which numpy
    multiplies without the buffers it gives a broadcast operand, and give
    CC and SS by one dsyrk each (_row_gram). The square roots of the
    weights ride on e^{i f b_j}. Beside the table the call holds those two
    blocks and the exponentials, which go before the second dsyrk: a time
    Gram at K = 8 or 24 on the pi-square holds under two tables. Cross
    terms cancel on each node pair: sin(f x) has the Gram
    (sigma sigma') o CC + (kappa kappa') o SS, sigma = sin(f c) and
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
    lo, hi, panels = _panels(factor, f, ell, res)
    half, h = panels // 2, (hi - lo) / panels
    x, w = _gauss_legendre()
    # e^{i f a_p} on the right half's panel centres, and e^{i f b_j} on the in-panel offsets times the
    # square root of the pair weight h w_j: (h/2) w_j for node c + s and again for its mirror c - s
    ea = np.exp(1j * np.outer(f, (np.arange(half) + 0.5) * h))
    eb = np.exp(1j * np.outer(f, (h / 2.0) * x)) * np.sqrt(h * w)
    m = len(f)
    step = min(half, max(1, _FILL_BLOCK // (m * _GL_ORDER)))  # panels a block
    table = np.empty((m, half * _GL_ORDER))
    offsets = np.tile(eb, step)  # e^{i f b_j} for each node of a block, panel by panel

    def fill(part):  # the table part(e^{i f (a_p + b_j)}), cos or sin, a block of panels at a time
        for p0 in range(0, half, step):
            p1 = min(p0 + step, half)
            e = np.repeat(ea[:, p0:p1], _GL_ORDER, axis=1)  # contiguous operands: numpy buffers none
            e *= offsets[:, : e.shape[1]]
            np.copyto(table[:, p0 * _GL_ORDER : p1 * _GL_ORDER], part(e))

    fill(np.real)
    cc = _row_gram(table)
    fill(np.imag)
    del ea, eb, offsets  # the second dsyrk holds the table and CC alone
    ss = _row_gram(table)
    del table
    if kind == "exp":
        return np.stack([cc + ss, cc - ss])
    c = (lo + hi) / 2.0
    sigma, kappa = np.sin(f * c), np.cos(f * c)
    return np.outer(sigma, sigma) * cc + np.outer(kappa, kappa) * ss


@functools.lru_cache(maxsize=1)
def _sampled_blocks(spec: ObservationSpec, mode_set: ModeSet, res: int) -> tuple:
    """The GramForm of _gram_form on Gauss-Legendre samples and the most nodes on one axis, kept for the next call.

    An axis of a point, an edge or no factor is one node.
    """
    nodes = [1]

    def axis_gram(factor, ks, z, ell):
        if factor[0] not in ("ones", "point", "edge"):
            nodes.append(_GL_ORDER * _panels(factor, z * ks, ell, res)[2])
        return _sampled_axis_gram(factor, ks, z, ell, res)

    return _gram_form(spec, mode_set, axis_gram), max(nodes)


def _resolution(resolution) -> int:
    resolution = number(resolution, "resolution", integer=True)
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    return resolution


def quadrature_oracle(state, spec: ObservationSpec, resolution: int):
    """Composite Gauss-Legendre value of the observation integral, from pointwise samples.

    Runs the assembly of assemble_gram, the region's pieces and the Hadamard
    product of 1-D Grams, on Gauss-Legendre sums over pointwise samples of
    each axis profile, so it shares no closed form: the tensor-grid integral
    of the squared field. Each sampled axis (an interval of x1 or x2, or the
    time window) is cut into an even number of panels of 32 nodes, laid
    symmetrically about its centre: resolution (at least 64) is the floor on
    the nodes of an axis, and the panels are added until none spans more
    than _PANEL_RAD radians of the integrand's fastest frequency, twice the
    axis' largest frequency. These panels integrate every product of two
    profiles to about machine precision (L. N. Trefethen, "Is Gauss
    quadrature better than Clenshaw-Curtis?", SIAM Rev. 50 (2008) 67-87).
    quadrature_nodes gives the most nodes so placed on one axis. Its centred
    blocks share the closed Gram's centre angle, and GramForm.quadratic_form
    evaluates them: one state gives a float, a stack one value per row.
    Each axis Gram is sampled once per call, the time window's on the
    distinct frequencies, and kept for the next call on the same spec, so
    blocks of states share it.
    """
    spec.validate_geometry(state.mode_set.geometry)
    return _sampled_blocks(spec, state.mode_set, _resolution(resolution))[0].quadratic_form(state)


def quadrature_nodes(spec: ObservationSpec, mode_set: ModeSet, resolution: int) -> int:
    """The most Gauss-Legendre nodes quadrature_oracle places on one axis of spec at this resolution.

    The axes are sampled as quadrature_oracle samples them, and kept for its
    next call on the same spec; after such a call this is a lookup.
    """
    spec.validate_geometry(mode_set.geometry)
    return _sampled_blocks(spec, mode_set, _resolution(resolution))[1]


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
