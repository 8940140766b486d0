"""Gram forms versus the Gauss-Legendre oracle, kernels, regions, serialization."""

import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import (
    BoundaryEdgeBottom,
    BoundaryEdgeLeft,
    BoundaryGamma0,
    CrossStrips,
    EnergyWeight,
    GramForm,
    HorizontalLine,
    HorizontalStrip,
    ObservationSpec,
    OpenRect,
    RectangleGeometry,
    SpectralState,
    THEOREM_IDS,
    VerticalLine,
    VerticalSegments,
    VerticalStrip,
    assemble_gram,
    build_mode_set,
    pencil,
    quadrature_oracle,
    random_state,
    random_states,
    sine_overlap,
    theorem_symmetries,
    thm21_fourfamily_form,
    time_kernel,
)
from obslab import observation
from obslab.observation import region_from_dict, region_to_dict
from conftest import peak_bytes
from gram_reference import (
    _interval_kernel,
    dense_gram,
    gauss_grid,
    sampled_exp_sums,
    sampled_sine_sum,
    spatial_sum,
    stacked_doubled_forms,
)

SEGS = VerticalSegments(((math.pi * (math.sqrt(2) - 1), (1.0, 2.0)), (math.pi / 3, (0.5, 2.5))))


def _spec(region, T=2.0):
    if isinstance(region, (VerticalSegments, OpenRect)):
        return ObservationSpec(region, "displacement", T, "plate")
    if isinstance(region, (BoundaryEdgeBottom, BoundaryEdgeLeft, BoundaryGamma0)):
        return ObservationSpec(region, "normal_derivative", T, "wave")
    return ObservationSpec(region, "velocity", T, "wave")


ALL_REGIONS = [
    SEGS,
    BoundaryGamma0(),
    BoundaryEdgeBottom(),
    BoundaryEdgeLeft(),
    VerticalStrip(1.0, 2.0),
    HorizontalStrip(1.0, 2.0),
    CrossStrips(1.0, 2.0, 1.0, 2.0),
    VerticalLine(math.pi / 2),
    HorizontalLine(math.pi / 2),
    OpenRect(0.0, 1.0, 0.5, 1.5),
]


# ---------------------------------------------------------------------------
# kernels


def test_time_kernel_equal_frequencies():
    assert time_kernel(3.7, 3.7, 5.0) == 5.0 + 0.0j


def test_time_kernel_full_period_vanishes():
    t = 4.0
    assert abs(time_kernel(2 * math.pi / t, 0.0, t)) <= 1e-15


def test_time_kernel_quarter_turn():
    v = time_kernel(1.0, 0.0, math.pi)
    assert v == pytest.approx(2.0j, abs=1e-15)


def test_time_kernel_rejects_bad_horizon():
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            time_kernel(1.0, 0.0, T)


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=50.0),
)
def test_time_kernel_bounded_and_conjugate(w1, w2, T):
    v = time_kernel(w1, w2, T)
    assert abs(v) <= T * (1 + 1e-12)
    assert time_kernel(w2, w1, T) == v.conjugate()


def _kernel_cases(rng):
    """(delta, lo, hi) with delta = 0, |delta| <= 1e-6, and |delta| up to 2300."""
    deltas = np.concatenate(
        [
            np.zeros(10),
            rng.choice([-1.0, 1.0], 120) * 10.0 ** rng.uniform(-12, -6, 120),
            rng.uniform(-5.0, 5.0, 120),
            rng.choice([-1.0, 1.0], 150) * rng.uniform(5.0, 2300.0, 150),
        ]
    )
    lo = np.where(rng.random(deltas.size) < 0.5, 0.0, rng.uniform(-10.0, 40.0, deltas.size))
    hi = lo + rng.uniform(0.01, 48.0, deltas.size)
    return deltas, lo, hi


def test_interval_kernel_matches_mpmath():
    from mpmath import expj, mp, mpf

    deltas, los, his = _kernel_cases(np.random.default_rng(20130821))
    with mp.workdps(40):
        for delta, lo, hi in zip(deltas, los, his):
            d, a, b = mpf(float(delta)), mpf(float(lo)), mpf(float(hi))
            exact = b - a if d == 0 else (expj(d * b) - expj(d * a)) / (1j * d)
            value = complex(_interval_kernel(delta, lo, hi))
            err = abs(mp.mpc(value) - exact)
            assert err <= 2e-15 * max(abs(lo), abs(hi)), (delta, lo, hi, float(err))
            assert complex(_interval_kernel(-delta, lo, hi)) == value.conjugate()


def test_sine_overlap_orthogonality():
    assert sine_overlap(1, 1, (0.0, math.pi), 1.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert abs(sine_overlap(1, 2, (0.0, math.pi), 1.0)) <= 1e-15
    assert sine_overlap(2, 2, (0.0, math.pi / 2), 2.0) == pytest.approx(math.pi / 4, rel=1e-14)


def test_sine_overlap_subinterval_value():
    v = sine_overlap(3, 3, (math.pi / 4, 3 * math.pi / 4), 1.0)
    assert v == pytest.approx(math.pi / 4 - 1.0 / 6.0, rel=1e-14)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=1.5),
)
@settings(max_examples=60)
def test_sine_overlap_symmetric(k, kp, lo, width):
    iv = (lo, lo + width)
    assert sine_overlap(k, kp, iv, 1.0) == sine_overlap(kp, k, iv, 1.0)


def test_sine_overlap_rejects_bad_indices():
    with pytest.raises(ValueError):
        sine_overlap(0, 1, (0.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# spec construction and validation


def test_pairing_rules():
    with pytest.raises(ValueError):
        ObservationSpec(VerticalStrip(1.0, 2.0), "displacement", 1.0, "plate")
    with pytest.raises(ValueError):
        ObservationSpec(SEGS, "displacement", 1.0, "wave")
    with pytest.raises(ValueError):
        ObservationSpec(BoundaryGamma0(), "velocity", 1.0, "wave")
    with pytest.raises(ValueError):
        ObservationSpec(VerticalLine(1.0), "velocity", 1.0, "plate")
    with pytest.raises(ValueError):
        ObservationSpec(VerticalLine(1.0), "speed", 1.0, "wave")
    with pytest.raises(ValueError):
        ObservationSpec(VerticalLine(1.0), "velocity", -1.0, "wave")
    with pytest.raises(ValueError):
        ObservationSpec(VerticalLine(1.0), "velocity", math.inf, "wave")


@pytest.mark.parametrize("T", [None, "2.0", [2.0]], ids=["missing", "text", "list"])
def test_a_missing_or_non_real_horizon_is_named(T):
    # not a TypeError from comparing None or a string with 0
    d = ObservationSpec(VerticalLine(1.0), "velocity", 2.0, "wave").to_dict()
    if T is None:
        del d["T"]
    else:
        d["T"] = T
    with pytest.raises(ValueError, match=f"^T must be a finite real number, got {re.escape(repr(T))}$"):
        ObservationSpec.from_dict(d)


def test_region_construction_rejects_degenerate():
    cases = [
        (VerticalStrip, (2.0, 1.0)),
        (HorizontalStrip, (1.0, 1.0)),
        (CrossStrips, (1.0, 2.0, 2.0, 1.0)),
        (OpenRect, (0.0, 0.0, 0.0, 1.0)),
        (OpenRect, (0.0, 1.0, 1.0, 1.0)),
        (VerticalSegments, (((1.0, (0.5, 1.0)), (2.0, (2.0, 1.0))),)),
    ]
    for kind, args in cases:
        with pytest.raises(ValueError, match=f"^{kind.__name__} intervals must be nondegenerate$"):
            kind(*args)
    with pytest.raises(ValueError, match="^need at least one segment$"):
        VerticalSegments(())


def test_region_construction_rejects_non_finite():
    # a nan end is reported as not finite, named by its field, before the order of the ends is read
    cases = [
        (VerticalLine, (math.inf,)),
        (HorizontalLine, (math.nan,)),
        (VerticalStrip, (1.0, math.inf)),
        (CrossStrips, (1.0, 2.0, math.nan, 1.0)),
        (OpenRect, (0.0, math.inf, 0.5, 1.5)),
        (VerticalSegments, (((1.0, (0.5, math.inf)),),)),
        (VerticalSegments, (((math.nan, (0.5, 1.0)),),)),
    ]
    for kind, args in cases:
        with pytest.raises(ValueError, match=f"^{kind.__name__}\\.\\w+ must be a finite real number, got (inf|nan)$"):
            kind(*args)


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_region_dict_round_trip(region):
    d = json.loads(json.dumps(region_to_dict(region)))
    assert d["kind"] == type(region).__name__
    assert region_from_dict(d) == region


def test_geometry_validation(square, modes4):
    bad = ObservationSpec(VerticalStrip(2.5, 3.5), "velocity", 1.0, "wave")
    with pytest.raises(ValueError):
        assemble_gram(bad, modes4)
    bad2 = ObservationSpec(OpenRect(0.0, 1.0, 0.5, 3.5), "displacement", 1.0, "plate")
    with pytest.raises(ValueError):
        assemble_gram(bad2, modes4)
    with pytest.raises(ValueError):
        quadrature_oracle(random_state(modes4, 0), bad, 64)
    outside = (VerticalLine(3.5), HorizontalLine(-0.1), VerticalSegments(((1.0, (0.5, 3.5)),)))
    for region in outside:
        with pytest.raises(ValueError):
            assemble_gram(_spec(region), modes4)


# ---------------------------------------------------------------------------
# Gram structure


def test_single_mode_line_observation(square):
    ms = build_mode_set(square, 1, 1)
    a = np.array([1.0 + 0.0j])
    state = SpectralState(ms, a, np.zeros(1, dtype=complex))
    t = 3.0
    g = assemble_gram(_spec(VerticalLine(math.pi / 2), T=t), ms)
    # |i sqrt(2) e^{i w t}|^2 sin^2(pi/2) integrated over (0,T)x(0,pi)
    assert g.quadratic_form(state) == pytest.approx(2.0 * t * math.pi / 2, rel=1e-12)


def test_zero_state_observed_as_zero(modes4):
    z = np.zeros(len(modes4), dtype=complex)
    state = SpectralState(modes4, z, z)
    for region in ALL_REGIONS:
        g = assemble_gram(_spec(region), modes4)
        assert g.quadratic_form(state) == 0.0


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_gram_hermitian_bitwise_and_psd(modes4, region):
    g = dense_gram(assemble_gram(_spec(region), modes4))
    assert np.array_equal(g, g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-9 * max(1.0, eigs.max())


def _inside(data, ell):
    """An interval strictly inside (0, ell)."""
    lo = data.draw(st.floats(min_value=0.01, max_value=0.9)) * ell
    return lo, lo + data.draw(st.floats(min_value=0.01, max_value=0.98)) * (ell - lo)


def _random_region(data, kind, ell1, ell2):
    point = st.floats(min_value=0.01, max_value=0.99)
    if kind is VerticalSegments:
        n = data.draw(st.integers(min_value=1, max_value=3))
        segments = tuple((data.draw(point) * ell1, _inside(data, ell2)) for _ in range(n))
        return VerticalSegments(segments)
    if kind in (VerticalStrip, HorizontalStrip):
        return kind(*_inside(data, ell1 if kind is VerticalStrip else ell2))
    if kind is CrossStrips:
        return CrossStrips(*_inside(data, ell1), *_inside(data, ell2))
    if kind in (VerticalLine, HorizontalLine):
        return kind(data.draw(point) * (ell1 if kind is VerticalLine else ell2))
    if kind is OpenRect:
        t0 = data.draw(st.floats(min_value=-5.0, max_value=20.0))
        t1 = t0 + data.draw(st.floats(min_value=0.1, max_value=10.0))
        return OpenRect(t0, t1, *_inside(data, ell2))
    return kind()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_closed_gram_sector_identity(data):
    kind = data.draw(st.sampled_from([type(r) for r in ALL_REGIONS]))
    ell1, ell2 = (data.draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(2))
    K1, K2 = (data.draw(st.integers(min_value=1, max_value=6)) for _ in range(2))
    ms = build_mode_set(RectangleGeometry(ell1, ell2), K1, K2)
    T = data.draw(st.floats(min_value=0.1, max_value=30.0))
    spec = _spec(_random_region(data, kind, ell1, ell2), T)
    gram = assemble_gram(spec, ms)
    g = dense_gram(gram)
    x, y, angle = gram.centred

    # the real centred matrix is [[X, Y], [Y, X]] with X and Y real and symmetric
    assert x.dtype == y.dtype == np.float64
    assert np.array_equal(x, x.T) and np.array_equal(y, y.T)
    m = np.block([[x, y], [y, x]])
    p = np.exp(1j * np.concatenate([angle, -angle]))
    assert np.max(np.abs(g - p.conj()[:, None] * m * p[None, :])) <= 1e-15 * np.max(np.abs(g))
    assert np.array_equal(g, g.conj().T)

    # its spectrum is that of the even sector X + Y and the odd sector X - Y
    weight = EnergyWeight(1.0, "wave") if spec.model == "wave" else EnergyWeight(0.0, "plate")
    r = 1.0 / np.sqrt(weight.diagonal(ms))
    rr = np.outer(r, r)
    sectors = np.sort(np.concatenate([np.linalg.eigvalsh((x + s * y) * rr) for s in (1.0, -1.0)]))
    doubled = np.linalg.eigvalsh(g * np.outer(np.tile(r, 2), np.tile(r, 2)))
    assert np.max(np.abs(sectors - doubled)) <= 1e-12 * max(doubled[-1], 1e-300)


def _theorem_masks(ms, p, q):
    """The admissible-mode mask of each theorem, for symmetry orders p (x1) and q (x2)."""
    g = ms.geometry
    # lines at the anchors pi/p and pi/q of the pi-scaled coordinates
    vline, hline, edge = VerticalLine(g.ell1 / p), HorizontalLine(g.ell2 / q), BoundaryEdgeBottom()
    compositions = {
        "two_strips": (CrossStrips(1.0, 2.0, 1.0, 2.0),),
        "strip_plus_edge": (VerticalStrip(1.0, 2.0), edge),
        "line_plus_strip": (vline, HorizontalStrip(1.0, 2.0)),
        "line_plus_edge": (vline, edge),
        "two_lines": (vline, hline),
    }
    assert set(compositions) == set(THEOREM_IDS)
    masks = []
    for theorem, regions in compositions.items():
        specs = [_spec(region) for region in regions]
        mask = np.ones(len(ms), dtype=bool)
        for sym in theorem_symmetries(theorem, specs, {"p": p, "q": q}, g):
            mask &= (ms.k1 if sym.axis == "x1" else ms.k2) % sym.p != 0
        masks.append(mask)
    return masks


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pencil_matches_the_dense_complex_pencil(data):
    ell1, ell2 = (data.draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(2))
    K1, K2 = (data.draw(st.integers(min_value=1, max_value=6)) for _ in range(2))
    ms = build_mode_set(RectangleGeometry(ell1, ell2), K1, K2)
    composite = data.draw(st.sampled_from(["one region", "OpenRect windows", "VerticalStrip T=2,4"]))
    if composite == "one region":  # one window centre: the even and odd n x n sectors
        kind = data.draw(st.sampled_from([type(r) for r in ALL_REGIONS]))
        T = data.draw(st.floats(min_value=0.1, max_value=30.0))
        specs = [_spec(_random_region(data, kind, ell1, ell2), T)]
    elif composite == "OpenRect windows":  # two centres: one real 2n x 2n sector
        specs = [_spec(_random_region(data, OpenRect, ell1, ell2)) for _ in range(2)]
    else:
        strip = _random_region(data, VerticalStrip, ell1, ell2)
        specs = [_spec(strip, T) for T in (2.0, 4.0)]
    weight = EnergyWeight(1.0, "wave") if specs[0].model == "wave" else EnergyWeight(0.0, "plate")
    grams = [assemble_gram(s, ms) for s in specs]
    g = sum(dense_gram(gram) for gram in grams)
    r = np.tile(1.0 / np.sqrt(weight.diagonal(ms)), 2)
    dense = g * np.outer(r, r)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coeffs = rng.standard_normal((3, 2 * len(ms))) + 1j * rng.standard_normal((3, 2 * len(ms)))

    # the form from the centred blocks, per piece, on each row and on the stack at once
    for gram in grams:
        rows = gram.quadratic_form(coeffs)
        assert rows.shape == (len(coeffs),)
        m = dense_gram(gram)
        for c, row in zip(coeffs, rows):
            want = np.real(np.vdot(c, m @ c))
            assert gram.quadratic_form(c) == pytest.approx(want, rel=1e-13, abs=0.0)
            assert row == pytest.approx(want, rel=1e-13, abs=0.0)

    p, q = (data.draw(st.sampled_from([2, 3])) for _ in range(2))
    for mask in [None] + _theorem_masks(ms, p, q):
        pen = pencil(specs, weight, ms, mask)
        keep = np.ones(2 * len(ms), dtype=bool) if mask is None else np.tile(mask, 2)
        c = coeffs * keep
        want = np.array([np.real(np.vdot(row, g @ row)) for row in c])
        assert np.allclose(pen.quadratic_forms(c), want, rtol=1e-13, atol=0.0)
        evals = np.linalg.eigvalsh(dense[np.ix_(keep, keep)])
        assert abs(pen.lowest() - evals[0]) <= 1e-12 * evals[-1]


@pytest.mark.parametrize("rows", [(), (0,), (1,), (7,), (300,)], ids=["1-D", "0 rows", "1 row", "7 rows", "300 rows"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_doubled_forms_keep_the_bits_of_the_stacked_rule(kind, rows):
    # the two-buffer rule adds (re1 + im1) + (re2 + im2) + 2 (B part) as the stacked one did, so the
    # certificate, GramForm and the oracle keep their bits; the strict lower triangles are not read
    n, rng = 64, np.random.default_rng(11)

    def draw(shape, complex_):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    a, b = draw((n, n), kind == "complex"), draw((n, n), kind == "complex")
    for block in (a, b):
        block[np.tril_indices(n, -1)] = np.nan
    r1, r2 = draw((*rows, n), True), draw((*rows, n), True)
    got, want = observation._doubled_forms(a, b, r1, r2), stacked_doubled_forms(a, b, r1, r2)
    assert type(got) is type(want) and np.shape(got) == rows
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_observation_nonnegative_on_random_states(modes6):
    for region in ALL_REGIONS:
        g = assemble_gram(_spec(region), modes6)
        for seed in range(3):
            assert g.quadratic_form(random_state(modes6, seed)) >= -1e-10


@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=25, deadline=None)
def test_gamma0_is_sum_of_edges(T, ell1, ell2):
    ms = build_mode_set(RectangleGeometry(ell1, ell2), 6, 5)
    g0 = dense_gram(assemble_gram(_spec(BoundaryGamma0(), T), ms))
    gl = dense_gram(assemble_gram(_spec(BoundaryEdgeLeft(), T), ms))
    gb = dense_gram(assemble_gram(_spec(BoundaryEdgeBottom(), T), ms))
    assert np.allclose(g0, gl + gb, rtol=1e-13, atol=0.0)


# (alpha, (lo, hi)) strictly inside the pi-square; intervals at most 1 long keep
# each segment's Gram entries at most 1 in size (T = 2), so rounding stays under
# the 1e-15 absolute floor
SEGMENT = st.tuples(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
).map(lambda s: (s[0], (s[1], s[1] + s[2])))


@given(st.lists(SEGMENT, min_size=1, max_size=3), st.lists(SEGMENT, min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_segments_additive(modes4, first, second):
    s1 = VerticalSegments(tuple(first))
    s2 = VerticalSegments(tuple(second))
    both = VerticalSegments(s1.segments + s2.segments)
    g1 = dense_gram(assemble_gram(_spec(s1), modes4))
    g2 = dense_gram(assemble_gram(_spec(s2), modes4))
    gb = dense_gram(assemble_gram(_spec(both), modes4))
    assert np.allclose(gb, g1 + g2, rtol=1e-12, atol=1e-15)


def test_cross_strips_bounded_by_parts(modes6):
    cross = CrossStrips(1.0, 2.0, 0.8, 1.9)
    gc = assemble_gram(_spec(cross), modes6)
    gv = assemble_gram(_spec(cross.vertical), modes6)
    gh = assemble_gram(_spec(cross.horizontal), modes6)
    for seed in range(5):
        state = random_state(modes6, seed)
        qc = gc.quadratic_form(state)
        qv = gv.quadratic_form(state)
        qh = gh.quadratic_form(state)
        # the union contains each strip and is contained in their sum
        assert qc >= max(qv, qh) - 1e-10 * (1 + abs(qc))
        assert qc <= qv + qh + 1e-10 * (1 + abs(qc))


def test_longer_horizon_observes_more(modes4):
    region = VerticalStrip(1.0, 2.0)
    g1 = dense_gram(assemble_gram(_spec(region, T=1.5), modes4))
    g2 = dense_gram(assemble_gram(_spec(region, T=3.0), modes4))
    eigs = np.linalg.eigvalsh(g2 - g1)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_gram_form_rejects_bad_blocks(modes4):
    n, spec = len(modes4), _spec(VerticalStrip(1.0, 2.0))
    sym, angle = np.eye(n), np.zeros(n)
    skew = np.eye(n)
    skew[0, 1] = 1.0
    bad = [
        (skew, sym, angle),  # X not symmetric
        (sym, skew, angle),  # Y not symmetric
        (np.eye(n + 1), sym, angle),
        (sym, np.eye(n - 1), angle),
        (sym, sym, np.zeros(n + 1)),
        (sym, sym, np.zeros((n, 1))),
    ]
    for x, y, a in bad:
        with pytest.raises(ValueError, match="centred blocks"):
            GramForm(modes4, spec, x, y, a)
    good = GramForm(modes4, spec, sym, sym, angle)
    assert all(not part.flags.writeable for part in good.centred)


def test_quadratic_form_rejects_coefficients_of_the_wrong_length(modes4):
    gram = assemble_gram(_spec(VerticalStrip(1.0, 2.0)), modes4)
    n = len(modes4)
    for size in (n, 2 * n + 1):
        with pytest.raises(ValueError, match=f"shape \\({2 * n},\\)"):
            gram.quadratic_form(np.ones(size))


def test_gram_equality_and_hash(modes4):
    spec = _spec(CrossStrips(1.0, 2.0, 1.0, 2.0))
    first, again = assemble_gram(spec, modes4), assemble_gram(spec, modes4)
    assert first == again and hash(first) == hash(again)
    assert len({first, again}) == 1
    assert first != assemble_gram(_spec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=3.0), modes4)
    assert first != assemble_gram(_spec(CrossStrips(1.0, 2.5, 1.0, 2.0)), modes4)
    assert first != assemble_gram(_spec(VerticalStrip(1.0, 2.0)), modes4)
    # the hash reads the contents, so they stay fixed
    for name in ("spec", "centred", "x"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)


# ---------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_oracle_matches_gram(square, region):
    ms = build_mode_set(square, 4, 4)
    spec = _spec(region)
    g = assemble_gram(spec, ms)
    state = random_state(ms, 31, decay=0.5)
    exact = g.quadratic_form(state)
    approx = quadrature_oracle(state, spec, 512)
    assert exact > 0
    assert abs(approx - exact) <= 1e-12 * exact


def _gauss(lo, hi, freqs, res):
    """Every node of the oracle's Gauss-Legendre panels on (lo, hi) for these frequencies, and its weight.

    The panel count is the oracle's own (observation._panels); the nodes and
    weights are numpy's (gram_reference.gauss_grid).
    """
    return gauss_grid(lo, hi, observation._panels(("interval", lo, hi), np.abs(freqs), None, res)[2])


def _dense_oracle(state, spec, res):
    """Gauss-Legendre sum of |field|^2 on the full (t, x1, x2) tensor grid of each box.

    The reference for the factorised oracle: each region's boxes are written
    out here, and the field itself is sampled and squared, so neither the
    region pieces nor the Hadamard product of 1-D Grams is used. An axis is
    every node of the oracle's panels on it, or one node of unit weight (a
    point, an edge derivative, or no axis at all); profiles are rows over the
    doubled index.
    """
    ms = state.mode_set
    geo = ms.geometry
    sign = np.repeat([1.0, -1.0], len(ms))
    k1, k2, lam = (np.tile(getattr(ms, a), 2) for a in ("k1", "k2", "lam"))
    w = sign * (np.sqrt(lam) if spec.model == "wave" else lam)
    amp = 1j * w if spec.field == "velocity" else np.ones(len(w))
    z1, z2 = math.pi / geo.ell1, math.pi / geo.ell2

    def sines(kz, lo, hi):
        x, wx = _gauss(lo, hi, kz, res)
        return np.sin(np.outer(kz, x)), wx

    def node(values):
        return values[:, None], np.ones(1)

    all1, all2 = sines(z1 * k1, 0.0, geo.ell1), sines(z2 * k2, 0.0, geo.ell2)
    r = spec.region
    window = (0.0, spec.T)
    if isinstance(r, VerticalSegments):
        boxes = [
            (1, node(np.sin(z1 * k1 * a)), sines(z2 * k2, lo, hi)) for a, (lo, hi) in r.segments
        ]
    elif isinstance(r, BoundaryEdgeBottom):
        boxes = [(1, all1, node(z2 * k2))]
    elif isinstance(r, BoundaryEdgeLeft):
        boxes = [(1, node(z1 * k1), all2)]
    elif isinstance(r, BoundaryGamma0):
        boxes = [(1, node(z1 * k1), all2), (1, all1, node(z2 * k2))]
    elif isinstance(r, VerticalStrip):
        boxes = [(1, sines(z1 * k1, r.a, r.b), all2)]
    elif isinstance(r, HorizontalStrip):
        boxes = [(1, all1, sines(z2 * k2, r.c, r.d))]
    elif isinstance(r, CrossStrips):
        ab, cd = sines(z1 * k1, r.a, r.b), sines(z2 * k2, r.c, r.d)
        boxes = [(1, ab, all2), (1, all1, cd), (-1, ab, cd)]
    elif isinstance(r, VerticalLine):
        boxes = [(1, node(np.sin(z1 * k1 * r.alpha)), all2)]
    elif isinstance(r, HorizontalLine):
        boxes = [(1, all1, node(np.sin(z2 * k2 * r.beta)))]
    else:  # OpenRect: e^{i (w t + sign z2 k2 x2)} on its own window, constant in x1
        window = (r.t0, r.t1)
        x, wx = _gauss(r.x0, r.x1, z2 * k2, res)
        boxes = [(1, node(np.ones(len(w))), (np.exp(1j * np.outer(sign * z2 * k2, x)), wx))]
    t, wt = _gauss(*window, w, res)
    coeffs = np.exp(1j * np.outer(t, w)) * (state.doubled() * amp)
    total = 0.0
    for s, (p1, w1), (p2, w2) in boxes:
        field = np.einsum("ti,ia,ib->tab", coeffs, p1, p2, optimize=True)
        total += s * np.einsum("t,a,b,tab->", wt, w1, w2, np.abs(field) ** 2, optimize=True)
    return total


# the pi-square repeats frequencies (k1, k2 and k2, k1 share one); 3.4 x 2.8 has none
GEOMETRIES = {"": RectangleGeometry(3.4, 2.8), "-square": RectangleGeometry(math.pi, math.pi)}
REGION_GEOMETRIES = [
    pytest.param(r, g, id=type(r).__name__ + tag) for tag, g in GEOMETRIES.items() for r in ALL_REGIONS
]


@pytest.mark.parametrize("region,geometry", REGION_GEOMETRIES)
def test_oracle_matches_dense_reference(region, geometry):
    ms = build_mode_set(geometry, 4, 4)
    spec = _spec(region)
    state = random_state(ms, 5)
    dense = _dense_oracle(state, spec, 128)
    assert dense > 0
    assert quadrature_oracle(state, spec, 128) == pytest.approx(dense, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("region,geometry", REGION_GEOMETRIES)
def test_oracle_rows_of_a_stack_match_one_state_calls(region, geometry):
    ms = build_mode_set(geometry, 4, 4)
    spec = _spec(region)
    for size in (1, 3, 257):
        stack = random_states(ms, range(size), decay=0.5)
        rows = quadrature_oracle(stack, spec, 128)
        assert rows.shape == (size,)
        for i, want in enumerate(rows):
            one = quadrature_oracle(SpectralState(ms, stack.a[i], stack.b[i]), spec, 128)
            assert isinstance(one, float)
            assert one == pytest.approx(want, rel=1e-13, abs=0.0)


def test_a_stack_of_no_states_gives_no_forms(modes4):
    # random_states(ms, []) is a stack of no rows; the forms' symmetric products give no rows
    spec = _spec(CrossStrips(1.0, 2.0, 1.0, 2.0))
    stack = random_states(modes4, [])
    gram = assemble_gram(spec, modes4)
    for forms in (gram.quadratic_form(stack.doubled()), quadrature_oracle(stack, spec, 64)):
        assert forms.shape == (0,) and forms.dtype == float


def _direct_centred(spec, ms):
    """The centred blocks from the time Gram on every mode's own frequency and the gathered spatial sum.

    _gram_rows folds repeated frequencies before the time Gram and forms the
    spatial sum from Kronecker rows; this build does neither, and every
    product being elementwise, the bytes must agree.
    """
    w = np.sqrt(ms.lam) if spec.model == "wave" else ms.lam
    window = spec.region.pieces(spec.T)[0]
    kt = observation._closed_axis_gram(("exp", *window), w, 1.0, None)
    x, y = kt * spatial_sum(spec, ms)
    if spec.field == "velocity":
        x, y = x * np.outer(w, w), y * -np.outer(w, w)
    return x, y


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_closed_gram_bytes_do_not_depend_on_folding_repeated_frequencies(region):
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), 6, 6)
    spec = _spec(region, T=3.7)
    w = np.sqrt(ms.lam) if spec.model == "wave" else ms.lam
    assert len(np.unique(w)) < len(w)
    x, y, _ = assemble_gram(spec, ms).centred
    want_x, want_y = _direct_centred(spec, ms)
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("K1, K2", [(7, 5), (5, 7)])
@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_kronecker_rows_are_the_gathered_spatial_sum_to_the_bit(region, K1, K2):
    # K1 != K2 on a non-square rectangle, so that a slip in the (k2, k1) ordering cannot hide
    ms = build_mode_set(RectangleGeometry(math.pi, 2.7), K1, K2)
    x, y, _ = assemble_gram(_spec(region, T=3.7), ms).centred
    want_x, want_y = _direct_centred(_spec(region, T=3.7), ms)
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()


def test_gram_rows_hold_no_n_by_n_temporary():
    # CrossStrips reads four factors in three terms; the rows of X and Y are drawn and dropped, and
    # the time Gram on the 254 distinct frequencies and the rows in flight stay below one n x n array
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), 24, 24)
    spec = _spec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=48.0)
    n = len(ms)
    rows = []
    peak = peak_bytes(lambda: rows.extend(x.shape[0] for _, x, _ in observation._gram_rows(spec, ms)))
    assert sum(rows) == n
    assert peak <= n * n * 8


def _exp_profile(case):
    """(ks, z, lo, hi) of an exp profile the oracle samples: a time window, or OpenRect's x2 profile."""
    if case == "OpenRect x2":
        geometry = RectangleGeometry(3.4, 2.8)
        return np.arange(1, 9), math.pi / geometry.ell2, 0.5, 1.5
    ell1, ell2 = {"time, pi-square": (math.pi, math.pi), "time, 3.4 x 2.8": (3.4, 2.8)}[case]
    ms = build_mode_set(RectangleGeometry(ell1, ell2), 8, 8)
    return np.unique(np.sqrt(ms.lam)), 1.0, 0.0, 9.5


def _panels(factor, ks, z, ell, res):
    return observation._panels(factor, z * ks, ell, res)[2]


# 2048 nodes lay 32 panels on each half of the interval, 2050 round up to 33
@pytest.mark.parametrize("case", ["time, pi-square", "time, 3.4 x 2.8", "OpenRect x2"])
def test_sampled_exp_gram_is_hermitian_and_the_dense_gauss_legendre_sums(case):
    # the real centred blocks, symmetric to the bit, give a Hermitian a-a and a symmetric a-b block
    ks, z, lo, hi = _exp_profile(case)
    p = np.exp(1j * (z * ks) * ((lo + hi) / 2.0))  # the phase about the centre, as _centre_angle takes it
    for res in (2048, 2050):
        x, y = observation._sampled_axis_gram(("exp", lo, hi), ks, z, None, res)
        assert x.dtype == y.dtype == float
        assert np.array_equal(x, x.T) and np.array_equal(y, y.T)
        phased = (p.conj()[:, None] * p * x, p.conj()[:, None] * p.conj() * y)
        panels = _panels(("exp", lo, hi), ks, z, None, res)
        for got, want in zip(phased, sampled_exp_sums(ks, z, lo, hi, panels)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("factor", [("interval", 0.4, 1.9), ("full",)], ids=["interval", "full"])
def test_sampled_sine_gram_is_symmetric_and_the_dense_gauss_legendre_sum(factor):
    ks, ell = np.arange(1, 13), 2.8
    z = math.pi / ell
    for res in (2048, 2050):
        gram = observation._sampled_axis_gram(factor, ks, z, ell, res)
        assert np.array_equal(gram, gram.T)
        want = sampled_sine_sum(ks, z, *(factor[1:] or (0.0, ell)), _panels(factor, ks, z, ell, res))
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("factor", [("point", 1.3), ("edge",)])
def test_sampled_one_node_gram_is_the_outer_product_of_its_samples(factor):
    ks, z = np.arange(1, 9), math.pi / 2.8
    p = np.sin(np.outer(z * ks, factor[1:])) if factor[0] == "point" else (z * ks)[:, None]
    gram = observation._sampled_axis_gram(factor, ks, z, 2.8, 64)
    assert gram.tobytes() == np.outer(p, p).tobytes()


@pytest.mark.parametrize("K", [8, 24])
def test_sampled_time_gram_holds_at_most_two_real_tables(K):
    # the cos and the sin table on the 1024 nodes c + s of the right half are filled in turn into one
    # buffer, a block of panels at a time, and go to BLAS uncopied
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), K, K)
    distinct = np.unique(np.sqrt(ms.lam))
    assert _panels(("exp", 0.0, 4.0), distinct, 1.0, None, 2048) == 64  # the resolution sets the nodes
    observation._sampled_axis_gram(("exp", 0.0, 4.0), distinct, 1.0, None, 2048)  # scipy.linalg loads on the first
    peak = peak_bytes(lambda: observation._sampled_axis_gram(("exp", 0.0, 4.0), distinct, 1.0, None, 2048))
    assert peak <= 2 * len(distinct) * 1024 * 8


def test_oracle_resolution_validation(modes4):
    state = random_state(modes4, 0)
    spec = _spec(VerticalLine(1.0))
    with pytest.raises(ValueError):
        quadrature_oracle(state, spec, 32)
    assert quadrature_oracle(state, spec, 65) == quadrature_oracle(state, spec, 66)


def test_gauss_legendre_nodes_are_numpys_and_the_40_digit_ones():
    # Newton on the three-term recurrence in elementwise numpy, against numpy's leggauss (whose nodes
    # come from numpy.linalg, which the package never calls) and against 40 digits. Each node is
    # checked in its own ulps; a weight in the ulps of 1, their scale, since leggauss's own end
    # weights, near 0.0035, sit 470 of their ulps (1.8 ulps of 1) from the 40-digit values
    x, w = observation._gauss_legendre()
    assert observation._gauss_legendre() is observation._gauss_legendre()  # computed once
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]) and np.all(np.diff(x) > 0)
    want_x, want_w = np.polynomial.legendre.leggauss(32)
    assert np.all(np.abs(x - want_x) <= 2 * np.spacing(np.abs(want_x)))
    assert np.all(np.abs(w - want_w) <= 2 * np.spacing(1.0))

    def legendre(t):  # P_32(t) and P_31(t)
        p0, p1 = mpmath.mpf(1), t
        for k in range(1, 32):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        return p1, p0

    with mpmath.workdps(40):
        for xi, wi in zip(x, w):
            t = mpmath.mpf(float(xi))
            for _ in range(3):
                p, q = legendre(t)
                t -= p / (32 * (t * p - q) / (t * t - 1))
            p, q = legendre(t)
            exact_w = 2 / ((1 - t * t) * (32 * (t * p - q) / (t * t - 1)) ** 2)
            assert abs(xi - float(t)) <= np.spacing(abs(float(t)))
            assert abs(wi - float(exact_w)) <= np.spacing(1.0)


def test_oracle_converges_exponentially_in_the_panel_count(monkeypatch):
    # with the sizing rule off, 64 nodes a panel pair: frequencies up to 50 on (0, 4) put up to 400
    # radians of the integrand's fastest frequency on the axis, 200 on each of 2 panels. A rule of
    # fourth order would gain 16, 5 and 3 from 2 to 4, 6 and 8 panels; these panels gain ever more
    monkeypatch.setattr(observation, "_PANEL_RAD", math.inf)
    ks = np.arange(1, 51)
    exact = observation._closed_axis_gram(("exp", 0.0, 4.0), ks, 1.0, None)
    errors = []
    for panels in (2, 4, 6, 8):
        assert _panels(("exp", 0.0, 4.0), ks, 1.0, None, 32 * panels) == panels
        got = observation._sampled_axis_gram(("exp", 0.0, 4.0), ks, 1.0, None, 32 * panels)
        errors.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    assert errors[0] > 1e-2
    assert errors[0] / errors[1] > 1e3 and errors[1] / errors[2] > 1e8
    assert errors[3] <= 1e-14


def test_oracle_panels_keep_every_panel_below_the_radian_cap():
    # the resolution is a floor on the nodes; the panels grow with the fastest frequency and the length
    assert observation._panels(("interval", 1.0, 2.0), np.array([1.0, 3.0]), None, 64)[2] == 2
    assert observation._panels(("interval", 1.0, 2.0), np.array([1.0, 3.0]), None, 65)[2] == 4
    assert observation._panels(("full",), np.array([3.0]), 2.5, 64)[2:] == (2,)
    for f_max, length, res in [(1350.0, 2.0, 256), (33.9, 48.0, 256), (7.0, 3.0, 2048), (500.0, 0.7, 64)]:
        lo, hi, panels = observation._panels(("interval", 1.0, 1.0 + length), np.array([f_max / 2, f_max]), None, res)
        assert panels % 2 == 0 and 32 * panels >= res
        assert 2 * f_max * (hi - lo) / panels <= observation._PANEL_RAD
        assert panels == 2 or 2 * f_max * (hi - lo) / (panels - 2) > observation._PANEL_RAD or 32 * (panels - 2) < res


# ---------------------------------------------------------------------------
# four-family rectangle form


def test_fourfamily_single_term(square):
    c = np.zeros((3, 2), dtype=complex)
    c[1, 1] = 2.0 - 1.0j
    zero = np.zeros_like(c)
    omega = OpenRect(0.0, 0.7, 0.2, 1.3)
    v = thm21_fourfamily_form((c, zero, zero, zero), omega, square)
    # a lone exponential has constant modulus, so the integral is area * |c|^2
    assert v == pytest.approx(5.0 * 0.7 * 1.1, rel=1e-14)


def test_fourfamily_validates_shapes(square):
    c = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        thm21_fourfamily_form((c, c, c), OpenRect(0, 1, 0, 1), square)
    with pytest.raises(ValueError):
        thm21_fourfamily_form((c, c, c, np.zeros((2, 3))), OpenRect(0, 1, 0, 1), square)


def test_fourfamily_reproduces_segment_trace(square):
    k = 4
    ms = build_mode_set(square, k, k)
    state = random_state(ms, 3, decay=0.5)
    alpha, lo, hi, t = 1.1, 0.7, 2.3, 2.0
    spec = ObservationSpec(VerticalSegments(((alpha, (lo, hi)),)), "displacement", t, "plate")
    exact = assemble_gram(spec, ms).quadratic_form(state)

    sines = np.sin(alpha * np.arange(1, k + 1))[None, :]  # depends on k1 only
    a2 = state.a.reshape(k, k) * sines / 2j
    b2 = state.b.reshape(k, k) * sines / 2j
    v = thm21_fourfamily_form((a2, -a2, b2, -b2), OpenRect(0.0, t, lo, hi), square)
    assert v == pytest.approx(exact, rel=1e-10)


def test_fourfamily_large_rectangle_density(square):
    rng = np.random.default_rng(7)
    fams = [
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(4)
    ]
    omega = OpenRect(0.0, 100 * math.pi, 0.0, math.pi)
    v = thm21_fourfamily_form(fams, omega, square)
    mass = sum(float(np.sum(np.abs(f) ** 2)) for f in fams)
    ratio = v / (100 * math.pi**2 * mass)
    assert abs(ratio - 1.0) <= 0.10


@pytest.mark.parametrize("K1, K2", [(3, 5), (5, 3)])
def test_fourfamily_matches_the_dense_kernel(K1, K2):
    # a window away from the origin in t and in x2, on unequal sides: the form is taken about the
    # window centre, the dense product of the complex interval kernels about the origin
    geometry = RectangleGeometry(math.pi, 2.7)
    rng = np.random.default_rng(10 * K1 + K2)
    fams = [rng.standard_normal((K2, K1)) + 1j * rng.standard_normal((K2, K1)) for _ in range(4)]
    omega = OpenRect(0.4, 2.9, 0.3, 2.2)
    ms = build_mode_set(geometry, K1, K2)
    wt = np.concatenate([s * ms.lam for s in (1, 1, -1, -1)])
    wx = np.concatenate([s * geometry.z * ms.k2 for s in (1, -1, 1, -1)])
    c = np.concatenate([f.ravel() for f in fams])
    kt = _interval_kernel(wt[None, :] - wt[:, None], omega.t0, omega.t1)
    kx = _interval_kernel(wx[None, :] - wx[:, None], omega.x0, omega.x1)
    want = float(np.real(np.vdot(c, (kt * kx) @ c)))
    assert thm21_fourfamily_form(fams, omega, geometry) == pytest.approx(want, rel=1e-13)
