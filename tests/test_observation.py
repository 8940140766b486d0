"""Gram forms versus the Simpson oracle, kernels, regions, serialization."""

import json
import math

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
    VerticalLine,
    VerticalSegments,
    VerticalStrip,
    assemble_gram,
    build_mode_set,
    quadrature_oracle,
    random_state,
    sine_overlap,
    thm21_fourfamily_form,
    time_kernel,
)
from obslab.observation import _interval_kernel, region_from_dict, region_to_dict

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


def test_region_construction_rejects_degenerate():
    with pytest.raises(ValueError):
        VerticalStrip(2.0, 1.0)
    with pytest.raises(ValueError):
        HorizontalStrip(1.0, 1.0)
    with pytest.raises(ValueError):
        CrossStrips(1.0, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        OpenRect(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        VerticalSegments(())
    with pytest.raises(ValueError):
        VerticalSegments(((1.0, (2.0, 1.0)),))


def test_region_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        VerticalLine(math.inf)
    with pytest.raises(ValueError):
        HorizontalLine(math.nan)
    with pytest.raises(ValueError):
        VerticalStrip(1.0, math.inf)
    with pytest.raises(ValueError):
        OpenRect(0.0, math.inf, 0.5, 1.5)
    with pytest.raises(ValueError):
        VerticalSegments(((1.0, (0.5, math.inf)),))


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
    g = assemble_gram(_spec(region), modes4).matrix
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
    g = gram.matrix
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
    g0 = assemble_gram(_spec(BoundaryGamma0(), T), ms).matrix
    gl = assemble_gram(_spec(BoundaryEdgeLeft(), T), ms).matrix
    gb = assemble_gram(_spec(BoundaryEdgeBottom(), T), ms).matrix
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
    g1 = assemble_gram(_spec(s1), modes4).matrix
    g2 = assemble_gram(_spec(s2), modes4).matrix
    gb = assemble_gram(_spec(both), modes4).matrix
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
    g1 = assemble_gram(_spec(region, T=1.5), modes4).matrix
    g2 = assemble_gram(_spec(region, T=3.0), modes4).matrix
    eigs = np.linalg.eigvalsh(g2 - g1)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_gram_form_rejects_non_hermitian(modes4):
    n = 2 * len(modes4)
    bad = np.zeros((n, n), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        GramForm(modes4, bad, _spec(VerticalStrip(1.0, 2.0)))
    with pytest.raises(ValueError):
        GramForm(modes4, np.zeros((3, 3), dtype=complex), _spec(VerticalStrip(1.0, 2.0)))


def test_gram_json_round_trip(modes4):
    g = assemble_gram(_spec(CrossStrips(1.0, 2.0, 1.0, 2.0)), modes4)
    back = GramForm.from_json(g.to_json())
    assert np.array_equal(back.matrix, g.matrix)
    assert back.spec == g.spec
    assert back.mode_set.K1 == g.mode_set.K1 and back.mode_set.K2 == g.mode_set.K2
    assert back.to_json() == g.to_json()


def test_gram_json_round_trip_open_rect(modes4):
    g = assemble_gram(_spec(OpenRect(0.0, 1.0, 0.5, 1.5)), modes4)
    back = GramForm.from_json(g.to_json())
    assert np.array_equal(back.matrix, g.matrix)
    assert back.spec == g.spec


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
    assert abs(approx - exact) <= 1e-6 * exact


def _simpson(lo, hi, panels):
    x = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return x, w * ((hi - lo) / panels / 3.0)


def _dense_oracle(state, spec, res):
    """Simpson sum of |field|^2 on the full (t, x1, x2) tensor grid of each box.

    The reference for the factorised oracle: each region's boxes are written
    out here, and the field itself is sampled and squared, so neither the
    region pieces nor the Hadamard product of 1-D Grams is used. An axis is a
    Simpson grid or one node of unit weight (a point, an edge derivative, or
    no axis at all); profiles are rows over the doubled index.
    """
    ms = state.mode_set
    geo = ms.geometry
    sign = np.repeat([1.0, -1.0], len(ms))
    k1, k2, lam = (np.tile([getattr(m, a) for m in ms.modes], 2) for a in ("k1", "k2", "lam"))
    w = sign * (np.sqrt(lam) if spec.model == "wave" else lam)
    amp = 1j * w if spec.field == "velocity" else np.ones(len(w))
    z1, z2 = math.pi / geo.ell1, math.pi / geo.ell2

    def sines(kz, lo, hi):
        x, wx = _simpson(lo, hi, res)
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
        x, wx = _simpson(r.x0, r.x1, res)
        boxes = [(1, node(np.ones(len(w))), (np.exp(1j * np.outer(sign * z2 * k2, x)), wx))]
    t, wt = _simpson(*window, res)
    coeffs = np.exp(1j * np.outer(t, w)) * (state.doubled() * amp)
    total = 0.0
    for s, (p1, w1), (p2, w2) in boxes:
        field = np.einsum("ti,ia,ib->tab", coeffs, p1, p2, optimize=True)
        total += s * np.einsum("t,a,b,tab->", wt, w1, w2, np.abs(field) ** 2, optimize=True)
    return total


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: type(r).__name__)
def test_oracle_matches_dense_reference(region):
    ms = build_mode_set(RectangleGeometry(3.4, 2.8), 4, 4)
    spec = _spec(region)
    state = random_state(ms, 5)
    dense = _dense_oracle(state, spec, 128)
    assert dense > 0
    assert quadrature_oracle(state, spec, 128) == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_oracle_resolution_validation(modes4):
    state = random_state(modes4, 0)
    spec = _spec(VerticalLine(1.0))
    with pytest.raises(ValueError):
        quadrature_oracle(state, spec, 32)
    assert quadrature_oracle(state, spec, 65) == quadrature_oracle(state, spec, 66)


def test_oracle_converges_at_fourth_order(modes4):
    spec = _spec(SEGS)
    state = random_state(modes4, 11)
    exact = assemble_gram(spec, modes4).quadratic_form(state)
    err64 = abs(quadrature_oracle(state, spec, 64) - exact)
    err256 = abs(quadrature_oracle(state, spec, 256) - exact)
    assert err64 > 1e-13
    assert err256 <= err64 / 8


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
