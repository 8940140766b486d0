"""Pencil constants, explicit formulas, Ingham-type checks, verification sweeps."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from obslab import (
    CrossStrips,
    BoundaryEdgeBottom,
    EnergyWeight,
    ExponentialSum,
    GramForm,
    HorizontalLine,
    HorizontalStrip,
    ObservationSpec,
    OpenRect,
    RectangleGeometry,
    SpectralState,
    SymmetrySpec,
    THEOREM_IDS,
    VerticalLine,
    VerticalSegments,
    VerticalStrip,
    assemble_gram,
    build_mode_set,
    check_theorem,
    corollary33_check,
    empirical_constants,
    energy_seminorm_sq,
    fill_theorem_params,
    m_ab,
    mehrenberger_check,
    pencil,
    predicted_constant,
    project_p_symmetric,
    random_state,
    random_states,
    scan_theorem,
    sin_sum_lower_bound_check,
    symmetry_constants,
    theorem_symmetries,
    verify_observability,
)
from obslab import inequalities
from obslab.inequalities import ConstantReport, ThresholdError
from obslab.observation import _interval_kernel

PI = math.pi
WAVE = EnergyWeight(1.0, "wave")


def _vspec(region, T=2.0):
    return ObservationSpec(region, "velocity", T, "wave")


# ---------------------------------------------------------------------------
# symmetry and interval constants


def test_symmetry_constants_examples():
    sc = symmetry_constants(2, PI / 2)
    assert (sc.m_p, sc.M_p) == (pytest.approx(1.0, rel=1e-12), pytest.approx(1.0, rel=1e-12))
    sc = symmetry_constants(3, PI / 3)
    assert sc.m_p == pytest.approx(0.75, rel=1e-12)
    assert sc.M_p == pytest.approx(0.75, rel=1e-12)
    sc = symmetry_constants(5, PI / 5)
    assert sc.m_p == pytest.approx(math.sin(PI / 5) ** 2, rel=1e-12)
    assert sc.M_p == pytest.approx(math.sin(2 * PI / 5) ** 2, rel=1e-12)


def test_symmetry_constants_validation():
    with pytest.raises(ValueError):
        symmetry_constants(1, PI)
    with pytest.raises(ValueError):
        symmetry_constants(4, PI / 2)  # minimal order is 2
    with pytest.raises(ValueError):
        symmetry_constants(3, 1.0)  # 3/pi is not an integer
    with pytest.raises(ValueError):
        symmetry_constants(2, 3 * PI / 2)


def test_m_ab_full_interval():
    r = m_ab(0.0, PI)
    assert r["value"] == pytest.approx(PI / 2, abs=1e-12)
    assert r["attained_n"] == "limit"


def test_m_ab_centered_interval():
    r = m_ab(PI / 4, 3 * PI / 4)
    assert r["value"] == pytest.approx(PI / 4 - 1.0 / 6.0, abs=1e-12)
    assert r["attained_n"] == 3


def test_m_ab_unit_interval():
    r = m_ab(1.0, 2.0)
    assert r["value"] == pytest.approx(0.28172990725858627, rel=1e-12)
    assert r["attained_n"] == 2


def test_m_ab_validation():
    with pytest.raises(ValueError):
        m_ab(2.0, 1.0)
    with pytest.raises(ValueError):
        m_ab(-0.1, 1.0)
    with pytest.raises(ValueError):
        m_ab(0.0, 3.2)


@given(
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.1),
)
@settings(max_examples=40, deadline=None)
def test_m_ab_bounds(a, width):
    b = min(a + width, PI)
    if not a < b:
        return
    r = m_ab(a, b)
    assert 0 < r["value"] <= (b - a) / 2 + 1e-12
    # every per-n value is an upper bound for the infimum
    for n in (1, 2, 3, 7):
        vn = (b - a) / 2 - (math.sin(2 * n * b) - math.sin(2 * n * a)) / (4 * n)
        assert r["value"] <= vn + 1e-12


# ---------------------------------------------------------------------------
# predicted constants


def test_theorem_ids():
    assert THEOREM_IDS == (
        "two_strips",
        "strip_plus_edge",
        "line_plus_strip",
        "line_plus_edge",
        "two_lines",
    )


def test_two_lines_constant():
    r = predicted_constant(
        "two_lines", {"m_p": 1.0, "M_p": 1.0, "m_q": 1.0, "M_q": 1.0, "T": 9 * PI}
    )
    assert r["M_pq"] == 2.0
    assert r["T_threshold"] == pytest.approx(8 * PI, rel=1e-15)
    assert not r["below_threshold"]
    assert r["c"] == pytest.approx(34 / (9 * PI), rel=1e-14)


def test_two_lines_at_threshold_is_flagged():
    r = predicted_constant(
        "two_lines", {"m_p": 1.0, "M_p": 1.0, "m_q": 1.0, "M_q": 1.0, "T": 8 * PI}
    )
    assert r["below_threshold"]
    assert r["c"] is None


def test_two_strips_doubled_threshold_identity():
    m = 0.3
    thr2 = 32 * PI**2 + 16 * PI**3 / m
    t = math.sqrt(2 * thr2)
    r = predicted_constant("two_strips", {"m_ab": m, "m_cd": 0.9, "T": t})
    assert r["c"] == pytest.approx(m * t / PI**2, rel=1e-12)


def test_two_strips_frozen_values():
    m = 0.28172990725858627
    t = 47.84977149867659
    r = predicted_constant("two_strips", {"m_ab": m, "m_cd": m, "T": t})
    assert r["T_threshold"] == pytest.approx(45.571210951120555, rel=1e-12)
    assert r["c"] == pytest.approx(0.2539734614140625, rel=1e-12)
    lit = predicted_constant("two_strips", {"m_ab": m, "m_cd": m, "T": t}, paper_literal=True)
    assert lit["c"] == pytest.approx(4.455914735790005, rel=1e-12)
    assert lit["c"] - r["c"] == pytest.approx(64 * PI / t, rel=1e-10)


def test_strip_plus_edge_constant():
    thr2 = 32 * PI**2 + 32 * PI**3
    t = 2 * math.sqrt(thr2)
    r = predicted_constant("strip_plus_edge", {"m_ab": 1.0, "T": t})
    assert r["T_threshold"] == pytest.approx(math.sqrt(thr2), rel=1e-14)
    assert r["c"] == pytest.approx(96 * (1 + PI) / t, rel=1e-12)


def test_line_plus_strip_frozen_values():
    params = {"m_p": 0.75, "M_p": 0.75, "m_cd": 0.28172990725858627}
    thr = 34.008806851091336
    r = predicted_constant("line_plus_strip", {**params, "T": 1.05 * thr})
    assert r["T_threshold"] == pytest.approx(thr, rel=1e-12)
    assert r["c"] == pytest.approx(0.1895348886778174, rel=1e-12)


def test_line_plus_edge_frozen_values():
    r = predicted_constant(
        "line_plus_edge", {"m_p": 0.75, "M_p": 0.75, "T": 1.05 * 28.099258924162907}
    )
    # max(1 + 2 M_p, 1 + 1/m_p) = 5/2, so the threshold is sqrt(80) pi
    assert r["T_threshold"] == pytest.approx(4 * math.sqrt(5) * PI, rel=1e-14)
    assert r["c"] == pytest.approx(0.27792632647718424, rel=1e-12)


def test_predicted_constant_validation():
    with pytest.raises(ValueError):
        predicted_constant("three_strips", {"T": 1.0})
    with pytest.raises(ValueError):
        predicted_constant("two_strips", {"m_ab": 0.3, "T": 100.0})  # m_cd missing
    with pytest.raises(ValueError):
        predicted_constant("two_strips", {"m_ab": 0.3, "m_cd": 0.3, "T": 0.0})


@given(st.floats(min_value=1.0, max_value=200.0))
@settings(max_examples=60)
def test_constant_defined_iff_above_threshold(t):
    r = predicted_constant("two_strips", {"m_ab": 0.3, "m_cd": 0.4, "T": t})
    if t**2 > r["T_threshold"] ** 2:
        assert r["c"] is not None and r["c"] > 0
        assert not r["below_threshold"]
    else:
        assert r["c"] is None and r["below_threshold"]


# ---------------------------------------------------------------------------
# eigenvalue pencil


def test_pencil_of_matching_gram_is_identity(square, monkeypatch):
    ms = build_mode_set(square, 2, 2)
    d = WAVE.diagonal(ms)
    spec = _vspec(VerticalStrip(1.0, 2.0))
    gram = GramForm(ms, spec, np.diag(d), np.zeros((4, 4)), np.zeros(4))
    monkeypatch.setattr(inequalities, "assemble_gram", lambda s, mode_set: gram)
    for p, _ in pencil(spec, WAVE, ms).sectors:
        assert np.allclose(p, np.eye(4), atol=1e-15)


def test_empirical_constants_scale_with_gram(modes4):
    spec = _vspec(VerticalStrip(1.0, 2.0))
    one = empirical_constants(spec, WAVE, modes4)
    two = empirical_constants([spec, spec], WAVE, modes4)
    assert two.c_min == pytest.approx(2 * one.c_min, rel=1e-10)
    assert two.c_max == pytest.approx(2 * one.c_max, rel=1e-10)


def test_empirical_constants_sandwich_random_states(modes6):
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0))
    rep = empirical_constants(spec, WAVE, modes6)
    g = assemble_gram(spec, modes6)
    assert 0 <= rep.c_min <= rep.c_max
    for seed in range(5):
        state = random_state(modes6, seed)
        ratio = g.quadratic_form(state) / energy_seminorm_sq(state, WAVE)
        assert rep.c_min * (1 - 1e-9) <= ratio <= rep.c_max * (1 + 1e-9)


def test_empirical_argmin_state_attains_c_min(modes6):
    spec = _vspec(VerticalLine(PI / 2))
    rep = empirical_constants(spec, WAVE, modes6)
    g = assemble_gram(spec, modes6)
    ratio = g.quadratic_form(rep.argmin_state) / energy_seminorm_sq(rep.argmin_state, WAVE)
    assert ratio == pytest.approx(rep.c_min, abs=1e-8 * max(rep.c_max, 1.0))


def test_empirical_c_min_monotone_in_horizon(modes4):
    region = VerticalStrip(1.0, 2.0)
    short = empirical_constants(_vspec(region, T=2.0), WAVE, modes4)
    long = empirical_constants(_vspec(region, T=4.0), WAVE, modes4)
    assert long.c_min >= short.c_min * (1 - 1e-12)


def test_empirical_constants_plate_weight(square):
    ms = build_mode_set(square, 6, 6)
    segs = VerticalSegments(((PI * (math.sqrt(2) - 1), (1.0, 2.0)),))
    spec = ObservationSpec(segs, "displacement", 2.0, "plate")
    rep = empirical_constants(spec, EnergyWeight(-1.0, "plate"), ms)
    assert rep.c_min > 0
    assert rep.K1 == rep.K2 == 6


def _recorded_eigh(monkeypatch):
    shapes = []
    real = scipy.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append((a.shape, a.dtype.kind))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recorded)
    return shapes


def test_empirical_constants_solves_real_sectors(modes6, monkeypatch):
    shapes = _recorded_eigh(monkeypatch)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0)
    empirical_constants([spec, _vspec(VerticalLine(PI / 3), T=30.0)], WAVE, modes6)
    n = len(modes6)
    assert shapes and set(shapes) == {((n, n), "f")}


PLATE0 = EnergyWeight(0.0, "plate")
UNSHARED_CENTRES = {
    "OpenRect windows": (
        [
            ObservationSpec(OpenRect(0.0, 1.0, 0.5, 1.5), "displacement", 1.0, "plate"),
            ObservationSpec(OpenRect(0.5, 2.5, 1.0, 2.0), "displacement", 1.0, "plate"),
        ],
        PLATE0,
    ),
    "VerticalStrip T=2,4": ([_vspec(VerticalStrip(1.0, 2.0), T=t) for t in (2.0, 4.0)], WAVE),
}


@pytest.mark.parametrize("name", sorted(UNSHARED_CENTRES))
def test_empirical_constants_without_shared_centre(square, monkeypatch, name):
    specs, weight = UNSHARED_CENTRES[name]
    ms = build_mode_set(square, 5, 4)
    shapes = _recorded_eigh(monkeypatch)
    rep = empirical_constants(specs, weight, ms)
    n = len(ms)
    assert set(shapes) == {((2 * n, 2 * n), "f")}

    # dense complex reference: the doubled pencil D^-1/2 G D^-1/2 of the summed Gram
    g = sum(assemble_gram(s, ms).matrix for s in specs)
    r = 1.0 / np.sqrt(np.tile(weight.diagonal(ms), 2))
    evals = np.linalg.eigvalsh(g * np.outer(r, r))
    c_max = evals[-1]
    assert rep.c_max == pytest.approx(c_max, rel=0.0, abs=1e-12 * c_max)
    assert rep.c_min == pytest.approx(max(evals[0], 0.0), rel=0.0, abs=1e-12 * c_max)
    c = rep.argmin_state.doubled()
    ratio = np.real(np.vdot(c, g @ c)) / energy_seminorm_sq(rep.argmin_state, weight)
    assert ratio == pytest.approx(rep.c_min, rel=0.0, abs=1e-8 * c_max)


def test_constant_report_validation(modes4):
    state = random_state(modes4, 0)
    with pytest.raises(ValueError):
        ConstantReport((), WAVE, 4, 4, 2.0, 1.0, state)
    with pytest.raises(ValueError):
        ConstantReport((), WAVE, 4, 4, -1.0, 1.0, state)


def test_constant_report_json(modes4):
    rep = empirical_constants(_vspec(VerticalStrip(1.0, 2.0)), WAVE, modes4)
    import json

    doc = json.loads(rep.to_json())
    assert doc["c_min"] == rep.c_min and doc["c_max"] == rep.c_max
    assert doc["K1"] == 4 and doc["K2"] == 4
    assert doc["weight"] == {"s": 1.0, "model": "wave"}
    assert doc["specs"][0]["region"]["kind"] == "VerticalStrip"


def test_empirical_constants_rejects_empty_spec_list(modes4):
    with pytest.raises(ValueError):
        empirical_constants([], WAVE, modes4)


def test_pencil_rejects_an_empty_mask_and_rows_of_the_wrong_length(modes4):
    spec, n = _vspec(VerticalStrip(1.0, 2.0)), len(modes4)
    with pytest.raises(ValueError, match=f"mask must select some of the {n} modes"):
        pencil(spec, WAVE, modes4, np.zeros(n, dtype=bool))
    pen = pencil(spec, WAVE, modes4)
    for rows in (np.ones((3, n)), np.ones((3, 2 * n + 1)), np.ones(2 * n)):
        with pytest.raises(ValueError, match=f"rows must have length {2 * n}"):
            pen.quadratic_forms(rows)


# ---------------------------------------------------------------------------
# Ingham-type checks


def test_exponential_sum_validation():
    ExponentialSum((1.0, 2.0, 3.0), (1, 1, 1), 0, 1.0)
    with pytest.raises(ValueError):
        ExponentialSum((1.0, 2.0, 3.0), (1, 1, 1), 0, 1.5)  # gap is only 1
    with pytest.raises(ValueError):
        ExponentialSum((1.0, 2.0), (1,), 0, 1.0)
    with pytest.raises(ValueError):
        ExponentialSum((1.0, 2.0), (1, 1), -1, 1.0)
    with pytest.raises(ValueError):
        ExponentialSum((1.0, 2.0), (1, 1), 0, 0.0)


def test_mehrenberger_single_exponential():
    # one term: the gap condition is vacuous and the integral is exactly |a|^2 T
    es = ExponentialSum((5.0,), (2.0,), 0, 1.0)
    t = 10.0
    r = mehrenberger_check(es, t)
    assert r["lhs"] == pytest.approx(4.0 * t, rel=1e-12)
    assert r["rhs"] == pytest.approx((2 * t / PI) * 4.0 * (1 - (2 * PI / t) ** 2), rel=1e-12)
    assert r["holds"]
    with pytest.raises(ValueError):
        ExponentialSum((), (), 0, 1.0)


def test_exponential_sum_centered_indices():
    es = ExponentialSum((-5.0, 0.0, 5.0), (1, 2, 1), 0, 5.0, indices=(-1, 0, 1))
    assert es.gamma == 5.0
    assert es.indices == (-1, 0, 1)


def test_mehrenberger_basic():
    es = ExponentialSum(tuple(float(k) for k in range(1, 6)), (1, 1, 1, 1, 1), 0, 1.0)
    r = mehrenberger_check(es, 2.5 * 2 * PI)
    assert r["holds"]
    assert r["lhs"] > 0
    assert r["rhs"] > 0


def test_mehrenberger_tail_only_bound():
    # all indices sit below n, so the guaranteed bound is negative
    es = ExponentialSum((1.0, 2.0, 3.0, 4.0), (1, 1, 1, 1), 5, 1.0)
    r = mehrenberger_check(es, 10 * PI)
    assert r["rhs"] < 0
    assert r["holds"]


def _dense_ingham_lhs(w, a, T):
    kernel = _interval_kernel(w[None, :] - w[:, None], 0.0, T)
    return float(np.real(np.vdot(a, kernel @ a)))


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=1.1, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_mehrenberger_lhs_matches_the_dense_kernel(size, n, horizon, seed):
    rng = np.random.default_rng(seed)
    w = np.arange(1, size + 1) + rng.uniform(-0.2, 0.2, size)
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    es = ExponentialSum(tuple(w), tuple(a), n, 0.6)
    T = horizon * 2 * PI / 0.6
    want = _dense_ingham_lhs(w, a, T)
    assert mehrenberger_check(es, T)["lhs"] == pytest.approx(want, rel=1e-13)


@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=4 * math.sqrt(2) * PI * 1.01, max_value=60.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_corollary33_lhs_matches_the_dense_kernel(size, k2, T, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    freq = np.sqrt(np.arange(1, size + 1) ** 2 + float(k2) ** 2)
    want = _dense_ingham_lhs(np.concatenate([freq, -freq]), np.concatenate([a, b]), T)
    assert corollary33_check(k2, a, b, T)["lhs"] == pytest.approx(want, rel=1e-13)


def test_mehrenberger_requires_long_horizon():
    es = ExponentialSum((1.0, 2.0), (1, 1), 0, 1.0)
    for t in (2 * PI, math.inf, 1e308):  # 1e308 overflows the integral
        with pytest.raises(ValueError):
            mehrenberger_check(es, t)


def test_corollary33_single_mode():
    t = 20.0
    r = corollary33_check(1, [1.0], [0.0], t)
    assert r["lhs"] == pytest.approx(t, rel=1e-12)
    assert r["rhs"] == pytest.approx(2 * t / PI - 64 * PI / t, rel=1e-12)
    assert r["holds"]


def test_corollary33_random_instances():
    rng = np.random.default_rng(5)
    for k2 in (1, 3, 7):
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert corollary33_check(k2, a, b, 20.0)["holds"]


def test_corollary33_validation():
    with pytest.raises(ValueError):
        corollary33_check(1, [1.0], [0.0], 17.0)  # below 4 sqrt(2) pi
    with pytest.raises(ValueError):
        corollary33_check(0, [1.0], [0.0], 20.0)
    with pytest.raises(ValueError):
        corollary33_check(1, [1.0, 2.0], [0.0], 20.0)
    for t in (math.inf, 1e308):  # 1e308 overflows the kernel's arguments
        with pytest.raises(ValueError):
            corollary33_check(1, [1.0], [0.0], t)


def test_sin_sum_lower_bound():
    alpha = PI * (math.sqrt(2) - 1)
    gamma_hat = 6 - 4 * math.sqrt(2)
    assert sin_sum_lower_bound_check(1, [alpha], PI, 1, gamma_hat)
    assert sin_sum_lower_bound_check(7, [alpha], PI, 1, 0.0)
    with pytest.raises(ValueError):
        sin_sum_lower_bound_check(0, [alpha], PI, 1, gamma_hat)


# ---------------------------------------------------------------------------
# verification sweeps


def _projected_states(ms, seeds, p=None, q=None):
    states = []
    for seed in seeds:
        state = random_state(ms, seed)
        if p:
            state = project_p_symmetric(state, SymmetrySpec(p, "x1", PI / p))
        if q:
            state = project_p_symmetric(state, SymmetrySpec(q, "x2", PI / q))
        states.append(state)
    return states


def test_verify_two_strips_smoke(square):
    ms = build_mode_set(square, 6, 6)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=47.84977149867659)
    report = verify_observability("two_strips", spec, _projected_states(ms, range(5)), {})
    assert report["passed"]
    assert report["min_ratio"] >= report["c_predicted"]
    assert report["T_threshold"] == pytest.approx(45.571210951120555, rel=1e-12)
    assert report["n_states"] == 5
    assert report["empirical_c_min"] >= report["c_predicted"]


def test_verify_two_strips_separate_pieces(square):
    ms = build_mode_set(square, 6, 6)
    t = 47.84977149867659
    specs = [_vspec(VerticalStrip(1.0, 2.0), T=t), _vspec(HorizontalStrip(1.0, 2.0), T=t)]
    report = verify_observability("two_strips", specs, _projected_states(ms, range(3)), {})
    assert report["passed"]


def test_verify_two_lines_smoke(square):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    states = _projected_states(ms, range(5), p=2, q=2)
    report = verify_observability("two_lines", specs, states, {"p": 2, "q": 2})
    assert report["c_predicted"] == pytest.approx(34 / (9 * PI), rel=1e-14)
    assert report["passed"]


@pytest.mark.parametrize("count", [1, 255, 256, 257, 300])
def test_sweep_matches_a_dense_reference_across_chunks(square, count):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    states = _projected_states(ms, range(count), p=2, q=2)
    report = verify_observability("two_lines", specs, states, {"p": 2, "q": 2})

    # dense complex reference: the summed doubled Gram, one state at a time
    g = sum(assemble_gram(s, ms).matrix for s in specs)
    d = WAVE.diagonal(ms)
    ratios = [
        np.real(np.vdot(st_.doubled(), g @ st_.doubled()))
        / np.sum(d * (np.abs(st_.a) ** 2 + np.abs(st_.b) ** 2))
        for st_ in states
    ]
    assert report["n_states"] == count
    assert report["min_ratio"] == pytest.approx(min(ratios), rel=1e-12, abs=0.0)
    assert report["argmin_state"] == int(np.argmin(ratios))


def test_verify_gives_the_same_report_however_the_states_are_blocked(square):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    params = {"p": 2, "q": 2}
    syms = theorem_symmetries("two_lines", specs, params, square)

    def projected(block):
        for sym in syms:
            block = project_p_symmetric(block, sym)
        return block

    blocks = ((0, 100), (100, 357), (357, 600))
    reports = [
        verify_observability("two_lines", specs, states, params)
        for states in (
            _projected_states(ms, range(600), 2, 2),  # a list of single states
            projected(random_states(ms, range(600))),  # one stack
            (projected(random_states(ms, range(lo, hi))) for lo, hi in blocks),  # lazy, uneven
        )
    ]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["n_states"] == 600


def test_sweep_counts_unprojected_states_over_all_chunks(square):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    states = _projected_states(ms, range(300), p=2, q=2)
    states[10], states[280] = random_state(ms, 10), random_state(ms, 280)  # in two chunks
    with pytest.raises(ValueError, match="^2 states carry mass on symmetry-excluded modes"):
        verify_observability("two_lines", specs, states, {"p": 2, "q": 2})


def test_check_theorem_serves_verify_with_one_assembly(square, monkeypatch):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    sums, grams = [], []

    def counted(calls, real):
        def call(spec, mode_set, *args):
            calls.append(spec)
            return real(spec, mode_set, *args)

        return call

    # the assembly is split into the spatial sum and the time blocks on it
    monkeypatch.setattr(inequalities, "_spatial_sum", counted(sums, inequalities._spatial_sum))
    monkeypatch.setattr(inequalities, "_closed_gram", counted(grams, inequalities._closed_gram))
    states = _projected_states(ms, range(3), p=2, q=2)
    report = verify_observability("two_lines", specs, states, {"p": 2, "q": 2})
    assert sums == specs and grams == specs
    check = check_theorem("two_lines", specs, ms, {"p": 2, "q": 2})
    assert check["empirical_c_min"] == report["empirical_c_min"]

    cross = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=47.84977149867659)
    full = check_theorem("two_strips", cross, ms, {})["empirical_c_min"]
    assert full == pytest.approx(empirical_constants(cross, WAVE, ms).c_min, rel=1e-9)


_SCANNED = [
    ("two_strips", [CrossStrips(1.0, 2.0, 1.2, 2.1)], {}),
    ("strip_plus_edge", [VerticalStrip(1.0, 2.0), BoundaryEdgeBottom()], {}),
    ("line_plus_strip", [VerticalLine(PI / 3), HorizontalStrip(1.0, 2.0)], {"p": 3}),
    ("line_plus_edge", [VerticalLine(PI / 3), BoundaryEdgeBottom()], {"p": 3}),
    ("two_lines", [VerticalLine(PI / 2), HorizontalLine(PI / 3)], {"p": 2, "q": 3}),
]


@pytest.mark.parametrize("theorem, regions, params", _SCANNED, ids=[t for t, _, _ in _SCANNED])
def test_scan_rows_are_check_theorem_bitwise(square, theorem, regions, params):
    ms = build_mode_set(square, 5, 5)

    def specs(T):
        field = {BoundaryEdgeBottom: "normal_derivative"}
        return [ObservationSpec(r, field.get(type(r), "velocity"), T, "wave") for r in regions]

    # below and above every threshold: the rows below carry c_predicted None
    ts = [5.0, 20.0, 35.0, 60.0, 90.0]
    rows = scan_theorem(theorem, specs(1.0), ms, params, ts)
    assert [r["T"] for r in rows] == ts
    assert any(r["c_predicted"] is None for r in rows) and any(r["passed"] for r in rows)
    for T, row in zip(ts, rows):
        assert repr(row) == repr(check_theorem(theorem, specs(T), ms, params))
    with pytest.raises(ValueError):
        scan_theorem(theorem, specs(1.0), ms, params, [])


def test_check_theorem_matches_verify(square):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    params = {"p": 2, "q": 2}
    check = check_theorem("two_lines", specs, ms, params)
    states = _projected_states(ms, range(3), p=2, q=2)
    report = verify_observability("two_lines", specs, states, params)
    for key in ("T_threshold", "c_predicted", "empirical_c_min"):
        assert check[key] == report[key]
    assert check["n_states"] == 0
    assert check["passed"]


def test_check_theorem_below_threshold_keeps_c_min(square):
    ms = build_mode_set(square, 4, 4)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=10.0)
    check = check_theorem("two_strips", spec, ms, {})
    assert check["c_predicted"] is None
    assert not check["passed"]
    assert check["empirical_c_min"] == pencil(spec, WAVE, ms).lowest()[0]
    with pytest.raises(ValueError):
        check_theorem("two_lines", spec, ms, {"p": 2, "q": 2})


def test_fill_theorem_params_names_missing_line(square):
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0)
    with pytest.raises(ValueError, match="VerticalLine"):
        fill_theorem_params("two_lines", (spec,), {"p": 2, "q": 2}, square)


def test_fill_theorem_params_needs_interval_constants_off_the_square():
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0)
    wide = RectangleGeometry(2.0 * PI, PI)
    with pytest.raises(ValueError, match="m_ab must be supplied for non-square geometry"):
        fill_theorem_params("two_strips", spec, {"m_cd": 0.3}, wide)
    filled = fill_theorem_params("two_strips", spec, {"m_ab": 0.2, "m_cd": 0.3}, wide)
    assert filled == {"m_ab": 0.2, "m_cd": 0.3}


def test_theorem_symmetries(square):
    params = {"p": 3, "q": 2}
    vline, hline = _vspec(VerticalLine(PI / 3)), _vspec(HorizontalLine(PI / 2))
    edge = ObservationSpec(BoundaryEdgeBottom(), "normal_derivative", 2.0, "wave")
    cross = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0))
    assert theorem_symmetries("two_strips", cross, params, square) == ()
    assert theorem_symmetries("line_plus_edge", [edge, vline], params, square) == (
        SymmetrySpec(3, "x1", PI / 3),
    )
    assert theorem_symmetries("two_lines", [hline, vline], params, square) == (
        SymmetrySpec(3, "x1", PI / 3),
        SymmetrySpec(2, "x2", PI / 2),
    )
    # the anchor is the line's point in pi-scaled coordinates: x1 = 1 on a width of 2 is pi/2
    specs = [_vspec(VerticalLine(1.0)), edge]
    assert theorem_symmetries("line_plus_edge", specs, {"p": 2}, RectangleGeometry(2.0, PI)) == (
        SymmetrySpec(2, "x1", 1.0 * PI / 2.0),
    )
    with pytest.raises(ValueError):
        theorem_symmetries("three_strips", cross, params, square)
    with pytest.raises(ValueError, match="expects regions"):
        theorem_symmetries("two_lines", cross, params, square)
    with pytest.raises(ValueError, match="requires the symmetry order q"):
        theorem_symmetries("two_lines", [vline, hline], {"p": 3}, square)
    with pytest.raises(ValueError, match="p must be an integer, got 2.5"):
        theorem_symmetries("line_plus_edge", [vline, edge], {"p": 2.5}, square)
    with pytest.raises(ValueError, match="not an integer"):  # 2 is not an order of pi/3
        theorem_symmetries("line_plus_edge", [vline, edge], {"p": 2}, square)
    with pytest.raises(ValueError, match="not minimal"):
        theorem_symmetries("line_plus_edge", [vline, edge], {"p": 6}, square)
    assert theorem_symmetries("line_plus_edge", [vline, edge], {"p": 3.0}, square)[0].p == 3


def test_verify_rejects_unprojected_states(square):
    ms = build_mode_set(square, 6, 6)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t)]
    with pytest.raises(ValueError, match="project"):
        verify_observability("two_lines", specs, _projected_states(ms, range(3)), {"p": 2, "q": 2})


def test_verify_below_threshold_raises(square):
    ms = build_mode_set(square, 4, 4)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=10.0)
    with pytest.raises(ThresholdError):
        verify_observability("two_strips", spec, _projected_states(ms, range(2)), {})


def test_verify_rejects_empty_and_zero_states(square):
    ms = build_mode_set(square, 4, 4)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=47.84977149867659)
    with pytest.raises(ValueError):
        verify_observability("two_strips", spec, [], {})
    z = np.zeros(len(ms), dtype=complex)
    with pytest.raises(ValueError):
        verify_observability("two_strips", spec, [SpectralState(ms, z, z)], {})


def test_verify_rejects_mixed_mode_sets(square):
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=47.84977149867659)
    s4 = random_state(build_mode_set(square, 4, 4), 0)
    s6 = random_state(build_mode_set(square, 6, 6), 0)
    with pytest.raises(ValueError):
        verify_observability("two_strips", spec, [s4, s6], {})


def test_verify_rejects_wrong_composition(square):
    ms = build_mode_set(square, 4, 4)
    t = 9 * PI
    specs = [_vspec(VerticalLine(PI / 2), T=t), _vspec(VerticalStrip(1.0, 2.0), T=t)]
    states = _projected_states(ms, range(2), p=2, q=2)
    with pytest.raises(ValueError):
        verify_observability("two_lines", specs, states, {"p": 2, "q": 2})
    mixed_t = [_vspec(VerticalLine(PI / 2), T=t), _vspec(HorizontalLine(PI / 2), T=t + 1)]
    with pytest.raises(ValueError):
        verify_observability("two_lines", mixed_t, states, {"p": 2, "q": 2})


def test_verify_line_plus_edge_smoke(square):
    ms = build_mode_set(square, 6, 6)
    t = 1.05 * 28.099258924162907
    specs = [
        _vspec(VerticalLine(PI / 3), T=t),
        ObservationSpec(BoundaryEdgeBottom(), "normal_derivative", t, "wave"),
    ]
    states = _projected_states(ms, range(3), p=3)
    report = verify_observability("line_plus_edge", specs, states, {"p": 3})
    assert report["c_predicted"] == pytest.approx(0.27792632647718424, rel=1e-12)
    assert report["passed"]
