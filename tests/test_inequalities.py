"""Pencil constants, explicit formulas, Ingham-type checks, verification sweeps."""

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from obslab import (
    CrossStrips,
    BoundaryEdgeBottom,
    BoundaryEdgeLeft,
    BoundaryGamma0,
    EnergyWeight,
    ExponentialSum,
    HorizontalLine,
    HorizontalStrip,
    ObservationSpec,
    OpenRect,
    Pencil,
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
    quadrature_oracle,
    random_state,
    random_states,
    scan_theorem,
    sin_sum_lower_bound_check,
    symmetry_constants,
    theorem_symmetries,
    thm21_fourfamily_form,
    verify_observability,
)
from obslab import inequalities, observation, states
from obslab.inequalities import ConstantReport, ThresholdError
from obslab.spectrum import _row_gram, _symmetric_product
from conftest import peak_bytes
from gram_reference import _interval_kernel, dense_gram, pencil_sectors, piecewise_sectors

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


def test_symmetry_constants_take_an_integral_float_order():
    sc = symmetry_constants(3.0, PI / 3)
    assert sc == symmetry_constants(3, PI / 3) and type(sc.p) is int
    with pytest.raises(ValueError, match="^p must be a finite integer, got 2.5$"):
        symmetry_constants(2.5, PI / 3)


def test_symmetry_constants_keep_the_smallest_value_of_a_large_order():
    # sin^2(pi/p) < 1e-12 here: a float filter of "nonzero" values would drop the true minimum
    p = 3_200_000
    assert symmetry_constants(p, PI / p).m_p == math.sin(PI / p) ** 2


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


def test_pencil_of_specs_assembles_its_grams_on_first_access(modes4):
    # the pencil sums Gram rows without GramForms; its grams attribute still gives them
    specs = [_vspec(VerticalStrip(1.0, 2.0)), _vspec(HorizontalLine(PI / 2))]
    pen = pencil(specs, WAVE, modes4)
    assert "grams" not in vars(pen)
    assert pen.grams == [assemble_gram(s, modes4) for s in specs]


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


def _recorded_reductions(monkeypatch):
    """The (shape, dtype kind) of every matrix the pencil hands to LAPACK's tridiagonal reduction."""
    shapes = []
    real = scipy.linalg.lapack.dsytrd

    def recorded(a, *args, **kwargs):
        shapes.append((a.shape, a.dtype.kind))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrd", recorded)
    return shapes


def test_empirical_constants_solves_real_sectors(modes6, monkeypatch):
    shapes = _recorded_reductions(monkeypatch)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0)
    empirical_constants([spec, _vspec(VerticalLine(PI / 3), T=30.0)], WAVE, modes6)
    n = len(modes6)
    # one reduction per sector: the even and the odd n x n sector, once each
    assert shapes == [((n, n), "f")] * 2


def test_check_theorem_reduces_each_masked_sector_at_most_once(modes6, monkeypatch):
    # a sector is not reduced when a shifted Cholesky factorisation proves its smallest eigenvalue
    # above the other's; then eigh's minimum of it must lie above the value returned
    specs = [_vspec(VerticalLine(PI / 3), T=60.0), _vspec(HorizontalLine(PI / 2), T=60.0)]
    mask = (modes6.k1 % 3 != 0) & (modes6.k2 % 2 != 0)
    sectors = pencil_sectors(pencil(specs, WAVE, modes6, mask))
    lows = [scipy.linalg.eigh(s, subset_by_index=[0, 0], eigvals_only=True)[0] for s, _ in sectors]
    shapes = _recorded_reductions(monkeypatch)
    c_min = check_theorem("two_lines", specs, modes6, {"p": 3, "q": 2})["empirical_c_min"]
    kept = int(np.sum(mask))
    assert shapes in ([((kept, kept), "f")], [((kept, kept), "f")] * 2)
    assert _bits(c_min) == _bits(min(lows))
    if len(shapes) == 1:
        assert max(lows) > c_min


@pytest.mark.parametrize("gap", [0.0, 1e-12], ids=["tie", "within the margin"])
def test_lowest_reduces_both_sectors_whose_minima_tie(square, monkeypatch, gap):
    # B = gap A: the sectors (1 + gap) A and (1 - gap) A scaled by D^-1/2, identical for a zero
    # gap; their minima lie within the skip margin of each other, so both sectors are reduced
    ms = build_mode_set(square, 6, 6)
    pen = pencil(_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0), WAVE, ms)
    np.multiply(pen.blocks[0], gap, out=pen.blocks[1])
    want = _eigh_extremes(pen)[0]
    shapes = _recorded_reductions(monkeypatch)
    assert _bits(pen.lowest()) == _bits(want)
    assert shapes == [((len(ms), len(ms)), "f")] * 2


@given(
    st.floats(0.3, 1.4), st.floats(0.3, 1.4), st.floats(1.7, 2.8), st.floats(1.7, 2.8),
    st.floats(2.0, 40.0), st.integers(2, 8), st.integers(2, 8), st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_lowest_is_the_two_reduction_minimum_bitwise(a, c, b, d, T, K1, K2, masked):
    # whichever sector holds the minimum, and whether or not the odd one is skipped
    ms = build_mode_set(RectangleGeometry(PI, PI), K1, K2)
    mask = ms.k1 % 2 != 0 if masked else None
    pen = pencil(_vspec(CrossStrips(a, b, c, d), T=T), WAVE, ms, mask)
    assert _bits(pen.lowest()) == _bits(_eigh_extremes(pen)[0])


def test_the_rescaling_window_takes_lapacks_machine_constants():
    # numpy's tiny and eps stand for dlamch("S") and dlamch("P"), so that the package need not load
    # scipy to know dsyevr's unscaled range [_RMIN, _RMAX]; they must be LAPACK's to the bit
    lapack = scipy.linalg.lapack
    assert inequalities._SAFMIN.hex() == lapack.dlamch("S").hex()
    assert inequalities._SMLNUM.hex() == (lapack.dlamch("S") / lapack.dlamch("P")).hex()


def _eigh_extremes(pen):
    """Pencil.extremes by two scipy.linalg.eigh subset calls per sector, as the solve ran before."""
    low, c_max = None, -math.inf
    for s, index in pencil_sectors(pen):
        evals, evecs = scipy.linalg.eigh(s, subset_by_index=[0, 0])
        if low is None or evals[0] < low[0]:
            u = np.zeros(2 * len(pen.d))
            u[index] = evecs[:, 0]
            low = (float(evals[0]), u)
        top = scipy.linalg.eigh(s, subset_by_index=[len(s) - 1] * 2, eigvals_only=True)
        c_max = max(c_max, float(top[0]))
    return low[0], c_max, low[1]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _matching_pencil(square, case):
    """A pencil for test_pencil_extremes_match_eigh_bitwise, by case name."""
    ms8 = build_mode_set(square, 8, 8)
    cross = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0)
    one = np.arange(len(ms8)) == 5
    if case == "n=1":
        return pencil(cross, WAVE, ms8, one)
    if case == "n=2":
        return pencil(cross, WAVE, ms8, one | (np.arange(len(ms8)) == 11))
    if case == "n=64":
        return pencil(cross, WAVE, ms8)
    if case == "masked":
        return pencil(cross, WAVE, ms8, (ms8.k1 % 3 != 0) & (ms8.k2 % 2 != 0))
    if case == "2n x 2n":
        specs, weight = UNSHARED_CENTRES["OpenRect windows"]
        return pencil(specs, weight, build_mode_set(square, 5, 4))
    scale = {"scaled 2^-500": 2.0**-500, "scaled 2^300": 2.0**300}[case]
    # D^-1/2 scales each sector by exactly scale
    return Pencil((cross,), ms8, WAVE.diagonal(ms8) / scale, None)


@pytest.mark.parametrize(
    "case", ["n=1", "n=2", "n=64", "masked", "2n x 2n", "scaled 2^-500", "scaled 2^300"]
)
def test_pencil_extremes_match_eigh_bitwise(square, case):
    pen = _matching_pencil(square, case)
    if case.startswith("n="):
        assert {len(s) for s, _ in pencil_sectors(pen)} == {int(case[2:])}
    if case.startswith("scaled"):  # the sectors' max-norm lies outside dsyevr's unscaled range
        norm = max(np.max(np.abs(s)) for s, _ in pencil_sectors(pen))
        assert not 2.0**-485 <= norm <= 2.0**255
    c_min, c_max, u = pen.extremes()
    want = _eigh_extremes(pen)
    assert _bits([c_min, c_max]) == _bits(want[:2])
    assert _bits(u) == _bits(want[2])
    assert pen.lowest() == c_min


@pytest.mark.parametrize("scale", [2.0**-500, 2.0**300], ids=["2^-500", "2^300"])
@pytest.mark.parametrize("layout", ["m x m", "2n x 2n"])
def test_a_scaled_solve_reads_no_entry_outside_the_sector_triangle(monkeypatch, square, layout, scale):
    # the slab's memory outside the triangle each sector is written to holds whatever was there:
    # a signalling nan, or a value the rescaling would overflow, must raise no RuntimeWarning and
    # leave every value and vector eigh's to the bit. Sectors are written 8 rows at a time, so the
    # lower triangle has entries outside every row block's diagonal block
    monkeypatch.setattr(inequalities, "_ROW_BLOCK", 8 * 64)
    if layout == "m x m":
        specs, weight = (_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=30.0),), WAVE
        ms = build_mode_set(square, 8, 8)
    else:
        (specs, weight), ms = UNSHARED_CENTRES["OpenRect windows"], build_mode_set(square, 5, 4)
    fills = [lambda slab: slab.view(np.int64).fill(0x7FF0000000000001), lambda slab: slab.fill(1e308)]
    for fill in fills:
        pen = Pencil(tuple(specs), ms, weight.diagonal(ms) / scale, None)
        want = _eigh_extremes(pen)
        norm = max(np.max(np.abs(s)) for s, _ in pencil_sectors(pen))
        assert not 2.0**-485 <= norm <= 2.0**255
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fill(pen._slab)
            c_min, c_max, u = pen.extremes()
            fill(pen._slab)
            low = pen.lowest()
        assert _bits([c_min, c_max, low]) == _bits([want[0], want[1], want[0]])
        assert _bits(u) == _bits(want[2])


def test_pencil_solve_rejects_a_non_finite_sector(square):
    # a tiny positive weight passes the constructor, but the D-scaled entry (3, 3) of each sector
    # is not finite: D^-1/2 squares to inf for a subnormal entry, and the Gram entry times
    # D^-1/2 squared overflows for a normal one. The solve rejects the sector once, with no
    # RuntimeWarning; the one-mode mask leaves a 1 x 1 sector, which LAPACK does not reduce
    ms = build_mode_set(square, 4, 4)
    specs = (_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0)),)
    for tiny in (5e-324, 2.5e-308):
        d = WAVE.diagonal(ms)
        d[3] = tiny
        for mask in (None, np.arange(len(ms)) == 3):
            pen = Pencil(specs, ms, d, mask)
            for solve in (pen.extremes, pen.lowest):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    with pytest.raises(ValueError, match="infs or NaNs"):
                        solve()


def test_lowest_rejects_an_odd_sector_that_overflows_alone(square):
    # on mode 0 at T = 1 the diagonal of B is about -0.7 that of A, so a weight that scales A there
    # to 0.9 of the largest float keeps the even sector A + B finite and overflows the odd A - B:
    # the skip cannot prove the odd sector above the even one, and its reduction rejects it once
    ms = build_mode_set(square, 4, 4)
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=1.0)
    a, b = (np.diagonal(x) for x in pencil(spec, WAVE, ms).blocks)
    assert b[0] < -0.5 * a[0]
    d = WAVE.diagonal(ms)
    d[0] = a[0] / (0.9 * np.finfo(float).max)
    pen = Pencil((spec,), ms, d, None)
    even, odd = (np.isfinite(s).all() for s, _ in pencil_sectors(pen))
    assert even and not odd and not pen._odd_first()  # the even sector is reduced first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="infs or NaNs"):
            pen.lowest()


@pytest.mark.parametrize("case", ["zero", "negative", "nan", "short", "long"])
def test_pencil_rejects_a_weight_diagonal_that_is_not_positive_per_mode(square, case):
    # rejected at construction, with no RuntimeWarning: a zero entry would make D^-1/2 inf, a
    # negative or nan one nan
    ms = build_mode_set(square, 4, 4)
    specs = (_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0)),)
    d = WAVE.diagonal(ms)
    if case in ("short", "long"):
        d = d[:-1] if case == "short" else np.append(d, 1.0)
    else:
        d[3] = {"zero": 0.0, "negative": -1.0, "nan": math.nan}[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^energy weight must be strictly positive on every mode$"):
            Pencil(specs, ms, d, None)


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
    shapes = _recorded_reductions(monkeypatch)
    rep = empirical_constants(specs, weight, ms)
    n = len(ms)
    assert shapes == [((2 * n, 2 * n), "f")]

    # dense complex reference: the doubled pencil D^-1/2 G D^-1/2 of the summed Gram
    g = sum(dense_gram(assemble_gram(s, ms)) for s in specs)
    r = 1.0 / np.sqrt(np.tile(weight.diagonal(ms), 2))
    evals = np.linalg.eigvalsh(g * np.outer(r, r))
    c_max = evals[-1]
    assert rep.c_max == pytest.approx(c_max, rel=0.0, abs=1e-12 * c_max)
    assert rep.c_min == pytest.approx(max(evals[0], 0.0), rel=0.0, abs=1e-12 * c_max)
    c = rep.argmin_state.doubled()
    ratio = np.real(np.vdot(c, g @ c)) / energy_seminorm_sq(rep.argmin_state, weight)
    assert ratio == pytest.approx(rep.c_min, rel=0.0, abs=1e-8 * c_max)


# one observation of each region kind, with the field and model it is observed in
ONE_PER_KIND = [
    ObservationSpec(VerticalSegments(((PI / 3, (1.0, 2.0)),)), "displacement", 2.0, "plate"),
    ObservationSpec(BoundaryEdgeBottom(), "normal_derivative", 2.0, "wave"),
    ObservationSpec(BoundaryEdgeLeft(), "normal_derivative", 2.0, "wave"),
    ObservationSpec(BoundaryGamma0(), "normal_derivative", 2.0, "wave"),
    _vspec(VerticalStrip(1.0, 2.0)),
    _vspec(HorizontalStrip(1.0, 2.0)),
    _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0)),
    _vspec(VerticalLine(PI / 2)),
    _vspec(HorizontalLine(PI / 2)),
    ObservationSpec(OpenRect(0.0, 1.0, 0.5, 1.5), "displacement", 2.0, "plate"),
]


SECTOR_CASES = {type(s.region).__name__: [s] for s in ONE_PER_KIND}
SECTOR_CASES["VerticalSegments + OpenRect"] = [ONE_PER_KIND[0], ONE_PER_KIND[-1]]  # two window centres


@pytest.mark.parametrize("masked", [False, True], ids=["all modes", "masked"])
@pytest.mark.parametrize("K1, K2", [(7, 5), (5, 7)])
@pytest.mark.parametrize("name", list(SECTOR_CASES))
def test_sectors_are_the_piecewise_sum_to_the_bit(name, K1, K2, masked):
    # K1 != K2 on a non-square rectangle, so that a slip in the (k2, k1) ordering cannot hide
    specs = SECTOR_CASES[name]
    ms = build_mode_set(RectangleGeometry(PI, 2.7), K1, K2)
    weight = WAVE if specs[0].model == "wave" else EnergyWeight(-1.0, "plate")
    mask = (ms.k1 % 3 != 0) & (ms.k2 % 2 != 0) if masked else None
    got, want = pencil_sectors(pencil(specs, weight, ms, mask)), piecewise_sectors(specs, weight, ms, mask)
    assert len(got) == len(want) == (1 if len(specs) == 2 else 2)
    for (s, index), (t, want_index) in zip(got, want):
        assert s.dtype == t.dtype == np.float64
        upper = np.triu_indices(len(s))  # the one triangle the pencil writes
        assert s[upper].tobytes() == t[upper].tobytes()
        assert np.array_equal(index, want_index)


def test_eigensolver_certificate_sees_a_sector_without_its_scaling(monkeypatch):
    # D = lambda^-1 < 1 on every mode: a sector left unscaled only falls, so it keeps c_min
    ms = build_mode_set(RectangleGeometry(PI, PI), 6, 6)
    segs = VerticalSegments(((PI * (math.sqrt(2) - 1), (1.0, 2.0)),))
    spec, weight = ObservationSpec(segs, "displacement", 2.0, "plate"), EnergyWeight(-1.0, "plate")
    n = len(ms)
    rep = empirical_constants(spec, weight, ms)
    assert rep.c_min > 0
    u = pencil(spec, weight, ms).extremes()[2]
    sector = int(np.any(u[n:] != 0.0))  # the sector that holds c_min
    real = inequalities._write_sector

    def unscaled(blocks, r, k, out):
        real(blocks, np.ones_like(r) if k == sector else r, k, out)

    monkeypatch.setattr(inequalities, "_write_sector", unscaled)
    assert pencil(spec, weight, ms).lowest() < rep.c_min
    with pytest.raises(RuntimeError, match="^eigensolver certificate failed"):
        empirical_constants(spec, weight, ms)


def test_empirical_constants_peak_memory_stays_below_four_sectors():
    # the bench's K = 24 two_lines op: the sums A and B and the slab its sectors take in turn are
    # 3 n^2 floats; the per-piece Grams, summed sectors and Fortran copies of old peaked at 8.1 n^2
    ms = build_mode_set(RectangleGeometry(PI, PI), 24, 24)
    specs = [_vspec(VerticalLine(1.1), T=35.0), _vspec(HorizontalLine(2.0), T=35.0)]
    n = len(ms)
    empirical_constants(specs, WAVE, ms)
    assert peak_bytes(lambda: empirical_constants(specs, WAVE, ms)) <= 4 * n * n * 8


def test_verify_peak_memory_holds_one_layout_of_the_pencil():
    # the K = 24 pencil's sums A and B, which the sweep reads, and the one slab its solve writes the
    # sectors into are 3 n^2 floats, and the sweep's buffer holds the 8 rows present (3.84 n^2 in
    # all); a buffer of _CHUNK rows whatever the sweep held made the peak 5.28 n^2, and a second,
    # fresh copy of both sectors for the sweep 7.2 n^2
    ms = build_mode_set(RectangleGeometry(PI, PI), 24, 24)
    specs = [_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=48.0)]
    n = len(ms)
    verify_observability("two_strips", specs, random_states(ms, range(8)), {})
    assert peak_bytes(lambda: verify_observability("two_strips", specs, random_states(ms, range(8)), {})) <= 4 * n * n * 8


def test_verify_of_many_states_holds_about_two_chunks():
    # 1000 states drawn 256 at a time, as the CLI draws them: the pencil's 3 n^2 floats, the chunk
    # buffer (1.8 n^2) and either the block being drawn or, half a chunk at a time, the forms' phased
    # rows and two buffers, 6.9 n^2 in all; consumed blocks held and seven chunk-sized temporaries
    # per chunk made it 15.5 n^2, and the forms of a whole chunk at once 8.4 n^2
    ms = build_mode_set(RectangleGeometry(PI, PI), 24, 24)
    specs = [_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=48.0)]
    n = len(ms)

    def sweep():
        blocks = (random_states(ms, range(lo, min(lo + 256, 1000))) for lo in range(0, 1000, 256))
        assert verify_observability("two_strips", specs, blocks, {})["n_states"] == 1000

    sweep()
    assert peak_bytes(sweep) <= 7 * n * n * 8


def _nan_below(pen):
    """pen, its blocks A and B nan in their strict lower triangles."""
    pen.blocks[(slice(None), *np.tril_indices(len(pen.keep), -1))] = np.nan
    return pen


@pytest.mark.parametrize("masked", [False, True], ids=["all modes", "masked"])
@pytest.mark.parametrize("name", ["VerticalSegments", "VerticalSegments + OpenRect"])
def test_no_pencil_reader_touches_the_lower_triangle(monkeypatch, name, masked):
    # the producer writes the upper triangle of A and B only: the solves, the sweep's forms and
    # the certificate of a real and of a two-centre pencil keep their bits with the rest nan
    specs, ms = SECTOR_CASES[name], build_mode_set(RectangleGeometry(PI, 2.7), 7, 5)
    weight = EnergyWeight(-1.0, "plate")
    mask = (ms.k1 % 3 != 0) & (ms.k2 % 2 != 0) if masked else None
    rows = random_states(ms, range(5)).doubled()

    def readings(pen):
        return [_bits(x) for x in (*pen.extremes(), pen.lowest(), pen.quadratic_forms(rows))]

    assert readings(_nan_below(pencil(specs, weight, ms, mask))) == readings(pencil(specs, weight, ms, mask))
    if masked:  # empirical_constants solves the pencil on every mode
        return
    certified, forms, build = [], inequalities._doubled_forms, inequalities.pencil
    monkeypatch.setattr(inequalities, "_doubled_forms", lambda *args: certified.append(forms(*args)) or certified[-1])
    reports = []
    for fill in (False, True):
        monkeypatch.setattr(inequalities, "pencil", lambda *args: _nan_below(build(*args)) if fill else build(*args))
        reports.append(empirical_constants(specs, weight, ms))
    assert len(certified) == 2 and _bits(certified[0]) == _bits(certified[1])
    assert reports[0].to_json() == reports[1].to_json()


@pytest.mark.parametrize("spec", ONE_PER_KIND, ids=lambda s: type(s.region).__name__)
def test_extremes_match_an_mpmath_reference(square, spec):
    # the even and odd sectors D^-1/2 (X +- Y) D^-1/2 of the assembled blocks, formed and
    # solved at 40 digits: a reference for the float sector build and its LAPACK solve
    from mpmath import mp, mpf

    ms = build_mode_set(square, 3, 3)
    weight = WAVE if spec.model == "wave" else EnergyWeight(0.0, "plate")
    rep = empirical_constants(spec, weight, ms)
    x, y, _ = assemble_gram(spec, ms).centred
    n = len(ms)
    evals = []
    with mp.workdps(40):
        r = [1 / mp.sqrt(mpf(v)) for v in weight.diagonal(ms)]
        for sign in (1, -1):
            m = mp.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    m[i, j] = (mpf(x[i, j]) + sign * mpf(y[i, j])) * r[i] * r[j]
            evals += [float(v) for v in mp.eigsy(m, eigvals_only=True)]
    c_max = max(evals)
    assert rep.c_max == pytest.approx(c_max, rel=0.0, abs=1e-12 * c_max)
    assert rep.c_min == pytest.approx(max(min(evals), 0.0), rel=0.0, abs=1e-12 * c_max)


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


def test_pieces_of_two_models_are_not_summed(modes4):
    segs = ObservationSpec(VerticalSegments(((1.1, (0.7, 2.3)),)), "displacement", 2.0, "plate")
    strip = _vspec(VerticalStrip(1.0, 2.0))
    for weight in (WAVE, EnergyWeight(0.0, "plate")):
        with pytest.raises(ValueError, match="^all observation pieces must share one model$"):
            empirical_constants([segs, strip], weight, modes4)
    with pytest.raises(ValueError, match="share one model"):
        pencil([strip, segs], WAVE, modes4)


def test_pencil_rejects_an_empty_mask_and_rows_of_the_wrong_length(modes4):
    spec, n = _vspec(VerticalStrip(1.0, 2.0)), len(modes4)
    with pytest.raises(ValueError, match=f"mask must select some of the {n} modes"):
        pencil(spec, WAVE, modes4, np.zeros(n, dtype=bool))
    pen = pencil(spec, WAVE, modes4)
    for rows in (np.ones((3, n)), np.ones((3, 2 * n + 1)), np.ones(2 * n)):
        with pytest.raises(ValueError, match=f"rows must have length {2 * n}"):
            pen.quadratic_forms(rows)


@pytest.mark.parametrize(
    "mask",
    [np.arange(16), np.ones(16), np.full(16, 0.5), ["no"] * 16, [True] * 15, [[True] * 16]],
    ids=["ints", "floats of ones", "halves", "strings", "too short", "2-D"],
)
def test_pencil_rejects_a_mask_that_is_not_one_boolean_per_mode(modes4, mask):
    # read as booleans, arange(16) would drop mode 0 and ["no"] * 16 would keep every mode
    with pytest.raises(ValueError, match="^mask must be 16 booleans, one per mode$"):
        pencil(_vspec(VerticalStrip(1.0, 2.0)), WAVE, modes4, mask)


def test_pencil_takes_a_list_of_python_bools_as_its_mask(modes4):
    spec, mask = _vspec(VerticalStrip(1.0, 2.0)), [bool(k % 2) for k in range(16)]
    pen = pencil(spec, WAVE, modes4, mask)
    assert pen.mask.dtype == bool and np.array_equal(pen.keep, np.arange(1, 16, 2))
    assert pen.lowest() == pencil(spec, WAVE, modes4, np.array(mask)).lowest()


def test_verify_writes_sectors_for_its_solve_only(square, monkeypatch):
    # the sweep reads A and B: the sectors are written by the solve alone, as many times for 600
    # states in three chunks as for 8 states or for check_theorem, which sweeps none
    ms = build_mode_set(square, 8, 8)
    specs = [_vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=48.0)]
    writes, real = [], inequalities._write_sector
    monkeypatch.setattr(inequalities, "_write_sector", lambda *args: writes.append(args[2]) or real(*args))
    check_theorem("two_strips", specs, ms, {})
    counts = [len(writes)]
    for states in (8, 600):
        writes.clear()
        assert verify_observability("two_strips", specs, random_states(ms, range(states)), {})["n_states"] == states
        counts.append(len(writes))
    assert counts[0] in (1, 2, 3) and counts == [counts[0]] * 3


def _phased_forms(pen, c):
    """observation._doubled_forms of the pencil's blocks on every row of c at once, gathered to its modes and phased."""
    n, keep = len(pen.d), pen.keep
    p = np.exp(1j * pen.angle)[keep]
    return observation._doubled_forms(*pen.blocks, p * c[:, keep], p.conj() * c[:, n + keep])


@pytest.mark.parametrize("case", ["n=64", "masked", "2n x 2n"])
def test_pencil_forms_are_the_doubled_forms_of_the_gathered_rows(square, case):
    # the sweep's forms are the one rule of GramForm and the certificate, on the unscaled blocks, and
    # their bits do not depend on how many rows each call of it takes
    pen = _matching_pencil(square, case)
    rng = np.random.default_rng(4)
    for rows in (5, 3 * inequalities._FORM_ROWS + 1):
        c = rng.standard_normal((rows, 2 * len(pen.d))) + 1j * rng.standard_normal((rows, 2 * len(pen.d)))
        assert pen.quadratic_forms(c).tobytes() == _phased_forms(pen, c).tobytes()


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


def test_exponential_sum_integrals_share_one_form(square, monkeypatch):
    calls = []
    real = observation._exponential_form

    def counted(coeffs, axes):
        calls.append(len(axes))
        return real(coeffs, axes)

    # inequalities calls the form by the name it imports
    for module in (observation, inequalities):
        monkeypatch.setattr(module, "_exponential_form", counted)
    es = ExponentialSum((1.0, 2.0, 3.5), (1.0, 1j, -2.0), 0, 1.0)
    fams = [np.ones((2, 3)) for _ in range(4)]
    runs = [
        lambda: mehrenberger_check(es, 3 * PI),
        lambda: corollary33_check(2, [1.0, 2.0], [0.5, 1j], 20.0),
        lambda: thm21_fourfamily_form(fams, OpenRect(0.2, 1.7, 0.5, 2.0), square),
    ]
    for run, axes in zip(runs, (1, 1, 2)):
        calls.clear()
        run()
        assert calls == [axes]


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
    g = sum(dense_gram(assemble_gram(s, ms)) for s in specs)
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


def _reference_sweep(pen, stack) -> tuple:
    """(min_ratio bits, argmin_state) of the stack's rows, swept densely through the pencil.

    The rows are copied whole, each scaled by 2^-e as verify_observability
    scales it, and their forms (_phased_forms) taken at once; their energies
    are energy_seminorm_sq of the scaled stack, not a copy of the sweep's formula.
    """
    n = len(pen.d)
    c = stack.doubled()
    root = np.sqrt(np.concatenate([pen.d, pen.d]))
    e = np.clip(np.frexp(np.max(np.abs(c) * root, axis=1))[1], -1022, 1022)
    parts = c.view(float)
    parts *= np.ldexp(1.0, -e)[:, None]
    energies = energy_seminorm_sq(SpectralState(stack.mode_set, c[:, :n], c[:, n:]), WAVE)
    ratios = _phased_forms(pen, c) / energies
    i = int(np.argmin(ratios))
    return _bits(ratios[i]), i


STRIPS = ("two_strips", [CrossStrips(1.0, 2.0, 1.0, 2.0)], {})
LINES = ("two_lines", [VerticalLine(PI / 2), HorizontalLine(PI / 2)], {"p": 2, "q": 2})


@pytest.mark.parametrize(
    "theorem,regions,params,seeds,decay",
    [
        pytest.param(*STRIPS, range(600), 0.0, id="two_strips"),
        pytest.param(*LINES, range(600), 0.0, id="two_lines"),
        # rows whose energies round apart when summed in another order than energy_seminorm_sq's
        pytest.param(*STRIPS, range(600, 1200), 0.0, id="two_strips-seeds600"),
        pytest.param(*STRIPS, range(600), 1.0, id="two_strips-decay1"),
        pytest.param(*LINES, range(600), 1.0, id="two_lines-decay1"),
    ],
)
def test_sweep_gives_the_bits_of_a_dense_reference_sweep(square, theorem, regions, params, seeds, decay):
    ms = build_mode_set(square, 8, 8)
    specs = [_vspec(r, T=60.0) for r in regions]
    syms = theorem_symmetries(theorem, specs, params, square)
    mask = np.ones(len(ms), dtype=bool)
    for sym in syms:
        mask &= (ms.k1 if sym.axis == "x1" else ms.k2) % sym.p != 0
    assert mask.all() == (theorem == "two_strips")

    def drawn(lo, hi):
        return functools.reduce(project_p_symmetric, syms, random_states(ms, seeds[lo:hi], decay))

    pen = pencil(specs, WAVE, ms, mask)
    rows = drawn(0, 600).doubled()
    rows.flags.writeable = False  # the forms only read the rows they are given
    assert pen.quadratic_forms(rows).tobytes() == _phased_forms(pen, rows).tobytes()
    want = _reference_sweep(pen, drawn(0, 600))
    blocks = ((0, 100), (100, 357), (357, 600))
    for states in (drawn(0, 600), (drawn(lo, hi) for lo, hi in blocks)):  # one stack; lazy, uneven
        report = verify_observability(theorem, specs, states, params)
        assert (_bits(report["min_ratio"]), report["argmin_state"]) == want


def _two_lines(T=60.0):
    """A two_lines composite with orders 3 along x1 and 2 along x2, and its params."""
    return [_vspec(VerticalLine(PI / 3), T), _vspec(HorizontalLine(PI / 2), T)], {"p": 3, "q": 2}


def test_the_admissible_pencil_keeps_the_modes_every_symmetry_admits(square):
    ms = build_mode_set(square, 7, 6)
    specs, params = _two_lines()
    syms = theorem_symmetries("two_lines", specs, params, square)
    _, pen = next(inequalities._scan("two_lines", tuple(specs), ms, params, [60.0], False))
    want = syms[0].admits(ms) & syms[1].admits(ms)
    assert 0 < want.sum() < len(ms)
    assert np.array_equal(pen.mask, want)


def test_no_library_product_copies_an_operand(square, monkeypatch):
    # the BLAS helpers take C-contiguous operands, whose F-ordered transposes f2py passes without a
    # copy; no caller in the library hands them another. The exponential-sum form of the Ingham
    # checks and the four-family form, and axis_trace, make no product
    calls = {}

    def guarded(name, helper):
        def product(*args, **kwargs):
            for x in (*args, *kwargs.values()):
                if isinstance(x, np.ndarray):
                    assert x.flags.c_contiguous, (name, x.shape, x.strides)
            calls[name] = calls.get(name, 0) + 1
            return helper(*args, **kwargs)

        return product

    helpers = [(observation, _symmetric_product), (observation, _row_gram)]
    for module, helper in helpers:
        monkeypatch.setattr(module, helper.__name__, guarded(f"{module.__name__}.{helper.__name__}", helper))
    ms = build_mode_set(square, 8, 8)
    specs, params = _two_lines()
    syms = theorem_symmetries("two_lines", specs, params, square)
    blocks = ((0, 100), (100, 357), (357, 600))
    lazy = (functools.reduce(project_p_symmetric, syms, random_states(ms, range(lo, hi))) for lo, hi in blocks)
    assert verify_observability("two_lines", specs, lazy, params)["n_states"] == 600
    assert set(calls) == {"obslab.observation._symmetric_product"}
    empirical_constants(UNSHARED_CENTRES["VerticalStrip T=2,4"][0], WAVE, build_mode_set(square, 5, 4))
    quadrature_oracle(random_states(ms, range(3)), _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0)), 64)
    mehrenberger_check(ExponentialSum((1.0, 2.0, 3.5), (1.0, 1j, -2.0), 0, 1.0), 3 * PI)
    corollary33_check(2, [1.0, 2.0], [0.5, 1j], 20.0)
    fams = [np.random.default_rng(i).standard_normal((2, 3)) for i in range(4)]
    thm21_fourfamily_form(fams, OpenRect(0.2, 1.7, 0.5, 2.0), square)
    states.axis_trace(random_state(ms, 1), "x1", 1.0, 16)
    assert set(calls) == {"obslab.observation._symmetric_product", "obslab.observation._row_gram"}


@pytest.mark.parametrize("sizes", [[8], [600], [1] * 600, [3, 250, 347]], ids=["8", "600", "singles", "uneven"])
def test_row_chunks_cut_at_every_chunk_rows_in_a_buffer_of_the_rows_present(modes4, sizes):
    stack = random_states(modes4, range(sum(sizes)))
    starts = np.cumsum([0, *sizes])
    blocks = (SpectralState(modes4, stack.a[lo:hi], stack.b[lo:hi]) for lo, hi in zip(starts, starts[1:]))
    # a full chunk is the buffer itself, a shorter last one a view of it
    chunks = [(c.copy(), len(c if c.base is None else c.base)) for c in inequalities._row_chunks(blocks, modes4)]
    cuts = [inequalities._CHUNK] * (sum(sizes) // inequalities._CHUNK) + [sum(sizes) % inequalities._CHUNK]
    assert [len(rows) for rows, _ in chunks] == [c for c in cuts if c]
    assert np.concatenate([rows for rows, _ in chunks]).tobytes() == stack.doubled().tobytes()
    assert max(size for _, size in chunks) == min(inequalities._CHUNK, sum(sizes))


def test_verify_min_ratio_keeps_its_bits_under_decay_and_scaling(modes6):
    # the ratio does not depend on a state's scale; the energies of rows decayed toward the
    # subnormals once moved it at decay 520 and beyond
    spec = _vspec(CrossStrips(1.0, 2.0, 1.0, 2.0), T=60.0)

    def sweep(states):
        report = verify_observability("two_strips", spec, states, {})
        return _bits(report["min_ratio"]), report["argmin_state"]

    decayed = {sweep(random_states(modes6, range(1, 51), decay)) for decay in (300, 510, 520, 530)}
    assert len(decayed) == 1
    rows = random_states(modes6, range(1, 51))
    want = sweep(rows)
    for j in range(0, 1000, 100):
        assert sweep(SpectralState(modes6, rows.a * 2.0**-j, rows.b * 2.0**-j)) == want


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

    # the row producer builds each spec's axis factors, then its rows at one T; the pencil calls
    # it by the name inequalities imports
    monkeypatch.setattr(observation, "_axis_factors", counted(sums, observation._axis_factors))
    rows = counted(grams, observation._gram_rows)
    for module in (observation, inequalities):
        monkeypatch.setattr(module, "_gram_rows", rows)
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
    assert check["empirical_c_min"] == pencil(spec, WAVE, ms).lowest()
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
    with pytest.raises(ValueError, match="^p must be a finite integer, got 2.5$"):
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
