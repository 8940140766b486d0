"""Full acceptance sweep: twelve primary checks, one test per criterion.

Each test prints one `criterion N: PASS|FAIL - <detail>` line with its measured
numbers before asserting, so a red criterion still reports its data.
"""

import math

import numpy as np
import pytest

from obslab import (
    BoundaryEdgeBottom,
    BoundaryGamma0,
    CrossStrips,
    EnergyWeight,
    HorizontalLine,
    HorizontalStrip,
    ObservationSpec,
    OpenRect,
    RectangleGeometry,
    SpectralState,
    SymmetrySpec,
    VerticalLine,
    VerticalSegments,
    VerticalStrip,
    assemble_gram,
    build_algebraic_points,
    build_mode_set,
    check_gap_lemma,
    empirical_constants,
    energy_seminorm_sq,
    estimate_gamma,
    ExponentialSum,
    m_ab,
    mehrenberger_check,
    partial_gap_analysis,
    project_p_symmetric,
    quadrature_oracle,
    random_state,
    random_states,
    sin_sum_lower_bound_check,
    sine_dist_check,
    symmetry_residual,
    verify_observability,
)
from obslab.states import axis_trace

PI = math.pi


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def modes16(square):
    return build_mode_set(square, 16, 16)


def test_criterion_01_oracle_equivalence(square):
    ms = build_mode_set(square, 8, 8)
    states = random_states(ms, range(20))  # rows bitwise equal to random_state(ms, seed)
    t = 5.0
    segs = VerticalSegments(
        ((PI * (math.sqrt(2) - 1), (1.0, 2.0)), (PI / 3, (0.5, 2.5)))
    )
    pairs = [
        (segs, "displacement", "plate"),
        (BoundaryGamma0(), "normal_derivative", "wave"),
        (VerticalStrip(1.0, 2.0), "velocity", "wave"),
        (HorizontalStrip(1.0, 2.0), "velocity", "wave"),
        (CrossStrips(1.0, 2.0, 1.0, 2.0), "velocity", "wave"),
        (VerticalLine(PI / 2), "velocity", "wave"),
        (HorizontalLine(PI / 2), "velocity", "wave"),
        (OpenRect(0.0, 1.0, 0.5, 1.5), "displacement", "plate"),
    ]
    worst = {}
    for region, field, model in pairs:
        spec = ObservationSpec(region, field, t, model)
        gram = assemble_gram(spec, ms)
        exact = gram.quadratic_form(states)
        quad = quadrature_oracle(states, spec, 2048)
        worst[type(region).__name__] = float(np.max(np.abs(quad - exact) / np.abs(exact)))
    # composite Gauss-Legendre panels converge exponentially on these band-limited integrands
    # (L. N. Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Rev. 50 (2008) 67-87)
    top = max(worst, key=worst.get)
    ok = all(v <= 1e-12 for v in worst.values())
    _line(1, ok, f"closed Gram vs Gauss-Legendre oracle (Trefethen 2008), worst {top} rel err {worst[top]:.3e}")
    for kind, rel in worst.items():
        assert rel <= 1e-12, f"{kind}: {rel}"


def test_criterion_02_energy_identity(square):
    ms = build_mode_set(square, 8, 8)
    k = np.arange(1, 9)
    freq = np.sqrt(ms.lam)
    x, gw = np.polynomial.legendre.leggauss(160)
    x = 0.5 * PI * (x + 1.0)
    gw = 0.5 * PI * gw
    sin_t = np.sin(np.outer(x, k))
    cos_t = np.cos(np.outer(x, k))

    def field(cmat, f1, f2):
        return f1 @ cmat.T @ f2.T

    worst = 0.0
    for seed in range(20):
        state = random_state(ms, seed)
        u0 = (state.a + state.b).reshape(8, 8)
        u1 = (1j * freq * (state.a - state.b)).reshape(8, 8)
        d1 = field(u0 * k[None, :], cos_t, sin_t)
        d2 = field(u0 * k[:, None], sin_t, cos_t)
        v = field(u1, sin_t, sin_t)
        quad = float(gw @ (np.abs(d1) ** 2 + np.abs(d2) ** 2 + np.abs(v) ** 2) @ gw)
        spectral = energy_seminorm_sq(state, EnergyWeight(0.0, "wave"))
        worst = max(worst, abs(quad - spectral) / spectral)
    ok = worst <= 1e-8
    _line(2, ok, f"spectral energy vs 2-D quadrature, worst rel err {worst:.3e}")
    assert ok


def test_criterion_03_gap_lemma_brute_force():
    bound_unit = 1.0 / (2.0 * math.sqrt(2.0))
    k = np.arange(1, 201, dtype=float)
    steps = np.abs(k[:, None] - k[None, :])
    larger = np.maximum(k[:, None], k[None, :])
    failures = 0
    for k2 in range(1, 201):
        s = np.sqrt(k * k + float(k2) ** 2)
        lhs = np.abs(s[:, None] - s[None, :])
        admissible = (larger >= k2) & (steps > 0)
        failures += int(np.count_nonzero(lhs[admissible] < steps[admissible] * bound_unit))
    rng = np.random.default_rng(17)
    spot = 0
    while spot < 3000:
        k1, k1p, k2 = (int(v) for v in rng.integers(1, 201, size=3))
        if k1 == k1p or max(k1, k1p) < k2:
            continue
        assert check_gap_lemma(k1, k1p, k2)["holds"]
        spot += 1
    ok = failures == 0
    _line(3, ok, f"frequency gap bound over all admissible triples <= 200, {failures} failures")
    assert ok


def test_criterion_04_sine_distance_scan():
    x = np.arange(1, 3142) * 1e-3  # the 1e-3 grid strictly inside (0, pi)
    failures = [k for k in range(1, 1001) if not sine_dist_check(x, k)]
    ok = not failures
    _line(4, ok, f"|sin kx| >= 2 dist(kx/pi, Z) - 1e-12 for k <= 1000, {len(failures)} failures")
    assert ok, failures


def _mab_quadrature_oracle(a: float, b: float, n_max: int = 100) -> float:
    x, w = np.polynomial.legendre.leggauss(512)
    x = 0.5 * (b - a) * (x + 1.0) + a
    w = 0.5 * (b - a) * w
    return min(float(w @ np.sin(n * x) ** 2) for n in range(1, n_max + 1))


def test_criterion_05_interval_constants():
    full = m_ab(0.0, PI)["value"]
    centered = m_ab(PI / 4, 3 * PI / 4)["value"]
    err = {
        "m(0,pi) vs pi/2": abs(full - PI / 2),
        "m(0,pi) vs oracle": abs(full - _mab_quadrature_oracle(0.0, PI)),
        "m(pi/4,3pi/4) vs pi/4-1/6": abs(centered - (PI / 4 - 1.0 / 6.0)),
        "m(pi/4,3pi/4) vs oracle": abs(centered - _mab_quadrature_oracle(PI / 4, 3 * PI / 4)),
    }
    ok = all(v <= 1e-12 for v in err.values())
    top = max(err, key=err.get)
    _line(5, ok, f"closed interval constants, worst |err| {err[top]:.3e} ({top})")
    for name, v in err.items():
        assert v <= 1e-12, name


def test_criterion_06_two_strips_sweep(modes16):
    m = min(m_ab(1.0, 2.0)["value"], m_ab(1.0, 2.0)["value"])
    t = 1.05 * math.sqrt(32 * PI**2 + 16 * PI**3 / m)
    spec = ObservationSpec(CrossStrips(1.0, 2.0, 1.0, 2.0), "velocity", t, "wave")
    states = [random_state(modes16, seed) for seed in range(1000)]
    report = verify_observability("two_strips", spec, states, {})
    ok = (
        report["empirical_c_min"] >= report["c_predicted"]
        and report["passed"]
        and report["min_ratio"] >= report["c_predicted"] * (1 - 1e-9)
    )
    _line(
        6,
        ok,
        f"cross strips at T={t:.4f}: pencil c_min {report['empirical_c_min']:.4f} vs "
        f"predicted {report['c_predicted']:.6f}, 1000-state min ratio {report['min_ratio']:.4f}",
    )
    assert t == pytest.approx(47.84977149867659, rel=1e-12)
    assert report["c_predicted"] == pytest.approx(0.2539734614140625, rel=1e-12)
    assert report["empirical_c_min"] >= report["c_predicted"]
    assert report["passed"]


def test_criterion_07_two_lines_sweep(modes16):
    t = 9 * PI
    specs = [
        ObservationSpec(VerticalLine(PI / 2), "velocity", t, "wave"),
        ObservationSpec(HorizontalLine(PI / 2), "velocity", t, "wave"),
    ]
    states = []
    for seed in range(500):
        state = random_state(modes16, seed)
        state = project_p_symmetric(state, SymmetrySpec(2, "x1", PI / 2))
        state = project_p_symmetric(state, SymmetrySpec(2, "x2", PI / 2))
        states.append(state)
    report = verify_observability("two_lines", specs, states, {"p": 2, "q": 2})
    printed_c = 2 * (t**2 - 64 * PI**2) / (PI**2 * t)
    ok = report["passed"] and abs(report["c_predicted"] - printed_c) <= 1e-14 * printed_c
    _line(
        7,
        ok,
        f"two lines at T=9pi: c predicted {report['c_predicted']:.10f} "
        f"(printed form {printed_c:.10f}), 500-state min ratio {report['min_ratio']:.4f}",
    )
    assert report["c_predicted"] == pytest.approx(printed_c, rel=1e-14)
    assert report["passed"]


def test_criterion_08_line_composites(modes16):
    m_p = M_p = 0.75  # p = 3, alpha = pi/3
    states = [
        project_p_symmetric(random_state(modes16, seed), SymmetrySpec(3, "x1", PI / 3))
        for seed in range(500)
    ]
    m_cd = m_ab(1.0, 2.0)["value"]

    thr_strip = math.sqrt(max(32 * PI**2 + 16 * PI**3 / m_p, 32 * PI**2 + 32 * PI**2 * M_p / m_cd))
    t1 = 1.05 * thr_strip
    strip_specs = [
        ObservationSpec(VerticalLine(PI / 3), "velocity", t1, "wave"),
        ObservationSpec(HorizontalStrip(1.0, 2.0), "velocity", t1, "wave"),
    ]
    r1 = verify_observability("line_plus_strip", strip_specs, states, {"p": 3})

    thr_edge = math.sqrt(32 * PI**2 * max(1 + 2 * M_p, 1 + 1 / m_p))
    t2 = 1.05 * thr_edge
    edge_specs = [
        ObservationSpec(VerticalLine(PI / 3), "velocity", t2, "wave"),
        ObservationSpec(BoundaryEdgeBottom(), "normal_derivative", t2, "wave"),
    ]
    r2 = verify_observability("line_plus_edge", edge_specs, states, {"p": 3})

    ok = r1["passed"] and r2["passed"]
    _line(
        8,
        ok,
        f"line+strip min ratio {r1['min_ratio']:.4f} vs c {r1['c_predicted']:.6f}; "
        f"line+edge min ratio {r2['min_ratio']:.4f} vs c {r2['c_predicted']:.6f}",
    )
    assert r1["T_threshold"] == pytest.approx(34.008806851091336, rel=1e-12)
    assert r2["T_threshold"] == pytest.approx(28.099258924162907, rel=1e-12)
    assert r1["passed"]
    assert r2["passed"]


def test_criterion_09_diophantine_chain(square):
    points = build_algebraic_points(1, PI)
    report = estimate_gamma(points, 10**6)
    golden = 6 - 4 * math.sqrt(2)
    gamma_err = abs(report.gamma_hat - golden)

    chain_fail = [
        k1
        for k1 in range(1, 10**4 + 1)
        if not sin_sum_lower_bound_check(k1, points.alphas, PI, 1, report.gamma_hat)
    ]

    ms = build_mode_set(square, 12, 12)
    segs = VerticalSegments(((points.alphas[0], (1.0, 2.0)),))
    spec = ObservationSpec(segs, "displacement", 2.0, "plate")
    rep = empirical_constants(spec, EnergyWeight(-1.0, "plate"), ms)

    ok = gamma_err <= 1e-9 and not chain_fail and rep.c_min > 0
    _line(
        9,
        ok,
        f"gamma_hat err {gamma_err:.2e}, sine chain failures {len(chain_fail)}, "
        f"plate c_min {rep.c_min:.6e} at K=12",
    )
    assert gamma_err <= 1e-9
    assert not chain_fail
    assert rep.c_min > 0
    assert rep.c_min == pytest.approx(0.09870512484776808, rel=1e-6)


def test_criterion_10_mehrenberger_sweep():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(200):
        w = np.sort(np.arange(1, 51) + rng.uniform(-0.1, 0.1, 50))
        a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        for n in (0, 5):
            gamma = partial_gap_analysis(list(w), n)["gamma"]
            es = ExponentialSum(tuple(w), tuple(a), n, gamma)
            if not mehrenberger_check(es, 2.5 * (2 * PI / gamma))["holds"]:
                failures += 1
    ok = failures == 0
    _line(10, ok, f"200 random 50-term sums, n in {{0, 5}}: {failures} failures")
    assert ok


def test_criterion_11_symmetry_equivalence(square):
    ms = build_mode_set(square, 8, 8)
    transverse, grid = 1.3, 120
    worst_proj, worst_built, worst_injected = 0.0, 0.0, math.inf
    for p in (2, 3, 5):
        spec = SymmetrySpec(p, "x1", PI / p)
        keep = ms.k1 % p != 0
        for seed in range(100):
            proj = project_p_symmetric(random_state(ms, seed), spec)
            tr = axis_trace(proj, "x1", transverse, grid)
            worst_proj = max(worst_proj, symmetry_residual(tr, p))
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            a = (rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))) * keep
            b = (rng.standard_normal(len(ms)) + 1j * rng.standard_normal(len(ms))) * keep
            built = SpectralState(ms, a, b)
            tr = axis_trace(built, "x1", transverse, grid)
            worst_built = max(worst_built, symmetry_residual(tr, p))
        for seed in range(10):
            proj = project_p_symmetric(random_state(ms, seed), spec)
            bumped = proj.a.copy()
            bumped[ms.index_of(p, 1)] += 1e-6
            tr = axis_trace(SpectralState(ms, bumped, proj.b), "x1", transverse, grid)
            worst_injected = min(worst_injected, symmetry_residual(tr, p))
    ok = worst_proj <= 1e-10 and worst_built <= 1e-10 and worst_injected > 1e-7
    _line(
        11,
        ok,
        f"projected residual <= {worst_proj:.2e}, built-from-allowed <= {worst_built:.2e}, "
        f"injected multiple-of-p residual >= {worst_injected:.2e}",
    )
    assert worst_proj <= 1e-10
    assert worst_built <= 1e-10
    assert worst_injected > 1e-7


def test_criterion_12_rectangle_stability(square):
    spec = ObservationSpec(OpenRect(0.0, 1.0, 0.5, 1.5), "displacement", 1.0, "plate")
    weight = EnergyWeight(0.0, "plate")
    c1, c2 = {}, {}
    for k in (4, 8, 12):
        rep = empirical_constants(spec, weight, build_mode_set(square, k, k))
        c1[k], c2[k] = rep.c_min, rep.c_max
        print(f"criterion 12 data: K={k:2d} c1={rep.c_min:.6e} c2={rep.c_max:.6f}")
    c1_stable = c1[12] >= 0.5 * c1[4]
    c2_stable = c2[12] <= 2 * c2[4]
    c1_note = "holds" if c1_stable else "fails, new near-coincident mode pairs keep entering"
    _line(
        12,
        c1_stable and c2_stable,
        f"c1(12)={c1[12]:.3e} vs 0.5*c1(4)={0.5 * c1[4]:.3e} ({c1_note}); "
        f"c2(12)={c2[12]:.4f} vs 2*c2(4)={2 * c2[4]:.4f} ({'holds' if c2_stable else 'fails'})",
    )
    assert c2_stable
    assert c1_stable, (
        f"lower frame constant keeps sharpening under truncation refinement: "
        f"c1(4)={c1[4]:.6e}, c1(8)={c1[8]:.6e}, c1(12)={c1[12]:.6e}"
    )
