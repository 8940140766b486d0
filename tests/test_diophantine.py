"""Algebraic point sets, integer fixed-point scans, distance checks."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obslab import (
    AlgebraicPointSet,
    build_algebraic_points,
    dist_to_integers,
    estimate_gamma,
    sine_dist_check,
)
from obslab import diophantine
from obslab.diophantine import _CHUNK, _FP_ONE, _int_nth_root, _scaled_dist


def test_int_nth_root_examples():
    assert _int_nth_root(8, 3) == 2
    assert _int_nth_root(7, 3) == 1
    assert _int_nth_root(0, 5) == 0
    assert _int_nth_root(1, 7) == 1
    assert _int_nth_root(10**30, 2) == 10**15
    with pytest.raises(ValueError):
        _int_nth_root(-1, 2)
    with pytest.raises(ValueError):
        _int_nth_root(4, 0)


@given(st.integers(min_value=0, max_value=10**36), st.integers(min_value=1, max_value=7))
@settings(max_examples=200)
def test_int_nth_root_is_exact_floor(n, r):
    x = _int_nth_root(n, r)
    assert x**r <= n < (x + 1) ** r


def test_build_points_m1():
    ps = build_algebraic_points(1, math.pi)
    assert ps.M == 1 and ps.field_degree == 2
    assert ps.theta[0] == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
    assert ps.alphas[0] == pytest.approx(math.pi * (math.sqrt(2) - 1), rel=1e-15)
    # the stored fixed-point value is the exact floor of theta * 2^96
    assert ps.theta_fp[0] == _int_nth_root(1 << (1 + 96 * 2), 2) - _FP_ONE


def test_build_points_m2():
    ps = build_algebraic_points(2, 1.0)
    assert ps.theta[0] == pytest.approx(2 ** (1 / 3) - 1, rel=1e-14)
    assert ps.theta[1] == pytest.approx(2 ** (2 / 3) - 1, rel=1e-14)
    assert ps.field_degree == 3
    assert len(set(ps.theta)) == 2


def test_build_points_validation():
    with pytest.raises(ValueError):
        build_algebraic_points(0, 1.0)
    with pytest.raises(ValueError):
        build_algebraic_points(1, 0.0)
    for ell1 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            build_algebraic_points(1, ell1)


def test_point_set_validation():
    with pytest.raises(ValueError):
        AlgebraicPointSet(1, (1.5,), (1.0,))
    with pytest.raises(ValueError):
        AlgebraicPointSet(2, (0.3, 0.3), (1.0, 1.0))
    with pytest.raises(ValueError):
        AlgebraicPointSet(2, (0.3, 0.4), (1.0,))
    with pytest.raises(ValueError):
        AlgebraicPointSet(1, (0.3,), (-1.0,))
    with pytest.raises(ValueError):
        AlgebraicPointSet(1, (0.3,), (1.0,), theta_fp=(0,))
    with pytest.raises(ValueError):
        AlgebraicPointSet(1, (0.3,), (math.inf,))


def test_dist_to_integers_examples():
    assert dist_to_integers(0.3) == pytest.approx(0.3, abs=1e-15)
    assert dist_to_integers(1.7) == pytest.approx(0.3, abs=1e-15)
    assert dist_to_integers(-0.5) == 0.5
    assert dist_to_integers(2.0) == 0.0
    arr = dist_to_integers(np.array([0.1, 0.9, 2.4]))
    assert isinstance(arr, np.ndarray)
    assert np.allclose(arr, [0.1, 0.1, 0.4], atol=1e-15)


@given(st.floats(min_value=-100.0, max_value=100.0))
def test_dist_to_integers_properties(x):
    d = dist_to_integers(x)
    assert 0.0 <= d <= 0.5
    assert dist_to_integers(-x) == d
    assert dist_to_integers(x + 1.0) == pytest.approx(d, abs=1e-12)


def test_estimate_gamma_k1():
    ps = build_algebraic_points(1, math.pi)
    rep = estimate_gamma(ps, 1)
    assert rep.argmin_k == 1
    assert rep.gamma_hat == pytest.approx(math.sqrt(2) - 1, rel=1e-15)


def test_estimate_gamma_golden_value():
    ps = build_algebraic_points(1, math.pi)
    rep = estimate_gamma(ps, 1000)
    assert rep.gamma_hat == pytest.approx(6 - 4 * math.sqrt(2), abs=1e-12)
    assert rep.argmin_k == 2
    assert rep.K_max == 1000


def test_estimate_gamma_nonincreasing():
    ps = build_algebraic_points(2, 1.0)
    g = [estimate_gamma(ps, k).gamma_hat for k in (10, 100, 1000)]
    assert g[0] >= g[1] >= g[2] > 0


def test_estimate_gamma_matches_exact_rational_scan():
    ps = build_algebraic_points(1, math.pi)
    rep = estimate_gamma(ps, 50)
    theta = Fraction(ps.theta_fp[0], _FP_ONE)
    best = None
    for k in range(1, 51):
        frac = (k * theta) % 1
        d = min(frac, 1 - frac)
        best = d * k if best is None or d * k < best else best
    assert rep.gamma_hat == pytest.approx(float(best), rel=1e-15)


def test_estimate_gamma_certifies_sampled_k():
    ps = build_algebraic_points(1, math.pi)
    rep = estimate_gamma(ps, 10**4)
    rng = np.random.default_rng(0)
    for k in rng.integers(1, 10**4 + 1, size=200):
        d = dist_to_integers(int(k) * ps.theta[0])
        assert int(k) * d >= rep.gamma_hat - 1e-9


def test_estimate_gamma_m2_positive():
    ps = build_algebraic_points(2, 1.0)
    rep = estimate_gamma(ps, 500)
    assert rep.gamma_hat > 0
    # re-check the reported minimum in plain floats
    d = max(dist_to_integers(rep.argmin_k * t) for t in ps.theta)
    assert rep.gamma_hat == pytest.approx(rep.argmin_k**0.5 * d, rel=1e-9)


def test_estimate_gamma_validation():
    ps = build_algebraic_points(1, math.pi)
    with pytest.raises(ValueError):
        estimate_gamma(ps, 0)


def test_report_json_keys():
    ps = build_algebraic_points(1, math.pi)
    rep = estimate_gamma(ps, 100)
    doc = json.loads(rep.to_json())
    assert set(doc) == {
        "M", "generator", "independence", "theta", "K_max", "gamma_hat", "argmin_k",
    }
    assert doc["M"] == 1 and doc["K_max"] == 100
    assert doc["gamma_hat"] == rep.gamma_hat
    assert rep.to_json() == rep.to_json()


def test_sine_dist_check_small_grid():
    x = np.linspace(1e-3, math.pi - 1e-3, 500)
    for k in range(1, 51):
        assert sine_dist_check(x, k)


def test_sine_dist_check_sharp_at_half_integers():
    assert sine_dist_check(np.array([math.pi / 2]), 1)
    assert sine_dist_check(np.array([math.pi / 2]), 3)


def test_sine_dist_check_validation():
    with pytest.raises(ValueError):
        sine_dist_check(np.array([1.0]), 1.5)


def _reference_scan(points, k_maxes):
    """(gamma_hat, argmin_k) at each K_max from a plain integer loop over k."""
    M, fps = points.M, points.theta_fp
    accs = [0] * M
    best = None
    out = {}
    for k in range(1, max(k_maxes) + 1):
        dmax = 0
        for j, fp in enumerate(fps):
            accs[j] = (accs[j] + fp) % _FP_ONE
            dmax = max(dmax, min(accs[j], _FP_ONE - accs[j]))
        if best is None or k * dmax**M < best[0]:
            best = (k * dmax**M, k, dmax)
        if k in k_maxes:
            out[k] = None if best[2] == 0 else (best[1] ** (1.0 / M) * (best[2] / _FP_ONE), best[1])
    return out


@pytest.mark.parametrize("M", [1, 2, 3, 4, 12])
def test_estimate_gamma_matches_the_integer_loop_across_chunks(M):
    ps = build_algebraic_points(M, math.pi)
    k_maxes = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
    for k_max, (gamma_hat, argmin_k) in _reference_scan(ps, k_maxes).items():
        rep = estimate_gamma(ps, k_max)
        assert (rep.gamma_hat, rep.argmin_k) == (gamma_hat, argmin_k)


def _hand_built(*fps):
    """A point set with the given fixed-point values; the floats only label them."""
    n = len(fps)
    theta = tuple((j + 1) / (n + 1) for j in range(n))
    return AlgebraicPointSet(n, theta, theta, theta_fp=fps)


@pytest.mark.parametrize("chunk", [1, 2, 3, _CHUNK])
def test_estimate_gamma_ties_go_to_the_first_k(monkeypatch, chunk):
    # theta = 3/8: k dist(k theta, Z) is 3/8 at k = 1 and at k = 3, larger for k = 2, 4..7
    monkeypatch.setattr(diophantine, "_CHUNK", chunk)
    ps = _hand_built(3 << 93)
    rep = estimate_gamma(ps, 7)
    assert (rep.gamma_hat, rep.argmin_k) == (0.375, 1)
    assert _reference_scan(ps, (7,))[7] == (0.375, 1)


@pytest.mark.parametrize("num,den,argmin_k,float_argmin", [(5, 24, 1, 5), (3, 10, 3, 1)])
def test_estimate_gamma_near_ties_that_floats_misorder(num, den, argmin_k, float_argmin):
    # theta just above num/den: two k share k dist(k theta, Z) to below 2^-89
    # relative, and rounding ranks them the other way, so the float filter
    # needs its margin
    fp = num * _FP_ONE // den + 1
    ps = _hand_built(fp)
    val = np.arange(1, 8) * _scaled_dist(fp, fp, np.arange(7, dtype=np.uint64))
    assert int(np.argmin(val)) + 1 == float_argmin
    rep = estimate_gamma(ps, 7)
    assert rep.argmin_k == argmin_k
    assert _reference_scan(ps, (7,))[7] == (rep.gamma_hat, rep.argmin_k)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("M", [1, 12])
def test_estimate_gamma_across_half(sign, M):
    # odd k put every multiple just above (sign 1) or below (sign -1) 2^95, even k
    # near 0 or 2^96; at M = 12 every even k's k (d / 2^96)^M underflows to 0
    ps = _hand_built(*((1 << 95) + sign * j for j in range(1, M + 1)))
    rep = estimate_gamma(ps, _CHUNK + 1)
    assert _reference_scan(ps, (_CHUNK + 1,))[_CHUNK + 1] == (rep.gamma_hat, rep.argmin_k)
    assert rep.argmin_k == 2


def test_estimate_gamma_rejects_an_exact_zero_in_a_later_chunk():
    ps = _hand_built(1 << 81)  # 2^15 theta is an integer
    assert 1 << 15 > _CHUNK
    assert _reference_scan(ps, (2 * _CHUNK + 1,))[2 * _CHUNK + 1] is None
    with pytest.raises(RuntimeError):
        estimate_gamma(ps, 2 * _CHUNK + 1)
    assert estimate_gamma(ps, (1 << 15) - 1).argmin_k == 1


_HALF = _FP_ONE >> 1


@given(
    st.integers(min_value=0, max_value=_FP_ONE - 1),
    st.integers(min_value=1, max_value=_FP_ONE - 1),
)
@example(_HALF - 3, 1)
@example(_HALF + (1 << 63), 1)
@example(_HALF - (1 << 63), 1)
@example(_FP_ONE - (1 << 32), 1 << 32)
@example(_FP_ONE - (1 << 64), 1 << 64)
@example(_HALF - 3, _FP_ONE - 1)
@example(_HALF - (1 << 40), (1 << 40) - 7)
@example(_FP_ONE - 5, 1)
@settings(max_examples=300)
def test_scaled_dist_is_the_rounded_exact_distance(base, fp):
    i = np.arange(8, dtype=np.uint64)
    got = _scaled_dist(base, fp, i)
    for step, value in zip(range(8), got):
        acc = (base + step * fp) % _FP_ONE
        exact = Fraction(min(acc, _FP_ONE - acc), _FP_ONE)
        assert abs(Fraction(float(value)) - exact) <= exact * Fraction(1, 1 << 52)
