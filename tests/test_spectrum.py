"""Mode sets, eigenvalues, and gap analysis on the rectangle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import (
    RectangleGeometry,
    build_mode_set,
    check_gap_lemma,
    partial_gap_analysis,
)


def test_geometry_derived_constants():
    g = RectangleGeometry(1.0, 2.0)
    assert g.u == pytest.approx(math.pi**2, rel=1e-15)
    assert g.v == pytest.approx(math.pi**2 / 4, rel=1e-15)
    assert g.z == pytest.approx(math.pi / 2, rel=1e-15)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_geometry_identities(ell1, ell2):
    g = RectangleGeometry(ell1, ell2)
    assert g.u * ell1**2 == pytest.approx(math.pi**2, rel=1e-12)
    assert g.v * ell2**2 == pytest.approx(math.pi**2, rel=1e-12)
    assert g.z * ell2 == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize(
    "ell1,ell2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)]
)
def test_geometry_rejects_bad_lengths(ell1, ell2):
    with pytest.raises(ValueError):
        RectangleGeometry(ell1, ell2)


def test_single_mode_square(square):
    ms = build_mode_set(square, 1, 1)
    assert len(ms.modes) == 1
    m = ms.modes[0]
    assert (m.k1, m.k2) == (1, 1)
    assert m.lam == pytest.approx(2.0, rel=1e-15)
    assert m.wave_freq == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_mode_eigenvalues(square):
    ms = build_mode_set(square, 4, 4)
    assert ms.modes[ms.index_of(1, 2)].lam == pytest.approx(5.0, rel=1e-15)
    g = RectangleGeometry(1.0, 2.0)
    ms2 = build_mode_set(g, 3, 1)
    lam = ms2.modes[ms2.index_of(3, 1)].lam
    assert lam == pytest.approx(9 * math.pi**2 + math.pi**2 / 4, rel=1e-15)


def test_mode_ordering_is_row_major_in_k2_k1(square):
    ms = build_mode_set(square, 3, 2)
    assert [(m.k1, m.k2) for m in ms.modes] == [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2),
    ]
    for i, m in enumerate(ms.modes):
        assert ms.index_of(m.k1, m.k2) == i


def test_mode_set_size_and_uniqueness(square):
    ms = build_mode_set(square, 5, 7)
    assert len(ms.modes) == 35
    assert len({(m.k1, m.k2) for m in ms.modes}) == 35


def test_lambda_increases_along_each_index(square):
    ms = build_mode_set(square, 6, 6)
    for k2 in range(1, 7):
        row = [ms.modes[ms.index_of(k1, k2)].lam for k1 in range(1, 7)]
        assert row == sorted(row)
    for k1 in range(1, 7):
        col = [ms.modes[ms.index_of(k1, k2)].lam for k2 in range(1, 7)]
        assert col == sorted(col)


def test_build_mode_set_deterministic(square):
    a = build_mode_set(square, 4, 4)
    b = build_mode_set(square, 4, 4)
    assert [(m.k1, m.k2, m.lam, m.wave_freq) for m in a.modes] == [
        (m.k1, m.k2, m.lam, m.wave_freq) for m in b.modes
    ]


def test_mode_set_arrays_match_modes():
    ms = build_mode_set(RectangleGeometry(1.0, 2.0), 3, 2)
    for name in ("k1", "k2", "lam"):
        values = getattr(ms, name)
        assert values.tolist() == [getattr(m, name) for m in ms.modes]
        assert not values.flags.writeable
    twin = build_mode_set(RectangleGeometry(1.0, 2.0), 3, 2)
    assert ms == twin and hash(ms) == hash(twin)
    assert ms != build_mode_set(RectangleGeometry(1.0, 2.0), 2, 3)
    assert "lam" not in repr(ms)


@pytest.mark.parametrize("K1,K2", [(0, 1), (1, 0), (-2, 3)])
def test_build_mode_set_rejects_bad_truncation(square, K1, K2):
    with pytest.raises(ValueError):
        build_mode_set(square, K1, K2)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_plate_freq_is_square_of_wave_freq(k1, k2):
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), 30, 30)
    m = ms.modes[ms.index_of(k1, k2)]
    assert m.plate_freq == pytest.approx(m.wave_freq**2, rel=1e-12)
    assert m.lam > 0


def test_gap_lemma_examples():
    r = check_gap_lemma(3, 1, 2)
    assert r["lhs"] == pytest.approx(math.sqrt(13) - math.sqrt(5), rel=1e-12)
    assert r["bound"] == pytest.approx(2 / (2 * math.sqrt(2)), rel=1e-12)
    assert r["holds"]
    r = check_gap_lemma(2, 1, 1)
    assert r["lhs"] == pytest.approx(math.sqrt(5) - math.sqrt(2), rel=1e-12)
    assert r["bound"] == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
    assert r["holds"]


@pytest.mark.parametrize("k1,k1p,k2", [(1, 2, 5), (2, 2, 1), (0, 1, 1), (1, -1, 1)])
def test_gap_lemma_rejects_inadmissible(k1, k1p, k2):
    with pytest.raises(ValueError):
        check_gap_lemma(k1, k1p, k2)


def test_gap_lemma_small_exhaustive():
    # brute-force oracle on a small range; the full range is in acceptance
    for k2 in range(1, 41):
        for k1 in range(1, 41):
            for k1p in range(1, k1):
                if max(k1, k1p) < k2:
                    continue
                assert check_gap_lemma(k1, k1p, k2)["holds"]


def test_partial_gap_integers():
    r = partial_gap_analysis([float(k) for k in range(1, 11)], 0)
    assert r["gamma"] == pytest.approx(1.0, rel=1e-15)
    assert r["satisfied"]


def test_partial_gap_row_bound():
    w = [math.sqrt(k1**2 + 4) for k1 in range(1, 11)]
    r = partial_gap_analysis(w, 2)
    assert r["gamma"] >= 1 / (2 * math.sqrt(2)) - 1e-12
    assert r["satisfied"]


def test_partial_gap_exempts_pairs_below_n():
    # duplicated frequency at indices 1 and 2, n=3: the pair is exempt
    w = [1.0, 1.0, 5.0, 6.0]
    r = partial_gap_analysis(w, 3)
    assert r["satisfied"]
    assert r["gamma"] > 0


def test_partial_gap_needs_two_frequencies():
    with pytest.raises(ValueError):
        partial_gap_analysis([1.0], 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_partial_gap_rejects_non_finite_frequencies(bad):
    # a loop's min(inf, nan) would drop the nan and report gamma 1.0
    with pytest.raises(ValueError, match="finite"):
        partial_gap_analysis([1.0, bad, 3.0], 0)


def _reference_gap(w, n, idx):
    gamma = math.inf
    for a in range(len(w)):
        for b in range(a + 1, len(w)):
            if max(abs(idx[a]), abs(idx[b])) < n:
                continue
            step = abs(idx[b] - idx[a])
            if step == 0:
                raise ValueError("duplicate indices")
            gamma = min(gamma, abs(w[b] - w[a]) / step)
    return gamma


@given(
    st.integers(min_value=2, max_value=600),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["positions", "centred", "duplicate"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_partial_gap_matches_the_pair_loop_bitwise(size, n, labels, seed):
    rng = np.random.default_rng(seed)
    # a few rounded values make exact frequency ties likely
    w = np.round(rng.uniform(-50.0, 50.0, size), int(rng.integers(0, 4))).tolist()
    if labels == "positions":
        idx, indices = list(range(1, size + 1)), None
    else:
        idx = list(range(-(size // 2), size - size // 2))
        if labels == "duplicate":
            i, j = rng.choice(size, 2, replace=False)
            idx[j] = idx[i]
        indices = idx
    try:
        want = _reference_gap(w, n, idx)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            partial_gap_analysis(w, n, indices=indices)
        return
    got = partial_gap_analysis(w, n, indices=indices)
    assert got["gamma"] == want  # bitwise: the same float operations per pair
    assert got["satisfied"] == (want > 0)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=12))
@settings(max_examples=40)
def test_partial_gap_gamma_certifies_pairs(n, size):
    rng = np.random.default_rng(size * 17 + n)
    w = np.sort(rng.uniform(0.0, 20.0, size))
    r = partial_gap_analysis(list(w), n)
    if not r["satisfied"]:
        return
    gamma = r["gamma"]
    idx = range(1, size + 1)
    for i in idx:
        for j in idx:
            if i != j and max(i, j) >= n:
                assert abs(w[j - 1] - w[i - 1]) >= abs(j - i) * gamma * (1 - 1e-12)
