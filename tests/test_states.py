"""Coefficient states, energy seminorms, symmetry projection, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import (
    EnergyWeight,
    SpectralState,
    SymmetrySpec,
    build_mode_set,
    energy_seminorm_sq,
    project_p_symmetric,
    random_state,
    random_states,
    state_from_json,
    state_to_json,
    symmetry_residual,
)
from obslab.states import axis_trace


def _unit_state(ms, k1, k2):
    a = np.zeros(len(ms), dtype=complex)
    a[ms.index_of(k1, k2)] = 1.0
    return SpectralState(ms, a, np.zeros(len(ms), dtype=complex))


def test_single_mode_wave_energy(square):
    ms = build_mode_set(square, 1, 1)
    st_ = _unit_state(ms, 1, 1)
    # (l1 l2 / 2) * lambda * |a|^2 with lambda = 2 on the unit square of pi
    e = energy_seminorm_sq(st_, EnergyWeight(0.0, "wave"))
    assert e == pytest.approx(math.pi**2, rel=1e-15)


def test_zero_state_has_zero_energy(modes4):
    z = np.zeros(len(modes4), dtype=complex)
    st_ = SpectralState(modes4, z, z)
    assert energy_seminorm_sq(st_, EnergyWeight(0.0, "wave")) == 0.0
    assert energy_seminorm_sq(st_, EnergyWeight(-1.0, "plate")) == 0.0


def test_energy_positive_for_nonzero_state(modes4):
    st_ = random_state(modes4, 123)
    assert energy_seminorm_sq(st_, EnergyWeight(0.0, "wave")) > 0.0
    assert energy_seminorm_sq(st_, EnergyWeight(-1.0, "plate")) > 0.0


def test_plate_weight_diagonal(square):
    ms = build_mode_set(square, 2, 1)
    w = EnergyWeight(-1.0, "plate").diagonal(ms)
    lam = ms.lam
    assert np.allclose(w, 1.0 / lam, rtol=1e-15)


def test_energy_weight_validation():
    with pytest.raises(ValueError):
        EnergyWeight(0.0, "beam")
    with pytest.raises(ValueError):
        EnergyWeight(math.nan, "wave")


def test_state_validation(modes4):
    n = len(modes4)
    good = np.zeros(n, dtype=complex)
    with pytest.raises(ValueError):
        SpectralState(modes4, good[:-1], good)
    bad = good.copy()
    bad[0] = math.inf
    with pytest.raises(ValueError):
        SpectralState(modes4, bad, good)


def test_state_equality_and_hash(modes4, modes6):
    first, again = random_state(modes4, 5), random_state(modes4, 5)
    assert first == again and hash(first) == hash(again)
    assert len({first, again}) == 1
    assert first != random_state(modes4, 6)
    assert random_state(modes6, 5) != random_state(build_mode_set(modes6.geometry, 6, 5), 5)


def test_state_is_immutable(modes4):
    st_ = random_state(modes4, 0)
    with pytest.raises(ValueError):
        st_.a[0] = 0.0


def test_doubled_order(modes4):
    st_ = random_state(modes4, 5)
    d = st_.doubled()
    n = len(modes4)
    assert d.shape == (2 * n,)
    assert np.array_equal(d[:n], st_.a)
    assert np.array_equal(d[n:], st_.b)


def test_random_state_deterministic(modes4):
    s1 = random_state(modes4, 42, decay=1.0)
    s2 = random_state(modes4, 42, decay=1.0)
    assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)
    s3 = random_state(modes4, 43, decay=1.0)
    assert not np.array_equal(s1.a, s3.a)


def test_random_state_decay_bounds(modes8):
    lam = modes8.lam
    flat = random_state(modes8, 1, decay=0.0)
    assert np.all(np.abs(flat.a) <= 1.0 + 1e-12)
    assert np.all(np.abs(flat.b) <= 1.0 + 1e-12)
    smooth = random_state(modes8, 1, decay=2.0)
    assert np.all(np.abs(smooth.a) <= lam**-2.0 + 1e-12)
    e = energy_seminorm_sq(smooth, EnergyWeight(0.0, "wave"))
    assert e <= float(np.sum(math.pi**2 * lam**-3.0))


def test_random_state_rejects_negative_decay(modes4):
    with pytest.raises(ValueError):
        random_state(modes4, 0, decay=-1.0)


@pytest.mark.parametrize("decay", [math.inf, math.nan, 1e300])
def test_random_states_reject_an_unusable_decay(modes4, decay):
    # 1e300 underflows lambda^-decay to zero on every mode: the states would all be zero
    with pytest.raises(ValueError, match="decay"):
        random_state(modes4, 0, decay=decay)
    with pytest.raises(ValueError, match="decay"):
        random_states(modes4, range(3), decay=decay)


def _four_draw_state(ms, seed, decay):
    """The construction random_state had when it drew radii and angles in four calls."""
    rng = np.random.default_rng(seed)
    n = len(ms)
    scale = ms.lam ** (-decay) if decay != 0 else np.ones(n)

    def disc(count):
        r = np.sqrt(rng.random(count))
        phi = 2.0 * math.pi * rng.random(count)
        return r * np.exp(1j * phi)

    a = disc(n) * scale
    b = disc(n) * scale
    return SpectralState(ms, a, b)


@pytest.mark.parametrize("decay", [0.0, 0.5])
def test_random_state_keeps_the_four_draw_stream(modes6, decay):
    for seed in (0, 7, 2**31 - 1):
        assert random_state(modes6, seed, decay) == _four_draw_state(modes6, seed, decay)


@pytest.mark.parametrize("count", [1, 255, 256, 257])
@pytest.mark.parametrize("decay", [0.0, 0.5])
@pytest.mark.parametrize("projected", [False, True], ids=["plain", "two_lines"])
def test_random_states_rows_are_random_state_bitwise(modes6, count, decay, projected):
    symmetries = [SymmetrySpec(2, "x1", math.pi / 2), SymmetrySpec(3, "x2", math.pi / 3)]
    seed = 11
    batch = random_states(modes6, range(seed, seed + count), decay)
    assert batch.a.shape == batch.b.shape == (count, len(modes6))
    for sym in symmetries if projected else []:
        batch = project_p_symmetric(batch, sym)
    for i in range(count):
        single = random_state(modes6, seed + i, decay)
        for sym in symmetries if projected else []:
            single = project_p_symmetric(single, sym)
        assert SpectralState(modes6, batch.a[i], batch.b[i]) == single


def test_a_stack_of_states_acts_per_row(modes4):
    batch = random_states(modes4, [3, 4, 5], decay=0.5)
    weight = EnergyWeight(0.0, "wave")
    rows = [random_state(modes4, seed, decay=0.5) for seed in (3, 4, 5)]
    energies = [energy_seminorm_sq(r, weight) for r in rows]
    assert energy_seminorm_sq(batch, weight).tolist() == energies
    assert np.array_equal(batch.doubled(), np.stack([r.doubled() for r in rows]))
    assert random_states(modes4, []).a.shape == (0, len(modes4))
    with pytest.raises(ValueError, match="one state"):
        state_to_json(batch)
    with pytest.raises(ValueError, match="one state"):
        axis_trace(batch, "x1", 1.0, 16)
    with pytest.raises(ValueError):
        SpectralState(modes4, batch.a, batch.b[:2])


def test_symmetry_spec_validation():
    SymmetrySpec(2, "x1", math.pi / 2)
    with pytest.raises(ValueError):
        SymmetrySpec(1, "x1", math.pi)
    with pytest.raises(ValueError):
        SymmetrySpec(2, "x3", math.pi / 2)
    with pytest.raises(ValueError):
        SymmetrySpec(3, "x1", 1.0)  # 3/pi is irrational
    with pytest.raises(ValueError):
        SymmetrySpec(4, "x1", math.pi / 2)  # already killed by p=2


def test_projection_zeroes_multiples(modes6):
    st_ = random_state(modes6, 9)
    proj = project_p_symmetric(st_, SymmetrySpec(2, "x1", math.pi / 2))
    for i, k1 in enumerate(modes6.k1):
        if k1 % 2 == 0:
            assert proj.a[i] == 0 and proj.b[i] == 0
        else:
            assert proj.a[i] == st_.a[i] and proj.b[i] == st_.b[i]


def test_projection_idempotent_and_contractive(modes6):
    spec = SymmetrySpec(3, "x2", math.pi / 3)
    st_ = random_state(modes6, 11)
    once = project_p_symmetric(st_, spec)
    twice = project_p_symmetric(once, spec)
    assert np.array_equal(once.a, twice.a) and np.array_equal(once.b, twice.b)
    w = EnergyWeight(0.0, "wave")
    assert energy_seminorm_sq(once, w) <= energy_seminorm_sq(st_, w)


def _pi_grid(n):
    return np.arange(n) * (math.pi / n)


def test_symmetry_residual_pure_modes():
    x = _pi_grid(240)
    # sin x is 2-symmetric: the two half-period shifts cancel
    assert symmetry_residual(np.sin(x), 2) <= 1e-12
    # sin 2x is invariant under the shift by pi, so the sum is 2 sin 2x
    assert symmetry_residual(np.sin(2 * x), 2) == pytest.approx(2.0, rel=1e-9)
    # no multiples of 3 present
    assert symmetry_residual(np.sin(x) + 0.5 * np.sin(2 * x), 3) <= 1e-12
    assert symmetry_residual(np.sin(3 * x), 3) == pytest.approx(3.0, rel=1e-9)


def test_symmetry_residual_grid_validation():
    with pytest.raises(ValueError):
        symmetry_residual(np.zeros(10), 3)  # 10 not a multiple of 6
    with pytest.raises(ValueError):
        symmetry_residual(np.zeros(0), 2)
    with pytest.raises(ValueError):
        symmetry_residual(np.zeros(12), 0)


@given(
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=-100.0, max_value=100.0).filter(lambda c: abs(c) > 1e-6),
)
@settings(max_examples=30)
def test_symmetry_residual_homogeneous(seed, c):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(60)
    base = symmetry_residual(f, 3)
    assert symmetry_residual(c * f, 3) == pytest.approx(abs(c) * base, rel=1e-12)


def test_axis_trace_single_mode(square):
    ms = build_mode_set(square, 3, 3)
    st_ = _unit_state(ms, 2, 1)
    tr = axis_trace(st_, "x1", math.pi / 2, 64)
    x = _pi_grid(64)
    assert np.allclose(tr, np.sin(2 * x) * math.sin(math.pi / 2), atol=1e-14)
    tr2 = axis_trace(st_, "x2", 0.25, 64)
    assert np.allclose(tr2, np.sin(x) * math.sin(2 * math.pi * 0.25 / math.pi), atol=1e-14)


def test_axis_trace_rejects_bad_axis(modes4):
    with pytest.raises(ValueError):
        axis_trace(random_state(modes4, 0), "t", 1.0, 16)


def test_projection_makes_trace_symmetric(square):
    ms = build_mode_set(square, 6, 6)
    spec = SymmetrySpec(2, "x1", math.pi / 2)
    st_ = project_p_symmetric(random_state(ms, 21), spec)
    tr = axis_trace(st_, "x1", 0.7, 48)
    assert symmetry_residual(tr.real, 2) <= 1e-10
    assert symmetry_residual(tr.imag, 2) <= 1e-10


def test_json_round_trip_bit_exact(modes6):
    st_ = random_state(modes6, 77, decay=0.5)
    back = state_from_json(state_to_json(st_))
    assert back.mode_set.K1 == modes6.K1 and back.mode_set.K2 == modes6.K2
    assert back.mode_set.geometry == modes6.geometry
    assert np.array_equal(back.a, st_.a)
    assert np.array_equal(back.b, st_.b)
    assert state_to_json(back) == state_to_json(st_)
