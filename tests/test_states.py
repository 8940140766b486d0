"""Coefficient states, energy seminorms, symmetry projection, serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import (
    EnergyWeight,
    RectangleGeometry,
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
from obslab import states
from obslab.states import axis_trace
from conftest import peak_bytes


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


@pytest.mark.parametrize("decay", [0.0, 1.5])
def test_random_states_write_the_exp_phases_within_one_ulp(modes6, decay):
    # cos and sin in place of the complex exp: equal on this numpy, within an ulp on any other
    seeds = range(5, 5 + 256)
    batch = random_states(modes6, seeds, decay)
    n = len(modes6)
    u = np.stack([np.random.default_rng(seed).random(4 * n).reshape(4, n) for seed in seeds])
    want = np.sqrt(u[:, 0::2]) * np.exp(1j * (2.0 * math.pi * u[:, 1::2])) * modes6.lam ** (-decay)
    got = np.stack([batch.a, batch.b], axis=1)
    np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
    np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)
    assert batch.a.base is not None and batch.a.base is batch.b.base  # one array, not copied


def _documented_row(ms, seed, decay, symmetries):
    """(a, b) of one seed as random_states documents them, from default_rng(seed).random(4n), then projected."""
    n = len(ms)
    u = np.random.default_rng(seed).random(4 * n).reshape(4, n)
    phi = 2.0 * math.pi * u[1::2]
    z = np.empty((2, n), dtype=complex)
    np.cos(phi, out=z.real)
    np.sin(phi, out=z.imag)
    z *= np.sqrt(u[0::2])
    if decay != 0:
        z *= ms.lam ** (-decay)
    a, b = z
    for sym in symmetries:
        keep = ((ms.k1 if sym.axis == "x1" else ms.k2) % sym.p) != 0
        a, b = a * keep, b * keep
    return a, b


# the stack is drawn states._DRAW_ROWS rows at a time: counts on both sides of one and two blocks
_R = states._DRAW_ROWS


@pytest.mark.parametrize("count", [1, _R - 1, _R, _R + 1, 2 * _R + 1, 255, 256, 257])
@pytest.mark.parametrize("decay", [0.0, 0.5])
@pytest.mark.parametrize("projected", [False, True], ids=["plain", "two_lines"])
def test_random_states_rows_are_random_state_bitwise(modes6, count, decay, projected):
    symmetries = [SymmetrySpec(2, "x1", math.pi / 2), SymmetrySpec(3, "x2", math.pi / 3)] if projected else []
    seed = 11
    batch = random_states(modes6, range(seed, seed + count), decay)
    assert batch.a.shape == batch.b.shape == (count, len(modes6))
    for sym in symmetries:
        batch = project_p_symmetric(batch, sym)
    for i in range(count):
        single = random_state(modes6, seed + i, decay)
        for sym in symmetries:
            single = project_p_symmetric(single, sym)
        assert SpectralState(modes6, batch.a[i], batch.b[i]) == single
        a, b = _documented_row(modes6, seed + i, decay, symmetries)
        assert batch.a[i].tobytes() == a.tobytes() and batch.b[i].tobytes() == b.tobytes()


@pytest.mark.parametrize("count", [1, _R + 1, 2 * _R + 1])
@pytest.mark.parametrize("decay", [0.0, 0.5])
@pytest.mark.parametrize("orders", [(2, None), (None, 3), (2, 2), (3, 5)], ids=["p2", "q3", "p2q2", "p3q5"])
def test_a_masked_draw_is_the_projected_draw_to_the_bit(count, decay, orders):
    # the same 4n uniforms a row, but phases, cos, sin and square roots on the admitted modes only
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), 16, 16)
    symmetries = [SymmetrySpec(p, axis, math.pi / p) for p, axis in zip(orders, ("x1", "x2")) if p]
    admits = np.logical_and.reduce([sym.admits(ms) for sym in symmetries])
    masked = random_states(ms, range(5, 5 + count), decay, admits)
    for i in range(count):
        a, b = _documented_row(ms, 5 + i, decay, symmetries)
        assert masked.a[i, admits].tobytes() == a[admits].tobytes()
        assert masked.b[i, admits].tobytes() == b[admits].tobytes()
        assert np.all(masked.a[i, ~admits] == 0) and np.all(masked.b[i, ~admits] == 0)
    projected = random_states(ms, range(5, 5 + count), decay)
    for sym in symmetries:
        projected = project_p_symmetric(projected, sym)
    assert masked == SpectralState(ms, projected.a + 0.0, projected.b + 0.0)  # -0.0 + 0.0 is 0.0


def test_random_states_rejects_an_unusable_mask(modes4):
    n = len(modes4)
    assert random_states(modes4, [1], admits=[True] * n) == random_states(modes4, [1])
    for admits in (np.ones(n - 1, dtype=bool), np.ones(n), np.ones((1, n), dtype=bool), np.zeros(n, dtype=bool)):
        with pytest.raises(ValueError, match="admits"):
            random_states(modes4, [1], admits=admits)


# a seed of each number of uint32 words SeedSequence splits it into, at the word boundaries, and a
# numpy integer
SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, np.int64(7)]


def _assert_rows_are_default_rngs(ms, seeds, decay=0.0):
    batch = random_states(ms, seeds, decay)
    for i, seed in enumerate(seeds):
        a, b = _documented_row(ms, seed, decay, [])
        assert batch.a[i].tobytes() == a.tobytes() and batch.b[i].tobytes() == b.tobytes(), seed


def test_random_states_seed_every_row_as_numpys_default_rng(modes6):
    # the first seed of a call gets its own PCG64, each later one a state set from its pool: every
    # seed is drawn in both places
    for seeds in (SEEDS, SEEDS[::-1], [5, *SEEDS], [*SEEDS, *SEEDS]):
        _assert_rows_are_default_rngs(modes6, seeds)
    _assert_rows_are_default_rngs(modes6, [3, *SEEDS], decay=0.5)


@given(st.lists(st.integers(0, 2**70 - 1), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_random_states_seed_any_integer_as_numpys_default_rng(seeds):
    _assert_rows_are_default_rngs(build_mode_set(RectangleGeometry(math.pi, math.pi), 3, 2), seeds)


def test_random_states_of_no_seeds_is_an_empty_stack(modes6):
    batch = random_states(modes6, [])
    assert batch.a.shape == batch.b.shape == (0, len(modes6))


@pytest.mark.parametrize("seeds", [[-1], [0, -1], [0, 1, -(2**70)]])
def test_random_states_reject_a_negative_seed_as_default_rng_does(modes4, seeds):
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng(seeds[-1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(numpys.value))}$"):
        random_states(modes4, seeds)


@pytest.mark.parametrize(
    "seed",
    [None, np.random.SeedSequence(3), np.random.PCG64(3), np.random.default_rng(3), [3]],
    ids=["None", "SeedSequence", "PCG64", "Generator", "list"],
)
def test_random_states_take_integer_seeds_only(modes4, seed):
    # default_rng takes each of these (None as fresh entropy, a Generator as itself); a state is
    # drawn from an integer alone, checked as every integer that enters is (tests/test_numbers.py),
    # so an integral float is its int
    with pytest.raises(ValueError, match=f"^seeds must be a finite integer, got {re.escape(repr(seed))}$"):
        random_states(modes4, [0, seed])
    with pytest.raises(ValueError, match=f"^seed must be a finite integer, got {re.escape(repr(seed))}$"):
        random_state(modes4, seed)
    assert random_states(modes4, [0, 3.0]) == random_states(modes4, [0, 3])


def test_random_states_holds_its_output_and_one_block_of_scratch():
    # K = 24, 256 rows: the uniforms, phases and square roots of the whole stack held 3.03 times
    # the output; a scratch of _DRAW_ROWS rows, the seeds' generator states and the finiteness checks
    # add 0.14 of it
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), 24, 24)
    batch = random_states(ms, range(256))
    assert peak_bytes(lambda: random_states(ms, range(256))) <= 1.25 * (batch.a.nbytes + batch.b.nbytes)


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


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("axis", ["x1", "x2"])
def test_admits_is_the_index_not_a_multiple_of_p_and_the_projection_keeps_just_those(axis, p):
    ms = build_mode_set(RectangleGeometry(math.pi, 2.0), 7, 6)
    spec = SymmetrySpec(p, axis, math.pi / p)
    keep = spec.admits(ms)
    ks = ms.k1 if axis == "x1" else ms.k2
    assert keep.dtype == bool and np.array_equal(keep, ks % p != 0)
    stack = random_states(ms, range(4))
    proj = project_p_symmetric(stack, spec)
    for got, drawn in ((proj.a, stack.a), (proj.b, stack.b)):
        assert not got[:, ~keep].any()
        assert np.array_equal(got[:, keep], drawn[:, keep])


def test_symmetry_orders_take_an_integral_float_and_reject_a_fraction():
    spec = SymmetrySpec(3.0, "x1", math.pi / 3)
    assert spec == SymmetrySpec(3, "x1", math.pi / 3) and type(spec.p) is int
    f = np.sin(_pi_grid(240)) + 0.5 * np.sin(3 * _pi_grid(240))
    assert symmetry_residual(f, 3.0) == symmetry_residual(f, 3)
    with pytest.raises(ValueError, match="^p must be a finite integer, got 2.5$"):
        SymmetrySpec(2.5, "x1", math.pi / 3)
    with pytest.raises(ValueError, match="^p must be a finite integer, got 2.5$"):
        symmetry_residual(f, 2.5)


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


def _json_doc(K1=2, K2=2):
    ms = build_mode_set(RectangleGeometry(math.pi, math.pi), K1, K2)
    return json.loads(state_to_json(random_state(ms, 5)))


def test_state_from_json_rejects_a_fractional_or_repeated_mode():
    doc = _json_doc()
    assert [row[:2] for row in doc["coefficients"]] == [[1, 1], [2, 1], [1, 2], [2, 2]]
    fractional = _json_doc()
    fractional["coefficients"][1][0] = 1.5  # once truncated to mode (1, 1), overwriting its row
    with pytest.raises(ValueError, match=r"^k1 must be a finite integer, got 1\.5$"):
        state_from_json(json.dumps(fractional))
    repeated = _json_doc()
    repeated["coefficients"][1][:2] = [1, 1]
    with pytest.raises(ValueError, match="given by two rows"):
        state_from_json(json.dumps(repeated))
    outside = _json_doc()
    outside["coefficients"][1][:2] = [3, 1]
    with pytest.raises(KeyError):
        state_from_json(json.dumps(outside))
    wide = _json_doc(3, 2)  # six rows of seven numbers hold as many as seven rows of six
    for row in wide["coefficients"]:
        row.append(0.0)
    with pytest.raises(ValueError):
        state_from_json(json.dumps(wide))
    # an integral float names its mode, and a mode without a row stays zero
    doc["coefficients"][1][:2] = [2.0, 1.0]
    del doc["coefficients"][3]
    back = state_from_json(json.dumps(doc))
    whole = state_from_json(json.dumps(_json_doc()))
    assert np.array_equal(back.a[:3], whole.a[:3]) and back.a[3] == back.b[3] == 0
