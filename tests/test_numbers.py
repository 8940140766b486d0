"""One check for every number that enters: spectrum.number at every public entry point."""

import ast
import inspect
import json
import math
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import obslab
from obslab import (
    AlgebraicPointSet,
    CrossStrips,
    EnergyWeight,
    ExponentialSum,
    HorizontalLine,
    HorizontalStrip,
    ModeSet,
    ObservationSpec,
    OpenRect,
    RectangleGeometry,
    SymmetrySpec,
    VerticalLine,
    VerticalSegments,
    VerticalStrip,
    build_algebraic_points,
    build_mode_set,
    check_gap_lemma,
    corollary33_check,
    estimate_gamma,
    m_ab,
    mehrenberger_check,
    partial_gap_analysis,
    predicted_constant,
    quadrature_oracle,
    random_state,
    random_states,
    scan_theorem,
    sin_sum_lower_bound_check,
    sine_dist_check,
    sine_overlap,
    symmetry_constants,
    symmetry_residual,
    theorem_symmetries,
    thm21_fourfamily_form,
    time_kernel,
)
from obslab import inequalities, spectrum
from obslab.spectrum import number, number_array
from obslab.states import axis_trace, state_from_json, state_to_dict

PI = math.pi
SQUARE = RectangleGeometry(PI, PI)
MODES = build_mode_set(SQUARE, 3, 3)
STRIP = ObservationSpec(VerticalStrip(1.0, 2.0), "velocity", 2.0, "wave")
LINES = [
    ObservationSpec(VerticalLine(PI / 2), "velocity", 9 * PI, "wave"),
    ObservationSpec(HorizontalLine(PI / 2), "velocity", 9 * PI, "wave"),
]
STATE = random_state(MODES, 0)
ORDERS = {"p": 2, "q": 2}
CROSS = {"m_ab": 0.5, "m_cd": 0.5, "T": 50.0}  # predicted_constant params of two_strips
CROSSING = {"m_p": 1, "M_p": 1, "m_q": 1, "M_q": 1, "T": 50.0}  # and of two_lines
SUM = ExponentialSum((1.0, 2.0, 3.0), (1, 1, 1), 0)
POINTS = build_algebraic_points(2, PI)
GRID = np.sin(np.arange(240) * (PI / 240))

# one valid argument list per region; each of its fields is replaced in turn
REGIONS = [
    (VerticalStrip, (1.0, 2.0)),
    (HorizontalStrip, (1.0, 2.0)),
    (CrossStrips, (1.0, 2.0, 1.0, 2.0)),
    (VerticalLine, (1.0,)),
    (HorizontalLine, (1.0,)),
    (OpenRect, (0.0, 1.0, 0.5, 1.5)),
]


def _region_sites():
    for cls, args in REGIONS:
        for i, f in enumerate(fields(cls)):
            call = lambda v, cls=cls, args=args, i=i: cls(*args[:i], v, *args[i + 1 :])  # noqa: E731
            yield f"{cls.__name__}.{f.name}", call, f"{cls.__name__}.{f.name}", False
    for i, where in enumerate(("alpha", "lo", "hi")):
        def call(v, i=i):
            a, lo, hi = [v if j == i else x for j, x in enumerate((1.0, 0.5, 1.5))]
            return VerticalSegments(((1.1, (0.7, 2.3)), (a, (lo, hi))))
        yield f"VerticalSegments.{where}", call, "VerticalSegments.segments", False


# (id, call with the value in the field, field named in the error, integer field)
SITES = [
    *_region_sites(),
    ("RectangleGeometry.ell1", lambda v: RectangleGeometry(v, PI), "ell1", False),
    ("RectangleGeometry.ell2", lambda v: RectangleGeometry(PI, v), "ell2", False),
    ("ModeSet.K1", lambda v: ModeSet(SQUARE, v, 3), "K1", True),
    ("build_mode_set.K2", lambda v: build_mode_set(SQUARE, 3, v), "K2", True),
    ("ObservationSpec.T", lambda v: ObservationSpec(VerticalStrip(1.0, 2.0), "velocity", v, "wave"), "T", False),
    ("EnergyWeight.s", lambda v: EnergyWeight(v, "plate"), "s", False),
    ("SymmetrySpec.p", lambda v: SymmetrySpec(v, "x1", PI / 2), "p", True),
    ("SymmetrySpec.alpha", lambda v: SymmetrySpec(2, "x1", v), "alpha", False),
    ("symmetry_residual.p", lambda v: symmetry_residual(GRID, v), "p", True),
    ("random_states.decay", lambda v: random_states(MODES, range(2), v), "decay", False),
    ("random_state.decay", lambda v: random_state(MODES, 0, v), "decay", False),
    ("AlgebraicPointSet.M", lambda v: AlgebraicPointSet(v, (0.5,), (1.0,)), "M", True),
    ("AlgebraicPointSet.theta", lambda v: AlgebraicPointSet(1, (v,), (1.0,)), "theta", False),
    ("AlgebraicPointSet.alphas", lambda v: AlgebraicPointSet(1, (0.5,), (v,)), "alphas", False),
    ("build_algebraic_points.M", lambda v: build_algebraic_points(v, PI), "M", True),
    ("build_algebraic_points.ell1", lambda v: build_algebraic_points(2, v), "ell1", False),
    ("estimate_gamma.K_max", lambda v: estimate_gamma(POINTS, v), "K_max", True),
    ("sine_dist_check.k", lambda v: sine_dist_check([1.0], v), "k", True),
    ("ExponentialSum.exponents", lambda v: ExponentialSum((1.0, v), (1, 1), 0), "exponents", False),
    ("ExponentialSum.n", lambda v: ExponentialSum((1.0, 2.0), (1, 1), v), "n", True),
    ("ExponentialSum.gamma", lambda v: ExponentialSum((1.0, 2.0), (1, 1), 0, v), "gamma", False),
    ("ExponentialSum.indices", lambda v: ExponentialSum((1.0, 2.0), (1, 1), 0, None, (1, v)), "indices", True),
    ("partial_gap_analysis.frequencies", lambda v: partial_gap_analysis([1.0, v], 0), "frequencies", False),
    ("partial_gap_analysis.n", lambda v: partial_gap_analysis([1.0, 2.0], v), "n", False),
    ("partial_gap_analysis.indices", lambda v: partial_gap_analysis([1.0, 2.0], 0, [1, v]), "indices", True),
    ("m_ab.a", lambda v: m_ab(v, 2.0), "a", False),
    ("m_ab.b", lambda v: m_ab(1.0, v), "b", False),
    ("symmetry_constants.p", lambda v: symmetry_constants(v, PI / 2), "p", True),
    ("symmetry_constants.alpha", lambda v: symmetry_constants(2, v), "alpha", False),
    ("theorem_symmetries.p", lambda v: theorem_symmetries("two_lines", LINES, {**ORDERS, "p": v}, SQUARE), "p", True),
    ("theorem_symmetries.q", lambda v: theorem_symmetries("two_lines", LINES, {**ORDERS, "q": v}, SQUARE), "q", True),
    ("predicted_constant.m_ab", lambda v: predicted_constant("two_strips", {**CROSS, "m_ab": v}), "m_ab", False),
    ("predicted_constant.T", lambda v: predicted_constant("two_strips", {**CROSS, "T": v}), "T", False),
    ("predicted_constant.M_q", lambda v: predicted_constant("two_lines", {**CROSSING, "M_q": v}), "M_q", False),
    ("scan_theorem.T_values", lambda v: scan_theorem("two_lines", LINES, MODES, ORDERS, [50.0, v]), "T_values", False),
    ("time_kernel.w1", lambda v: time_kernel(v, 1.0, 2.0), "w1", False),
    ("time_kernel.w2", lambda v: time_kernel(1.0, v, 2.0), "w2", False),
    ("time_kernel.T", lambda v: time_kernel(1.0, 2.0, v), "T", False),
    ("sine_overlap.k", lambda v: sine_overlap(v, 2, (0.5, 1.5), 1.0), "k", True),
    ("sine_overlap.kp", lambda v: sine_overlap(1, v, (0.5, 1.5), 1.0), "kp", True),
    ("sine_overlap.scale", lambda v: sine_overlap(1, 2, (0.5, 1.5), v), "scale", False),
    ("axis_trace.transverse", lambda v: axis_trace(STATE, "x1", v, 16), "transverse", False),
    ("axis_trace.n_samples", lambda v: axis_trace(STATE, "x1", 1.0, v), "n_samples", True),
    ("quadrature_oracle.resolution", lambda v: quadrature_oracle(STATE, STRIP, v), "resolution", True),
    ("mehrenberger_check.T", lambda v: mehrenberger_check(SUM, v), "T", False),
    ("corollary33_check.k2", lambda v: corollary33_check(v, [1.0], [1.0], 20.0), "k2", True),
    ("corollary33_check.T", lambda v: corollary33_check(1, [1.0], [1.0], v), "T", False),
    ("sin_sum_lower_bound_check.k1", lambda v: sin_sum_lower_bound_check(v, [1.0], PI, 1, 0.1), "k1", True),
    ("sin_sum_lower_bound_check.ell1", lambda v: sin_sum_lower_bound_check(1, [1.0], v, 1, 0.1), "ell1", False),
    ("sin_sum_lower_bound_check.M", lambda v: sin_sum_lower_bound_check(1, [1.0], PI, v, 0.1), "M", True),
    ("sin_sum_lower_bound_check.gamma_hat", lambda v: sin_sum_lower_bound_check(1, [1.0], PI, 1, v), "gamma_hat", False),
    ("check_gap_lemma.k1", lambda v: check_gap_lemma(v, 2, 1), "k1", True),
    ("check_gap_lemma.k1p", lambda v: check_gap_lemma(1, v, 1), "k1p", True),
    ("check_gap_lemma.k2", lambda v: check_gap_lemma(2, 1, v), "k2", True),
]

# a JSON true or false, a non-finite float, text, a complex, and an int beyond the float range
# (None is left out: it is the "auto" gamma of ExponentialSum)
NOT_NUMBERS = [True, False, np.True_, math.nan, math.inf, -math.inf, "1", 1j, 10**400]


@pytest.mark.parametrize("call,field,integer", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_every_number_that_enters_is_checked_and_named(call, field, integer):
    kind = "integer" if integer else "real number"
    for value in NOT_NUMBERS + ([2.5, 1e-9 + 3] if integer else []):
        message = f"{field} must be a finite {kind}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def _state_with(i, value):
    """state_from_json of STATE's document with entry i of the row of mode (2, 2) replaced by value."""
    doc = state_to_dict(STATE)
    doc["coefficients"][4][i] = value
    return state_from_json(json.dumps(doc))


def _families(value):
    """Four (2, 2) coefficient families of thm21_fourfamily_form, one entry replaced by value."""
    fams = [[[1.0, 0.5], [2.0, 1j]] for _ in range(4)]
    fams[2][1][0] = value
    return fams


# NOT_NUMBERS but np.True_ and 1j, which a JSON document cannot hold
JSON_NOT_NUMBERS = [True, False, math.nan, math.inf, -math.inf, "1", 10**400]

# (id, call with the value as one entry of an array, field named in the error, entry kind, from JSON)
ENTRY_SITES = [
    ("corollary33_check.a", lambda v: corollary33_check(1, [1.0, v], [1.0, 2.0], 20.0), "a", complex, False),
    ("corollary33_check.b", lambda v: corollary33_check(1, [1.0, 2.0], [v, 1j], 20.0), "b", complex, False),
    (
        "thm21_fourfamily_form.coeffs",
        lambda v: thm21_fourfamily_form(_families(v), OpenRect(0.2, 1.7, 0.5, 2.0), SQUARE),
        "coeffs",
        complex,
        False,
    ),
    ("ExponentialSum.coefficients", lambda v: ExponentialSum((1.0, 2.0), (1.0, v), 0), "coefficients", complex, False),
    (
        "sin_sum_lower_bound_check.alphas",
        lambda v: sin_sum_lower_bound_check(1, [1.0, v], PI, 1, 0.1),
        "alphas",
        float,
        False,
    ),
    ("symmetry_residual.f_samples", lambda v: symmetry_residual([0.0, 1.0, v, 1.0], 2), "f_samples", complex, False),
    ("random_states.seeds", lambda v: random_states(MODES, [0, v]), "seeds", int, False),
    ("random_state.seed", lambda v: random_state(MODES, v), "seed", int, False),
    ("state_from_json.k1", lambda v: _state_with(0, v), "k1", int, True),
    ("state_from_json.k2", lambda v: _state_with(1, v), "k2", int, True),
    ("state_from_json.coefficients", lambda v: _state_with(4, v), "coefficients", float, True),
]


@pytest.mark.parametrize("call,field,kind,from_json", [s[1:] for s in ENTRY_SITES], ids=[s[0] for s in ENTRY_SITES])
def test_every_entry_of_an_array_input_is_checked_and_named(call, field, kind, from_json):
    # np.asarray(..., dtype=float) would read a true as 1.0 and "1" as 1.0
    values = JSON_NOT_NUMBERS + ([] if from_json else [np.True_]) + ([2.5, 1e-9 + 3] if kind is int else [])
    for value in values:
        message = f"{field} must be a finite {'integer' if kind is int else 'real number'}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    # a complex entry and an integral float pass where the kind admits them
    if kind is complex:
        call(1 + 2j)
        call(np.complex128(-1j))
    call(2.0)


def test_a_complex_entry_enters_only_a_complex_array():
    with pytest.raises(ValueError, match=r"^x must be a finite real number, got 1j$"):
        number_array([1.0, 1j], "x", float)
    with pytest.raises(ValueError, match=r"^x must be a finite real number, got nan$"):
        number_array([1.0, complex(2.0, math.nan)], "x", complex)
    assert number_array([1, np.float64(2.0), 1j], "x", complex).tolist() == [1, 2, 1j]


def test_exponential_sum_checks_each_number_once(monkeypatch):
    calls = Counter()

    def counted(value, name, **kwargs):
        calls[name] += 1
        return number(value, name, **kwargs)

    monkeypatch.setattr(spectrum, "number", counted)
    monkeypatch.setattr(inequalities, "number", counted)
    w = tuple(k + 0.1 * math.sin(k) for k in range(1, 101))
    ExponentialSum(w, (1.0,) * 100, 3)
    assert calls == {"exponents": 100, "n": 1}
    calls.clear()
    ExponentialSum(w, (1.0,) * 100, 3, None, tuple(range(-50, 50)))
    assert calls == {"exponents": 100, "indices": 100, "n": 1}
    calls.clear()
    partial_gap_analysis(w, 3, range(-50, 50))  # the public entry keeps every check
    assert calls == {"frequencies": 100, "indices": 100, "n": 1}


def test_number_returns_a_real_unchanged_and_an_integral_float_as_its_int():
    for value in (1, 2.5, np.float64(-3.0), np.int64(7), 0.0):
        assert number(value, "x") is value
    for value, want in ((4.0, 4), (np.float64(4.0), 4), (np.int64(-2), -2), (10**300, 10**300)):
        got = number(value, "K", integer=True)
        assert got == want and type(got) is int
    with pytest.raises(ValueError, match=r"^K must be a finite integer, got 4\.5$"):
        number(4.5, "K", integer=True)


def test_number_has_one_keyword_and_is_not_reexported():
    params = inspect.signature(number).parameters
    assert list(params) == ["value", "name", "integer"]
    assert params["integer"].kind is inspect.Parameter.KEYWORD_ONLY
    assert not hasattr(obslab, "number")


def _scalar_checks(tree) -> list:
    """(scope, check) for each isinstance(..., bool) and each numbers.<name> in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(k, "id", None) == "bool" for k in kinds):
                found.append((scope, "isinstance bool"))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "numbers":
            found.append((scope, "numbers"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_scalar_rule_lives_in_number_alone():
    package = Path(obslab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    checks = {name: sorted(set(_scalar_checks(tree))) for name, tree in trees.items()}
    assert {name: found for name, found in checks.items() if found} == {
        "spectrum.py": [("number", "isinstance bool"), ("number", "numbers")]
    }
    defined = {
        name: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} for name, tree in trees.items()
    }
    assert not defined["cli.py"] & {"_integer", "_real"}
    assert "_order" not in defined["states.py"]
    source = "def f(x):\n    return isinstance(x, (int, bool)) or numbers.Real\n"
    assert _scalar_checks(ast.parse(source)) == [("f", "isinstance bool"), ("f", "numbers")]
