"""End-to-end subcommand runs: exit codes, determinism, output formats."""

import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from obslab import (
    THEOREM_IDS,
    EnergyWeight,
    GramForm,
    ObservationSpec,
    RectangleGeometry,
    VerticalStrip,
    __version__,
    assemble_gram,
    build_mode_set,
    check_theorem,
    cli,
    empirical_constants,
    inequalities,
    observation,
)
from obslab.cli import main

PI = math.pi


def run(tmp_path, command, config, fmt=None, seed=None, name="config.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out-{command}.txt"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    return code, out.read_text() if out.exists() else ""


TWO_LINES = {
    "geometry": [PI, PI],
    "truncation": [6, 6],
    "theorem": "two_lines",
    "model": "wave",
    "T": 9 * PI,
    "samples": 10,
    "seed": 3,
    "specs": [
        {"region": {"kind": "VerticalLine", "alpha": PI / 2}, "field": "velocity"},
        {"region": {"kind": "HorizontalLine", "beta": PI / 2}, "field": "velocity"},
    ],
    "params": {"p": 2, "q": 2},
}

CROSS = {
    "geometry": [PI, PI],
    "truncation": [6, 6],
    "theorem": "two_strips",
    "model": "wave",
    "T": 47.84977149867659,
    "samples": 5,
    "seed": 0,
    "spec": {
        "region": {"kind": "CrossStrips", "a": 1.0, "b": 2.0, "c": 1.0, "d": 2.0},
        "field": "velocity",
    },
    "params": {},
}


def test_verify_two_lines(tmp_path):
    code, text = run(tmp_path, "verify", TWO_LINES)
    assert code == 0
    report = json.loads(text)
    assert set(report) == {"command", "version", "config", "result"}
    assert report["command"] == "verify"
    assert report["version"] == __version__
    assert report["result"]["passed"]
    assert report["result"]["c_predicted"] == pytest.approx(34 / (9 * PI), rel=1e-14)
    assert report["result"]["n_states"] == 10


def test_verify_deterministic(tmp_path):
    _, first = run(tmp_path, "verify", TWO_LINES)
    _, second = run(tmp_path, "verify", TWO_LINES)
    assert first == second
    _, reseeded = run(tmp_path, "verify", TWO_LINES, seed=3)
    assert reseeded == first
    _, other = run(tmp_path, "verify", TWO_LINES, seed=100)
    assert json.loads(other)["result"]["min_ratio"] != json.loads(first)["result"]["min_ratio"]


def test_verify_eigen_only(tmp_path):
    config = {**CROSS, "samples": 0}
    code, text = run(tmp_path, "verify", config)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["n_states"] == 0
    assert result["passed"]
    assert result["empirical_c_min"] >= result["c_predicted"]


def test_verify_below_threshold_exits_3(tmp_path):
    code, text = run(tmp_path, "verify", {**CROSS, "T": 10.0})
    assert code == 3
    assert text == ""


@pytest.mark.parametrize("samples", [0, 5])
def test_below_threshold_verify_assembles_no_gram(tmp_path, monkeypatch, samples):
    calls = []

    def counted(real):
        def call(spec, mode_set, *args):
            calls.append(spec)
            return real(spec, mode_set, *args)

        return call

    # assemble_gram, and the spatial sum and time blocks a theorem check assembles from
    for name in ("assemble_gram", "_spatial_sum", "_closed_gram"):
        monkeypatch.setattr(inequalities, name, counted(getattr(inequalities, name)))
    code, text = run(tmp_path, "verify", {**CROSS, "T": 10.0, "samples": samples})
    assert code == 3
    assert text == ""
    assert calls == []


def test_below_threshold_verify_draws_at_most_one_chunk(tmp_path, monkeypatch):
    rows = []
    real = cli.random_states

    def counted(mode_set, seeds, decay=0.0):
        batch = real(mode_set, seeds, decay)
        rows.append(len(batch.a))
        return batch

    monkeypatch.setattr(cli, "random_states", counted)
    config = {**CROSS, "truncation": [16, 16], "T": 10.0, "samples": 20000}
    code, text = run(tmp_path, "verify", config)
    assert (code, text) == (3, "")
    assert sum(rows) <= 256

    # above the threshold the states are drawn in chunks, all of them
    rows.clear()
    code, text = run(tmp_path, "verify", {**CROSS, "samples": 600})
    assert code == 0 and rows == [256, 256, 88]
    assert json.loads(text)["result"]["n_states"] == 600


@pytest.mark.parametrize("decay", [math.inf, 1e300, math.nan], ids=["inf", "1e300", "nan"])
@pytest.mark.parametrize("command", ["verify", "oracle-check"])
def test_unusable_decay_exits_2(tmp_path, capsys, command, decay):
    # json.dumps writes Infinity and NaN, which json.load reads back
    config = {**(CROSS if command == "verify" else ORACLE), "decay": decay}
    code, text = run(tmp_path, command, config)
    assert (code, text) == (2, "")
    assert "decay" in capsys.readouterr().err


def test_scan_t_does_its_t_independent_work_once(tmp_path, monkeypatch):
    counts = {"_spatial_sum": [], "m_ab": []}

    def counted(name):
        real = getattr(inequalities, name)

        def call(*args):
            counts[name].append(args)
            return real(*args)

        return call

    for name in counts:
        monkeypatch.setattr(inequalities, name, counted(name))
    ts = [47.84977149867659 + 2.5 * k for k in range(8)]
    config = {**CROSS, "T_values": ts}
    del config["T"]
    code, text = run(tmp_path, "scan-t", config, fmt="json")
    assert code == 0
    assert len(counts["_spatial_sum"]) == 1  # one spec
    assert sorted(counts["m_ab"]) == [(1.0, 2.0), (1.0, 2.0)]  # one per interval
    rows = json.loads(text)["result"]["rows"]
    ms = build_mode_set(RectangleGeometry(PI, PI), 6, 6)
    for t, row in zip(ts, rows):
        spec = ObservationSpec.from_dict({**CROSS["spec"], "T": t, "model": "wave"})
        check = check_theorem("two_strips", spec, ms, {})
        c_min, c = check["empirical_c_min"], check["c_predicted"]
        assert row == {"T": t, "c_min": c_min, "c_predicted": c, "pass": True}


def test_verify_unknown_theorem_exits_2(tmp_path):
    code, _ = run(tmp_path, "verify", {**CROSS, "theorem": "three_strips"})
    assert code == 2


MISMATCHED = {
    "two_lines_on_cross": {**CROSS, "theorem": "two_lines", "params": TWO_LINES["params"]},
    "two_strips_on_one_strip": {
        **CROSS,
        "T": 50.0,
        "spec": {"region": {"kind": "VerticalStrip", "a": 1.0, "b": 2.0}, "field": "velocity"},
        "params": {"m_cd": 0.5},
    },
}


@pytest.mark.parametrize("command", ["verify", "scan-t"])
@pytest.mark.parametrize("name", sorted(MISMATCHED))
def test_mismatched_composition_exits_2(tmp_path, command, name):
    config = {**MISMATCHED[name], "samples": 0}
    if command == "scan-t":
        config["T_values"] = [config.pop("T")]
    code, text = run(tmp_path, command, config)
    assert code == 2
    assert text == ""


RECT_2_BY_PI = {
    **TWO_LINES,
    "geometry": [2.0, PI],
    "specs": [
        {"region": {"kind": "VerticalLine", "alpha": 1.0}, "field": "velocity"},
        {"region": {"kind": "HorizontalLine", "beta": PI / 2}, "field": "velocity"},
    ],
}


def test_line_anchor_is_the_region_point_in_pi_scaled_coordinates(tmp_path):
    # x1 = 1 on a width of 2 is pi/2, an anchor of order 2, on both verify paths
    results = []
    for samples in (0, 10):
        code, text = run(tmp_path, "verify", {**RECT_2_BY_PI, "samples": samples})
        assert code == 0
        results.append(json.loads(text)["result"])
    assert results[0]["empirical_c_min"] == results[1]["empirical_c_min"]
    # params alpha and beta are not read, so the raw x1 = 1 leaves the report unchanged
    params = {"p": 2, "q": 2, "alpha": 1.0, "beta": PI / 2}
    code, text = run(tmp_path, "verify", {**RECT_2_BY_PI, "samples": 10, "params": params})
    assert code == 0
    assert json.loads(text)["result"] == results[1]


THIRD_LINE = [
    {"region": {"kind": "VerticalLine", "alpha": PI / 3}, "field": "velocity"},
    TWO_LINES["specs"][1],
]


@pytest.mark.parametrize("samples", [0, 10])
@pytest.mark.parametrize(
    "specs,params",
    [
        (TWO_LINES["specs"], {"p": 2.5, "q": 2}),
        # pi/3 has order 3: supplied m_p and M_p do not stand in for a valid order
        (THIRD_LINE, {"p": 2, "q": 2, "m_p": 0.75, "M_p": 0.75}),
    ],
    ids=["p=2.5", "p=2 at pi/3"],
)
def test_invalid_symmetry_order_exits_2(tmp_path, samples, specs, params):
    config = {**TWO_LINES, "samples": samples, "specs": specs, "params": params}
    code, text = run(tmp_path, "verify", config)
    assert code == 2
    assert text == ""


def test_unknown_region_kind_exits_2(tmp_path, capsys):
    config = {**CROSS, "spec": {"region": {"kind": "Disc", "r": 1.0}, "field": "velocity"}}
    code, text = run(tmp_path, "verify", config)
    assert code == 2
    assert text == ""
    assert "unknown region kind 'Disc'" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["verify", "--config", str(lst)]) == 2


def test_csv_only_for_scan_t(tmp_path):
    code, _ = run(tmp_path, "verify", TWO_LINES, fmt="csv")
    assert code == 2


def test_scan_t_csv(tmp_path):
    config = {
        **TWO_LINES,
        "T_values": [20.0, 30.0],
    }
    config.pop("T")
    code, text = run(tmp_path, "scan-t", config)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == f"# version={__version__}"
    assert lines[1].startswith("# config=")
    assert json.loads(lines[1][len("# config=") :]) == config
    assert lines[2] == "T,c_min,c_predicted,pass"
    below = lines[3].split(",")
    above = lines[4].split(",")
    # 20 < 8 pi < 30: the constant transitions from undefined to positive
    assert below[0] == "20.0" and below[2] == "nan" and below[3] == "false"
    assert above[0] == "30.0" and float(above[2]) > 0 and above[3] == "true"
    assert float(above[1]) >= float(below[1])  # more time observes more
    assert text.endswith("\n")
    _, again = run(tmp_path, "scan-t", config)
    assert again == text


def test_scan_t_json(tmp_path):
    config = {**TWO_LINES, "T_values": [30.0]}
    config.pop("T")
    code, text = run(tmp_path, "scan-t", config, fmt="json")
    assert code == 0
    rows = json.loads(text)["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["pass"] is True


def test_scan_t_rejects_unordered_values(tmp_path):
    config = {**TWO_LINES, "T_values": [30.0, 20.0]}
    config.pop("T")
    code, _ = run(tmp_path, "scan-t", config)
    assert code == 2


def test_constants(tmp_path):
    config = {
        "geometry": [PI, PI],
        "truncation": [4, 4],
        "model": "wave",
        "T": 2.0,
        "weight": {"s": 1},
        "spec": {
            "region": {"kind": "VerticalStrip", "a": 1.0, "b": 2.0},
            "field": "velocity",
        },
    }
    code, text = run(tmp_path, "constants", config)
    assert code == 0
    result = json.loads(text)["result"]
    assert 0 <= result["c_min"] <= result["c_max"]
    assert result["K1"] == 4 and result["K2"] == 4
    assert result["specs"][0]["region"]["kind"] == "VerticalStrip"
    _, again = run(tmp_path, "constants", config)
    assert again == text


@pytest.mark.parametrize("geometry", [[PI, 2.0], {"ell1": PI, "ell2": 2.0}], ids=["list", "dict"])
def test_constants_with_per_spec_horizons(tmp_path, geometry):
    # no top-level T: each spec keeps its own, and windows of two centres make one pencil
    strip = {"kind": "VerticalStrip", "a": 1.0, "b": 2.0}
    config = {
        "geometry": geometry,
        "truncation": [3, 2],
        "model": "wave",
        "specs": [{"region": strip, "field": "velocity", "T": t} for t in (2.0, 4.0)],
    }
    code, text = run(tmp_path, "constants", config)
    assert code == 0
    result = json.loads(text)["result"]
    assert [s["T"] for s in result["specs"]] == [2.0, 4.0]
    ms = build_mode_set(RectangleGeometry(PI, 2.0), 3, 2)
    specs = [ObservationSpec(VerticalStrip(1.0, 2.0), "velocity", t, "wave") for t in (2.0, 4.0)]
    report = empirical_constants(specs, EnergyWeight(1.0, "wave"), ms)
    assert (result["c_min"], result["c_max"]) == (report.c_min, report.c_max)


def test_underflowing_constants_exit_2(tmp_path, capsys):
    region = {"kind": "OpenRect", "t0": 0.0, "t1": 1.0, "x0": 2e-151, "x1": 5e-151}
    config = {
        "geometry": [1e-150, 1e-150],
        "truncation": [2, 2],
        "model": "plate",
        "T": 1.0,
        "weight": {"s": 1},
        "spec": {"region": region, "field": "displacement"},
    }
    code, text = run(tmp_path, "constants", config)
    assert code == 2
    assert text == ""
    assert "underflows" in capsys.readouterr().err


def test_diophantine(tmp_path):
    code, text = run(tmp_path, "diophantine", {"M": 1, "K_max": 1000})
    assert code == 0
    result = json.loads(text)["result"]
    assert result["gamma_hat"] == pytest.approx(6 - 4 * math.sqrt(2), abs=1e-12)
    assert result["argmin_k"] == 2


def test_mab(tmp_path):
    code, text = run(tmp_path, "mab", {"a": 1.0, "b": 2.0})
    assert code == 0
    result = json.loads(text)["result"]
    assert result["value"] == pytest.approx(0.28172990725858627, rel=1e-12)
    assert result["attained_n"] == 2


def test_symmetry(tmp_path):
    code, text = run(tmp_path, "symmetry", {"p": 3, "alpha": PI / 3})
    assert code == 0
    result = json.loads(text)["result"]
    assert result["m_p"] == pytest.approx(0.75, rel=1e-12)
    assert result["M_p"] == pytest.approx(0.75, rel=1e-12)
    code, _ = run(tmp_path, "symmetry", {"p": 4, "alpha": PI / 2})
    assert code == 2


INGHAM = {
    "exponents": [1.0, 2.0, 3.0, 4.0, 5.0],
    "coefficients": [[1, 0], [1, 0], [1, 0], [1, 0], [1, 0]],
    "n": 0,
    "gamma": "auto",
    "T": 5 * PI,
}


def test_ingham(tmp_path):
    code, text = run(tmp_path, "ingham", INGHAM)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["gamma"] == 1.0
    assert result["holds"]
    code, _ = run(tmp_path, "ingham", {**INGHAM, "T": PI})
    assert code == 2


def test_ingham_auto_gamma_is_one_gap_analysis(tmp_path, monkeypatch):
    calls = []
    real = inequalities.partial_gap_analysis

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(inequalities, "partial_gap_analysis", counted)
    monkeypatch.setattr(cli, "partial_gap_analysis", counted, raising=False)
    w = [1.0, 2.3, 3.7, 5.0, 6.2]
    code, text = run(tmp_path, "ingham", {**INGHAM, "exponents": w})
    assert code == 0
    assert len(calls) == 1
    assert json.loads(text)["result"]["gamma"] == real(w, 0)["gamma"]
    # one exponent has no gap to take
    code, _ = run(tmp_path, "ingham", {**INGHAM, "exponents": [1.0], "coefficients": [[1, 0]]})
    assert code == 2


@pytest.mark.parametrize("T", [math.inf, 1e308], ids=["inf", "overflow"])
def test_ingham_rejects_unusable_horizon(tmp_path, T):
    code, text = run(tmp_path, "ingham", {**INGHAM, "T": T})
    assert code == 2
    assert text == ""


DIOPHANTINE = {"M": 2, "K_max": 100, "ell1": PI}


@pytest.mark.parametrize(
    "command,config",
    [
        ("diophantine", {**DIOPHANTINE, "M": 2.9}),
        ("diophantine", {**DIOPHANTINE, "K_max": 1.5}),
        ("diophantine", {**DIOPHANTINE, "M": math.inf}),
        ("diophantine", {**DIOPHANTINE, "K_max": math.inf}),
        ("diophantine", {**DIOPHANTINE, "ell1": math.inf}),
        ("symmetry", {"p": 2.5, "alpha": PI / 2}),
        ("ingham", {**INGHAM, "n": 0.7}),
    ],
    ids=["M=2.9", "K_max=1.5", "M=inf", "K_max=inf", "ell1=inf", "p=2.5", "n=0.7"],
)
def test_fractional_or_infinite_field_exits_2(tmp_path, command, config):
    # truncating these would run, and report on, a different problem
    code, text = run(tmp_path, command, config)
    assert code == 2
    assert text == ""


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("diophantine", DIOPHANTINE, "M"),
        ("diophantine", DIOPHANTINE, "K_max"),
        ("symmetry", {"p": 3, "alpha": PI / 3}, "p"),
        ("ingham", INGHAM, "n"),
    ],
)
def test_integral_float_field_runs_the_same_problem(tmp_path, command, config, field):
    code, text = run(tmp_path, command, config)
    code_f, text_f = run(tmp_path, command, {**config, field: float(config[field])})
    assert code == code_f == 0
    assert _result_bytes(text_f) == _result_bytes(text)


def _result_bytes(text):
    # re-dumping keeps 4 and 4.0 apart, so this compares the result's bytes
    return json.dumps(json.loads(text)["result"], sort_keys=True)


ORACLE = {
    "geometry": [PI, PI],
    "truncation": [3, 3],
    "T": 2.0,
    "samples": 2,
    "seed": 1,
    "resolution": 128,
    "tolerance": 1e-4,
    "specs": [
        {
            "region": {"kind": "VerticalSegments", "segments": [[1.1, [0.7, 2.3]]]},
            "field": "displacement",
            "model": "plate",
        },
        {
            "region": {"kind": "VerticalStrip", "a": 1.0, "b": 2.0},
            "field": "velocity",
            "model": "wave",
        },
    ],
}


SCAN = {
    **{k: v for k, v in CROSS.items() if k != "T"},
    "T_start": 47.84977149867659,
    "T_stop": 50.0,
    "T_count": 2,
}


@pytest.mark.parametrize(
    "command,config",
    [
        ("constants", {**CROSS, "truncation": [2.5, 3]}),
        ("verify", {**TWO_LINES, "samples": 2.5}),
        ("oracle-check", {**ORACLE, "resolution": 128.5}),
        ("scan-t", {**SCAN, "T_count": 2.5}),
        ("verify", {**TWO_LINES, "seed": 3.5}),
    ],
    ids=["truncation", "samples", "resolution", "T_count", "seed"],
)
def test_fractional_count_exits_2(tmp_path, capsys, command, config):
    # truncating would run, and report on, a different problem
    code, text = run(tmp_path, command, config, fmt="json")
    assert code == 2
    assert text == ""
    assert "integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,config,field,value",
    [
        ("constants", CROSS, "truncation", [6.0, 6.0]),
        ("verify", TWO_LINES, "samples", 10.0),
        ("oracle-check", ORACLE, "resolution", 128.0),
        ("scan-t", SCAN, "T_count", 2.0),
        ("verify", TWO_LINES, "seed", 3.0),
    ],
    ids=["truncation", "samples", "resolution", "T_count", "seed"],
)
def test_integral_float_count_gives_the_same_report(tmp_path, command, config, field, value):
    code, text = run(tmp_path, command, config, fmt="json")
    code_f, text_f = run(tmp_path, command, {**config, field: value}, fmt="json")
    assert code == code_f == 0
    assert _result_bytes(text_f) == _result_bytes(text)
    if command == "constants":
        assert '"K1": 6, "K2": 6' in text_f


@pytest.mark.parametrize(
    "geometry,side",
    [([1e-170, 1e-170], "ell1"), ([PI, 1e-155], "ell2"), ([1e155, 1e155], "ell1")],
    ids=["1e-170", "1e-155", "1e155"],
)
def test_extreme_rectangle_exits_2(tmp_path, capsys, geometry, side):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, text = run(tmp_path, "constants", {**CROSS, "geometry": geometry})
    assert (code, text, caught) == (2, "", [])
    assert capsys.readouterr().err.startswith(f"config error: side {side}=")


def test_oracle_check_passes_and_fails(tmp_path):
    code, text = run(tmp_path, "oracle-check", ORACLE)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["passed"] and result["max_rel_err"] <= 1e-4

    strict = {**ORACLE, "resolution": 64, "tolerance": 1e-14}
    code, text = run(tmp_path, "oracle-check", strict)
    assert code == 1
    result = json.loads(text)["result"]
    assert not result["passed"]
    assert result["max_rel_err"] > 1e-14


@pytest.mark.parametrize(
    "change",
    [{"T": math.inf}, {"geometry": [math.inf, PI]}, {"samples": 0}, {"samples": -3}],
    ids=["T", "geometry", "samples=0", "samples=-3"],
)
def test_oracle_check_rejects_non_finite_input(tmp_path, change):
    code, text = run(tmp_path, "oracle-check", {**ORACLE, **change})
    assert code == 2
    assert text == ""


def test_oracle_check_fails_on_non_finite_values(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "quadrature_oracle", lambda state, spec, resolution: math.nan)
    code, text = run(tmp_path, "oracle-check", ORACLE)
    assert code == 1
    result = json.loads(text)["result"]
    assert not result["passed"]
    assert result["max_rel_err"] == math.inf


def test_no_solve_path_builds_the_complex_matrix(tmp_path, monkeypatch):
    built = []
    real = observation._centred_matrix

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(observation, "_centred_matrix", counted)
    scan = {**CROSS, "T_values": [47.84977149867659, 50.0]}
    del scan["T"]
    runs = [
        ("verify", TWO_LINES),  # verify_observability
        ("verify", {**TWO_LINES, "samples": 0}),  # check_theorem
        ("scan-t", scan),
        ("constants", CROSS),  # empirical_constants
        ("oracle-check", ORACLE),
    ]
    for command, config in runs:
        assert run(tmp_path, command, config, fmt="json")[0] == 0, command
    assert built == []

    # the matrix is still there when read: built once, complex and Hermitian to the last bit
    spec = ObservationSpec.from_dict({**CROSS["spec"], "T": CROSS["T"], "model": "wave"})
    gram = assemble_gram(spec, build_mode_set(RectangleGeometry(PI, PI), 6, 6))
    back = GramForm.from_json(gram.to_json())  # JSON holds the blocks, not the matrix
    assert back == gram and built == []
    g = gram.matrix
    assert gram.matrix is g and len(built) == 1
    assert g.dtype == complex and np.array_equal(g, g.conj().T)
    assert np.array_equal(back.matrix, g)


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "obslab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_cli_names_no_theorem():
    tree = ast.parse(Path(cli.__file__).read_text())
    literals = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert literals.isdisjoint(THEOREM_IDS)


def test_stdout_when_no_out_path(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"a": 1.0, "b": 2.0}))
    assert main(["mab", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "mab"
    assert report["result"]["attained_n"] == 2
