"""End-to-end subcommand runs: exit codes, determinism, output formats."""

import ast
import json
import math
from pathlib import Path

import pytest

from obslab import THEOREM_IDS, __version__, cli, inequalities
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
    "params": {"p": 2, "q": 2, "alpha": PI / 2, "beta": PI / 2},
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
    real = inequalities.assemble_gram

    def counted(spec, mode_set):
        calls.append(spec)
        return real(spec, mode_set)

    monkeypatch.setattr(inequalities, "assemble_gram", counted)
    code, text = run(tmp_path, "verify", {**CROSS, "T": 10.0, "samples": samples})
    assert code == 3
    assert text == ""
    assert calls == []


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


@pytest.mark.parametrize("T", [math.inf, 1e308], ids=["inf", "overflow"])
def test_ingham_rejects_unusable_horizon(tmp_path, T):
    code, text = run(tmp_path, "ingham", {**INGHAM, "T": T})
    assert code == 2
    assert text == ""


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
