import json

import pytest

from quditcorr.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    parse_config_dict,
    run,
)

FAST = {
    "n_sites": 2,
    "t_max": 1.0,
    "steps": 3,
    "shots": {"hadamard": {"plus": 60, "minus": 40}, "lr": {"plus": 60, "minus": 40}},
    "seed": 7,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_minimal_config_fills_documented_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"n_sites": 4, "steps": 50}))
    assert cfg.j_z_over_j_xy == 0.5
    assert cfg.pulse_area == 1e-3
    assert cfg.lambdas == (0.2,)
    assert cfg.shots["hadamard"] == {"plus": 1500, "minus": 8000}
    assert cfg.shots["lr"] == {"plus": 1500, "minus": 12000}
    _, defaulted = parse_config_dict({"n_sites": 4, "steps": 50})
    assert "lambdas" in defaulted and "pulse_area" in defaulted
    assert "n_sites" not in defaulted


def test_negative_lambda_is_named_in_the_error(tmp_path):
    with pytest.raises(ConfigError, match="lambdas"):
        parse_config(write_config(tmp_path, {"lambdas": [-0.1]}))


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key: 'lambda_grid'"):
        parse_config(write_config(tmp_path, {"lambda_grid": [0.1]}))


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_sites": 4,\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(str(path))


def test_run_verb_reports_parse_errors_with_line_info(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_sites": 4,\n}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "config parse error at line 3" in capsys.readouterr().err


def test_field_validation_messages(tmp_path):
    with pytest.raises(ConfigError, match="n_sites"):
        parse_config(write_config(tmp_path, {"n_sites": 1}))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(write_config(tmp_path, {"steps": 0}))
    with pytest.raises(ConfigError, match="protocols"):
        parse_config(write_config(tmp_path, {"protocols": ["qpe"]}))
    with pytest.raises(ConfigError, match="shots"):
        parse_config(write_config(tmp_path, {"shots": {"hadamard": {"plus": 1}}}))


def test_same_config_and_seed_give_identical_csv_bytes(tmp_path):
    cfg, _ = parse_config_dict(FAST)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(cfg, str(out_a)) == 0
    assert run(cfg, str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_worker_count_does_not_change_csv_bytes(tmp_path):
    cfg1, _ = parse_config_dict({**FAST, "workers": 1})
    cfg8, _ = parse_config_dict({**FAST, "workers": 8})
    out_1, out_8 = tmp_path / "w1", tmp_path / "w8"
    run(cfg1, str(out_1))
    run(cfg8, str(out_8))
    a = (out_1 / "results.csv").read_text().splitlines()
    b = (out_8 / "results.csv").read_text().splitlines()
    assert a == b


def test_summary_config_block_round_trips(tmp_path):
    cfg, defaulted = parse_config_dict(FAST)
    out = tmp_path / "run"
    run(cfg, str(out), defaulted)
    summary = json.loads((out / "summary.json").read_text())
    reparsed, _ = parse_config_dict(summary["config"])
    assert reparsed == cfg
    assert set(defaulted) <= set(summary["defaults_applied"])
    assert summary["incomplete"] is False
    assert "figures_of_merit" in summary and "versions" in summary


def test_csv_schema_and_lambda_column(tmp_path):
    cfg, _ = parse_config_dict(FAST)
    out = tmp_path / "run"
    run(cfg, str(out))
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "protocol,kind,t,lambda,exact,sampled,std_error,shots,seed"
    had = [l for l in lines[1:] if l.startswith("hadamard,")]
    lr = [l for l in lines[1:] if l.startswith("lr,")]
    assert had and lr
    assert all(l.split(",")[3] == "" for l in had)  # lambda empty off the sweep
    assert all(l.split(",")[3] == "0.2" for l in lr)


def test_exact_only_run_reports_tiny_relative_error(tmp_path):
    cfg, _ = parse_config_dict(
        {"n_sites": 4, "t_max": 2.0, "steps": 4, "protocols": ["hadamard"], "exact_only": True}
    )
    out = tmp_path / "exact"
    assert run(cfg, str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    fom = summary["figures_of_merit"]["hadamard"]
    assert fom["r_plus"] <= 1e-10
    assert fom["r_minus"] <= 1e-10


def test_run_verb_with_overrides(tmp_path, capsys):
    path = write_config(tmp_path, FAST)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), "--seed", "9"])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seed"] == 9
    assert "seed" not in summary["defaults_applied"]


def test_correlator_verb(capsys):
    assert main(["correlator", "--n-sites", "2", "--t2", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "C+(0, 0.7)" in out and "C-(0, 0.7)" in out and "exact" in out


def test_decompose_verb(capsys):
    assert main(["decompose", "--observable", "z"]) == 0
    out = capsys.readouterr().out
    assert "spectral norm: 1" in out
    assert "reconstruction max error" in out


def test_validate_verb(capsys):
    assert main(["validate", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"bogus": 1})
    assert main(["run", "--config", path]) == 2
    assert "unknown config key" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json_when_r_is_undefined(tmp_path):
    # On an odd chain the C- reference of adjacent sites vanishes
    # identically while the LR estimate does not, so R- is undefined.
    cfg, _ = parse_config_dict({**FAST, "n_sites": 3, "protocols": ["lr"]})
    out = tmp_path / "odd"
    assert run(cfg, str(out)) == 0
    text = (out / "summary.json").read_text()
    fom = json.loads(text, parse_constant=_reject_constant)["figures_of_merit"]["lr:lambda=0.2"]
    assert fom["r_minus"] is None
    assert "vanishes" in fom["r_minus_reason"]
    assert fom["r_plus"] is not None and fom["r_plus_reason"] is None
