import dataclasses
import itertools
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

import quditcorr
import quditcorr.benchmark as benchmark
from quditcorr.cli import (
    CSV_COLUMNS,
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


QUICK_N4 = json.loads(
    (pathlib.Path(__file__).parents[1] / "configs" / "quick_n4.json").read_text(encoding="utf-8")
)
TIME_OVERFLOWS = "time 1e+308 overflows the phase of exp(-iHt)"


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
    # A repeated lambda would run twice and write its rows twice; 1 and 1.0 are one value.
    for lambdas in ([0.2, 0.2], [0.1, 1, 1.0]):
        with pytest.raises(ConfigError, match="field 'lambdas': values must be distinct"):
            parse_config(write_config(tmp_path, {"lambdas": lambdas}))
    # 5e-324 * 1e-3 rounds to 0.0, and the LR quotients divide by lambda * pulse_area;
    # the smallest accepted lambda puts that product at the smallest normal float.
    with pytest.raises(ConfigError, match="field 'lambdas': lambda \\* pulse_area underflows"):
        parse_config(write_config(tmp_path, {"lambdas": [5e-324]}))
    floor = sys.float_info.min / 1e-3
    assert parse_config_dict({"lambdas": [floor]})[0].lambdas == (floor,)
    # Types are checked, not coerced.
    wrong_types = [
        ("exact_only", {"exact_only": "false"}),
        ("n_sites", {"n_sites": 4.7}),
        ("n_sites", {"n_sites": "abc"}),
        ("seed", {"seed": 1.5}),
        ("workers", {"workers": True}),
        ("shots", {"shots": {"hadamard": {"plus": 2.9}}}),
    ]
    for field, payload in wrong_types:
        with pytest.raises(ConfigError, match=f"invalid config field '{field}'"):
            parse_config_dict(payload)
    assert parse_config_dict({"t_max": 5})[0].t_max == 5.0
    # Every number field refuses what JSON writes as NaN, Infinity and -Infinity.
    numbers = ("j_z_over_j_xy", "t_max", "pulse_area", "lambdas")
    for field, value in itertools.product(numbers, (math.nan, math.inf, -math.inf)):
        payload = {field: [0.1, value] if field == "lambdas" else value}
        with pytest.raises(ConfigError, match=f"field '{field}': expected a finite number"):
            parse_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--workers", "0"], "workers"),
        (["--workers", "-3"], "workers"),
        (["--steps", "0"], "steps"),
        (["--t-max", "inf"], "t_max"),
    ],
)
def test_run_flags_go_through_the_config_checks(tmp_path, capsys, flags, field):
    path = write_config(tmp_path, FAST)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 2
    assert f"invalid config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sites", [[2, 2], [1, 4]])
def test_run_rejects_a_bad_site_pair_naming_the_field(tmp_path, capsys, sites):
    path = write_config(tmp_path, {**FAST, "n_sites": 3, "sites": sites})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "invalid config field 'sites'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_info_log_shows_the_blocks_and_leaves_the_csv_bytes_alone(tmp_path):
    # Odd N: the Neel superposition touches the sectors of S^z = +1 and -1.
    path = write_config(tmp_path, {**FAST, "n_sites": 3})
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    csv, err = {}, {}
    for level in ("WARNING", "INFO"):
        env = {**os.environ, "QUDITCORR_LOG": level, "PYTHONPATH": src}
        out = tmp_path / level
        cmd = [sys.executable, "-m", "quditcorr.cli", "run", "--config", path, "--out", str(out)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        csv[level], err[level] = (out / "results.csv").read_bytes(), proc.stderr
    assert csv["INFO"] == csv["WARNING"]
    assert "H0 has 7 blocks; psi0 touches dimension 6 (dense-eig), 6 (dense-eig)" in err["INFO"]
    assert "blocks" not in err["WARNING"]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At N = 7 eigh and matmul on the dense-eig blocks round differently
    # on two OpenBLAS threads than on one, in the exact cells.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    config = str(pathlib.Path(__file__).parents[1] / "configs" / "quick_n4.json")
    csv = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS} | {"PYTHONPATH": src}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / str(threads)
        cmd = [sys.executable, "-m", "quditcorr.cli", "run", "--config", config, "--out", str(out)]
        cmd += ["--n-sites", "7", "--steps", "6"]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        csv[threads] = (out / "results.csv").read_bytes()
    assert csv["1"] == csv[None] == csv["2"]


@pytest.mark.parametrize("numpy_first", [False, True])
def test_importing_quditcorr_pins_blas_to_one_thread(numpy_first):
    # BLAS reads the variables when NumPy loads it: a process that loaded
    # NumPy first keeps its own count.  OpenBLAS starts its threads then.
    probe = (
        ("import numpy\n" if numpy_first else "")
        + "import os, quditcorr\n"
        + f"print(*(os.environ[k] for k in {BLAS_THREADS!r}))\n"
        + "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)"
    )
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREADS, "2")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    variables, os_threads = proc.stdout.splitlines()
    if numpy_first:
        assert variables == "2 2 2"
    else:
        assert variables == "1 1 1" and os_threads == "1"


def test_in_process_tests_run_with_one_blas_thread():
    # conftest.py imports quditcorr before NumPy, so the in-process tests
    # run BLAS as the CLI does.
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def test_the_cli_entry_freezes_the_import_heap(tmp_path):
    # python -m quditcorr.cli runs main() with no argv; a sitecustomize on
    # the path reports the freeze count as the process exits.
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    )
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(tmp_path), src))}
    proc = subprocess.run(
        [sys.executable, "-m", "quditcorr.cli", "decompose"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stdout.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


def test_library_use_leaves_the_collector_unfrozen():
    probe = (
        "import gc\n"
        "counts = [gc.get_freeze_count()]\n"
        "import quditcorr\n"
        "counts.append(gc.get_freeze_count())\n"
        "from quditcorr.cli import main\n"
        "main(['decompose'])\n"
        "counts.append(gc.get_freeze_count())\n"
        "print(*counts)\n"
    )
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 0"


def test_study_row_fields_are_in_csv_column_order():
    names = [f.name for f in dataclasses.fields(benchmark.StudyRow)]
    assert names == [{"lambda": "lam"}.get(c, c) for c in CSV_COLUMNS]


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


def test_runtime_is_never_negative_when_the_wall_clock_steps_back(tmp_path, monkeypatch):
    # A wall clock that goes back an hour at every reading.
    clock = itertools.count(1e9, -3600.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    assert run(RunConfig(**FAST), str(tmp_path)) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["runtime_seconds"] >= 0


def test_summary_names_the_scipy_the_run_loaded(tmp_path):
    # This process has SciPy loaded in any case (the tests import it), so
    # the summary names its version.  FAST's own blocks and pulses load
    # none; the null case runs in a fresh process below.
    import scipy

    assert run(RunConfig(**FAST), str(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["versions"]["scipy"] == scipy.__version__


SCIPY_PROBE = """
import json, sys
from quditcorr import cli, dynamics
from quditcorr.benchmark import RunConfig, neel_superposition
out = sys.argv[1]
{step}
print(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""

SCIPY_STEPS = {
    "import": ("pass", False),
    "propagator-n6": ("dynamics.make_propagator(dynamics.build_xxz(6, 1.0, 0.5))", False),
    # Two workers: the traces run on the pool.
    "hadamard-exact-n6": (
        "cfg = RunConfig(n_sites=6, protocols=['hadamard'], exact_only=True, workers=2)\n"
        "assert cli.run(cfg, out) == 0\n"
        "assert json.load(open(out + '/summary.json'))['versions']['scipy'] is None",
        False,
    ),
    "correlator-n4": ("assert cli.main(['correlator', '--n-sites', '4', '--t2', '1.5']) == 0", False),
    # Its oracle densifies H from the CSR arrays, and its Taylor check runs dense blocks.
    "validate": ("assert cli.main(['validate']) == 0", False),
    # The pulses run the Taylor kernel on H0's blocks, all dense up to N = 7.
    "lr-n4": (
        "assert cli.run(RunConfig(n_sites=4, protocols=['lr'], steps=6, workers=2), out) == 0\n"
        "assert json.load(open(out + '/summary.json'))['versions']['scipy'] is None",
        False,
    ),
    "lr-n7": (
        "cfg = RunConfig(n_sites=7, steps=4, lambdas=[0.1, 0.2], workers=2)\n"
        "assert cli.run(cfg, out) == 0\n"
        "assert json.load(open(out + '/summary.json'))['versions']['scipy'] is None",
        False,
    ),
    "propagator-n8": (
        "prop = dynamics.make_propagator(dynamics.build_xxz(8, 1.0, 0.5))\n"
        "psi = dynamics.evolve(prop, neel_superposition(8), 1.5)\n"
        "assert abs(psi.squared_norm - 1) < 1e-12\n"
        "assert [b.strategy for b in prop.blocks_touched(psi)] == ['sparse']",
        True,
    ),
}


@pytest.mark.parametrize("step", SCIPY_STEPS)
def test_scipy_is_loaded_only_by_sparse_blocks_and_pulses(tmp_path, step):
    # Up to N = 7 every block of H0 is dense-eig and every pulse runs on
    # dense blocks, so no study and neither the correlator nor the validate
    # verb imports SciPy; the large blocks at N = 8 load it, and then work
    # as before.
    code, loads = SCIPY_STEPS[step]
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-c", SCIPY_PROBE.format(step=code), str(tmp_path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loads)


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


def test_every_lambda_has_its_own_figure_under_its_csv_text(tmp_path):
    # 0.1 and 0.1000001 agree to 6 significant digits; each keeps its figure.
    cfg, _ = parse_config_dict({**FAST, "n_sites": 3, "lambdas": [0.1, 0.1000001]})
    out = tmp_path / "close"
    assert run(cfg, str(out)) == 0
    lines = (out / "results.csv").read_text().splitlines()[1:]
    csv_lambdas = {l.split(",")[3] for l in lines if l.startswith("lr,")}
    figures = json.loads((out / "summary.json").read_text())["figures_of_merit"]
    assert csv_lambdas == {"0.1", "0.1000001"}
    assert sorted(figures) == ["hadamard", "lr:lambda=0.1", "lr:lambda=0.1000001"]


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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n-sites", "3", "--sites", "1", "5"], "site 5 outside 1..3"),
        (["--sites", "2", "2"], "distinct"),
        (["--sites", "0", "2"], "site 0 outside 1..4"),
    ],
    ids=["beyond-chain", "repeated", "zero"],
)
def test_correlator_rejects_a_bad_site_pair_naming_the_field(capsys, flags, message):
    assert main(["correlator", "--t2", "0.7", *flags]) == 2
    err = capsys.readouterr().err
    assert "invalid config field 'sites'" in err and message in err


@pytest.mark.parametrize("jz", ["nan", "inf", "-inf"])
def test_correlator_rejects_a_non_finite_anisotropy_naming_the_field(capsys, jz):
    assert main(["correlator", "--n-sites", "3", f"--jz={jz}", "--t2", "1"]) == 2
    captured = capsys.readouterr()
    assert "invalid config field 'j_z_over_j_xy'" in captured.err and not captured.out


@pytest.mark.parametrize("flag", ["--t1", "--t2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_correlator_rejects_a_non_finite_time(capsys, flag, value):
    assert main(["correlator", "--n-sites", "3", "--t2=1", f"{flag}={value}"]) == 2  # the last --t2 wins
    captured = capsys.readouterr()
    assert "times must be finite and nonnegative" in captured.err and not captured.out


@pytest.mark.parametrize("shots", [None, "800"])
def test_correlator_refuses_a_time_whose_phase_overflows(capsys, shots):
    # 1e308 is finite, but 1e308 times the norm of H is not.
    budget = [] if shots is None else ["--shots", shots]
    assert main(["correlator", "--n-sites", "3", "--t2", "1e308", *budget]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {TIME_OVERFLOWS}\n"
    assert not captured.out


@pytest.mark.parametrize("shots", ["0", "5", "-8"])
def test_correlator_rejects_fewer_shots_than_circuits(capsys, shots):
    assert main(["correlator", "--n-sites", "2", "--t2", "0.7", "--shots", shots]) == 2
    assert "--shots must be at least 8" in capsys.readouterr().err
    assert main(["correlator", "--n-sites", "2", "--t2", "0.7", "--shots", "8"]) == 0
    assert "[sampled, shots=4]" in capsys.readouterr().out  # one shot per circuit


def test_decompose_verb(capsys):
    assert main(["decompose", "--observable", "z"]) == 0
    out = capsys.readouterr().out
    assert "spectral norm: 1" in out
    assert "reconstruction max error" in out


def test_validate_verb(capsys):
    assert main(["validate", "--points", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


@pytest.mark.parametrize("points", ["0", "-1"])
def test_validate_rejects_fewer_than_one_point_naming_the_flag(capsys, points):
    assert main(["validate", "--points", points]) == 2
    assert f"--points must be at least 1, got {points}" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"bogus": 1})
    assert main(["run", "--config", path]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, flags, message",
    [
        ([1, 2], [], "config document must be a JSON object"),
        # 3^18 amplitudes exceed the 2^27 budget: refused before H is allocated.
        (FAST, ["--n-sites", "18"], "dimension 3^18 = 387420489 exceeds the 134217728 budget"),
        # A finite t_max whose phase overflows, on the dense-eig blocks at
        # N = 4 and on the Taylor kernel's at N = 8.
        (QUICK_N4, ["--t-max", "1e308", "--steps", "2"], TIME_OVERFLOWS),
        (QUICK_N4, ["--t-max", "1e308", "--steps", "2", "--n-sites", "8"], TIME_OVERFLOWS),
    ],
    ids=["config-not-an-object", "n-sites-over-budget", "t-max-overflows-dense",
         "t-max-overflows-taylor"],
)
def test_run_reports_unusable_input_in_one_line(tmp_path, capsys, payload, flags, message):
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").glob("*"))  # nothing written


def test_a_refused_study_removes_only_the_directories_it_made(tmp_path, capsys):
    path = write_config(tmp_path, FAST)
    refused = ["run", "--config", path, "--n-sites", "18", "--out"]
    assert main([*refused, str(tmp_path / "new" / "out")]) == 2
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    (kept / "empty").mkdir(parents=True)
    (kept / "notes.txt").write_text("x")
    assert main([*refused, str(kept / "empty")]) == 2
    assert main([*refused, str(kept)]) == 2
    assert sorted(p.name for p in kept.iterdir()) == ["empty", "notes.txt"]
    assert capsys.readouterr().err.count("exceeds the 134217728 budget") == 3


@pytest.mark.parametrize("case", ["missing-config", "config-is-a-directory", "out-is-a-file"])
def test_file_errors_exit_2_naming_the_path(tmp_path, capsys, case):
    # Exit 1 is an interrupted run's status; a file the run cannot read or
    # write is a usage error, reported in one line.
    missing, taken = tmp_path / "missing.json", tmp_path / "taken"
    taken.write_text("")
    config = write_config(tmp_path, FAST)
    path, args = {
        "missing-config": (missing, ["--config", str(missing)]),
        "config-is-a-directory": (tmp_path, ["--config", str(tmp_path)]),
        "out-is-a-file": (taken, ["--config", config, "--out", str(taken)]),
    }[case]
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


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


def test_an_extreme_lambda_leaves_r_undefined_and_writes_the_study(tmp_path):
    # At lambda = 1e-300 the LR values approach the float range and their
    # squared deviation overflows: R is undefined, the rest of the study stands.
    cfg, _ = parse_config_dict({**FAST, "n_sites": 3, "lambdas": [1e-300]})
    out = tmp_path / "extreme"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(cfg, str(out)) == 0
    assert (out / "results.csv").read_text().count("\nlr,") == 2 * cfg.steps
    text = (out / "summary.json").read_text()
    fom = json.loads(text, parse_constant=_reject_constant)["figures_of_merit"]["lr:lambda=1e-300"]
    assert fom["r_plus"] is None and "overflows" in fom["r_plus_reason"]
    assert fom["r_minus"] is None and fom["r_minus_reason"]
    assert 0 < fom["dc_plus"] < math.inf and 0 < fom["dc_minus"] < math.inf


@pytest.mark.parametrize("exact_only", [False, True], ids=["sampled", "exact-only"])
def test_dc_at_the_lambda_floor_is_finite(tmp_path, exact_only):
    # An LR error bar near 1 / (lambda * pulse_area) ~ 4.5e307 times a
    # step of 25 overflows the trapezoid's area, not its average.
    payload = {
        "n_sites": 4,
        "steps": 2,
        "t_max": 50.0,
        "lambdas": [2.2250738585072014e-305],
        "shots": {"lr": {"plus": 4, "minus": 4}},
    }
    if exact_only:
        payload.update(exact_only=True, shots={"lr": {"plus": 2, "minus": 2}})
    cfg, _ = parse_config_dict(payload)
    out = tmp_path / "floor"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(cfg, str(out)) == 0
    text = (out / "summary.json").read_text()
    fom = json.loads(text, parse_constant=_reject_constant)["figures_of_merit"]
    dc = fom["lr:lambda=2.2250738585072014e-305"]
    assert 0 < dc["dc_plus"] < math.inf and 0 < dc["dc_minus"] < math.inf


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_writes_the_completed_traces(tmp_path, monkeypatch, workers):
    # The second LR trace raises as a Ctrl-C would, after the Hadamard
    # trace and the first LR trace have finished.
    payload = {**FAST, "lambdas": [0.1, 0.2], "workers": workers}
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "results.csv").read_text().splitlines(keepends=True)

    real_trace = benchmark.lr_trace

    def interrupted_trace(config, *args, **kwargs):
        if config.lam == 0.2:
            raise KeyboardInterrupt
        return real_trace(config, *args, **kwargs)

    monkeypatch.setattr(benchmark, "lr_trace", interrupted_trace)
    out = tmp_path / "cut"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    rows = (out / "results.csv").read_text().splitlines(keepends=True)
    steps = FAST["steps"]
    assert len(rows) == 1 + 4 * steps  # header, Hadamard +/-, lambda = 0.1 +/-
    assert rows == full[: len(rows)]
    assert all(r.startswith("hadamard,") or ",0.1," in r for r in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["incomplete"] is True
    assert summary["figures_of_merit"] == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_during_an_lr_trace_writes_the_completed_traces(tmp_path, monkeypatch, workers):
    # A Ctrl-C arrives while the lambda = 0.1 task runs its first pulsed
    # branch: the Hadamard trace and that running LR task finish, and the
    # run ends as any interrupt does.  At one worker the other lambda is
    # still pending and is cancelled; at two it may have started already.
    payload = {**FAST, "lambdas": [0.1, 0.2], "workers": workers}
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "results.csv").read_text().splitlines(keepends=True)

    real_trace = benchmark.lr_trace
    cancelled = threading.Event()

    class Pool(benchmark.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait, cancel_futures=cancel_futures)
            if cancel_futures:
                cancelled.set()

    def interrupted_trace(config, *args, **kwargs):
        if (config.lam, config.kind) == (0.1, "non_hermitian"):  # the task's first call
            # SIGINT to the main thread, as Ctrl-C; the trace goes on once
            # the main thread has cancelled the pending tasks.
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            assert cancelled.wait(30)
        return real_trace(config, *args, **kwargs)

    monkeypatch.setattr(benchmark, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(benchmark, "lr_trace", interrupted_trace)
    out = tmp_path / "cut"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    rows = (out / "results.csv").read_text().splitlines(keepends=True)
    completed = 1 + 4 * FAST["steps"]  # header, Hadamard +/-, lambda = 0.1 +/-
    assert rows == full[: len(rows)]
    assert len(rows) == completed or (workers == 2 and rows == full)
    assert json.loads((out / "summary.json").read_text())["incomplete"] is True


def test_interrupt_during_the_lr_estimation_writes_every_trace(tmp_path, monkeypatch):
    # The LR traces are estimated on the main thread after the pool; a
    # Ctrl-C there still writes the rows of every trace the pool completed.
    path = write_config(tmp_path, {**FAST, "lambdas": [0.1, 0.2]})
    assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "results.csv").read_text()

    real_estimate = benchmark.lr_estimate
    interrupts = []

    def interrupted_estimate(*args, **kwargs):
        if not interrupts:
            interrupts.append(threading.current_thread())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(benchmark, "lr_estimate", interrupted_estimate)
    out = tmp_path / "cut"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert interrupts == [threading.main_thread()]
    assert (out / "results.csv").read_text() == full
    assert json.loads((out / "summary.json").read_text())["incomplete"] is True
