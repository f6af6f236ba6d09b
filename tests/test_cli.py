import ast
import dataclasses
import importlib
import itertools
import json
import math
import os
import pathlib
import re
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
    _write_csv,
    main,
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
N18_OVER_BUDGET = (
    "invalid config field 'n_sites': dimension 3^18 = 387420489 exceeds the 134217728 budget"
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config_dict({"n_sites": 4, "steps": 50})[0]
    assert cfg.j_z_over_j_xy == 0.5
    assert cfg.pulse_area == 1e-3
    assert cfg.lambdas == (0.2,)
    assert cfg.shots["hadamard"] == {"plus": 1500, "minus": 8000}
    assert cfg.shots["lr"] == {"plus": 1500, "minus": 12000}
    _, defaulted = parse_config_dict({"n_sites": 4, "steps": 50})
    assert "lambdas" in defaulted and "pulse_area" in defaulted
    assert "n_sites" not in defaulted


def test_negative_lambda_is_named_in_the_error():
    with pytest.raises(ConfigError, match="lambdas"):
        parse_config_dict({"lambdas": [-0.1]})


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key: 'lambda_grid'"):
        parse_config_dict({"lambda_grid": [0.1]})


def test_run_verb_reports_parse_errors_with_line_info(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_sites": 4,\n}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "config parse error at line 3" in capsys.readouterr().err


def test_field_validation_messages():
    with pytest.raises(ConfigError, match="n_sites"):
        parse_config_dict({"n_sites": 1})
    with pytest.raises(ConfigError, match="steps"):
        parse_config_dict({"steps": 0})
    with pytest.raises(ConfigError, match="protocols"):
        parse_config_dict({"protocols": ["qpe"]})
    with pytest.raises(ConfigError, match="shots"):
        parse_config_dict({"shots": {"hadamard": {"plus": 1}}})
    # A repeated lambda would run twice and write its rows twice; 1 and 1.0 are one value.
    for lambdas in ([0.2, 0.2], [0.1, 1, 1.0]):
        with pytest.raises(ConfigError, match="field 'lambdas': values must be distinct"):
            parse_config_dict({"lambdas": lambdas})
    # 5e-324 * 1e-3 rounds to 0.0, and the LR quotients divide by lambda * pulse_area;
    # the smallest accepted lambda puts that product at the smallest normal float.
    with pytest.raises(ConfigError, match="field 'lambdas': lambda \\* pulse_area underflows"):
        parse_config_dict({"lambdas": [5e-324]})
    floor = sys.float_info.min / 1e-3
    assert parse_config_dict({"lambdas": [floor]})[0].lambdas == (floor,)
    # Types are checked, not coerced.
    wrong_types = [
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
            parse_config_dict(payload)


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--workers", "0"], "workers"),
        (["--workers", "-3"], "workers"),
        (["--steps", "0"], "steps"),
        (["--t-max", "inf"], "t_max"),
        (["--lambda", "0"], "lambdas"),
    ],
)
def test_run_flags_go_through_the_config_checks(tmp_path, capsys, flags, field):
    path = write_config(tmp_path, FAST)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 2
    assert f"invalid config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lambda_flag_runs_the_config_with_that_one_lambda(tmp_path):
    flag = write_config(tmp_path, {**FAST, "lambdas": [0.1, 0.2]}, "flag.json")
    listed = write_config(tmp_path, {**FAST, "lambdas": [0.4]}, "listed.json")
    out_flag, out_listed = tmp_path / "flag", tmp_path / "listed"
    assert main(["run", "--config", flag, "--lambda", "0.4", "--out", str(out_flag)]) == 0
    assert main(["run", "--config", listed, "--out", str(out_listed)]) == 0
    written = (out_flag / "results.csv").read_bytes()
    assert written == (out_listed / "results.csv").read_bytes() and b",0.4," in written
    summary = json.loads((out_flag / "summary.json").read_text())
    assert summary["config"]["lambdas"] == [0.4]


# Every RunConfig field at the edges of JSON's values, the others at their
# defaults; 10^8 only where the field holds integers.  sites, lambdas and
# shots take the value inside their list or mapping too.
EDGE_VALUES = (0, -1, 5e-324, 1e308, "x", [], None)
INTEGER_FIELDS = {"n_sites", "steps", "sites", "shots", "seed", "workers"}
INSIDE = {
    "sites": lambda v: [1, v],
    "lambdas": lambda v: [v],
    "shots": lambda v: {"hadamard": {"plus": v}},
}


def _edges(name):
    for v in EDGE_VALUES + (10**8,) * (name in INTEGER_FIELDS):
        yield v
        if name in INSIDE:
            yield INSIDE[name](v)


CONFIG_EDGES = [
    pytest.param({f.name: v}, None, id=f"{f.name}={json.dumps(v, separators=(',', ':'))}")
    for f in dataclasses.fields(RunConfig)
    for v in _edges(f.name)
]
# Integers past int64, which the grid's count and the shot counts and their
# sums are held in, are refused naming their field before a float is formed
# from them: steps = 10^400 overflowed a float in the plan, a 2^63 LR budget
# wrote negative shot counts, and 10^20 failed in the sampler.
CONFIG_EDGES += [pytest.param({"steps": 10**400}, "steps", id="steps=10^400")] + [
    pytest.param({"shots": {proto: {kind: n}}}, "shots", id=f"shots={proto}.{kind}={text}")
    for proto, kind in itertools.product(["hadamard", "lr"], ["plus", "minus"])
    for n, text in [(2**63, "2^63"), (10**20, "10^20")]
]


@pytest.mark.parametrize("payload, refused", CONFIG_EDGES)
def test_every_config_field_at_its_edges_runs_or_is_refused_in_one_line(
    tmp_path, capsys, payload, refused
):
    # workers = 10^8 runs too: the pool starts at most one thread per trace.
    out = tmp_path / "out"
    code = main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert refused is None or err.startswith(f"error: invalid config field '{refused}': ")
    if code == 0:
        assert (out / "results.csv").is_file()
    else:
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("proto, kind", itertools.product(["hadamard", "lr"], ["plus", "minus"]))
def test_the_largest_budget_runs_with_every_shot_count_in_int64(tmp_path, proto, kind):
    # 2^63 - 1 is admitted: an LR branch takes half of it, so the two add up
    # to less, and a Hadamard C+ point's three counts to a half.
    cfg, _ = parse_config_dict({**FAST, "shots": {proto: {kind: 2**63 - 1}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(cfg, str(tmp_path / "out")) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
    shots = [int(row.split(",")[7]) for row in rows if row.startswith(f"{proto},")]
    assert 0 < min(shots) and max(shots) > 2**60


# Every flag of the four verbs at the edges of its type, appended to a quick
# call of its verb (argparse keeps a flag's last value): 0, -1, the smallest
# subnormal, 1e308, 10^8 for an integer flag, and a value of the wrong type.
# validate has no flag; it runs as it is.  A path flag's wrong type is a
# directory for --config and a file for --out.
VERB_FLAGS = {
    "run": {"--config": "path", "--seed": "int", "--workers": "int", "--out": "path",
            "--lambda": "float", "--n-sites": "int", "--t-max": "float", "--steps": "int"},
    "correlator": {"--n-sites": "int", "--jz": "float", "--sites": "int", "--t1": "float",
                   "--t2": "float", "--shots": "int", "--seed": "int"},
    "decompose": {"--observable": "choice", "--spin": "float"},
    "validate": {},
}
WRONG_TYPE = {"int": "1.5", "float": "x", "choice": "w", "path": {"--config": ".", "--out": "file"}}


def _flag_edges():
    yield pytest.param("validate", [], id="validate")
    for verb, flags in VERB_FLAGS.items():
        for flag, kind in flags.items():
            wrong = WRONG_TYPE[kind][flag] if kind == "path" else WRONG_TYPE[kind]
            for value in ["0", "-1", "5e-324", "1e+308", *["100000000"] * (kind == "int"), wrong]:
                values = ["1", value] if flag == "--sites" else [value]
                yield pytest.param(verb, [flag, *values], id=f"{verb} {flag} {value}")
    # Shot counts and their sums are int64: 2^63 is refused, 2^63 - 1 runs.
    for shots in (2**63 - 1, 2**63, 10**20):
        yield pytest.param("correlator", ["--shots", str(shots)], id=f"correlator --shots {shots}")


VERB_BASE = {
    "run": ["--config", "fast.json", "--out", "out"],
    "correlator": ["--n-sites", "2", "--t2", "1"],
    "decompose": [],
    "validate": [],
}


@pytest.mark.parametrize("verb, flags", _flag_edges())
def test_every_verb_flag_at_its_edges_runs_or_is_refused_in_one_line(
    tmp_path, monkeypatch, capsys, verb, flags
):
    # Exit 0, or exit 2 with one error line and no traceback, no
    # RuntimeWarning, within 10 s.  argparse refuses a value of the wrong
    # type or an unknown choice in its own form: the usage, then one line,
    # "quditcorr <verb>: error: ...".
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, FAST, "fast.json")
    (tmp_path / "file").write_text("")
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main([verb, *VERB_BASE[verb], *flags])
        except SystemExit as stop:  # argparse's refusals
            code = stop.code
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert verb != "run" or pathlib.Path(flags[1] if flags[0] == "--out" else "out").is_dir()
    else:
        assert code == 2, err
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            assert [line for line in lines if "error:" in line] == lines[-1:]
            assert lines[-1].startswith(f"quditcorr {verb}: error: ")
        else:
            assert err.startswith("error: ") and len(lines) == 1
    if flags == ["--shots", str(2**63)]:
        assert code == 2 and "--shots must be below 2^63" in err


def test_the_verb_flag_table_covers_every_flag(capsys):
    for verb, flags in VERB_FLAGS.items():
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        listed = set(re.findall(r"(--[a-z][a-z0-9-]*)", capsys.readouterr().out)) - {"--help"}
        assert listed == set(flags), verb


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
    # The plan's predicted CPU and bytes follow on the same line.
    line = r"dense-eig\); predicted (\S+) s of CPU at one worker and (\S+) MB"
    plan = parse_config_dict({**FAST, "n_sites": 3})[0].plan
    want = (f"{plan.cpu_seconds:.3g}", f"{sum(plan.bytes) / 1e6:.3g}")
    assert re.search(line, err["INFO"]).groups() == want
    assert "blocks" not in err["WARNING"]


@pytest.mark.parametrize("name", ["basic_format", "_styles", "no_such_level"])
def test_a_log_variable_that_names_no_level_means_warning(name):
    # logging.BASIC_FORMAT is a string and logging._STYLES a dict: neither is a level.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "QUDITCORR_LOG": name, "PYTHONPATH": src}
    cmd = [sys.executable, "-m", "quditcorr.cli", "decompose"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and "spectral norm: 1" in proc.stdout


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


def test_csv_cells_are_empty_for_none_and_the_repr_of_a_float(tmp_path):
    row = benchmark.StudyRow("hadamard", "+", 5e-324, None, -0.0, 0.1 + 0.2, 0.5, 60, 7)
    path = tmp_path / "results.csv"
    _write_csv(str(path), [row])
    assert path.read_bytes() == (
        b"protocol,kind,t,lambda,exact,sampled,std_error,shots,seed\n"
        b"hadamard,+,5e-324,,-0.0,0.30000000000000004,0.5,60,7\n"
    )


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
        "cfg = RunConfig(n_sites=6, protocols=['hadamard'], workers=2)\n"
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


def test_hadamard_run_reports_tiny_relative_error(tmp_path):
    # The R reference is the exact Hadamard trace, so the Hadamard R compares it with itself.
    cfg, _ = parse_config_dict({"n_sites": 4, "t_max": 2.0, "steps": 4, "protocols": ["hadamard"]})
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


def test_correlator_runs_where_a_study_at_its_anisotropy_is_refused(tmp_path, capsys):
    # The verb runs no study, so no study's work refuses its config.  At
    # J_z/J_xy = 1e10 a study's pulses would take about 55 min: its plan
    # refuses it before H is built.
    assert main(["correlator", "--n-sites", "4", "--jz", "1e10", "--t2", "1"]) == 0
    assert capsys.readouterr().out.startswith("C+(0, 1) = ")
    path = write_config(tmp_path, {**QUICK_N4, "j_z_over_j_xy": 1e10})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config field 'pulse_area': ")
    assert "predict about 54.9 min of one-worker CPU, over the bound of 10 min" in err


def test_correlator_refuses_a_time_past_the_work_bound_at_once():
    # The verb has no plan: the Taylor kernel prices its own trajectory and
    # refuses it before the first product, in one line, with no overflow
    # warning.  Its counts stop at the cap, so the minutes are a lower bound.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error::RuntimeWarning"}
    cmd = [sys.executable, "-m", "quditcorr.cli", "correlator", "--n-sites", "8", "--t2", "1e9"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 10
    assert proc.returncode == 2 and not proc.stdout, proc.stderr
    assert proc.stderr.startswith("error: the time grid needs over ") and proc.stderr.count("\n") == 1
    assert "on a block of dimension 1107, over the bound of 10 min" in proc.stderr


@pytest.mark.parametrize("jz", ["nan", "inf", "-inf"])
def test_correlator_rejects_a_non_finite_anisotropy_naming_the_field(capsys, jz):
    assert main(["correlator", "--n-sites", "3", f"--jz={jz}", "--t2", "1"]) == 2
    captured = capsys.readouterr()
    assert "invalid config field 'j_z_over_j_xy'" in captured.err and not captured.out


@pytest.mark.parametrize("flag", ["--t1", "--t2"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
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
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_config_error_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"bogus": 1})
    assert main(["run", "--config", path]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_exact_only_is_an_unknown_config_key(tmp_path, capsys):
    # Every study samples; the exact traces fill the exact column.
    path = write_config(tmp_path, {**FAST, "exact_only": True})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: unknown config key: 'exact_only'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "payload, flags, message",
    [
        ([1, 2], [], "config document must be a JSON object"),
        # 3^18 amplitudes exceed the 2^27 budget: refused before H is allocated,
        # and before a time grid of 10^10 steps (80 GB) is formed.
        (FAST, ["--n-sites", "18"], N18_OVER_BUDGET),
        (FAST, ["--n-sites", "18", "--steps", str(10**10)], N18_OVER_BUDGET),
        # A finite t_max whose phase overflows: the dense-eig kernel refuses it
        # at N = 4, and at N = 8 the plan refuses it before H is built: the
        # work it counts on the sparse block, at the Taylor cap, is a lower bound.
        (QUICK_N4, ["--t-max", "1e308", "--steps", "2"], TIME_OVERFLOWS),
        (QUICK_N4, ["--t-max", "1e308", "--steps", "2", "--n-sites", "8"],
         "invalid config field 't_max': 2 steps to t_max = 1e+308, 2 traces, pulse_area = 0.001 "
         "and j_z_over_j_xy = 0.5 at 8 sites predict over 5.59e+03 min of one-worker CPU, over "
         "the bound of 10 min"),
        # A pulse grows a squared norm by up to exp(2 lambda pulse_area) = exp(800):
        # refused before the study, not an overflow in a site marginal.
        ({"n_sites": 4, "lambdas": [400], "pulse_area": 1, "steps": 3}, [],
         "invalid config field 'lambdas': 2 * lambda * pulse_area = 800 for 400.0: "
         "exp of it overflows a float"),
        ({"n_sites": 4, "lambdas": [1e300]}, [],
         "invalid config field 'lambdas': 2 * lambda * pulse_area = 2e+297 for 1e+300: "
         "exp of it overflows a float"),
        # A pulse strength past the Taylor kernel's bound, with an area small
        # enough for the growth check: refused before the overflow warnings.
        *(({"n_sites": 4, "lambdas": [lam], "pulse_area": area, "steps": 3}, [],
           f"invalid config field 'lambdas': lambda |J_xy| = {lam:.6g} for {lam!r} at 4 sites: "
           "the Taylor kernel's products with the pulse may overflow")
          for lam, area in [(1e307, 1e-306), (1e306, 1e-305)]),
        # An anisotropy whose sums over H's diagonal overflow: refused before
        # the study, not an overflow in build_xxz or in a block's mean diagonal.
        *(({"n_sites": n, "j_z_over_j_xy": j_z}, [],
           f"invalid config field 'j_z_over_j_xy': {j_z!r} at {n} sites: the sums of H's "
           "diagonal, up to 3^N (N - 1) |j_z_over_j_xy|, may overflow")
          for n, j_z in [(2, 1e308), (2, -1e308), (3, 1e308), (3, -1e308), (4, 5e307), (6, 1e307)]),
    ],
    ids=["config-not-an-object", "n-sites-over-budget", "n-sites-over-budget-steps-1e10",
         "t-max-overflows-dense",
         "t-max-overflows-taylor", "pulse-growth-overflows", "lambda-1e300",
         "lambda-1e307-kernel", "lambda-1e306-kernel",
         "j-z-1e308-n2", "j-z-minus-1e308-n2", "j-z-1e308-n3", "j-z-minus-1e308-n3",
         "j-z-5e307-n4", "j-z-1e307-n6"],
)
def test_run_reports_unusable_input_in_one_line(tmp_path, capsys, payload, flags, message):
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").glob("*"))  # nothing written


@pytest.mark.parametrize(
    "payload, flags, field",
    [
        (QUICK_N4, ["--n-sites", "8", "--t-max", "1e9", "--steps", "2"], "t_max"),
        # lambda small enough that the pulse's norm growth, exp(2 lambda pulse_area),
        # fits a float, so the pulse reaches the step count.
        ({**QUICK_N4, "pulse_area": 1e9, "lambdas": [1e-7]}, [], "pulse_area"),
        # Pulses whose step count does not fit a float: refused as well,
        # not an OverflowError from counting the steps.
        ({"n_sites": 5, "j_z_over_j_xy": 1e300}, [], "pulse_area"),
    ],
    ids=["t-max-1e9-taylor", "pulse-area-1e9", "j-z-1e300"],
)
def test_run_refuses_a_time_grid_past_the_taylor_step_limit(tmp_path, payload, flags, field):
    # Each would take over 6e8 Taylor steps: the plan prices them from the
    # grid, past the work bound, and refuses the study before H is built,
    # naming the grid's t_max or the pulse's pulse_area, so no overflow
    # warning either.  Their counts stop at the Taylor cap: a lower bound.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "error::RuntimeWarning"}
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "quditcorr.cli", "run", "--config",
           write_config(tmp_path, payload), "--out", str(out), *flags]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: invalid config field '{field}': ")
    assert proc.stderr.count("\n") == 1 and not out.exists()
    assert " predict over " in proc.stderr and "over the bound of 10 min" in proc.stderr


def test_run_refuses_a_huge_chain_at_once(tmp_path):
    # H's dimension 3^(10^8) would take minutes to form: RunConfig compares
    # N with the amplitude budget first, so the run exits 2 with one line at once.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    out, config = tmp_path / "out", write_config(tmp_path, QUICK_N4)
    cmd = [sys.executable, "-m", "quditcorr.cli", "run", "--config", config,
           "--n-sites", "100000000", "--out", str(out)]
    proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "error: invalid config field 'n_sites': dimension 3^100000000 exceeds the 134217728 budget\n"
    )
    assert not out.exists()


CHAIN10 = str(pathlib.Path(__file__).parents[1] / "configs" / "chain10.json")


@pytest.mark.parametrize(
    "config, flags, message",
    [
        (CHAIN10, ["--n-sites", "17"], "invalid config field 'n_sites': a study at 17 sites needs"),
        (
            {"n_sites": 3, "steps": 2, "protocols": ["hadamard"],
             "shots": {"hadamard": {"plus": 2, "minus": 3}}},
            [],
            "invalid config field 'shots': the hadamard plus budget must be an integer >= 6",
        ),
        (QUICK_N4, ["--steps", "100000000"], "invalid config field 'steps': 100000000 steps"),
        (
            {"n_sites": 4, "steps": 3, "t_max": 5e-324},
            [],
            "invalid config field 't_max': t_max = 5e-324 over steps = 3 gives a grid whose times",
        ),
    ],
    ids=["n-sites-17", "budget-below-six", "steps-1e8", "repeated-times"],
)
def test_run_refuses_what_cannot_run_at_once_in_one_line(tmp_path, config, flags, message):
    # N = 17 would allocate past physical memory before failing; the small
    # budgets ran with 6 and 4 shots per point, more than they hold; 10^8
    # steps would need about 200 GB and half a day; linspace(0, 5e-324, 3)
    # is (0, 0, 5e-324), which wrote two rows per trace at t = 0.
    src = str(pathlib.Path(quditcorr.__file__).parents[1])
    path = config if isinstance(config, str) else write_config(tmp_path, config)
    out = tmp_path / "out"
    cmd = [sys.executable, "-m", "quditcorr.cli", "run", "--config", path, "--out", str(out)]
    cmd += flags
    started = time.perf_counter()
    proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - started < 5
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
    assert not out.exists()


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


def test_dc_at_the_lambda_floor_is_finite(tmp_path):
    # An LR error bar near 1 / (lambda * pulse_area) ~ 4.5e307 times a
    # step of 25 overflows the trapezoid's area, not its average.
    payload = {
        "n_sites": 4,
        "steps": 2,
        "t_max": 50.0,
        "lambdas": [2.2250738585072014e-305],
        "shots": {"lr": {"plus": 4, "minus": 4}},
    }
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
    # The interrupt is raised on the main thread, in its wait for the first
    # trace, once that branch has started, as Ctrl-C raises it there.
    payload = {**FAST, "lambdas": [0.1, 0.2], "workers": workers}
    path = write_config(tmp_path, payload)
    assert main(["run", "--config", path, "--out", str(tmp_path / "full")]) == 0
    full = (tmp_path / "full" / "results.csv").read_text().splitlines(keepends=True)

    real_trace = benchmark.lr_trace
    started, cancelled = threading.Event(), threading.Event()

    class Pool(benchmark.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)

            def interrupted_wait(timeout=None):
                assert threading.current_thread() is threading.main_thread()
                assert started.wait(30)
                raise KeyboardInterrupt

            future.result = interrupted_wait
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait, cancel_futures=cancel_futures)
            if cancel_futures:
                cancelled.set()

    def interrupted_trace(config, *args, **kwargs):
        if (config.lam, config.kind) == (0.1, "non_hermitian"):  # the task's first call
            # The trace goes on once the main thread has cancelled the
            # pending tasks.
            started.set()
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


def test_a_failed_trace_cancels_the_traces_not_yet_started(tmp_path, monkeypatch, capsys):
    # At one worker the Hadamard trace runs first and the LR traces wait:
    # its failure cancels them, so none runs in vain before the error.
    def failed_trace(*args):
        raise ValueError("trace failed")

    lr_calls = []
    monkeypatch.setattr(benchmark, "trace_probabilities", failed_trace)
    monkeypatch.setattr(benchmark, "lr_trace", lambda *args: lr_calls.append(args))
    path = write_config(tmp_path, {**FAST, "lambdas": [0.1, 0.2, 0.3], "workers": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: trace failed\n"
    assert not out.exists() and lr_calls == []


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


def test_every_function_the_benchmark_tracer_times_resolves_in_its_module():
    # perfbench/tracing.py wraps each LAYERS entry by module and name at run
    # time, so a source change that removes or renames one breaks the tracer.
    source = (pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    assert layers
    for module, names in layers.items():
        bound = vars(importlib.import_module(f"quditcorr.{module}"))
        assert [n for n in names if not callable(bound.get(n))] == [], module
