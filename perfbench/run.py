"""Layered benchmark of `quditcorr run` on three quench-study workloads.

    python3 perfbench/run.py --workload lr_sweep_n4 --seed 1234 --seconds 36 --trace 0

Every measured run is the CLI run a user makes, in a fresh process:
`python3 -m quditcorr.cli run --config <workload config> --out <dir>`
with PYTHONPATH=src, one run at a time (closed loop, one client).  The
workload's config takes its `seed` from --seed.  Runs repeat until
--seconds have passed, and at least MIN_RUNS times.

--trace 0 prints the end-to-end metrics: medians over the runs of wall
time (run_s), CPU time (cpu_s) and max RSS (peak_rss_mb) of each run
process, taken from os.wait4 on that child, and the median of
SETUP_REPEATS fresh processes timed until quditcorr is imported and a
Hamiltonian, its propagator and the initial state are built (setup_s).

--trace 1 makes the same untraced runs, then one more through
perfbench/tracing.py, which times the calls into each module's public
functions; it prints the per-layer metrics of that run and
trace.overhead = traced run_s / untraced median run_s.

Every CSV is checked against an independent reference (reference.py),
computed after the timed runs, and all CSVs of one invocation must be
byte-identical.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and
failed count CSV rows (and setup probes); a run that crashes, times out
or writes other bytes than the first run counts all its rows as failed.  The exit code
is 1 when any row failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_RUNS = 3
SETUP_REPEATS = 5
# The whole invocation must end within this many seconds.
DEADLINE_S = 170.0
# Time kept back from the deadline for the reference check and output.
CHECK_RESERVE_S = 15.0

# Same study as configs/lambda_sweep_n4.json, with one worker.
LR_SWEEP_N4 = {
    "n_sites": 4,
    "j_z_over_j_xy": 0.5,
    "t_max": 5.0,
    "steps": 26,
    "sites": [1, 2],
    "protocols": ["hadamard", "lr"],
    "lambdas": [0.05, 0.1, 0.2, 0.4],
    "pulse_area": 0.001,
    "workers": 1,
}

WORKLOADS = {
    "lr_sweep_n4": dict(LR_SWEEP_N4),
    "hadamard_n6": {
        "n_sites": 6,
        "j_z_over_j_xy": 0.5,
        "t_max": 5.0,
        "steps": 13,
        "sites": [1, 2],
        "protocols": ["hadamard"],
        "pulse_area": 0.001,
        "workers": 1,
    },
    "krylov_n8": {
        "n_sites": 8,
        "j_z_over_j_xy": 0.5,
        "t_max": 5.0,
        "steps": 11,
        "sites": [1, 2],
        "protocols": ["hadamard", "lr"],
        "lambdas": [0.2],
        "pulse_area": 0.001,
        "workers": 2,
    },
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Inherited settings that would change what the runs measure: BLAS
# thread counts (OPENBLAS_NUM_THREADS=1 alone makes lr_sweep_n4 2.5x
# faster) and the CLI's log level.
SCRUBBED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QUDITCORR_LOG")

SETUP_PROBE = """\
import sys
import quditcorr
n, jz = int(sys.argv[1]), float(sys.argv[2])
quditcorr.make_propagator(quditcorr.build_xxz(n, 1.0, jz))
quditcorr.neel_superposition(n)
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, timeout, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, on_start=None):
    """Run cmd to its exit, killing it after timeout seconds.

    Returns (wall seconds from spawn to exit, exit code or None if
    killed, resource usage of this child alone, value of on_start).
    """
    env = child_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    exited = False
    try:
        started = on_start(proc, t0, timeout) if on_start else None
        pidfd = os.pidfd_open(proc.pid)
        try:
            left = max(0.0, t0 + timeout - time.perf_counter())
            exited = bool(select.select([pidfd], [], [], left)[0])
        finally:
            os.close(pidfd)
    finally:
        # Also on an interrupt: no child outlives the benchmark.
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    return wall, (proc.returncode if exited else None), usage, started


def measure_setup(config: dict, timeout: float) -> float | None:
    """Seconds from spawn until the probe reports it is ready, or None."""

    def await_ready(proc, t0, limit):
        if select.select([proc.stdout], [], [], limit)[0] and proc.stdout.readline() == b"ready\n":
            return time.perf_counter() - t0
        return None

    cmd = [sys.executable, "-c", SETUP_PROBE, str(config["n_sites"]), str(config["j_z_over_j_xy"])]
    _, code, _, ready = run_child(cmd, timeout, stdout=subprocess.PIPE, on_start=await_ready)
    return ready if code == 0 else None


def measure_run(config: dict, work: Path, label: str, timeout: float, traced: bool) -> dict:
    out = work / label
    out.mkdir()
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    cli = ["run", "--config", str(cfg_path), "--out", str(out)]
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"), "--spans", str(out / "spans.json"), "--", *cli]
    else:
        cmd = [sys.executable, "-m", "quditcorr.cli", *cli]
    with open(out / "stderr.txt", "wb") as err:
        wall, code, usage, _ = run_child(cmd, timeout, stderr=err)
    csv_path = out / "results.csv"
    return {
        "label": label,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit_code": code,
        "csv": csv_path.read_bytes() if code == 0 and csv_path.exists() else None,
        "stderr": (out / "stderr.txt").read_text(errors="replace")[-2000:],
        "spans": out / "spans.json" if traced else None,
    }


def check_runs(runs: list[dict], config: dict) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, messages) over every run's CSV."""
    import reference

    keys = reference.expected_keys(config)
    ref = reference.reference_values(config)
    baseline = next((r["csv"] for r in runs if r["csv"] is not None), None)
    problems_by_csv: dict[bytes, list[str]] = {}
    failed, messages = 0, []
    for r in runs:
        if r["csv"] is None:
            failed += len(keys)
            messages.append(f"{r['label']}: exit code {r['exit_code']}; {r['stderr'][-300:]!r}")
        elif r["csv"] != baseline:
            failed += len(keys)
            messages.append(f"{r['label']}: CSV bytes differ from the first run's")
        else:
            if r["csv"] not in problems_by_csv:
                problems_by_csv[r["csv"]] = reference.failed_rows(r["csv"].decode(), config, ref)
            problems = problems_by_csv[r["csv"]]
            failed += len(problems)
            messages += [f"{r['label']}: {p}" for p in problems[:5]]
    return len(keys) * len(runs), failed, messages


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def describe(values: list[float]) -> str:
    if not values:
        return "no samples"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quditcorr" / "cli.py").is_file():
        print(f"error: no quditcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    config = dict(WORKLOADS[args.workload], seed=args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    def remaining() -> float:
        return DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - start)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(measure_setup(config, min(60.0, remaining())))

        runs = []
        measured = time.perf_counter()
        while remaining() > 0.0:
            if len(runs) >= MIN_RUNS:
                walls = [r["wall_s"] for r in runs]
                # Start a run only if it should end within --seconds, with
                # room left before the deadline (and for the traced run).
                if time.perf_counter() - measured + statistics.median(walls) > args.seconds:
                    break
                if (1 + args.trace) * 1.5 * max(walls) > remaining():
                    break
            runs.append(measure_run(config, work, f"run{len(runs)}", remaining(), traced=False))
        untraced = list(runs)
        if args.trace and remaining() > 0.0:
            runs.append(measure_run(config, work, "traced", remaining(), traced=True))

        missing = max(0, MIN_RUNS - len(untraced)) + (1 if args.trace and len(runs) == len(untraced) else 0)
        runs += [{"label": "not run", "csv": None, "exit_code": None, "stderr": "deadline"}] * missing
        attempted, failed, messages = check_runs(runs, config)

        walls = [r["wall_s"] for r in untraced]
        metrics = {}
        if args.trace:
            import tracing

            traced = runs[len(untraced)]
            layers = {}
            if traced.get("csv") is not None and walls:
                layers = tracing.layer_metrics(json.loads(traced["spans"].read_text()))
                layers["trace.overhead"] = traced["wall_s"] / statistics.median(walls)
            for name, (unit, _) in tracing.metric_specs().items():
                metrics[name] = {"value": layers.get(name, 0), "unit": unit}
        else:
            good_setups = [s for s in setups if s is not None]
            attempted += len(setups)
            failed += len(setups) - len(good_setups)
            if len(good_setups) < len(setups):
                messages.append(f"{len(setups) - len(good_setups)} setup probes failed")
            samples = {
                "run_s": walls,
                "setup_s": good_setups,
                "cpu_s": [r["cpu_s"] for r in untraced],
                "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            }
            for name, unit in END_TO_END.items():
                values = samples[name] or [0.0]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                print(f"{name:<12} {metrics[name]['value']:10.4f} {unit:<3} median, {describe(samples[name])}")
            print(f"{'failed_frac':<12} {failed / attempted:10.4f} -   {failed} of {attempted} CSV rows and setup probes")

        env = environment()
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        for m in messages[:20]:
            print(f"check: {m}")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "config": config,
            "environment": env,
            "runs": [{k: v for k, v in r.items() if k in ("label", "wall_s", "cpu_s", "peak_rss_mb", "exit_code")} for r in runs],
            "setup_s": setups,
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
        }
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
