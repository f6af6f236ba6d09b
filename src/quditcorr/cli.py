"""Command-line entry point and deterministic result files.

Verbs:

    run         full quench study from a JSON config -> results.csv + summary.json
    correlator  both correlators at a single (t1, t2) point
    decompose   print the unitary pair (norm, W) for a named spin observable
    validate    quick oracle self-check at small chain sizes

The CSV is byte-identical for identical (config, seed) under any worker
count: floats are written with shortest round-trip repr, line endings
are LF, and rows are emitted in a fixed (protocol, kind, lambda, t)
order.  Every default applied while parsing the config is echoed in the
summary, and the echoed config block parses back to the same RunConfig.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import logging
import operator
import os
import sys
import time

import numpy as np

from . import __version__
from .benchmark import (
    ConfigError,
    RunConfig,
    StudyInterrupted,
    StudyRow,
    brute_force_correlators,
    quench_system,
    run_quench_study,
)
from .hadamard import estimate_from_probabilities, measure_dynamical_correlator, trace_probabilities
from .observables import HermitianObservable, decompose, spin_matrix
from .rng import task_rng

log = logging.getLogger("quditcorr")

def parse_config_dict(raw: dict) -> tuple[RunConfig, list[str]]:
    """Check a JSON config object; returns the RunConfig and the defaulted keys.

    Only what is specific to JSON is checked here: the document is an
    object and every key names a RunConfig field.  RunConfig checks the
    values and their JSON types (integers and numbers) and fills the
    budgets a partial shots mapping leaves out.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key: '{unknown[0]}'")
    return RunConfig(**raw), sorted(known - set(raw))


def _read_json(path: str):
    """The JSON document at path; a syntax error becomes a ConfigError with its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc


CSV_COLUMNS = ("protocol", "kind", "t", "lambda", "exact", "sampled", "std_error", "shots", "seed")


def _write_csv(path: str, rows):
    # StudyRow's fields are in CSV_COLUMNS order.  csv writes None as an
    # empty cell and a float as its repr, the shortest round-trip text.
    cells = operator.attrgetter(*(f.name for f in dataclasses.fields(StudyRow)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(cells, rows))


def _make_out_dir(path: str) -> list[str]:
    """Create path and its missing parents; returns the ones created, deepest first."""
    made = []
    head = os.path.abspath(path)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return made


def run(config: RunConfig, out_dir: str = ".", defaults_applied=()) -> int:
    """Execute the configured study and write results.csv + summary.json."""
    started = time.perf_counter()
    # Made before the study, so that an unusable path fails before any work.
    made = _make_out_dir(out_dir)
    incomplete = False
    rows, figures = (), {}
    try:
        result = run_quench_study(config)
        rows, figures = result.rows, result.figures
    except KeyboardInterrupt as exc:
        # Rows of the traces that completed; none if the study had not
        # started its traces yet.
        if isinstance(exc, StudyInterrupted):
            rows = exc.result.rows
        log.warning("interrupted; writing the %d rows of the completed traces", len(rows))
        incomplete = True
    except BaseException:
        # A refused or failed study writes nothing: remove the directories
        # this run made, as long as they are still empty.
        try:
            for path in made:
                os.rmdir(path)
        except OSError:
            pass
        raise

    _write_csv(os.path.join(out_dir, "results.csv"), rows)
    summary = {
        "config": dataclasses.asdict(config),
        "defaults_applied": sorted(defaults_applied),
        "figures_of_merit": {key: dataclasses.asdict(f) for key, f in figures.items()},
        "incomplete": incomplete,
        "runtime_seconds": time.perf_counter() - started,
        "versions": {
            "quditcorr": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            # Only a touched block above DENSE_BLOCK_LIMIT loads SciPy; null if none was.
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    log.info("wrote %s", os.path.join(out_dir, "results.csv"))
    return 1 if incomplete else 0


def _cmd_run(args) -> int:
    raw = _read_json(args.config) if args.config else {}
    # Every run flag but --lambda has its RunConfig field as its dest.
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    flags["lambdas"] = None if args.lam is None else [args.lam]
    if isinstance(raw, dict):  # anything else is rejected by the parser
        raw = {**raw, **{k: v for k, v in flags.items() if v is not None}}
    config, defaulted = parse_config_dict(raw)
    return run(config, args.out, defaulted)


def _cmd_correlator(args) -> int:
    if args.shots is not None and args.shots < 8:
        raise ConfigError(f"--shots must be at least 8 (one shot per circuit), got {args.shots}")
    # The verb runs no study: its config plans only the Hadamard trace's point at t = 0.
    cfg = RunConfig(args.n_sites, args.jz, steps=1, sites=args.sites, protocols=["hadamard"])
    prop, psi0, obs_a, obs_b = quench_system(cfg)
    budget = None if args.shots is None else args.shots // 8
    rng = None if args.shots is None else task_rng(args.seed, 7)
    plus, minus = measure_dynamical_correlator(
        obs_a, obs_b, args.t1, args.t2, psi0, prop, budget, rng
    )
    for label, est in (("C+", plus), ("C-", minus)):
        print(
            f"{label}({args.t1:g}, {args.t2:g}) = {est.value:+.10f}"
            f" +- {est.std_error:.3e}  [{est.mode}, shots={est.shots}]"
        )
    return 0


def _cmd_decompose(args) -> int:
    obs = HermitianObservable(spin_matrix(args.spin, args.observable))
    dec = decompose(obs)
    print(f"observable: spin-{args.spin:g} S^{args.observable}")
    print(f"spectral norm: {dec.norm:.12g}")
    print("W =")
    for row in dec.w.matrix:
        print("  [" + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]")
    recon = dec.norm / 2.0 * (dec.w.matrix + dec.w_dagger.matrix)
    print(f"reconstruction max error: {np.max(np.abs(recon - obs.op.matrix)):.3e}")
    return 0


def _cmd_validate(args) -> int:
    """Gate-level circuits and the trace engine `run` uses, against brute force.

    The trace engine runs on both kernels: dense-eig, which H0's propagator
    picks for every block at these sizes, and sparse, the Taylor kernel of
    the blocks above DENSE_BLOCK_LIMIT (N >= 8) and of every pulse, run on
    a zero pulse.  brute_force_correlators diagonalizes the full H
    instead, so it checks the block split too.
    """
    failures = 0
    for n in (2, 3, 4):
        prop, psi0, obs_a, obs_b = quench_system(RunConfig(n_sites=n))
        h = prop.hamiltonian
        times = np.sort(np.random.default_rng(1234 + n).uniform(0.1, 5.0, 5))
        norms = (obs_a.spectral_norm, obs_b.spectral_norm)
        refs = [brute_force_correlators(h, psi0, 0, 1, 0.0, t2) for t2 in times]
        worst_circuit = 0.0
        for t2, (cp, cm) in zip(times, refs):
            plus, minus = measure_dynamical_correlator(obs_a, obs_b, 0.0, t2, psi0, prop)
            worst_circuit = max(worst_circuit, abs(plus.value - cp), abs(minus.value - cm))
        worst_trace = {}
        for kernel, p in (("dense-eig", prop), ("sparse", prop.pulse(np.zeros(h.dimension)))):
            probabilities = trace_probabilities(obs_a, obs_b, psi0, p, times)[:2]
            values = [estimate_from_probabilities(ps, *norms, None).value for ps in probabilities]
            worst_trace[kernel] = float(np.max(np.abs(np.transpose(values) - refs)))
        ok = max(worst_circuit, *worst_trace.values()) <= 1e-8
        failures += 0 if ok else 1
        traces = ", ".join(f"{k} {v:.3e}" for k, v in worst_trace.items())
        print(f"N={n}: max |error| vs brute force: circuit {worst_circuit:.3e}, "
              f"trace engine {traces} [{'PASS' if ok else 'FAIL'}]")
    return 1 if failures else 0


def main(argv=None) -> int:
    if argv is None:
        # The process entry (the quditcorr script, python -m quditcorr.cli):
        # the import heap lives until exit, so no collection needs to walk
        # it, the final one at shutdown included.  Library imports and
        # in-process calls leave the collector as it is.
        gc.freeze()
    # A level name; any other name, such as logging's BASIC_FORMAT string, means WARNING.
    level = getattr(logging, os.environ.get("QUDITCORR_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)

    parser = argparse.ArgumentParser(
        prog="quditcorr",
        description="Two-time spin-correlator measurement protocols on qudit registers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="full study from a JSON config")
    p_run.add_argument("--config", help="path to a JSON run configuration")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--lambda", dest="lam", type=float, default=None)
    p_run.add_argument("--n-sites", type=int, default=None)
    p_run.add_argument("--t-max", type=float, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_corr = sub.add_parser("correlator", help="both correlators at one time pair")
    p_corr.add_argument("--n-sites", type=int, default=4)
    p_corr.add_argument("--jz", type=float, default=0.5)
    p_corr.add_argument("--sites", type=int, nargs=2, default=(1, 2))
    p_corr.add_argument("--t1", type=float, default=0.0)
    p_corr.add_argument("--t2", type=float, required=True)
    p_corr.add_argument("--shots", type=int, default=None, help="total budget (omit for exact)")
    p_corr.add_argument("--seed", type=int, default=1234)
    p_corr.set_defaults(fn=_cmd_correlator)

    p_dec = sub.add_parser("decompose", help="unitary pair of a spin observable")
    p_dec.add_argument("--observable", choices=("x", "y", "z"), default="z")
    p_dec.add_argument("--spin", type=float, default=1.0)
    p_dec.set_defaults(fn=_cmd_decompose)

    p_val = sub.add_parser("validate", help="oracle self-check at N <= 4")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
