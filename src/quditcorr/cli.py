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
import dataclasses
import json
import logging
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .benchmark import (
    DEFAULT_BUDGETS,
    HADAMARD,
    LINEAR_RESPONSE,
    QuenchScenario,
    brute_force_correlators,
    neel_superposition,
    run_quench_study,
)
from .dynamics import build_xxz, make_propagator
from .hadamard import measure_dynamical_correlator
from .observables import HermitianObservable, decompose, spin_matrix
from .rng import task_rng

log = logging.getLogger("quditcorr")

_PROTOCOLS = (HADAMARD, LINEAR_RESPONSE)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    n_sites: int = 4
    j_z_over_j_xy: float = 0.5
    t_max: float = 5.0
    steps: int = 26
    sites: tuple[int, int] = (1, 2)
    protocols: tuple[str, ...] = _PROTOCOLS
    shots: dict = dataclasses.field(
        default_factory=lambda: {p: dict(b) for p, b in DEFAULT_BUDGETS.items()}
    )
    exact_only: bool = False
    lambdas: tuple[float, ...] = (0.2,)
    pulse_area: float = 1e-3
    seed: int = 1234
    workers: int | None = None

    def time_grid(self) -> tuple[float, ...]:
        return tuple(np.linspace(0.0, self.t_max, self.steps))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sites"] = list(self.sites)
        d["protocols"] = list(self.protocols)
        d["lambdas"] = list(self.lambdas)
        return d


_DEFAULTS = RunConfig()


def _expect(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"invalid config field '{field}': {message}")


def parse_config_dict(raw: dict) -> tuple[RunConfig, list[str]]:
    """Validate a config mapping; returns the config and the defaulted keys."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key: '{unknown[0]}'")
    defaulted = sorted(known - set(raw))

    cfg = {}
    cfg["n_sites"] = int(raw.get("n_sites", _DEFAULTS.n_sites))
    _expect(cfg["n_sites"] >= 2, "n_sites", "need at least 2 sites")
    cfg["j_z_over_j_xy"] = float(raw.get("j_z_over_j_xy", _DEFAULTS.j_z_over_j_xy))
    cfg["t_max"] = float(raw.get("t_max", _DEFAULTS.t_max))
    _expect(cfg["t_max"] > 0, "t_max", "must be positive")
    cfg["steps"] = int(raw.get("steps", _DEFAULTS.steps))
    _expect(cfg["steps"] >= 1, "steps", "must be at least 1")
    sites = raw.get("sites", list(_DEFAULTS.sites))
    _expect(
        isinstance(sites, (list, tuple)) and len(sites) == 2,
        "sites",
        "expected a pair of 1-based site indices",
    )
    cfg["sites"] = (int(sites[0]), int(sites[1]))
    protocols = raw.get("protocols", list(_DEFAULTS.protocols))
    _expect(isinstance(protocols, (list, tuple)) and protocols, "protocols", "nonempty list")
    for p in protocols:
        _expect(p in _PROTOCOLS, "protocols", f"unknown protocol {p!r}")
    cfg["protocols"] = tuple(protocols)
    shots = raw.get("shots", None)
    budget = {p: dict(b) for p, b in DEFAULT_BUDGETS.items()}
    if shots is not None:
        _expect(isinstance(shots, dict), "shots", "expected a mapping")
        for proto, per in shots.items():
            _expect(proto in _PROTOCOLS, "shots", f"unknown protocol {proto!r}")
            _expect(isinstance(per, dict), "shots", "per-protocol budgets must be a mapping")
            for kind, n in per.items():
                _expect(kind in ("plus", "minus"), "shots", f"unknown kind {kind!r}")
                _expect(int(n) >= 2, "shots", "per-point budgets must be >= 2")
                budget[proto][kind] = int(n)
    cfg["shots"] = budget
    cfg["exact_only"] = bool(raw.get("exact_only", _DEFAULTS.exact_only))
    lambdas = raw.get("lambdas", list(_DEFAULTS.lambdas))
    _expect(isinstance(lambdas, (list, tuple)) and lambdas, "lambdas", "nonempty list")
    for lam in lambdas:
        _expect(float(lam) > 0, "lambdas", f"perturbation strength must be positive, got {lam}")
    cfg["lambdas"] = tuple(float(l) for l in lambdas)
    cfg["pulse_area"] = float(raw.get("pulse_area", _DEFAULTS.pulse_area))
    _expect(cfg["pulse_area"] > 0, "pulse_area", "must be positive")
    cfg["seed"] = int(raw.get("seed", _DEFAULTS.seed))
    workers = raw.get("workers", None)
    cfg["workers"] = None if workers is None else int(workers)
    if cfg["workers"] is not None:
        _expect(cfg["workers"] >= 1, "workers", "must be at least 1")
    return RunConfig(**cfg), defaulted


def _load_config(path: str) -> tuple[RunConfig, list[str]]:
    """Load and validate a JSON run configuration; also returns the defaulted keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    return parse_config_dict(raw)


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    return _load_config(path)[0]


CSV_COLUMNS = ("protocol", "kind", "t", "lambda", "exact", "sampled", "std_error", "shots", "seed")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.protocol,
                        r.kind,
                        r.t,
                        r.lam,
                        r.exact,
                        r.sampled,
                        r.std_error,
                        r.shots,
                        r.seed,
                    )
                )
                + "\n"
            )


def run(config: RunConfig, out_dir: str = ".", defaults_applied=()) -> int:
    """Execute the configured study and write results.csv + summary.json."""
    started = time.time()
    os.makedirs(out_dir, exist_ok=True)
    scenario = QuenchScenario(
        n_sites=config.n_sites,
        time_grid=config.time_grid(),
        j_z_over_j_xy=config.j_z_over_j_xy,
        sites=config.sites,
        seed=config.seed,
    )
    incomplete = False
    rows, figures = (), {}
    try:
        result = run_quench_study(
            scenario,
            protocols=config.protocols,
            budgets=config.shots,
            lambdas=config.lambdas,
            pulse_area=config.pulse_area,
            sampled=not config.exact_only,
            workers=config.workers,
        )
        rows, figures = result.rows, result.figures
    except KeyboardInterrupt:
        log.warning("interrupted; flushing partial results")
        incomplete = True

    _write_csv(os.path.join(out_dir, "results.csv"), rows)
    summary = {
        "config": config.to_dict(),
        "defaults_applied": sorted(defaults_applied),
        "figures_of_merit": {
            key: dataclasses.asdict(f) for key, f in sorted(figures.items())
        },
        "incomplete": incomplete,
        "runtime_seconds": time.time() - started,
        "versions": {
            "quditcorr": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    log.info("wrote %s", os.path.join(out_dir, "results.csv"))
    return 1 if incomplete else 0


def _cmd_run(args) -> int:
    if args.config:
        config, defaulted = _load_config(args.config)
    else:
        config, defaulted = parse_config_dict({})
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.lam is not None:
        overrides["lambdas"] = (args.lam,)
    if args.n_sites is not None:
        overrides["n_sites"] = args.n_sites
    if args.t_max is not None:
        overrides["t_max"] = args.t_max
    if args.steps is not None:
        overrides["steps"] = args.steps
    if overrides:
        config = dataclasses.replace(config, **overrides)
        defaulted = [k for k in defaulted if k not in overrides]
    return run(config, args.out, defaulted)


def _cmd_correlator(args) -> int:
    h = build_xxz(args.n_sites, 1.0, args.jz)
    prop = make_propagator(h)
    psi0 = neel_superposition(args.n_sites)
    obs_a = HermitianObservable(spin_matrix(1, "z").on(args.sites[0] - 1))
    obs_b = HermitianObservable(spin_matrix(1, "z").on(args.sites[1] - 1))
    rng = task_rng(args.seed, 7)
    budget = args.shots // 8 if args.shots else None
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
    failures = 0
    for n in (2, 3, 4):
        h = build_xxz(n, 1.0, 0.5)
        prop = make_propagator(h)
        psi0 = neel_superposition(n)
        obs_a = HermitianObservable(spin_matrix(1, "z").on(0))
        obs_b = HermitianObservable(spin_matrix(1, "z").on(1))
        rng = np.random.default_rng(args.seed + n)
        worst = 0.0
        for t2 in rng.uniform(0.1, 5.0, args.points):
            plus, minus = measure_dynamical_correlator(obs_a, obs_b, 0.0, t2, psi0, prop)
            cp, cm = brute_force_correlators(h, psi0, 0, 1, 0.0, t2)
            worst = max(worst, abs(plus.value - cp), abs(minus.value - cm))
        ok = worst <= 1e-8
        failures += 0 if ok else 1
        print(f"N={n}: circuit vs brute force, max |error| = {worst:.3e} "
              f"[{'PASS' if ok else 'FAIL'}]")
    return 1 if failures else 0


def main(argv=None) -> int:
    level = os.environ.get("QUDITCORR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

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
    p_val.add_argument("--points", type=int, default=5)
    p_val.add_argument("--seed", type=int, default=1234)
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
