"""Independent reference for the quench-study CSV, and the row check.

The Hamiltonian, the initial state and the propagation are built here
from scratch with SciPy (`scipy.sparse.linalg.expm_multiply`) and share
no code with quditcorr, so a defect in quditcorr's propagators cannot
hide in the check.

Conventions (those of the study, t1 = 0, t2 = t on the grid):

    hadamard "+"  <{S^z_a, S^z_b(t)}> - 2 <S^z_a> <S^z_b(t)>   (connected)
    hadamard "-"  i <[S^z_a, S^z_b(t)]>
    lr            (<S^z_b>_unperturbed - <S^z_b>_pulsed) / (lambda * pulse_area),
                  pulse H - i lambda S^z_a ("+") or H - lambda S^z_a ("-")
                  for pulse_area / J_xy at t1 = 0, read out at max(t, dt).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

CSV_COLUMNS = ["protocol", "kind", "t", "lambda", "exact", "sampled", "std_error", "shots", "seed"]

# Largest |exact - reference| accepted on an expectation value.  An LR
# value divides a difference of two expectation values by
# lambda * pulse_area, so its tolerance is divided by the same factor.
EXACT_ATOL = 1e-8
# A sampled value must lie within this many of its standard errors of
# the exact value, or equal it to rounding (every binomial p is 0 or 1).
SIGMA_MULTIPLE = 6.0
ROUNDING = 1e-12

J_XY = 1.0
_SZ = sp.csr_matrix(np.diag([1.0, 0.0, -1.0]).astype(complex))
_SPLUS = sp.csr_matrix(math.sqrt(2.0) * np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))


def site_operator(n_sites: int, site: int, local) -> sp.csr_matrix:
    """local on one spin-1 site (site 0 is the slowest-varying digit)."""
    left = sp.identity(3**site, dtype=complex, format="csr")
    right = sp.identity(3 ** (n_sites - site - 1), dtype=complex, format="csr")
    return sp.kron(sp.kron(left, local), right, format="csr")


def xxz_hamiltonian(n_sites: int, j_xy: float, j_z: float) -> sp.csr_matrix:
    """Open chain: sum_i J_xy/2 (S+_i S-_i+1 + h.c.) + J_z S^z_i S^z_i+1."""
    sminus = _SPLUS.conj().T.tocsr()
    h = sp.csr_matrix((3**n_sites, 3**n_sites), dtype=complex)
    for i in range(n_sites - 1):
        hop = site_operator(n_sites, i, _SPLUS) @ site_operator(n_sites, i + 1, sminus)
        h = h + 0.5 * j_xy * (hop + hop.conj().T)
        h = h + j_z * site_operator(n_sites, i, _SZ) @ site_operator(n_sites, i + 1, _SZ)
    return h.tocsr()


def neel_superposition(n_sites: int) -> np.ndarray:
    """(|+1,-1,+1,...> + |-1,+1,-1,...>)/sqrt(2); level 0 is m = +1."""
    psi = np.zeros(3**n_sites, dtype=complex)
    a = b = 0
    for k in range(n_sites):
        a = 3 * a + (0 if k % 2 == 0 else 2)
        b = 3 * b + (2 if k % 2 == 0 else 0)
    psi[a] = psi[b] = 1.0 / math.sqrt(2.0)
    return psi


def expected_keys(config: dict) -> list[tuple]:
    """(protocol, kind, time index, lambda) of every CSV row, in file order."""
    steps = config["steps"]
    keys = []
    if "hadamard" in config["protocols"]:
        keys += [("hadamard", kind, i, None) for kind in "+-" for i in range(steps)]
    if "lr" in config["protocols"]:
        keys += [
            ("lr", kind, i, float(lam))
            for lam in config["lambdas"]
            for kind in "+-"
            for i in range(steps)
        ]
    return keys


def reference_values(config: dict) -> dict[tuple, float]:
    """Reference value of every CSV row, keyed as in expected_keys."""
    n = config["n_sites"]
    grid = np.linspace(0.0, config["t_max"], config["steps"])
    site_a, site_b = config["sites"][0] - 1, config["sites"][1] - 1
    h0 = xxz_hamiltonian(n, J_XY, config["j_z_over_j_xy"] * J_XY)
    psi = neel_superposition(n)
    op_a = site_operator(n, site_a, _SZ)
    op_b = site_operator(n, site_b, _SZ)

    def evolve(h, v, t):
        return v if t == 0.0 else expm_multiply(-1j * t * h, v)

    def mean_b(v):
        return float(np.vdot(v, op_b @ v).real / np.vdot(v, v).real)

    ref = {}
    if "hadamard" in config["protocols"]:
        mean_a = float(np.vdot(psi, op_a @ psi).real)
        for i, t in enumerate(grid):
            phi, chi = evolve(h0, np.column_stack([psi, op_a @ psi]), t).T
            x = np.vdot(chi, op_b @ phi)  # <S^z_a S^z_b(t)>
            ref[("hadamard", "+", i, None)] = 2.0 * x.real - 2.0 * mean_a * mean_b(phi)
            ref[("hadamard", "-", i, None)] = -2.0 * x.imag
    if "lr" in config["protocols"]:
        area = config["pulse_area"]
        dt = area / J_XY
        pulse = site_operator(n, site_a, _SZ)
        readout = {}
        for lam in config["lambdas"]:
            for kind, h_pulse in (
                ("+", h0 - 1j * lam * J_XY * pulse),
                ("-", h0 - lam * J_XY * pulse),
            ):
                pulsed = expm_multiply(-1j * dt * h_pulse, psi)
                for i, t in enumerate(grid):
                    t2 = max(float(t), dt)
                    if t2 not in readout:
                        readout[t2] = mean_b(evolve(h0, psi, t2))
                    e_p = mean_b(evolve(h0, pulsed, t2 - dt))
                    ref[("lr", kind, i, float(lam))] = (readout[t2] - e_p) / (lam * area)
    return {key: float(value) for key, value in ref.items()}


def _row_problem(row, key, config, grid, ref) -> str | None:
    protocol, kind, i, lam = key
    if len(row) != len(CSV_COLUMNS):
        return f"{len(row)} fields"
    got = dict(zip(CSV_COLUMNS, row))
    try:
        if (got["protocol"], got["kind"]) != (protocol, kind):
            return f"row is {got['protocol']} {got['kind']}"
        if float(got["t"]) != float(grid[i]):
            return f"t = {got['t']}, expected {float(grid[i])!r}"
        if (None if got["lambda"] == "" else float(got["lambda"])) != lam:
            return f"lambda = {got['lambda']!r}"
        if int(got["seed"]) != config["seed"]:
            return f"seed = {got['seed']}"
        exact = float(got["exact"])
        tol = EXACT_ATOL if lam is None else EXACT_ATOL / (lam * config["pulse_area"])
        if not abs(exact - ref[key]) <= tol:
            return f"exact {exact!r} vs reference {ref[key]!r} (tolerance {tol:.1e})"
        sampled, std = float(got["sampled"]), float(got["std_error"])
        if not (math.isfinite(std) and std >= 0.0 and int(got["shots"]) >= 1):
            return f"std_error {got['std_error']}, shots {got['shots']}"
        gap = abs(sampled - exact)
        if not (gap <= SIGMA_MULTIPLE * std or gap <= ROUNDING * max(1.0, abs(exact))):
            return f"sampled {sampled!r} is {gap:.3e} from exact, std_error {std:.3e}"
    except ValueError as exc:
        return f"unparsable field: {exc}"
    return None


def failed_rows(text: str, config: dict, ref: dict[tuple, float]) -> list[str]:
    """One message per expected CSV row that is missing, misplaced or wrong."""
    keys = expected_keys(config)
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        return [f"bad header {rows[0] if rows else None}"] * len(keys)
    rows = rows[1:]
    grid = np.linspace(0.0, config["t_max"], config["steps"])
    problems = []
    for k, key in enumerate(keys):
        problem = "missing" if k >= len(rows) else _row_problem(rows[k], key, config, grid, ref)
        if problem is not None:
            problems.append(f"row {k + 1} {key[:2]} t#{key[2]} lambda={key[3]}: {problem}")
    extra = len(rows) - len(keys)
    if extra > 0:
        problems += [f"unexpected extra row {len(keys) + j + 1}" for j in range(extra)]
    return problems[: len(keys)]
