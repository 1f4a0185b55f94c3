"""Correctness oracle for the workloads' CSV outputs.

It shares no stepping or integration code with ``collisim``: from the
package it takes only the Hamiltonian builders ``build_h_prime`` and
``build_h_eff``.  The collision map is assembled here from
``scipy.linalg.expm`` of the collision Hamiltonian acting on the thermal
ancillas and each basis operator of the system; populations at a sampled
step come from a matrix power of that map.  The master-equation curves are
checked against the closed-form effective-qubit relaxation and against
``expm`` of the two-bath rate matrix, and the closed evolutions against
``expm`` of the 12x12 Hamiltonians.

Tolerances are absolute, on populations, each about 10x the largest
deviation seen across seeds (the CSVs print 12 significant digits): 1e-9
for the spectral collision propagator (seen 1.2e-10), 1e-8 for the master
equations and closed evolutions (seen 9e-11), and 1e-5 for the fixed-step
RK4 collision propagator (seen 1e-6, its truncation error).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from collisim.model import ModelParams, build_h_eff, build_h_prime

TOL_EXACT = 1e-9
TOL_RUNGE_KUTTA = 1e-5
TOL_MASTER_EQUATION = 1e-8
TOL_TIME = 1e-9
SAMPLED_ROWS = 8


def sampled_rows(path: Path, count: int = SAMPLED_ROWS) -> dict[int, tuple[float, ...]]:
    """Evenly spaced data rows of a CSV, first and last included: row -> (step, t, p0, p1, p2)."""
    with path.open() as f:
        n = sum(1 for _ in f) - 1
    wanted = {round(i * (n - 1) / (count - 1)) for i in range(count)} if n > 1 else {0}
    rows = {}
    with path.open() as f:
        next(f)
        for i, line in enumerate(f):
            if i in wanted:
                fields = line.split(",")
                rows[i] = tuple(float(v) for v in fields[:5])
    return rows


def _excited(x: float) -> float:
    return 1.0 / (1.0 + math.exp(x))


def collision_map(cfg: dict) -> tuple[np.ndarray, float]:
    """9x9 map on row-major vec(rho_S) for one collision, and the collision duration."""
    tau = cfg["tau"] if "tau" in cfg else cfg["alpha_tau"] * cfg["delta"]
    h = build_h_prime(ModelParams(delta=cfg["delta"], x1=cfg["x1"], x2=cfg["x2"], tau=tau))
    u = expm(-1j * tau * h)
    e1, e2 = _excited(cfg["x1"]), _excited(cfg["x2"])
    ancillas = np.kron(np.diag([1 - e1, e1]), np.diag([1 - e2, e2]))
    m = np.empty((9, 9), dtype=complex)
    for col in range(9):
        basis = np.zeros(9, dtype=complex)
        basis[col] = 1.0
        joint = u @ np.kron(ancillas, basis.reshape(3, 3)) @ u.conj().T
        m[:, col] = np.einsum("aiaj->ij", joint.reshape(4, 3, 4, 3)).reshape(9)
    return m, tau


def _compare(label: str, rows, expected, tol: float) -> list[str]:
    problems = []
    for i, (step, t, *pops) in rows.items():
        want_t, want = expected(int(step))
        if abs(t - want_t) > TOL_TIME * max(1.0, abs(want_t)):
            problems.append(f"{label} row {i}: t = {t!r}, expected {want_t!r}")
        dev = float(np.max(np.abs(np.asarray(pops) - want)))
        if dev > tol:
            problems.append(f"{label} row {i} (step {int(step)}): populations off by {dev:.3e} > {tol:.0e}")
    return problems


def check_collision_csv(path: Path, cfg: dict) -> list[str]:
    m, tau = collision_map(cfg)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex).reshape(9)

    def expected(step):
        rho = np.linalg.matrix_power(m, step) @ rho0
        return step * tau, np.real(rho.reshape(3, 3).diagonal())

    tol = TOL_RUNGE_KUTTA if cfg.get("propagator") == "runge_kutta" else TOL_EXACT
    return _compare(path.name, sampled_rows(path), expected, tol)


def check_effective_qubit_csv(path: Path, cfg: dict) -> list[str]:
    """Closed form: p1(t) = p1_ss (1 - exp(-Gamma (1 + e^x_s) t)) from the ground state."""
    tau = cfg["alpha_tau"] * cfg["delta"]
    gamma = tau / cfg["delta"] ** 2 / ((1 + math.exp(cfg["x1"])) * (1 + math.exp(-cfg["x2"])))
    x_s = cfg["x1"] - cfg["x2"]
    p1_ss = 1.0 / (1.0 + math.exp(x_s))

    def expected(step):
        t = step * tau
        p1 = p1_ss * -math.expm1(-gamma * (1 + math.exp(x_s)) * t)
        return t, np.array([1 - p1, p1, 0.0])

    return _compare(path.name, sampled_rows(path), expected, TOL_MASTER_EQUATION)


def check_two_bath_csv(path: Path, cfg: dict) -> list[str]:
    """Populations of the qutrit two-bath equation obey a 3-level rate equation."""
    tau = cfg["tau"]
    g1 = tau * _excited(cfg["x1"])
    g2 = tau * _excited(cfg["x2"])
    transitions = {(0, 2): g1, (2, 0): g1 * math.exp(cfg["x1"]), (1, 2): g2, (2, 1): g2 * math.exp(cfg["x2"])}
    rates = np.zeros((3, 3))
    for (src, dst), r in transitions.items():
        rates[dst, src] += r
        rates[src, src] -= r

    def expected(step):
        t = step * tau
        return t, expm(rates * t) @ np.array([1.0, 0.0, 0.0])

    return _compare(path.name, sampled_rows(path), expected, TOL_MASTER_EQUATION)


def check_closed_csv(path: Path, h: np.ndarray, t_max: float, n_grid: int) -> list[str]:
    psi0 = np.zeros(12, dtype=complex)
    psi0[6] = 1.0  # |1_A1, 0_A2, 0_S>
    grid = np.linspace(0.0, t_max, n_grid)

    def expected(step):
        psi = expm(-1j * grid[step] * h) @ psi0
        return grid[step], np.sum(np.abs(psi.reshape(4, 3)) ** 2, axis=0)

    return _compare(path.name, sampled_rows(path), expected, TOL_MASTER_EQUATION)


def check_run(run, out_dir: Path) -> list[str]:
    """Problems found in one run's output directory; empty when it matches the oracle."""
    cfg = run.config
    try:
        scenario = cfg["scenario"]
        if scenario == "collision-vs-me":
            return check_collision_csv(out_dir / "orig.csv", cfg) + check_effective_qubit_csv(
                out_dir / "me5.csv", cfg)
        if scenario == "negative-temperature":
            return check_collision_csv(out_dir / "orig.csv", cfg)
        if scenario == "beyond-far-off":
            return check_collision_csv(out_dir / "orig.csv", cfg) + check_two_bath_csv(
                out_dir / "me10.csv", cfg)
        problems = []
        for i, delta in enumerate(cfg["sweep_values"]):
            (point,) = out_dir.glob(f"point_{i:03d}_*")
            p = ModelParams(delta=delta)
            t_max = 5.0 * delta  # alpha_t_max / alpha with alpha = g^2 / delta
            for name, h in (("orig.csv", build_h_prime(p)), ("eff.csv", build_h_eff(p))):
                problems += [f"{point.name}/{msg}" for msg in
                             check_closed_csv(point / name, h, t_max, cfg["n_grid"])]
        return problems
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
