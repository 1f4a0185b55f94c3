"""How good is the eliminated-level description of a single collision?

One excited bath-1 ancilla, one ground bath-2 ancilla, qutrit in its
lowest level, no ancilla refresh: under the exact Hamiltonian, the
excitation slowly swaps between the ancilla pair and the effective qubit
through the far-detuned top level, which is populated only virtually.
The eliminated-level Hamiltonian reproduces this at the effective Rabi
rate alpha = g^2/delta, with errors shrinking quadratically in g/delta.
"""

import numpy as np

from collisim import (
    ModelParams,
    basis_index,
    build_h_eff,
    build_h_prime,
    closed_evolution,
    derive_rates,
)

DELTAS = (25.0, 50.0, 100.0)

# |1_A1, 0_A2, 0_S>: one quantum ready to be exchanged
psi0 = np.zeros(12, dtype=complex)
psi0[basis_index(1, 0, 0)] = 1.0

curves = {}
for delta in DELTAS:
    p = ModelParams(delta=delta)
    alpha = derive_rates(p).alpha
    t = np.linspace(0.0, 5.0 / alpha, 2000)
    orig = closed_evolution(psi0, build_h_prime(p), t)
    eff = closed_evolution(psi0, build_h_eff(p), t)
    dev = np.max(np.abs(orig.populations[:, :2] - eff.populations[:, :2]))
    p2max = np.max(orig.populations[:, 2])
    cos_defect = np.max(np.abs(eff.populations[:, 0] - np.cos(alpha * t) ** 2))
    curves[delta] = (alpha * t, orig, eff)
    print(f"delta = {delta:5.0f}g   alpha = {alpha:.4f}g   "
          f"max|p_eff - p_orig| = {dev:.2e}   max p2 = {p2max:.2e}   "
          f"|p0_eff - cos^2(alpha t)| = {cos_defect:.1e}")

print("\nThe deviation and the top-level population both drop ~4x per")
print("doubling of the detuning; the effective dynamics itself is an")
print("exact two-level Rabi oscillation at frequency alpha.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    at, orig, eff = curves[50.0]
    fig, (top, bottom) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    top.plot(at, orig.populations[:, 0], "g-", lw=1, label="p0 exact")
    top.plot(at, orig.populations[:, 1], "r-", lw=1, label="p1 exact")
    top.plot(at[::50], eff.populations[::50, 0], "go", ms=3, label="p0 eliminated")
    top.plot(at[::50], eff.populations[::50, 1], "ro", ms=3, label="p1 eliminated")
    top.set_ylabel("population")
    top.legend(loc="center right", fontsize=8)
    top.set_title("delta = 50g: exact vs eliminated-level closed evolution")
    bottom.semilogy(at, np.maximum(orig.populations[:, 2], 1e-12), "b-", lw=1)
    bottom.set_ylabel("p2 exact (log)")
    bottom.set_xlabel("alpha t")
    fig.tight_layout()
    fig.savefig("demos_adiabatic_elimination.png", dpi=120)
    print("\nwrote demos_adiabatic_elimination.png")
