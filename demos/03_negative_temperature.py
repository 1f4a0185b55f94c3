"""A qubit in equilibrium with an effective negative-temperature bath.

Each collision couples the effective qubit to an ancilla PAIR, so the
two positive-temperature baths synthesize one effective bath whose
thermal exponent is x_s = x1 - x2.  Making the bath-2 ancillas colder
than bath-1's (x2 > x1) drives x_s negative: the steady state is
population inverted, something no single positive-temperature bath can
do.  The detailed-balance ratio p1/p0 = e^-x_s is exact for the
collision map, so the inversion survives at finite collision duration.
"""

import math

import numpy as np

from collisim import (
    ModelParams,
    derive_rates,
    generator_effective_qubit,
    run_collisions,
    steady_residual,
    thermal_qubit,
)

DELTA, ALPHA_TAU = 200.0, 0.3
GROUND = np.diag([1.0, 0.0, 0.0])  # run_collisions checks it on entry

print("steady state of the collided qubit vs the analytic thermal state")
print(f"(delta = {DELTA:.0f}g, alpha*tau = {ALPHA_TAU}, 300 collisions)\n")
print("   x1     x2     x_s    p1 (collisions)   p1 (analytic)   inverted?")

histories = {}
for x1, x2 in ((1.5, 0.5), (1.0, 1.0), (0.5, 1.5), (0.2, 2.2)):
    tau = ALPHA_TAU * DELTA
    p = ModelParams(delta=DELTA, x1=x1, x2=x2, tau=tau, n_steps=300)
    rates = derive_rates(p)
    traj = run_collisions(GROUND, p, "original", snapshot_stride=0)
    final = traj.final_window_mean()
    analytic = thermal_qubit(rates.x_s)
    residual = steady_residual(generator_effective_qubit(rates), analytic)
    assert residual <= 1e-12
    histories[(x1, x2)] = traj
    print(f"  {x1:4.1f}   {x2:4.1f}   {rates.x_s:+4.1f}   "
          f"{final[1]:>12.4f}      {analytic[1, 1].real:>10.4f}      "
          f"{'yes' if final[1] > final[0] else 'no'}")

print("\nx_s < 0 inverts the qubit; x_s = 0 gives the infinite-temperature")
print("50/50 state; the analytic fixed point has zero residual under the")
print("effective-qubit generator in every case.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for (x1, x2), traj in histories.items():
        x_s = x1 - x2
        ax.plot(np.arange(len(traj)), traj.populations[:, 1], lw=1.2,
                label=f"x1={x1}, x2={x2} (x_s={x_s:+.0f})")
        ax.axhline(1.0 / (1.0 + math.exp(x_s)), color="gray", lw=0.6, ls=":")
    ax.set_xlabel("collision step")
    ax.set_ylabel("p1")
    ax.axhline(0.5, color="k", lw=0.6)
    ax.legend(fontsize=8)
    ax.set_title("upper-level population vs analytic steady values (dotted)")
    fig.tight_layout()
    fig.savefig("demos_negative_temperature.png", dpi=120)
    print("\nwrote demos_negative_temperature.png")
