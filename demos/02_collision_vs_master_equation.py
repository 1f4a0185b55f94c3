"""When does the effective-qubit master equation describe the collisions?

Repeated collisions with near-infinite-temperature ancilla pairs relax
the effective qubit to the maximally mixed state at rate Gamma.  The
continuous-time description requires the collision duration to sit
between two scales:

* much longer than the fast-oscillation period ~1/delta, so each
  collision coarse-grains the virtual-level dynamics away, and
* much shorter than the relaxation time 1/Gamma, so the stroboscopic
  sequence looks continuous.

With alpha*tau = 0.3 both hold and the master equation tracks the exact
dynamics to ~1e-3.  With alpha*tau = 0.01 the first condition fails: the
top level acquires real population (tracking p1) and the two-level
master equation is off by ~0.3 at saturation, where the exact dynamics
spread the state over all three levels.
"""

import numpy as np

from collisim import (
    ModelParams,
    QUTRIT_SPACE,
    density_operator,
    derive_rates,
    generator_effective_qubit,
    integrate,
    run_collisions,
)
from collisim.scenarios import default_collision_count

DELTA = 200.0
GROUND = density_operator(np.diag([1.0, 0.0, 0.0]).astype(complex), QUTRIT_SPACE)
GROUND_QUBIT = density_operator(np.diag([1.0, 0.0]).astype(complex), (("S", 2),))


def compare(alpha_tau):
    tau = alpha_tau * DELTA
    p = ModelParams(delta=DELTA, x1=1e-4, x2=1e-4, tau=tau)
    rates = derive_rates(p)
    n = default_collision_count(p, rates.capital_gamma)
    p = ModelParams(delta=DELTA, x1=1e-4, x2=1e-4, tau=tau, n_steps=n)
    exact = run_collisions(GROUND, p, "original", snapshot_stride=0)
    gen = generator_effective_qubit(rates)
    me_pops = integrate(gen, GROUND_QUBIT, n * tau, tau, snapshot_stride=0).populations
    dev = np.max(np.abs(exact.populations - me_pops))
    print(f"alpha*tau = {alpha_tau:<5}  Gamma = {rates.capital_gamma:.2e}g  "
          f"n = {n:>6}  max deviation = {dev:.3f}  "
          f"final exact (p0,p1,p2) = ({exact.populations[-1, 0]:.3f}, "
          f"{exact.populations[-1, 1]:.3f}, {exact.populations[-1, 2]:.3f})")
    return exact, me_pops, rates.capital_gamma * np.arange(n + 1) * tau


print("collisions vs effective-qubit master equation, delta = 200g,")
print("maximally mixed baths (x1 = x2 = 1e-4), qutrit starts in level 0\n")
good = compare(0.3)
bad = compare(0.01)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, (exact, me_pops, gamma_t), title in zip(
        axes, (bad, good), ("alpha tau = 0.01 (breaks down)", "alpha tau = 0.3 (works)")
    ):
        thin = max(1, len(gamma_t) // 120)
        for level, color in ((0, "g"), (1, "r"), (2, "b")):
            ax.plot(gamma_t[::thin], exact.populations[::thin, level], color + "o",
                    ms=3, mfc="none", label=f"p{level} exact")
        ax.plot(gamma_t, me_pops[:, 0], "g-", lw=1.2, label="p0 master eq.")
        ax.plot(gamma_t, me_pops[:, 1], "r-", lw=1.2, label="p1 master eq.")
        ax.set_xlabel("Gamma t")
        ax.set_title(title)
    axes[0].set_ylabel("population")
    axes[0].legend(loc="center right", fontsize=8)
    fig.tight_layout()
    fig.savefig("demos_collision_vs_master_equation.png", dpi=120)
    print("\nwrote demos_collision_vs_master_equation.png")
