"""Short collisions at modest detuning: the qutrit keeps all three levels.

When the detuning is only a couple of coupling strengths, the top level
cannot be eliminated.  For collisions short on every scale (g*tau and
delta*tau small), a different second-order expansion applies, giving a
qutrit master equation with each bath attached to its own transition
plus detuning-induced dephasing of the top level.  At zero detuning the
coherent and dephasing parts vanish and the two baths imprint their
Gibbs ratios directly on the level populations.
"""

import math

import numpy as np

from collisim import (
    ModelParams,
    QUTRIT_SPACE,
    density_operator,
    generator_qutrit_two_bath,
    integrate,
    run_collisions,
    steady_residual,
)

GROUND = density_operator(np.diag([1.0, 0.0, 0.0]).astype(complex), QUTRIT_SPACE)

p = ModelParams(delta=2.0, x1=1.0, x2=2.0, tau=0.05, n_steps=400)
exact = run_collisions(GROUND, p, "original", snapshot_stride=0)
gen = generator_qutrit_two_bath(p)
me_pops = integrate(gen, GROUND, p.n_steps * p.tau, p.tau, snapshot_stride=0).populations
dev = np.max(np.abs(exact.populations - me_pops))

print(f"delta = 2g, g*tau = 0.05, x1 = 1, x2 = 2, {p.n_steps} collisions")
print(f"max |collisions - master equation| over all levels: {dev:.2e}")
print(f"final populations (exact): {np.round(exact.populations[-1], 4)}")

# zero-detuning reduction: pure two-bath thermal qutrit
x = 1.0
p0_params = ModelParams(delta=0.0, x1=x, x2=x, tau=0.05)
gen0 = generator_qutrit_two_bath(p0_params)
mixed = density_operator(np.eye(3, dtype=complex) / 3.0, QUTRIT_SPACE)
steady = integrate(gen0, mixed, 1500.0, 0.5, snapshot_stride=0).populations[-1]
base = 1.0 / (2.0 + math.exp(-x))
analytic = np.diag([base, base, math.exp(-x) * base]).astype(complex)
print(f"\ndelta = 0, x1 = x2 = {x}: steady populations {np.round(steady, 6)}")
print(f"  p0 = p1:            {abs(steady[0] - steady[1]):.1e}")
print(f"  p2/p0 vs e^-{x:.0f}:     {abs(steady[2]/steady[0] - math.exp(-x)):.1e}")
print(f"  analytic residual:  {steady_residual(gen0, analytic):.1e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    t = exact.times
    thin = max(1, len(t) // 100)
    for level, color in ((0, "g"), (1, "r"), (2, "b")):
        ax.plot(t[::thin], exact.populations[::thin, level], color + "o", ms=3,
                mfc="none", label=f"p{level} collisions")
        ax.plot(t, me_pops[:, level], color + "-", lw=1.1,
                label=f"p{level} master eq.")
    ax.set_xlabel("t (units 1/g)")
    ax.set_ylabel("population")
    ax.legend(fontsize=8, ncol=2)
    ax.set_title("qutrit two-bath master equation vs exact collisions")
    fig.tight_layout()
    fig.savefig("demos_beyond_far_off.png", dpi=120)
    print("\nwrote demos_beyond_far_off.png")
