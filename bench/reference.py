"""Fixed reference kernel that every timed run is paired with.

The kernel mixes the kinds of work the simulator does -- interpreted
Python loops, 9x9 mat-vecs and 12x12 products issued one numpy call at a
time, 81x81 products, ``'%.12g'`` formatting, batched and single small
Hermitian eigensolves, and writing small files -- but never imports
``collisim``, so no change to the program can move it.  Dividing a run's
wall time by the wall time of the kernels run right beside it cancels most
of the slow phases of a shared machine, which move both.

The mix was chosen on a shared 2-CPU virtual machine; bench/README.md
gives the measurements.  Small mat-vecs and formatting slow down more than the
workloads in the machine's slow phases, plain loops and 12x12 products
less, so the kernel holds an even mix of the two groups.  File creation
and the 81x81 products of the runge_kutta propagator vary on their own,
and the file writes and 81x81 products make the kernel follow them.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np


class ReferenceKernel:
    """Inputs are built once from a fixed seed; `run` returns its wall time in seconds.

    ``scratch`` is a directory the kernel may create and delete files in.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        rng = np.random.default_rng(20240919)
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        self.matrix = m / np.linalg.norm(m, 2)
        self.vector = rng.normal(size=9) + 0j
        self.floats = rng.random(1300).tolist()
        a = rng.normal(size=(130, 3, 3)) + 1j * rng.normal(size=(130, 3, 3))
        self.batch = a + a.conj().transpose(0, 2, 1)
        b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = b + b.conj().T
        self.herm = h / np.linalg.norm(h, 2)
        c = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
        self.superop = c / np.linalg.norm(c, 2)

    def run(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(13000):
            total += i * i % 7
        vec = self.vector
        for _ in range(870):
            vec = self.matrix @ vec
        prod = self.herm
        for _ in range(200):
            prod = self.herm @ prod
        big = self.superop
        for _ in range(4):
            big = self.superop @ big
        text = ",".join(["%.12g" % x for x in self.floats])
        for i in range(2):
            path = self.scratch / f"reference-{i}.txt"
            path.write_text(text)
            path.unlink()
        np.linalg.eigvalsh(self.batch)
        for _ in range(7):
            np.linalg.eigh(self.herm)
        elapsed = time.perf_counter() - t0
        if not text or total <= 0 or not all(np.all(np.isfinite(a)) for a in (vec, prod, big)):
            raise RuntimeError("reference kernel produced no output")
        return elapsed
