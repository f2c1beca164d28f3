"""Self-test of the benchmark's reference computation.

    python3 perfbench/selftest.py

Checks `reference.py` against cases with known answers: a Bell state has
discord 1, concurrence 1 and mutual information 2; a product state has
discord 0; the ground state matches the closed-form discord; the Gibbs
state matches the closed-form thermal X state; and the X-form and spectral
concurrences agree on X states.  Exits 1 on the first failure.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

import reference as ref

GRID = ref.DiscordGrid(121, 240)


def _x_state(rng: random.Random) -> np.ndarray:
    """A random X-shaped density matrix: two PSD 2x2 blocks on {00,11}, {01,10}."""
    p = [rng.random() for _ in range(4)]
    total = sum(p)
    p = [x / total for x in p]
    rho = np.zeros((4, 4), dtype=complex)
    for (i, j), (a, b) in (((0, 3), (p[0], p[3])), ((1, 2), (p[1], p[2]))):
        rho[i, i], rho[j, j] = a, b
        phase = 2.0 * math.pi * rng.random()
        coh = math.sqrt(a * b) * rng.random() * complex(math.cos(phase), math.sin(phase))
        rho[i, j], rho[j, i] = coh, coh.conjugate()
    return rho


def _closed_form_thermal(eps: float, j: float, t: float) -> np.ndarray:
    b = 1.0 / t
    lam = math.hypot(2.0 * eps, j)
    z = 2.0 * math.cosh(b * lam) + 2.0 * math.cosh(b * j)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (math.cosh(b * lam) - 2.0 * eps / lam * math.sinh(b * lam)) / z
    rho[3, 3] = (math.cosh(b * lam) + 2.0 * eps / lam * math.sinh(b * lam)) / z
    rho[1, 1] = rho[2, 2] = math.cosh(b * j) / z
    rho[1, 2] = rho[2, 1] = -math.sinh(b * j) / z
    rho[0, 3] = rho[3, 0] = -(j / lam) * math.sinh(b * lam) / z
    return rho


def main() -> int:
    failures = []

    def expect(name: str, ok: bool, detail: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}")
        if not ok:
            failures.append(name)

    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    d, bound = GRID.discord(bell)
    expect("bell discord = 1", abs(d - 1.0) <= 1e-9, f"{d}")
    expect("bell concurrence = 1", abs(ref.concurrence_spectral(bell) - 1.0) <= 1e-9)
    expect("bell mutual information = 2", abs(ref.mutual_information(bell) - 2.0) <= 1e-9)
    expect("bell eof = 1", abs(ref.eof_from_concurrence(1.0) - 1.0) <= 1e-12)

    a = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    b = np.array([[0.4, 0.1j], [-0.1j, 0.6]])
    product = np.kron(a, b)
    d, _ = GRID.discord(product)
    expect("product discord = 0", abs(d) <= 1e-9, f"{d}")
    expect("product concurrence = 0", ref.concurrence_spectral(product) <= 1e-9)

    worst = 0.0
    for eps, j in ((1.0, 0.5), (1.0, 2.0), (1.0, 10.0), (0.3, 1.0)):
        d, bound = GRID.discord(ref.symmetric_state(eps, j, 0.0))
        exact = ref.ground_state_discord(eps, j)
        worst = max(worst, abs(d - exact) - bound)
    expect("ground state matches the closed form within the grid bound", worst <= 1e-9,
           f"excess {worst:.2e}")

    worst = max(
        float(np.abs(ref.symmetric_state(eps, j, t) - _closed_form_thermal(eps, j, t)).max())
        for eps, j, t in ((1.0, 2.0, 0.5), (0.5, -1.0, 2.0), (1.0, 0.1, 0.05))
    )
    expect("gibbs matches the closed-form thermal X state", worst <= 1e-12, f"{worst:.2e}")

    rng = random.Random(7)
    states = [_x_state(rng) for _ in range(200)]
    states += [ref.symmetric_state(1.0, rng.uniform(0.1, 50.0), rng.uniform(0.05, 2.0))
               for _ in range(50)]
    worst = max(abs(ref.concurrence_x(r) - ref.concurrence_spectral(r)) for r in states)
    expect("X-form and spectral concurrence agree on X states", worst <= 1e-9, f"{worst:.2e}")
    expect("random X states are recognised", all(ref.is_x_state(r) for r in states))

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
