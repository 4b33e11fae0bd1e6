"""Lithium-battery molecular dynamics: CHGNet vs FastCHGNet step time.

Runs short NVE trajectories on the three systems of the paper's Table II
(LiMnO2, LiTiPO5, Li9Co7O16) with both the reference CHGNet (forces from
energy derivatives) and FastCHGNet (Force/Stress heads), comparing one-step
MD time — the paper's real-application benchmark.  Also demonstrates energy
conservation with the ground-truth oracle calculator.

Run:  python examples/battery_md.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.md import MDSpec, ModelCalculator, OracleCalculator, Trajectory, kinetic_energy
from repro.model import CHGNet, FastCHGNet
from repro.structures import named_structures


def step_time(crystal, calculator, n_steps: int = 2) -> float:
    """Mean seconds per NVE step over ``n_steps`` after one warm-up step."""
    trajectory = Trajectory(0, MDSpec(crystal, 1 + n_steps), record=False)
    trajectory.start(calculator.calculate(crystal))
    trajectory.advance(calculator)
    t0 = time.perf_counter()
    for _ in range(n_steps):
        trajectory.advance(calculator)
    return (time.perf_counter() - t0) / n_steps


def main() -> None:
    systems = named_structures()

    print("Energy conservation sanity check (oracle potential, NVE):")
    crystal = systems["LiMnO2"]
    oracle = OracleCalculator()
    nve = Trajectory(0, MDSpec(crystal, 10, timestep_fs=0.5, temperature_k=200.0), record=False)
    nve.start(oracle.calculate(crystal))
    energies = []
    while not nve.done:
        nve.advance(oracle)
        energies.append(
            nve.state.potential_energy + kinetic_energy(nve.state.crystal, nve.state.velocities)
        )
    drift = np.ptp(energies)
    print(f"  LiMnO2, 10 steps: total-energy drift {drift:.2e} eV\n")

    print("One-step MD time, CHGNet (derivative F/S) vs FastCHGNet (heads):")
    print(f"{'crystal':12s} {'atoms':>5s} {'CHGNet (s)':>12s} {'FastCHGNet (s)':>15s} {'speedup':>8s}")
    rng = np.random.default_rng(2)
    for name, crystal in systems.items():
        t_ref = step_time(crystal, ModelCalculator(CHGNet(rng)))
        t_fast = step_time(crystal, ModelCalculator(FastCHGNet(rng)))
        print(
            f"{name:12s} {crystal.num_atoms:5d} {t_ref:12.3f} {t_fast:15.3f} "
            f"{t_ref / t_fast:7.2f}x"
        )
    print("\n(paper, A100: 2.86x / 2.63x / 3.03x)")

    print("\nGraph-stage cost per MD step on a 512-atom LiMnO2 supercell:")
    from repro.structures import NeighborCache, neighbor_list

    big = systems["LiMnO2"].supercell((4, 4, 4))
    neighbor_list(big, 6.0)  # warm
    t0 = time.perf_counter()
    neighbor_list(big, 6.0)
    t_search = time.perf_counter() - t0
    cache = NeighborCache(6.0, skin=0.5)
    cache.query(big)  # build once
    t0 = time.perf_counter()
    cache.query(big)
    t_query = time.perf_counter() - t0
    print(
        f"  fresh cell-list search {t_search * 1e3:.1f} ms vs skin-list reuse "
        f"{t_query * 1e3:.1f} ms ({t_search / t_query:.1f}x; identical pairs, "
        "rebuilt only after atoms move > skin/2)"
    )


if __name__ == "__main__":
    main()
