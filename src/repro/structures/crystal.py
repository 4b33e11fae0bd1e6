"""Crystal structures with periodic boundary conditions."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.structures.elements import symbols
from repro.structures.lattice import Lattice


class Crystal:
    """A periodic crystal: lattice + species + fractional coordinates.

    Optional per-structure metadata (``name``) identifies provenance in the
    synthetic dataset (prototype family, trajectory frame index).
    """

    def __init__(
        self,
        lattice: Lattice,
        species: np.ndarray,
        frac_coords: np.ndarray,
        name: str = "",
    ) -> None:
        species = np.asarray(species, dtype=np.int64)
        frac_coords = np.asarray(frac_coords, dtype=np.float64)
        if frac_coords.ndim != 2 or frac_coords.shape[1] != 3:
            raise ValueError(f"frac_coords must be (n, 3), got {frac_coords.shape}")
        if species.ndim != 1 or species.shape[0] != frac_coords.shape[0]:
            raise ValueError(
                f"species ({species.shape}) and frac_coords ({frac_coords.shape}) disagree"
            )
        if species.shape[0] == 0:
            raise ValueError("crystal must contain at least one atom")
        if np.any(species < 1):
            raise ValueError("atomic numbers must be >= 1")
        self.lattice = lattice
        self.species = species
        self.frac_coords = frac_coords % 1.0  # wrap into the home cell
        self.name = name

    # ---------------------------------------------------------------- queries
    @property
    def num_atoms(self) -> int:
        return int(self.species.shape[0])

    @property
    def cart_coords(self) -> np.ndarray:
        """Cartesian positions of all atoms in the home cell."""
        return self.lattice.frac_to_cart(self.frac_coords)

    @property
    def formula(self) -> str:
        """Reduced chemical formula, e.g. ``Li2Mn2O4``."""
        counts = Counter(symbols(self.species))
        return "".join(f"{el}{n if n > 1 else ''}" for el, n in sorted(counts.items()))

    # ------------------------------------------------------------- transforms
    def supercell(self, reps: tuple[int, int, int]) -> "Crystal":
        """Replicate the cell ``reps`` times along each lattice vector."""
        na, nb, nc = reps
        if min(reps) < 1:
            raise ValueError(f"supercell repetitions must be >= 1, got {reps}")
        shifts = np.array(
            [[i, j, k] for i in range(na) for j in range(nb) for k in range(nc)],
            dtype=np.float64,
        )
        n_cells = len(shifts)
        frac = (self.frac_coords[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
        frac /= np.array([na, nb, nc], dtype=np.float64)
        species = np.tile(self.species, n_cells)
        lat = Lattice(self.lattice.matrix * np.array([[na], [nb], [nc]], dtype=np.float64))
        return Crystal(lat, species, frac, name=self.name)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "Crystal":
        """Gaussian-displace every atom by ``sigma`` angstroms (Cartesian).

        Mimics the relaxation-trajectory frames that make up MPtrj.
        """
        cart = self.cart_coords + rng.normal(scale=sigma, size=(self.num_atoms, 3))
        return Crystal(
            self.lattice, self.species, self.lattice.cart_to_frac(cart), name=self.name
        )

    def strained(self, strain: np.ndarray) -> "Crystal":
        """Homogeneously deform the cell (fractional coordinates fixed)."""
        return Crystal(self.lattice.strained(strain), self.species, self.frac_coords, name=self.name)

    def copy(self) -> "Crystal":
        return Crystal(
            Lattice(self.lattice.matrix.copy()),
            self.species.copy(),
            self.frac_coords.copy(),
            name=self.name,
        )

    def __repr__(self) -> str:
        return f"Crystal({self.formula}, n={self.num_atoms}, {self.lattice!r})"
