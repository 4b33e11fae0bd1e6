"""Periodic lattice: coordinates, volume, strain, plane spacings."""

from __future__ import annotations

import math

import numpy as np


class Lattice:
    """A 3x3 row-vector lattice (rows are the cell vectors a, b, c)."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (3, 3):
            raise ValueError(f"lattice matrix must be 3x3, got {matrix.shape}")
        if abs(np.linalg.det(matrix)) < 1e-12:
            raise ValueError("lattice matrix is singular")
        self.matrix = matrix

    # ------------------------------------------------------------ constructors
    @classmethod
    def cubic(cls, a: float) -> "Lattice":
        return cls(np.eye(3) * a)

    @classmethod
    def orthorhombic(cls, a: float, b: float, c: float) -> "Lattice":
        return cls(np.diag([a, b, c]))

    @classmethod
    def hexagonal(cls, a: float, c: float) -> "Lattice":
        return cls(
            np.array(
                [
                    [a, 0.0, 0.0],
                    [-0.5 * a, np.sqrt(3.0) / 2.0 * a, 0.0],
                    [0.0, 0.0, c],
                ]
            )
        )

    # -------------------------------------------------------------- properties
    @property
    def volume(self) -> float:
        """Cell volume |det(L)|."""
        return float(abs(np.linalg.det(self.matrix)))

    @property
    def lengths(self) -> np.ndarray:
        """Norms of the three cell vectors."""
        return np.linalg.norm(self.matrix, axis=1)

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def plane_spacings(self) -> np.ndarray:
        """Perpendicular distances between opposite cell faces.

        ``d_i = V / |a_j x a_k|`` — the quantity that determines how many
        periodic images a cutoff sphere can reach along each axis.
        """
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = self.matrix.tolist()
        # The three face normals b x c, c x a, a x b and the triple product
        # a . (b x c), written out: nine scalars need no array machinery.
        normals = (
            (by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx),
            (cy * az - cz * ay, cz * ax - cx * az, cx * ay - cy * ax),
            (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx),
        )
        nx, ny, nz = normals[0]
        volume = abs(ax * nx + ay * ny + az * nz)
        return np.array([volume / math.sqrt(x * x + y * y + z * z) for x, y, z in normals])

    # -------------------------------------------------------------- transforms
    def frac_to_cart(self, frac: np.ndarray) -> np.ndarray:
        """Fractional -> Cartesian coordinates (row convention)."""
        return np.asarray(frac) @ self.matrix

    def cart_to_frac(self, cart: np.ndarray) -> np.ndarray:
        """Cartesian -> fractional coordinates."""
        return np.asarray(cart) @ self.inverse

    def strained(self, strain: np.ndarray) -> "Lattice":
        """Apply a strain tensor: ``L' = L @ (I + strain)``.

        This is the deformation the stress derivative ``dE/d(strain)`` is
        taken against in the reference CHGNet output layer.
        """
        strain = np.asarray(strain, dtype=np.float64)
        if strain.shape != (3, 3):
            raise ValueError(f"strain must be 3x3, got {strain.shape}")
        return Lattice(self.matrix @ (np.eye(3) + strain))

    def scaled(self, factor: float) -> "Lattice":
        """Isotropically scale all cell vectors."""
        return Lattice(self.matrix * float(factor))

    def __repr__(self) -> str:
        a, b, c = self.lengths
        return f"Lattice(a={a:.3f}, b={b:.3f}, c={c:.3f}, V={self.volume:.2f})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lattice) and np.allclose(self.matrix, other.matrix)
