"""Periodic-crystal substrate: elements, lattices, structures, neighbor lists."""

from repro.structures.crystal import Crystal
from repro.structures.elements import (
    ATOMIC_MASS,
    COVALENT_RADIUS,
    ELECTRONEGATIVITY,
    MAGNETIC_TENDENCY,
    MPTRJ_ELEMENTS,
    Element,
    element,
    symbols,
)
from repro.structures.lattice import Lattice
from repro.structures.neighbors import (
    CELL_LIST_MIN_ATOMS,
    NeighborCache,
    NeighborList,
    neighbor_list,
)
from repro.structures.prototypes import (
    PROTOTYPE_BUILDERS,
    bcc,
    cscl,
    fcc,
    fluorite,
    layered_limo2,
    named_structures,
    packed_grid,
    perovskite,
    rocksalt,
    suggest_bond_length,
    wurtzite,
    zincblende,
)

__all__ = [
    "Crystal",
    "ATOMIC_MASS",
    "COVALENT_RADIUS",
    "ELECTRONEGATIVITY",
    "MAGNETIC_TENDENCY",
    "MPTRJ_ELEMENTS",
    "Element",
    "element",
    "symbols",
    "Lattice",
    "CELL_LIST_MIN_ATOMS",
    "NeighborCache",
    "NeighborList",
    "neighbor_list",
    "PROTOTYPE_BUILDERS",
    "bcc",
    "cscl",
    "fcc",
    "fluorite",
    "layered_limo2",
    "named_structures",
    "packed_grid",
    "perovskite",
    "rocksalt",
    "suggest_bond_length",
    "wurtzite",
    "zincblende",
]
