"""Crystal substrate: elements, lattices, crystals, prototypes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.structures import (
    COVALENT_RADIUS,
    MPTRJ_ELEMENTS,
    Crystal,
    Lattice,
    bcc,
    cscl,
    element,
    fcc,
    fluorite,
    layered_limo2,
    named_structures,
    packed_grid,
    perovskite,
    rocksalt,
    suggest_bond_length,
    symbols,
    wurtzite,
    zincblende,
)


class TestElements:
    def test_lookup_by_z(self):
        assert element(26).symbol == "Fe"

    def test_lookup_by_symbol(self):
        assert element("Li").z == 3

    def test_unknown_symbol_raises(self):
        with pytest.raises(KeyError):
            element("Xx")

    def test_unknown_z_raises(self):
        with pytest.raises(KeyError):
            element(200)

    def test_symbols_vector(self):
        assert symbols([3, 25, 8]) == ["Li", "Mn", "O"]

    def test_mptrj_has_89_elements(self):
        assert len(MPTRJ_ELEMENTS) == 88  # 94 tabulated minus 6 noble gases
        assert 2 not in MPTRJ_ELEMENTS  # no helium

    def test_radius_array_indexed_by_z(self):
        assert COVALENT_RADIUS[3] == element(3).covalent_radius

    def test_transition_metals_magnetic(self):
        assert element(26).magnetic_tendency > element(3).magnetic_tendency


class TestLattice:
    def test_cubic_volume(self):
        assert np.isclose(Lattice.cubic(3.0).volume, 27.0)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((3, 3)))

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            Lattice(np.eye(2))

    def test_frac_cart_roundtrip(self, rng):
        lat = Lattice(np.array([[3.0, 0.1, 0], [0.2, 4.0, 0], [0, 0.3, 5.0]]))
        frac = rng.uniform(size=(7, 3))
        assert np.allclose(lat.cart_to_frac(lat.frac_to_cart(frac)), frac)

    def test_plane_spacings_cubic(self):
        assert np.allclose(Lattice.cubic(4.0).plane_spacings(), [4.0, 4.0, 4.0])

    def test_hexagonal_lengths(self):
        lat = Lattice.hexagonal(3.0, 5.0)
        assert np.allclose(lat.lengths, [3.0, 3.0, 5.0])

    def test_strain_identity(self):
        lat = Lattice.cubic(3.0)
        assert lat.strained(np.zeros((3, 3))) == lat

    def test_isotropic_strain_volume(self):
        lat = Lattice.cubic(3.0)
        strained = lat.strained(0.01 * np.eye(3))
        assert np.isclose(strained.volume, 27.0 * 1.01**3)

    def test_strain_bad_shape_raises(self):
        with pytest.raises(ValueError):
            Lattice.cubic(3.0).strained(np.zeros((2, 2)))

    def test_scaled(self):
        assert np.isclose(Lattice.cubic(2.0).scaled(2.0).volume, 64.0)


class TestCrystal:
    def test_counts_and_formula(self):
        c = rocksalt(3, 8)
        assert c.num_atoms == 8
        assert c.formula == "Li4O4"

    def test_frac_wrapped_into_cell(self):
        c = Crystal(Lattice.cubic(3.0), np.array([3]), np.array([[1.2, -0.3, 0.5]]))
        assert np.all(c.frac_coords >= 0) and np.all(c.frac_coords < 1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Crystal(Lattice.cubic(3.0), np.array([], dtype=int), np.zeros((0, 3)))

    def test_bad_species_raises(self):
        with pytest.raises(ValueError):
            Crystal(Lattice.cubic(3.0), np.array([0]), np.zeros((1, 3)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Crystal(Lattice.cubic(3.0), np.array([3, 8]), np.zeros((1, 3)))

    def test_supercell_counts(self):
        c = cscl(11, 17).supercell((2, 2, 2))
        assert c.num_atoms == 16
        assert np.isclose(c.lattice.volume, 8 * cscl(11, 17).lattice.volume)

    def test_supercell_preserves_density(self):
        c = rocksalt(3, 8)
        sc = c.supercell((2, 1, 1))
        assert np.isclose(
            c.lattice.volume / c.num_atoms, sc.lattice.volume / sc.num_atoms
        )

    def test_supercell_bad_reps_raises(self):
        with pytest.raises(ValueError):
            cscl(11, 17).supercell((0, 1, 1))

    def test_perturbed_moves_atoms(self, rng):
        c = rocksalt(3, 8)
        p = c.perturbed(rng, 0.05)
        assert not np.allclose(c.frac_coords, p.frac_coords)
        # displacement under the minimum-image convention stays small
        dfrac = (p.frac_coords - c.frac_coords + 0.5) % 1.0 - 0.5
        dcart = c.lattice.frac_to_cart(dfrac)
        assert np.max(np.linalg.norm(dcart, axis=1)) < 1.0

    def test_strained_keeps_frac(self):
        c = rocksalt(3, 8)
        s = c.strained(0.02 * np.eye(3))
        assert np.allclose(c.frac_coords, s.frac_coords)

    def test_copy_independent(self):
        c = rocksalt(3, 8)
        c2 = c.copy()
        c2.frac_coords[0, 0] = 0.499
        assert c.frac_coords[0, 0] != 0.499


class TestPrototypes:
    @pytest.mark.parametrize(
        "builder,n",
        [
            (lambda: cscl(55, 17), 2),
            (lambda: rocksalt(11, 17), 8),
            (lambda: fluorite(20, 9), 12),
            (lambda: perovskite(38, 22, 8), 5),
            (lambda: zincblende(30, 16), 8),
            (lambda: wurtzite(30, 8), 4),
            (lambda: layered_limo2(27), 4),
            (lambda: bcc(26), 2),
            (lambda: fcc(29), 4),
        ],
    )
    def test_atom_counts(self, builder, n):
        assert builder().num_atoms == n

    def test_nearest_neighbor_distances_sane(self):
        """No prototype places atoms closer than 60% of the radii sum."""
        from repro.structures import neighbor_list

        for c in [cscl(55, 17), rocksalt(11, 17), perovskite(38, 22, 8), wurtzite(30, 8)]:
            nl = neighbor_list(c, 4.0)
            r0 = COVALENT_RADIUS[c.species[nl.src]] + COVALENT_RADIUS[c.species[nl.dst]]
            assert np.all(nl.dist > 0.6 * r0), c.name

    def test_suggest_bond_length(self):
        assert suggest_bond_length(3, 8) > suggest_bond_length(1, 8)

    def test_packed_grid_counts(self, rng):
        c = packed_grid(np.array([3, 3, 8, 8, 8]), rng)
        assert c.num_atoms == 5

    def test_packed_grid_empty_raises(self, rng):
        with pytest.raises(ValueError):
            packed_grid(np.array([], dtype=int), rng)

    def test_named_structures_match_table2(self):
        named = named_structures()
        assert named["LiMnO2"].num_atoms == 8
        assert named["LiTiPO5"].num_atoms == 32
        assert named["Li9Co7O16"].num_atoms == 32
        assert named["Li9Co7O16"].formula == "Co7Li9O16"
