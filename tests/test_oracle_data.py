"""DFT oracle and synthetic MPtrj: label consistency, dataset statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    CompositionNormalizer,
    OraclePotential,
    StructureDataset,
    dataset_statistics,
    generate_mptrj,
    split_dataset,
)
from repro.data.mptrj import LabeledStructure
from repro.structures import Crystal, cscl, rocksalt


@pytest.fixture(scope="module")
def oracle():
    return OraclePotential()


def _energy(oracle, crystal):
    return oracle.label(crystal).energy_per_atom * crystal.num_atoms


class TestOracle:
    def test_forces_are_energy_gradients(self, oracle):
        """Finite-difference check: F = -dE/dx exactly (per the label contract)."""
        c = cscl(11, 17)
        labels = oracle.label(c)
        eps = 1e-6
        for atom, k in [(0, 0), (1, 2)]:
            plus = c.cart_coords.copy()
            plus[atom, k] += eps
            minus = c.cart_coords.copy()
            minus[atom, k] -= eps
            e_p = _energy(oracle, Crystal(c.lattice, c.species, c.lattice.cart_to_frac(plus)))
            e_m = _energy(oracle, Crystal(c.lattice, c.species, c.lattice.cart_to_frac(minus)))
            num = -(e_p - e_m) / (2 * eps)
            assert np.isclose(labels.forces[atom, k], num, rtol=1e-5, atol=1e-8)

    def test_equilibrium_prototype_has_small_forces(self, oracle):
        """Unperturbed high-symmetry prototypes sit near force equilibrium."""
        labels = oracle.label(rocksalt(3, 8))
        assert np.max(np.abs(labels.forces)) < 0.3

    def test_perturbed_structure_has_larger_forces(self, oracle, rng):
        c = rocksalt(3, 8)
        f0 = np.abs(oracle.label(c).forces).max()
        f1 = np.abs(oracle.label(c.perturbed(rng, 0.15)).forces).max()
        assert f1 > f0

    def test_forces_sum_to_zero(self, oracle, rng):
        """Newton's third law: total force on a periodic cell vanishes."""
        labels = oracle.label(rocksalt(3, 8).perturbed(rng, 0.1))
        assert np.allclose(labels.forces.sum(axis=0), 0.0, atol=1e-9)

    def test_stress_symmetric_for_pair_potential(self, oracle, rng):
        labels = oracle.label(rocksalt(3, 8).perturbed(rng, 0.05))
        assert np.allclose(labels.stress, labels.stress.T, atol=1e-8)

    def test_energy_translation_invariant(self, oracle, rng):
        c = rocksalt(3, 8)
        shift = rng.uniform(size=3)
        shifted = Crystal(c.lattice, c.species, (c.frac_coords + shift) % 1.0)
        assert np.isclose(_energy(oracle, c), _energy(oracle, shifted), atol=1e-9)

    def test_magmoms_nonnegative_and_bounded(self, oracle):
        labels = oracle.label(rocksalt(25, 8))  # Mn-O
        assert np.all(labels.magmom >= 0)
        assert np.all(labels.magmom < 10)

    def test_magnetic_elements_get_moments(self, oracle):
        labels = oracle.label(rocksalt(26, 8))  # Fe-O
        fe = labels.magmom[rocksalt(26, 8).species == 26]
        assert np.all(fe > 0.1)

    def test_nonmagnetic_elements_near_zero(self, oracle):
        labels = oracle.label(cscl(11, 17))  # Na-Cl
        assert np.all(labels.magmom < 1e-6)

    def test_deterministic(self, oracle):
        a = oracle.label(rocksalt(3, 8))
        b = oracle.label(rocksalt(3, 8))
        assert a.energy_per_atom == b.energy_per_atom
        assert np.array_equal(a.forces, b.forces)


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = generate_mptrj(6, seed=11, max_atoms=8)
        b = generate_mptrj(6, seed=11, max_atoms=8)
        for x, y in zip(a, b):
            assert np.array_equal(x.crystal.frac_coords, y.crystal.frac_coords)
            assert x.labels.energy_per_atom == y.labels.energy_per_atom

    def test_different_seeds_differ(self):
        a = generate_mptrj(4, seed=1, max_atoms=8)
        b = generate_mptrj(4, seed=2, max_atoms=8)
        assert not all(
            np.array_equal(x.crystal.frac_coords, y.crystal.frac_coords) for x, y in zip(a, b)
        )

    def test_count_and_max_atoms(self, tiny_entries):
        assert len(tiny_entries) == 24
        assert max(e.crystal.num_atoms for e in tiny_entries) <= 8

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            generate_mptrj(0)

    def test_no_atom_overlaps(self, tiny_entries):
        from repro.data.mptrj import _min_distance_ok

        assert all(_min_distance_ok(e.crystal) for e in tiny_entries)

    def test_size_distribution_spreads(self, tiny_entries):
        sizes = [e.crystal.num_atoms for e in tiny_entries]
        assert len(set(sizes)) >= 3

    def test_statistics_keys(self, tiny_entries):
        stats = dataset_statistics(tiny_entries[:6])
        assert set(stats) == {"atoms", "bonds", "angles"}
        assert np.all(stats["bonds"] >= stats["atoms"])


class TestNormalizer:
    def test_fit_transform_removes_composition_trend(self, tiny_entries):
        norm = CompositionNormalizer().fit(tiny_entries)
        transformed = norm.transform(tiny_entries)
        raw = np.array([e.labels.energy_per_atom for e in tiny_entries])
        resid = np.array([e.labels.energy_per_atom for e in transformed])
        assert resid.std() <= raw.std() + 1e-12
        assert abs(resid.mean()) < abs(raw.mean()) + 1e-9

    def test_transform_before_fit_raises(self, tiny_entries):
        with pytest.raises(RuntimeError):
            CompositionNormalizer().transform(tiny_entries)

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            CompositionNormalizer().fit([])

    def test_forces_untouched(self, tiny_entries):
        norm = CompositionNormalizer().fit(tiny_entries)
        out = norm.transform(tiny_entries)
        assert np.array_equal(out[0].labels.forces, tiny_entries[0].labels.forces)

    def test_shift_is_composition_only(self, tiny_entries):
        """Two snapshots of the same composition get the same shift."""
        norm = CompositionNormalizer().fit(tiny_entries)
        e = tiny_entries[0]
        other = LabeledStructure(e.crystal.perturbed(np.random.default_rng(0), 0.01), e.labels)
        assert np.isclose(norm.shift(e), norm.shift(other))


class TestDatasetAndSplits:
    def test_split_fractions(self, tiny_entries):
        splits = split_dataset(tiny_entries, seed=0)
        assert len(splits.train) + len(splits.val) + len(splits.test) == len(tiny_entries)
        assert len(splits.train) >= len(splits.val)

    def test_split_deterministic(self, tiny_entries):
        a = split_dataset(tiny_entries, seed=4)
        b = split_dataset(tiny_entries, seed=4)
        assert np.array_equal(a.train.feature_numbers, b.train.feature_numbers)

    def test_bad_fractions_raise(self, tiny_entries):
        with pytest.raises(ValueError):
            split_dataset(tiny_entries, fractions=(0.5, 0.2, 0.2))

    def test_too_small_dataset_raises(self, tiny_entries):
        with pytest.raises(ValueError):
            split_dataset(tiny_entries[:2])

    def test_dataset_batch(self, tiny_entries):
        ds = StructureDataset(tiny_entries[:5])
        batch = ds.batch([0, 2, 4])
        assert batch.num_structs == 3
        assert batch.energy_per_atom is not None

    def test_dataset_empty_raises(self):
        with pytest.raises(ValueError):
            StructureDataset([])

    def test_feature_numbers_match_graphs(self, tiny_entries):
        ds = StructureDataset(tiny_entries[:4])
        for i, g in enumerate(ds.graphs):
            assert ds.feature_numbers[i] == g.feature_number
