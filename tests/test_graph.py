"""Graph extraction and batching: topology invariants, offsets, labels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GraphBatch, Labels, build_graph, collate
from repro.structures import Crystal, Lattice, cscl, perovskite, rocksalt


class TestBuildGraph:
    def test_counts(self):
        g = build_graph(rocksalt(3, 8))
        assert g.num_atoms == 8
        assert g.num_edges > 0
        assert g.num_short_edges <= g.num_edges
        assert g.feature_number == g.num_atoms + g.num_edges + g.num_angles

    def test_short_edges_within_bond_cutoff(self):
        from repro.structures import neighbor_list

        c = rocksalt(3, 8)
        g = build_graph(c, 6.0, 3.0)
        nl = neighbor_list(c, 6.0)
        assert np.all(nl.dist[g.short_idx] <= 3.0)
        long_mask = np.ones(g.num_edges, dtype=bool)
        long_mask[g.short_idx] = False
        assert np.all(nl.dist[long_mask] > 3.0)

    def test_angles_share_center(self):
        g = build_graph(rocksalt(3, 8))
        short_src = g.edge_src[g.short_idx]
        assert np.array_equal(short_src[g.angle_e1], g.angle_center)
        assert np.array_equal(short_src[g.angle_e2], g.angle_center)

    def test_angles_are_ordered_distinct_pairs(self):
        g = build_graph(rocksalt(3, 8))
        assert np.all(g.angle_e1 != g.angle_e2)
        pairs = set(zip(g.angle_e1.tolist(), g.angle_e2.tolist()))
        assert len(pairs) == g.num_angles  # no duplicates
        for e1, e2 in list(pairs)[:50]:
            assert (e2, e1) in pairs  # both orderings present

    def test_angle_count_formula(self):
        """n_angles = sum_i k_i (k_i - 1) over short-edge out-degrees."""
        g = build_graph(perovskite(38, 22, 8))
        k = np.bincount(g.edge_src[g.short_idx], minlength=g.num_atoms)
        assert g.num_angles == int(np.sum(k * (k - 1)))

    def test_bond_cutoff_above_atom_cutoff_raises(self):
        with pytest.raises(ValueError):
            build_graph(cscl(11, 17), 6.0, 7.0)

    def test_isolated_atom_raises(self):
        lonely = Crystal(Lattice.cubic(30.0), np.array([3, 8]), np.array([[0.0, 0, 0], [0.5, 0.5, 0.5]]))
        with pytest.raises(ValueError, match="isolated"):
            build_graph(lonely)

    def test_no_angles_for_sparse_structure(self):
        """A structure whose bonds all exceed the bond cutoff has no angles."""
        c = Crystal(
            Lattice.cubic(4.5),
            np.array([55, 55]),
            np.array([[0.0, 0, 0], [0.5, 0.5, 0.5]]),
        )
        g = build_graph(c, 6.0, 1.0)
        assert g.num_short_edges == 0
        assert g.num_angles == 0


def _labels_for(g) -> Labels:
    n = g.num_atoms
    return Labels(
        energy_per_atom=-1.0,
        forces=np.zeros((n, 3)),
        stress=np.zeros((3, 3)),
        magmom=np.zeros(n),
    )


class TestCollate:
    @pytest.fixture
    def graphs(self):
        return [build_graph(c) for c in (cscl(11, 17), rocksalt(3, 8), perovskite(38, 22, 8))]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            collate([])

    def test_totals(self, graphs):
        batch = collate(graphs)
        assert batch.num_structs == 3
        assert batch.num_atoms == sum(g.num_atoms for g in graphs)
        assert batch.num_edges == sum(g.num_edges for g in graphs)
        assert batch.num_angles == sum(g.num_angles for g in graphs)
        assert batch.feature_number == sum(g.feature_number for g in graphs)

    def test_offsets_consistent(self, graphs):
        batch = collate(graphs)
        assert batch.atom_offsets[-1] == batch.num_atoms
        assert batch.edge_offsets[-1] == batch.num_edges
        assert batch.angle_offsets[-1] == batch.num_angles
        assert np.array_equal(np.diff(batch.atom_offsets), [g.num_atoms for g in graphs])

    def test_edge_indices_stay_in_sample(self, graphs):
        batch = collate(graphs)
        for s in range(batch.num_structs):
            lo, hi = batch.edge_offsets[s], batch.edge_offsets[s + 1]
            a_lo, a_hi = batch.atom_offsets[s], batch.atom_offsets[s + 1]
            assert np.all(batch.edge_src[lo:hi] >= a_lo)
            assert np.all(batch.edge_src[lo:hi] < a_hi)
            assert np.all(batch.edge_dst[lo:hi] >= a_lo)
            assert np.all(batch.edge_dst[lo:hi] < a_hi)

    def test_sample_ids(self, graphs):
        batch = collate(graphs)
        assert np.array_equal(np.unique(batch.atom_sample), [0, 1, 2])
        for s in range(3):
            assert np.sum(batch.atom_sample == s) == graphs[s].num_atoms
            assert np.sum(batch.edge_sample == s) == graphs[s].num_edges

    def test_short_idx_globalized(self, graphs):
        batch = collate(graphs)
        assert np.all(batch.short_idx < batch.num_edges)
        # short edges of sample s must point into sample s's edge range
        for s in range(3):
            lo, hi = batch.short_offsets[s], batch.short_offsets[s + 1]
            assert np.all(batch.short_idx[lo:hi] >= batch.edge_offsets[s])
            assert np.all(batch.short_idx[lo:hi] < batch.edge_offsets[s + 1])

    def test_angle_center_matches_short_src(self, graphs):
        batch = collate(graphs)
        short_src = batch.edge_src[batch.short_idx]
        assert np.array_equal(short_src[batch.angle_e1], batch.angle_center)

    def test_labels_attached(self, graphs):
        labels = [_labels_for(g) for g in graphs]
        batch = collate(graphs, labels)
        assert batch.energy_per_atom.shape == (3,)
        assert batch.forces.shape == (batch.num_atoms, 3)
        assert batch.stress.shape == (3, 3, 3)
        assert batch.magmom.shape == (batch.num_atoms,)

    def test_label_count_mismatch_raises(self, graphs):
        with pytest.raises(ValueError):
            collate(graphs, [_labels_for(graphs[0])])

    def test_bad_label_shape_raises(self, graphs):
        bad = _labels_for(graphs[0])
        bad.forces = np.zeros((bad.forces.shape[0] + 1, 3))
        with pytest.raises(ValueError):
            collate([graphs[0]], [bad])

    def test_permutation_of_samples_permutes_blocks(self, graphs):
        """Batching is order-equivariant: per-sample blocks are preserved."""
        fwd = collate(graphs)
        rev = collate(graphs[::-1])
        assert fwd.num_edges == rev.num_edges
        s0 = slice(fwd.atom_offsets[0], fwd.atom_offsets[1])
        s_last = slice(rev.atom_offsets[2], rev.atom_offsets[3])
        assert np.array_equal(fwd.species[s0], rev.species[s_last])

    def test_single_sample_batch_identity(self, graphs):
        batch = collate([graphs[1]])
        g = graphs[1]
        assert np.array_equal(batch.edge_src, g.edge_src)
        assert np.array_equal(batch.short_idx, g.short_idx)
        assert np.array_equal(batch.angle_e1, g.angle_e1)


def _labels_like(g, rng):
    return Labels(
        energy_per_atom=float(rng.normal()),
        forces=rng.normal(size=(g.num_atoms, 3)),
        stress=rng.normal(size=(3, 3)),
        magmom=rng.uniform(size=g.num_atoms),
    )


def _collate_reference(graphs, labels=None):
    """The seed's concatenate-based collate (shared oracle module)."""
    from oracles import collate_concat

    return collate_concat(graphs, labels)


_ARRAY_FIELDS = [
    "species", "frac", "atom_sample", "lattices",
    "edge_src", "edge_dst", "edge_image", "edge_sample",
    "short_idx", "angle_e1", "angle_e2", "angle_center", "angle_sample",
    "atom_offsets", "edge_offsets", "short_offsets", "angle_offsets",
]


class TestZeroCopyCollate:
    @pytest.fixture
    def graphs(self):
        return [build_graph(c) for c in (cscl(11, 17), rocksalt(3, 8), perovskite(38, 22, 8))]

    def test_matches_reference_without_labels(self, graphs):
        a = collate(graphs)
        b = _collate_reference(graphs)
        for name in _ARRAY_FIELDS:
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert a.energy_per_atom is None and a.forces is None

    def test_matches_reference_with_labels(self, graphs):
        rng = np.random.default_rng(7)
        labels = [_labels_like(g, rng) for g in graphs]
        a = collate(graphs, labels)
        b = _collate_reference(graphs, labels)
        for name in _ARRAY_FIELDS + ["energy_per_atom", "forces", "stress", "magmom"]:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_output_arrays_are_freshly_owned(self, graphs):
        """Filled outputs must not alias the per-graph inputs."""
        batch = collate(graphs)
        batch.edge_src += 1  # must not corrupt the source graphs
        assert graphs[0].edge_src[0] == _collate_reference(graphs).edge_src[0]
