"""Periodic neighbor lists: exactness against brute force, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import (
    Crystal,
    Lattice,
    NeighborCache,
    cscl,
    neighbor_list,
    neighbor_list_bruteforce,
    rocksalt,
)


def assert_same_neighbor_list(a, b, exact_dist=True):
    assert a.num_pairs == b.num_pairs
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.image, b.image)
    if exact_dist:
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.vec, b.vec)
    else:
        assert np.allclose(a.dist, b.dist)
        assert np.allclose(a.vec, b.vec)


class TestBasics:
    def test_nonpositive_cutoff_raises(self):
        with pytest.raises(ValueError):
            neighbor_list(cscl(11, 17), 0.0)

    def test_vectors_match_distances(self):
        nl = neighbor_list(rocksalt(3, 8), 5.0)
        assert np.allclose(np.linalg.norm(nl.vec, axis=1), nl.dist)

    def test_within_cutoff(self):
        nl = neighbor_list(rocksalt(3, 8), 5.0)
        assert np.all(nl.dist <= 5.0)
        assert np.all(nl.dist > 0)

    def test_directed_symmetry(self):
        """Every (i -> j, img) pair has the reverse (j -> i, -img) pair."""
        nl = neighbor_list(rocksalt(3, 8), 4.0)
        fwd = {(int(s), int(d), *map(int, im)) for s, d, im in zip(nl.src, nl.dst, nl.image)}
        for s, d, im in zip(nl.src, nl.dst, nl.image):
            assert (int(d), int(s), *map(int, -im)) in fwd

    def test_no_self_pair_in_home_cell(self):
        nl = neighbor_list(cscl(11, 17), 6.0)
        home = np.all(nl.image == 0, axis=1)
        assert not np.any((nl.src == nl.dst) & home)

    def test_self_interaction_across_images_allowed(self):
        """With a cutoff larger than the cell, an atom sees its own images."""
        nl = neighbor_list(cscl(11, 17), 8.0)
        assert np.any(nl.src == nl.dst)

    def test_deterministic_order(self):
        a = neighbor_list(rocksalt(3, 8), 5.0)
        b = neighbor_list(rocksalt(3, 8), 5.0)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.image, b.image)

    def test_larger_cutoff_superset(self):
        small = neighbor_list(rocksalt(3, 8), 3.0)
        large = neighbor_list(rocksalt(3, 8), 5.0)
        assert large.num_pairs > small.num_pairs
        large_set = {
            (int(s), int(d), *map(int, im))
            for s, d, im in zip(large.src, large.dst, large.image)
        }
        for s, d, im in zip(small.src, small.dst, small.image):
            assert (int(s), int(d), *map(int, im)) in large_set


class TestAgainstBruteForce:
    @pytest.mark.parametrize("cutoff", [2.5, 4.0, 6.0])
    def test_rocksalt(self, cutoff):
        c = rocksalt(3, 8)
        fast = neighbor_list(c, cutoff)
        slow = neighbor_list_bruteforce(c, cutoff)
        assert fast.num_pairs == slow.num_pairs
        assert np.array_equal(fast.src, slow.src)
        assert np.array_equal(fast.dst, slow.dst)
        assert np.array_equal(fast.image, slow.image)
        assert np.allclose(fast.dist, slow.dist)

    def test_triclinic_cell(self, rng):
        lat = Lattice(np.array([[4.0, 0.0, 0.0], [1.3, 3.8, 0.0], [0.7, 0.9, 4.2]]))
        c = Crystal(lat, np.array([3, 8, 8]), rng.uniform(size=(3, 3)))
        fast = neighbor_list(c, 4.5)
        slow = neighbor_list_bruteforce(c, 4.5)
        assert fast.num_pairs == slow.num_pairs
        assert np.allclose(fast.dist, slow.dist)


class TestCellList:
    """The O(N) cell list must match the dense path and brute force exactly."""

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError):
            neighbor_list(rocksalt(3, 8), 5.0, algorithm="octree")

    def test_bitwise_identical_to_dense_on_supercell(self):
        c = rocksalt(3, 8).supercell((3, 3, 3))
        dense = neighbor_list(c, 6.0, algorithm="dense")
        cell = neighbor_list(c, 6.0, algorithm="cell")
        assert_same_neighbor_list(cell, dense, exact_dist=True)

    def test_bitwise_identical_to_dense_at_512_atoms(self):
        """The scale where the O(N) path pays off still agrees exactly."""
        c = rocksalt(3, 8).supercell((4, 4, 4))
        assert c.num_atoms == 512
        dense = neighbor_list(c, 6.0, algorithm="dense")
        cell = neighbor_list(c, 6.0, algorithm="cell")
        assert dense.num_pairs > 0
        assert_same_neighbor_list(cell, dense, exact_dist=True)

    def test_auto_picks_cell_on_large_cells(self):
        c = rocksalt(3, 8).supercell((3, 3, 3))
        auto = neighbor_list(c, 6.0)
        cell = neighbor_list(c, 6.0, algorithm="cell")
        assert_same_neighbor_list(auto, cell, exact_dist=True)

    def test_cell_smaller_than_cutoff(self):
        """Cutoff larger than every spacing: the stencil widens over images."""
        c = cscl(11, 17)  # one cell, ~4 A
        cell = neighbor_list(c, 9.0, algorithm="cell")
        slow = neighbor_list_bruteforce(c, 9.0, extra_images=2)
        assert_same_neighbor_list(cell, slow, exact_dist=False)

    def test_single_atom_cell(self):
        c = Crystal(Lattice.cubic(3.0), np.array([29]), np.zeros((1, 3)))
        cell = neighbor_list(c, 7.0, algorithm="cell")
        slow = neighbor_list_bruteforce(c, 7.0, extra_images=2)
        assert_same_neighbor_list(cell, slow, exact_dist=False)
        assert np.all(cell.src == 0) and np.all(cell.dst == 0)

    @pytest.mark.parametrize("cutoff", [1.999999, 2.0, 2.000001, 3.999999, 4.0])
    def test_cutoff_straddling_cell_boundaries(self, cutoff):
        """Cutoffs at and around the plane spacing (4 A cubic cell)."""
        rng = np.random.default_rng(11)
        c = Crystal(Lattice.cubic(4.0), np.array([3, 8]), rng.uniform(size=(2, 3)))
        cell = neighbor_list(c, cutoff, algorithm="cell")
        dense = neighbor_list(c, cutoff, algorithm="dense")
        slow = neighbor_list_bruteforce(c, cutoff)
        assert_same_neighbor_list(cell, dense, exact_dist=True)
        assert_same_neighbor_list(cell, slow, exact_dist=False)

    def test_skewed_triclinic_supercell(self):
        lat = Lattice(np.array([[4.0, 0.0, 0.0], [1.6, 3.6, 0.0], [0.9, 1.1, 4.1]]))
        rng = np.random.default_rng(5)
        base = Crystal(lat, np.array([3, 8, 8, 26]), rng.uniform(size=(4, 3)))
        c = base.supercell((2, 2, 2))
        cell = neighbor_list(c, 4.5, algorithm="cell")
        dense = neighbor_list(c, 4.5, algorithm="dense")
        assert_same_neighbor_list(cell, dense, exact_dist=True)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_atoms=st.integers(min_value=1, max_value=5),
    cutoff=st.floats(min_value=2.0, max_value=5.0),
)
def test_property_matches_bruteforce(seed, n_atoms, cutoff):
    """Random skewed cells and positions: both fast paths == brute force."""
    rng = np.random.default_rng(seed)
    base = np.diag(rng.uniform(3.0, 6.0, size=3))
    base[1, 0] = rng.uniform(-1.0, 1.0)
    base[2, 0] = rng.uniform(-1.0, 1.0)
    base[2, 1] = rng.uniform(-1.0, 1.0)
    c = Crystal(
        Lattice(base),
        rng.integers(1, 90, size=n_atoms),
        rng.uniform(size=(n_atoms, 3)),
    )
    slow = neighbor_list_bruteforce(c, cutoff)
    for algorithm in ("dense", "cell"):
        fast = neighbor_list(c, cutoff, algorithm=algorithm)
        assert_same_neighbor_list(fast, slow, exact_dist=False)


class TestNeighborCache:
    def test_negative_skin_raises(self):
        with pytest.raises(ValueError):
            NeighborCache(5.0, skin=-0.1)

    def test_first_query_matches_fresh(self):
        c = cscl(11, 17).supercell((2, 2, 2))
        cache = NeighborCache(5.0, skin=1.0)
        assert_same_neighbor_list(cache.query(c), neighbor_list(c, 5.0))
        assert cache.num_builds == 1

    def test_reuse_is_exact_until_rebuild(self, rng):
        """Across a jittered trajectory every query equals a fresh search."""
        cur = cscl(11, 17).supercell((2, 2, 2))
        cache = NeighborCache(5.0, skin=0.8)
        for _ in range(15):
            cart = cur.cart_coords + rng.normal(scale=0.05, size=(cur.num_atoms, 3))
            cur = Crystal(cur.lattice, cur.species, cur.lattice.cart_to_frac(cart))
            assert_same_neighbor_list(cache.query(cur), neighbor_list(cur, 5.0))
        assert cache.num_reuses > 0

    def test_wrap_across_cell_face_is_exact(self):
        """An atom wrapping through a periodic face gets its cached images
        shifted, still matching a fresh search bit for bit."""
        c = cscl(11, 17).supercell((2, 2, 2))
        cache = NeighborCache(5.0, skin=1.0)
        frac = c.frac_coords.copy()
        frac[0] = [0.99, 0.5, 0.5]
        start = Crystal(c.lattice, c.species, frac)
        cache.query(start)
        moved = frac.copy()
        moved[0, 0] = 1.02  # wraps to 0.02: position jumps by a lattice vector
        after = Crystal(c.lattice, c.species, moved)
        assert cache.num_builds == 1
        got = cache.query(after)
        assert cache.num_builds == 1, "small move must not trigger a rebuild"
        assert_same_neighbor_list(got, neighbor_list(after, 5.0))

    def test_rebuild_triggers_on_large_displacement(self):
        c = cscl(11, 17).supercell((2, 2, 2))
        cache = NeighborCache(5.0, skin=0.5)
        cache.query(c)
        cart = c.cart_coords.copy()
        cart[3] += [0.3, 0.0, 0.0]  # > skin/2
        moved = Crystal(c.lattice, c.species, c.lattice.cart_to_frac(cart))
        assert_same_neighbor_list(cache.query(moved), neighbor_list(moved, 5.0))
        assert cache.num_builds == 2

    def test_rebuild_on_lattice_change(self):
        c = cscl(11, 17).supercell((2, 2, 2))
        cache = NeighborCache(5.0, skin=1.0)
        cache.query(c)
        strained = c.strained(np.eye(3) * 0.01)
        assert_same_neighbor_list(cache.query(strained), neighbor_list(strained, 5.0))
        assert cache.num_builds == 2

    def test_zero_skin_rebuilds_every_query(self):
        c = cscl(11, 17)
        cache = NeighborCache(5.0, skin=0.0)
        for _ in range(3):
            assert_same_neighbor_list(cache.query(c), neighbor_list(c, 5.0))
        assert cache.num_builds == 3
        assert cache.num_reuses == 0


def test_translation_invariance(rng):
    """Rigid translation does not change the pair-distance multiset."""
    c = rocksalt(3, 8)
    shifted = Crystal(c.lattice, c.species, (c.frac_coords + rng.uniform(size=3)) % 1.0)
    a = neighbor_list(c, 5.0)
    b = neighbor_list(shifted, 5.0)
    assert a.num_pairs == b.num_pairs
    assert np.allclose(np.sort(a.dist), np.sort(b.dist), atol=1e-9)
