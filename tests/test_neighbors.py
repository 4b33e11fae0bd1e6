"""Periodic neighbor lists: exactness against brute force, invariants."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.graph.crystal_graph import build_graph
from repro.structures import (
    CELL_LIST_MIN_ATOMS,
    Crystal,
    Lattice,
    NeighborCache,
    cscl,
    neighbor_list,
    rocksalt,
)
from repro.structures import neighbors
from repro.structures.neighbors import NeighborList, _empty_pairs
from oracles import neighbor_list_bruteforce


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


class TestNonFiniteLengths:
    """``nan`` and ``inf`` cutoffs and skins are refused, not searched."""

    @staticmethod
    def _pair_at_5():
        return Crystal(Lattice.cubic(10.0), np.array([3, 8]), np.array([[0, 0, 0], [0.5, 0, 0]]))

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf])
    def test_neighbor_list(self, cutoff):
        with pytest.raises(ValueError, match="finite"):
            neighbor_list(self._pair_at_5(), cutoff)

    @pytest.mark.parametrize(("cutoff", "skin"), [(5.0, np.nan), (5.0, np.inf), (np.nan, 1.0), (np.inf, 1.0)])
    def test_neighbor_cache(self, cutoff, skin):
        with pytest.raises(ValueError, match="finite"):
            NeighborCache(cutoff, skin=skin)

    @pytest.mark.parametrize(("cutoff_atom", "cutoff_bond"), [(np.nan, 3.0), (np.inf, 3.0), (6.0, np.nan)])
    def test_build_graph(self, cutoff_atom, cutoff_bond):
        c = self._pair_at_5()
        nl = neighbor_list(c, 6.0)
        with pytest.raises(ValueError, match="finite"):
            build_graph(c, cutoff_atom, cutoff_bond)
        with pytest.raises(ValueError, match="finite"):
            build_graph(c, cutoff_atom, cutoff_bond, nl=nl)


# ---------------------------------------------------------------------------
# Frozen oracle: the dense search and canonical sort as they were before the
# search pruned its image block and built its distances component-major.
# Copied verbatim; every search path must reproduce it bit for bit.
_MAX_CHUNK_ELEMENTS = 4_000_000  # bound on n_atoms^2 * images per block


def _dense_search(
    crystal: Crystal, cutoff: float, spacings: np.ndarray
) -> tuple[np.ndarray, ...]:
    """All-pairs scan over the reachable image block (unsorted).

    ``spacings`` are the cell's plane spacings, evaluated once per search
    by :func:`neighbor_list`.
    """
    n = crystal.num_atoms
    cart = crystal.cart_coords
    lat = crystal.lattice.matrix

    reps = np.ceil(cutoff / spacings).astype(int)
    ranges = [np.arange(-r, r + 1) for r in reps]
    images = np.array(np.meshgrid(*ranges, indexing="ij"), dtype=np.int64).reshape(3, -1).T

    chunk = max(1, _MAX_CHUNK_ELEMENTS // max(n * n, 1))
    srcs, dsts, imgs, dists, vecs = [], [], [], [], []
    for lo in range(0, len(images), chunk):
        block = images[lo : lo + chunk]
        shift_cart = block.astype(np.float64) @ lat  # (m, 3)
        # vec[i, j, m] = r_j + shift_m - r_i
        diff = cart[None, :, None, :] + shift_cart[None, None, :, :] - cart[:, None, None, :]
        d = np.linalg.norm(diff, axis=-1)
        mask = d <= cutoff
        # exclude self-interaction in the home cell
        home = np.all(block == 0, axis=1)
        if home.any():
            m_idx = np.flatnonzero(home)[0]
            mask[np.arange(n), np.arange(n), m_idx] = False
        ii, jj, mm = np.nonzero(mask)
        srcs.append(ii)
        dsts.append(jj)
        imgs.append(block[mm])
        dists.append(d[ii, jj, mm])
        vecs.append(diff[ii, jj, mm])

    if not srcs:
        return _empty_pairs()
    return (
        np.concatenate(srcs).astype(np.int64),
        np.concatenate(dsts).astype(np.int64),
        np.concatenate(imgs),
        np.concatenate(dists),
        np.concatenate(vecs),
    )


def _canonical(pairs: tuple[np.ndarray, ...]) -> NeighborList:
    """Sort pairs into the canonical (src, dst, image) order."""
    src, dst, image, dist, vec = pairs
    order = np.lexsort((image[:, 2], image[:, 1], image[:, 0], dst, src))
    return NeighborList(
        src[order].astype(np.int64),
        dst[order].astype(np.int64),
        image[order],
        dist[order],
        vec[order],
    )


def oracle(crystal: Crystal, cutoff: float) -> NeighborList:
    return _canonical(_dense_search(crystal, cutoff, crystal.lattice.plane_spacings()))


def assert_bitwise(got: NeighborList, want: NeighborList) -> None:
    for field in ("src", "dst", "image", "dist", "vec"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


# Fractional coordinates with atoms on cell faces (0) and mid-cell planes.
_coord = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5]))


@st.composite
def skewed_crystals(draw) -> Crystal:
    """Triclinic cells: diagonals 2-6 A, every off-diagonal within +-2.5 A, 1-16 atoms."""
    matrix = np.diag(draw(st.lists(st.floats(2.0, 6.0), min_size=3, max_size=3)))
    matrix[~np.eye(3, dtype=bool)] = draw(st.lists(st.floats(-2.5, 2.5), min_size=6, max_size=6))
    assume(abs(np.linalg.det(matrix)) > 1.0)
    lattice = Lattice(matrix)
    # A plane spacing under 1.2 A puts thousands of images in an 8 A block.
    assume(lattice.plane_spacings().min() > 1.2)
    n = draw(st.integers(1, 16))
    frac = draw(st.lists(st.tuples(_coord, _coord, _coord), min_size=n, max_size=n))
    return Crystal(lattice, np.full(n, 14), np.array(frac, dtype=np.float64))


_oracle_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
)


class TestFrozenOracle:
    """Every search path, bit for bit against the frozen dense search."""

    @_oracle_settings
    @given(crystal=skewed_crystals(), cutoff=st.floats(2.0, 8.0))
    def test_every_path_matches(self, crystal, cutoff):
        want = oracle(crystal, cutoff)
        for algorithm in ("auto", "dense", "cell"):
            assert_bitwise(neighbor_list(crystal, cutoff, algorithm), want)
        # A few images per block: the multi-chunk path and its lexsort.
        n = crystal.num_atoms
        with mock.patch.object(neighbors, "_MAX_CHUNK_ELEMENTS", 3 * n * n):
            assert_bitwise(neighbor_list(crystal, cutoff, "dense"), want)

    @_oracle_settings
    @given(crystal=skewed_crystals(), cutoff=st.floats(2.0, 8.0), axis=st.integers(0, 2))
    def test_cached_query_after_wrap_across_a_face(self, crystal, cutoff, axis):
        """Atoms on a face step back across it: images shift, no rebuild."""
        frac = crystal.frac_coords.copy()
        frac[0, axis] = 0.0  # at least one atom wraps
        start = Crystal(crystal.lattice, crystal.species, frac)
        cache = NeighborCache(cutoff, skin=1.0)
        assert_bitwise(cache.query(start), oracle(start, cutoff))
        step = -0.3 / float(np.linalg.norm(crystal.lattice.matrix[axis]))  # 0.3 A < skin / 2
        frac[:, axis] += step
        moved = Crystal(crystal.lattice, crystal.species, frac)
        got = cache.query(moved)
        assert cache.num_builds == 1 and cache.num_reuses == 1
        assert_bitwise(got, oracle(moved, cutoff))

    @_oracle_settings
    @given(crystal=skewed_crystals())
    def test_cutoff_exactly_at_a_pair_distance(self, crystal):
        """``d <= cutoff`` decided on ``d**2`` keeps the pairs at equality."""
        dists = np.unique(oracle(crystal, 5.0).dist)
        dists = dists[dists > 0]  # coincident atoms sit at distance 0
        assume(len(dists) > 0)
        for cutoff in dists[:: max(1, len(dists) // 8)]:
            want = oracle(crystal, float(cutoff))
            assert_bitwise(neighbor_list(crystal, float(cutoff), "dense"), want)

    @pytest.mark.parametrize("cutoff", [3.0, 6.0, 7.0])
    def test_multi_chunk_and_cell_on_a_supercell(self, cutoff):
        c = rocksalt(3, 8).supercell((2, 2, 2)).perturbed(np.random.default_rng(3), 0.05)
        want = oracle(c, cutoff)
        assert_bitwise(neighbor_list(c, cutoff, "cell"), want)
        with mock.patch.object(neighbors, "_MAX_CHUNK_ELEMENTS", 5 * c.num_atoms**2):
            assert_bitwise(neighbor_list(c, cutoff, "dense"), want)


class TestAutoCrossover:
    """``auto`` switches to the cell list at exactly ``CELL_LIST_MIN_ATOMS``.

    The constant is a measured crossover (docs/architecture.md, "Neighbor
    search"); this pins the switch and that both sides of it agree bit for
    bit, with no wall-clock assertion.
    """

    @pytest.mark.parametrize(("n", "expected"), [(CELL_LIST_MIN_ATOMS - 1, "dense"), (CELL_LIST_MIN_ATOMS, "cell")])
    def test_switch_and_bitwise_equal(self, n, expected):
        rng = np.random.default_rng(n)
        # ~0.12 atoms per cubic angstrom, as in the calibration cells
        side = max(6.5, (n / 0.12) ** (1.0 / 3.0))
        c = Crystal(Lattice.cubic(side), np.full(n, 14), rng.uniform(size=(n, 3)))
        picked = []
        dense, cell = neighbors._dense_search, neighbors._cell_list_search

        def spy(name, search):
            def run(*args):
                picked.append(name)
                return search(*args)

            return run

        with mock.patch.multiple(neighbors, _dense_search=spy("dense", dense), _cell_list_search=spy("cell", cell)):
            auto = neighbor_list(c, 6.0)
        assert picked == [expected]
        assert_bitwise(neighbor_list(c, 6.0, "dense"), neighbor_list(c, 6.0, "cell"))
        assert_bitwise(auto, oracle(c, 6.0))
