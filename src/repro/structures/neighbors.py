"""Periodic neighbor lists: cell-list search, dense fallback, skin cache.

Two interchangeable search algorithms produce identical output:

* **cell list** (``algorithm="cell"``) — atoms are binned into a fractional
  grid (bin width ~``cutoff / 3`` perpendicular distance, see
  :data:`_BIN_REFINE`), so only atoms in nearby bins (and the periodic
  images they imply) are candidate pairs.  Cost is O(N * density) instead
  of O(N^2 * images).
* **dense** (``algorithm="dense"``) — the original vectorized candidate-image
  scan: all (i, j, image) displacement vectors inside the reachable image
  block are evaluated in one NumPy pass (chunked over images to bound
  memory).  Faster for small systems where binning overhead dominates.

``algorithm="auto"`` (the default) picks the cell list when the crystal has
at least :data:`CELL_LIST_MIN_ATOMS` atoms and every cell plane spacing is
at least one cutoff (the regime where binning wins); otherwise it falls back
to the dense path.  Both paths emit pairs in the same canonical order
(lexsorted by src, dst, image) with distances computed by the same
expression, so their outputs are interchangeable bit for bit.

:class:`NeighborCache` adds Verlet skin-list reuse on top: the pair search
runs once at ``cutoff + skin`` and subsequent queries only re-derive
vectors/distances (and re-filter to ``cutoff``) until some atom has moved
more than ``skin / 2`` from its position at build time, which triggers a
rebuild.  Cached queries return exactly what a fresh search would.

A deliberately slow brute-force reference (`neighbor_list_bruteforce`)
backs the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.segments import offsets, segment_arange
from repro.structures.crystal import Crystal


@dataclass
class NeighborList:
    """Directed neighbor pairs within a cutoff.

    For each pair, ``vec[k] = r[dst[k]] + image[k] @ L - r[src[k]]`` points
    from the central atom (src) to the neighbor (dst), and
    ``dist[k] = |vec[k]|``.  Both directions of every pair are present.
    """

    src: np.ndarray  # (n_pairs,) int64
    dst: np.ndarray  # (n_pairs,) int64
    image: np.ndarray  # (n_pairs, 3) int64 — periodic image of dst
    dist: np.ndarray  # (n_pairs,) float64
    vec: np.ndarray  # (n_pairs, 3) float64

    @property
    def num_pairs(self) -> int:
        return int(self.src.shape[0])


_MAX_CHUNK_ELEMENTS = 4_000_000  # bound on n_atoms^2 * images per block

# Below this atom count the dense path's single vectorized pass beats the
# cell list's binning overhead; "auto" dispatch uses it as the crossover.
CELL_LIST_MIN_ATOMS = 48

# Bins per cutoff length along each axis.  Finer bins shrink the candidate
# volume the stencil sweeps (at 1 the 3x3x3 stencil spans 3 cutoffs per
# axis; at 3 the 9x9x9 stencil spans ~2.7 but each bin holds 27x fewer
# atoms) at the cost of more stencil offsets; 3 is the measured sweet spot.
_BIN_REFINE = 3


def _empty_pairs() -> tuple[np.ndarray, ...]:
    return (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 3), dtype=np.int64),
        np.zeros(0),
        np.zeros((0, 3)),
    )


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


def _cell_list_search(
    crystal: Crystal, cutoff: float, spacings: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Linked-cell (binned) pair search (unsorted).

    Atoms are binned on fractional coordinates into a grid of
    ``floor(_BIN_REFINE * spacing / cutoff)`` bins per axis (at least one).
    Two atoms whose *unwrapped* bin indices differ by ``D`` along an axis
    are separated by at least ``(|D| - 1) * bin_width`` there, so the
    search only visits bin offsets within ``floor(cutoff / bin_width) + 1``
    per axis — correct for *any* bin width, including cells smaller than
    the cutoff (the bin count clamps to 1 and the stencil widens to reach
    the needed images).  Offsets that cross the grid boundary wrap
    periodically; the crossing count is exactly the periodic image of the
    candidate pair.
    """
    n = crystal.num_atoms
    frac = crystal.frac_coords  # wrapped into [0, 1) by Crystal
    cart = crystal.cart_coords
    lat = crystal.lattice.matrix

    nbins = np.maximum((_BIN_REFINE * spacings / cutoff).astype(np.int64), 1)  # (3,)
    width = spacings / nbins
    reach = (cutoff / width).astype(np.int64) + 1  # (3,) stencil half-extent

    bins = np.minimum((frac * nbins).astype(np.int64), nbins - 1)  # fp guard
    flat = (bins[:, 0] * nbins[1] + bins[:, 1]) * nbins[2] + bins[:, 2]
    atom_order = np.argsort(flat, kind="stable")
    total_bins = int(nbins.prod())
    counts = np.bincount(flat, minlength=total_bins)
    starts = offsets(counts)

    stencil = (
        np.array(
            np.meshgrid(*[np.arange(-r, r + 1) for r in reach], indexing="ij"),
            dtype=np.int64,
        )
        .reshape(3, -1)
        .T
    )

    # One vectorized pass over every (atom, stencil offset) combination.
    m = stencil.shape[0]
    target = bins[:, None, :] + stencil[None, :, :]  # (n, m, 3) unwrapped bins
    img = target // nbins  # floor division: periodic image crossed
    wrapped = target - img * nbins
    qflat = (
        (wrapped[..., 0] * nbins[1] + wrapped[..., 1]) * nbins[2] + wrapped[..., 2]
    ).ravel()  # (n*m,)
    img = img.reshape(-1, 3)
    cnt = counts[qflat]
    total = int(cnt.sum())
    if total == 0:
        return _empty_pairs()
    ii = np.repeat(np.repeat(np.arange(n, dtype=np.int64), m), cnt)
    # position of each candidate inside its bin's contiguous segment
    pos = segment_arange(cnt)
    jj = atom_order[np.repeat(starts[qflat], cnt) + pos]
    im = np.repeat(img, cnt, axis=0)
    # Same expression (and association) as the dense path, so distances are
    # bitwise identical between algorithms.
    diff = (cart[jj] + im.astype(np.float64) @ lat) - cart[ii]
    d = np.linalg.norm(diff, axis=-1)
    mask = (d <= cutoff) & ~((ii == jj) & np.all(im == 0, axis=1))
    return (ii[mask], jj[mask], im[mask], d[mask], diff[mask])


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


def neighbor_list(crystal: Crystal, cutoff: float, algorithm: str = "auto") -> NeighborList:
    """All directed neighbor pairs of ``crystal`` within ``cutoff`` angstroms.

    ``algorithm`` is one of ``"auto"`` (cell list for large cells, dense
    otherwise), ``"cell"`` or ``"dense"``.  All choices return identical
    :class:`NeighborList` contents in the same canonical order.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if algorithm not in ("auto", "cell", "dense"):
        raise ValueError(f"unknown neighbor-list algorithm {algorithm!r}")
    spacings = crystal.lattice.plane_spacings()
    if algorithm == "auto":
        big_cell = crystal.num_atoms >= CELL_LIST_MIN_ATOMS and bool(np.all(spacings >= cutoff))
        algorithm = "cell" if big_cell else "dense"
    search = _cell_list_search if algorithm == "cell" else _dense_search
    return _canonical(search(crystal, cutoff, spacings))


class NeighborCache:
    """Verlet skin-list cache: amortizes the pair search across MD steps.

    The pair search runs at ``cutoff + skin`` and its (src, dst, image)
    triples are kept.  :meth:`query` re-derives vectors and distances from
    the *current* positions and filters back down to ``cutoff`` — exact, because
    no pair can enter the cutoff sphere before some atom has moved more than
    ``skin / 2``, and that displacement (measured against the build-time
    positions, minimum-image) triggers a full rebuild.  Atoms that wrap
    across a cell face between build and query are handled by shifting the
    cached images with the per-atom integer wrap counts, so cached queries
    match a fresh :func:`neighbor_list` bit for bit, canonical order
    included.  A change of lattice, species, or atom count also rebuilds.

    ``skin`` is in angstroms; larger skins rebuild less often but carry more
    cached pairs per query.  ``skin=0`` degenerates to rebuilding every
    query.
    """

    def __init__(self, cutoff: float, skin: float = 1.0, algorithm: str = "auto") -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ValueError(f"skin must be non-negative, got {skin}")
        self.cutoff = cutoff
        self.skin = skin
        self.algorithm = algorithm
        self.num_builds = 0
        self.num_reuses = 0
        self._full: NeighborList | None = None
        self._ref_frac: np.ndarray | None = None
        self._ref_lattice: np.ndarray | None = None
        self._ref_species: np.ndarray | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from the cached search."""
        total = self.num_builds + self.num_reuses
        return self.num_reuses / total if total else 0.0

    def invalidate(self) -> None:
        """Drop the cached search so the next query rebuilds (counters kept)."""
        self._full = None
        self._ref_frac = None
        self._ref_lattice = None
        self._ref_species = None

    def _needs_rebuild(self, crystal: Crystal) -> bool:
        if self._full is None or self.skin == 0.0:
            return True
        if crystal.num_atoms != self._ref_frac.shape[0]:
            return True
        if not np.array_equal(crystal.species, self._ref_species):
            return True
        if not np.array_equal(crystal.lattice.matrix, self._ref_lattice):
            return True
        delta = crystal.frac_coords - self._ref_frac
        disp = (delta - np.rint(delta)) @ crystal.lattice.matrix  # minimum image
        return float((disp * disp).sum(axis=1).max()) > (0.5 * self.skin) ** 2

    def _rebuild(self, crystal: Crystal) -> None:
        self._full = neighbor_list(crystal, self.cutoff + self.skin, self.algorithm)
        self._ref_frac = crystal.frac_coords.copy()
        self._ref_lattice = crystal.lattice.matrix.copy()
        self._ref_species = crystal.species.copy()
        self.num_builds += 1

    def query(self, crystal: Crystal) -> NeighborList:
        """Neighbor list of ``crystal`` at ``cutoff`` (search reused if valid)."""
        full: NeighborList
        if self._needs_rebuild(crystal):
            self._rebuild(crystal)
            # Freshly built at these exact positions: the cached vectors and
            # distances are already current, just filter down to the cutoff.
            full = self._full
            keep = full.dist <= self.cutoff
            return NeighborList(
                full.src[keep],
                full.dst[keep],
                full.image[keep],
                full.dist[keep],
                full.vec[keep],
            )
        self.num_reuses += 1
        full = self._full
        cart = crystal.cart_coords
        lat = crystal.lattice.matrix

        # Per-atom integer wrap counts since build: Crystal stores frac % 1,
        # so an atom crossing a face jumps by a lattice vector; the cached
        # image of each of its pairs shifts by the same integer.
        delta = crystal.frac_coords - self._ref_frac
        wrap = np.rint(delta).astype(np.int64)  # w_atom = -wrap
        image = full.image + wrap[full.src] - wrap[full.dst]

        vec = (cart[full.dst] + image.astype(np.float64) @ lat) - cart[full.src]
        dist = np.linalg.norm(vec, axis=-1)
        keep = dist <= self.cutoff
        src, dst = full.src[keep], full.dst[keep]
        image, dist, vec = image[keep], dist[keep], vec[keep]
        if wrap.any():
            # image shifts can perturb the canonical order within a
            # (src, dst) group; restore it
            order = np.lexsort((image[:, 2], image[:, 1], image[:, 0], dst, src))
            src, dst, image = src[order], dst[order], image[order]
            dist, vec = dist[order], vec[order]
        return NeighborList(src, dst, image, dist, vec)


def neighbor_list_bruteforce(crystal: Crystal, cutoff: float, extra_images: int = 1) -> NeighborList:
    """Triple-loop reference implementation (tests only).

    Scans ``ceil(cutoff/spacing) + extra_images`` images per axis to make the
    search region strictly larger than the fast path's.
    """
    n = crystal.num_atoms
    cart = crystal.cart_coords
    lat = crystal.lattice.matrix
    spacings = crystal.lattice.plane_spacings()
    reps = np.ceil(cutoff / spacings).astype(int) + extra_images

    rows = []
    for i in range(n):
        for j in range(n):
            for a in range(-reps[0], reps[0] + 1):
                for b in range(-reps[1], reps[1] + 1):
                    for c in range(-reps[2], reps[2] + 1):
                        if i == j and a == b == c == 0:
                            continue
                        vec = cart[j] + np.array([a, b, c], dtype=np.float64) @ lat - cart[i]
                        d = float(np.linalg.norm(vec))
                        if d <= cutoff:
                            rows.append((i, j, a, b, c, d, vec))
    if not rows:
        return NeighborList(*_empty_pairs())
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3], r[4]))
    src = np.array([r[0] for r in rows], dtype=np.int64)
    dst = np.array([r[1] for r in rows], dtype=np.int64)
    image = np.array([[r[2], r[3], r[4]] for r in rows], dtype=np.int64)
    dist = np.array([r[5] for r in rows])
    vec = np.array([r[6] for r in rows])
    return NeighborList(src, dst, image, dist, vec)
