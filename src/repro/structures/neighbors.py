"""Periodic neighbor lists: cell-list search, dense fallback, skin cache.

Two interchangeable search algorithms produce identical output:

* **cell list** (``algorithm="cell"``) — atoms are binned into a fractional
  grid (bin width ~``cutoff / 3`` perpendicular distance, see
  :data:`_BIN_REFINE`), so only atoms in nearby bins (and the periodic
  images they imply) are candidate pairs.  Cost is O(N * density) instead
  of O(N^2 * images).
* **dense** (``algorithm="dense"``) — the vectorized candidate-image scan:
  all (i, j, image) displacement vectors for the image shifts that can
  reach the cutoff are evaluated in one component-major NumPy pass
  (chunked over images to bound memory).  Faster for small systems where
  binning overhead dominates.

``algorithm="auto"`` (the default) picks the cell list when the crystal has
at least :data:`CELL_LIST_MIN_ATOMS` atoms and every cell plane spacing is
at least one cutoff (the regime where binning wins); otherwise it falls back
to the dense path.  Both paths emit pairs in the same canonical order
(sorted by src, dst, image) with distances computed by the same expression
(:func:`_pair_dist`), so their outputs are interchangeable bit for bit.  The
dense path's order comes by construction — a flat scan of the ``(i, j,
image)`` grid with images in lexicographic order *is* the canonical order —
so the lexsort runs only where chunks (several dense blocks), bins (the
cell list) or an atom wrapped since a cached search break it.

:class:`NeighborCache` adds Verlet skin-list reuse on top: the pair search
runs once at ``cutoff + skin`` and subsequent queries only re-derive
vectors/distances (and re-filter to ``cutoff``) until some atom has moved
more than ``skin / 2`` from its position at build time, which triggers a
rebuild.  Cached queries return exactly what a fresh search would.
"""

from __future__ import annotations

import functools
import math
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
# Measured at 6 A on rocksalt and skewed supercells (docs/architecture.md,
# "Neighbor search"): the dense / cell time ratio crosses 1 between 192
# (geometric mean 0.97) and 216 atoms (1.35).
CELL_LIST_MIN_ATOMS = 200

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


def _check_length(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise unless ``value`` is a finite positive (or, if allowed, zero) length."""
    if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


def _pair_dist(vec: np.ndarray) -> np.ndarray:
    """Row norms of ``(k, 3)`` vectors as ``sqrt((x*x + y*y) + z*z)``.

    The bits of ``np.linalg.norm(vec, axis=-1)``, whose sum of squares runs
    left to right over the length-3 axis, without its short-axis reduction.
    Every search path and :meth:`NeighborCache.query` use this expression.
    """
    sq = vec * vec
    d2 = sq[:, 0] + sq[:, 1]
    d2 += sq[:, 2]
    return np.sqrt(d2, out=d2)


def _dist2_bound(cutoff: float) -> float:
    """The largest double ``t`` with ``sqrt(t) <= cutoff``.

    The square root rounds correctly, hence monotonically, so for every
    double ``d2``: ``sqrt(d2) <= cutoff`` exactly when ``d2 <= t``.
    """
    t = cutoff * cutoff
    while math.sqrt(t) > cutoff:
        t = math.nextafter(t, 0.0)
    while math.sqrt(math.nextafter(t, math.inf)) <= cutoff:
        t = math.nextafter(t, math.inf)
    return t


@functools.lru_cache(maxsize=64)
def _image_block(reps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Image shifts ``[-r, r]`` per axis in lexicographic order (read-only).

    ``(m, 3)`` int64 and its float64 copy, both laid out as the transpose
    of a ``(3, m)`` array; the float copy is the operand of the shift
    product, so every search of one block hands BLAS the same layout.
    """
    ranges = [np.arange(-r, r + 1) for r in reps]
    images = np.array(np.meshgrid(*ranges, indexing="ij"), dtype=np.int64).reshape(3, -1).T
    as_float = images.astype(np.float64)
    images.flags.writeable = False
    as_float.flags.writeable = False
    return images, as_float


def _dense_search(crystal: Crystal, cutoff: float, spacings: np.ndarray) -> NeighborList:
    """All-pairs scan over the image shifts that can reach the cutoff.

    The block ``[-ceil(cutoff / spacing), +ceil(cutoff / spacing)]`` per
    axis is pruned to the shifts ``s`` with ``|s| <= cutoff + max|r_j -
    r_i|`` (no pair through any other shift is in range).  Displacements
    ``(r_j + s) - r_i`` are built component-major, ``(3, n, n, m)``, so
    every NumPy pass runs over the long axes.  Pairs are selected on the
    squared distance against :func:`_dist2_bound` — the exact ``d <=
    cutoff`` test — and only they take a square root.  A flat
    ``np.flatnonzero`` walks ``(i, j, image)`` in the canonical order, so a
    single block comes out sorted; only a search split over several blocks
    (see :data:`_MAX_CHUNK_ELEMENTS`) is lexsorted.  ``spacings`` are the
    cell's plane spacings, evaluated once by :func:`neighbor_list`.
    """
    n = crystal.num_atoms
    cart = crystal.cart_coords
    reps = tuple(math.ceil(cutoff / s) for s in spacings.tolist())
    all_images, as_float = _image_block(reps)
    # One product over the whole block, so a shift's bits do not depend on
    # which shifts survive the pruning.
    shifts = as_float @ crystal.lattice.matrix
    pos = np.ascontiguousarray(cart.T)  # (3, n)
    rel = pos[:, None, :] - pos[:, :, None]
    span = math.sqrt(float((rel * rel).sum(axis=0).max(initial=0.0)))
    # Slack far above the rounding of either side of the bound.
    reach = (cutoff + span) * (1.0 + 1e-9) + 1e-9 * float(np.abs(pos).max(initial=0.0))
    keep = _pair_dist(shifts) <= reach
    images, shifts = all_images[keep], shifts[keep]
    home = int(np.count_nonzero(keep[: len(keep) // 2]))  # (0, 0, 0) is the centre
    bound = _dist2_bound(cutoff)

    chunk = max(1, _MAX_CHUNK_ELEMENTS // max(n * n, 1))
    blocks = []
    for lo in range(0, len(images), chunk):
        block = images[lo : lo + chunk]
        m = len(block)
        # diff[:, i, j, k] = (r_j + s_k) - r_i: the association of the cell
        # list and NeighborCache.query, so every path carries the same bits.
        reached = pos[:, :, None] + shifts[lo : lo + chunk].T[:, None, :]  # (3, n, m)
        diff = reached[:, None, :, :] - pos[:, :, None, None]
        sq = diff * diff
        d2 = sq[0] + sq[1]
        d2 += sq[2]
        if lo <= home < lo + m:
            # No self pair in the home cell: flat (i, i, home) steps by (n + 1) m.
            d2.reshape(-1)[home - lo :: (n + 1) * m] = np.inf
        flat = np.flatnonzero(d2 <= bound)
        ii, jj, kk = np.unravel_index(flat, d2.shape)
        dist = np.sqrt(d2.take(flat))
        vec = np.ascontiguousarray(diff.reshape(3, -1).take(flat, axis=1).T)
        blocks.append((ii, jj, block.take(kk, axis=0), dist, vec))

    if len(blocks) == 1:
        return NeighborList(*blocks[0])
    return _canonical(tuple(np.concatenate(parts) for parts in zip(*blocks)))


def _cell_list_search(crystal: Crystal, cutoff: float, spacings: np.ndarray) -> NeighborList:
    """Linked-cell (binned) pair search, lexsorted into canonical order.

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
        return NeighborList(*_empty_pairs())
    ii = np.repeat(np.repeat(np.arange(n, dtype=np.int64), m), cnt)
    # position of each candidate inside its bin's contiguous segment
    pos = segment_arange(cnt)
    jj = atom_order[np.repeat(starts[qflat], cnt) + pos]
    im = np.repeat(img, cnt, axis=0)
    # Same expression (and association) as the dense path, so distances are
    # bitwise identical between algorithms.
    diff = (cart[jj] + im.astype(np.float64) @ lat) - cart[ii]
    d = _pair_dist(diff)
    mask = (d <= cutoff) & ~((ii == jj) & np.all(im == 0, axis=1))
    return _canonical((ii[mask], jj[mask], im[mask], d[mask], diff[mask]))


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
    _check_length("cutoff", cutoff)
    if algorithm not in ("auto", "cell", "dense"):
        raise ValueError(f"unknown neighbor-list algorithm {algorithm!r}")
    spacings = crystal.lattice.plane_spacings()
    if algorithm == "auto":
        big_cell = crystal.num_atoms >= CELL_LIST_MIN_ATOMS and bool(np.all(spacings >= cutoff))
        algorithm = "cell" if big_cell else "dense"
    search = _cell_list_search if algorithm == "cell" else _dense_search
    return search(crystal, cutoff, spacings)


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
    query.  Each build searches with :func:`neighbor_list`'s ``"auto"``
    choice of algorithm.
    """

    def __init__(self, cutoff: float, skin: float = 1.0) -> None:
        _check_length("cutoff", cutoff)
        _check_length("skin", skin, allow_zero=True)
        self.cutoff = cutoff
        self.skin = skin
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
        self._full = neighbor_list(crystal, self.cutoff + self.skin)
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
        dist = _pair_dist(vec)
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
