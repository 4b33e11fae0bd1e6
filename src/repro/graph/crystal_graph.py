"""Molecular graph extraction (Section II-B (1) of the paper).

From a periodic crystal two graphs are built:

* the **atom graph** ``G_a`` — directed edges between atoms within the
  6 angstrom cutoff (two-body terms), and
* the **bond graph** ``G_b`` — its nodes are the *short* edges (within the
  3 angstrom bond cutoff); its edges are angles between pairs of short
  bonds sharing a central atom (three-body terms).

Graph topology (index arrays) is precomputed on the CPU once per structure,
exactly as the reference CHGNet does; only the *basis computation* on top of
the geometry is part of the per-iteration Alg. 1 / Alg. 2 story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.segments import offsets, segment_arange
from repro.structures.crystal import Crystal
from repro.structures.neighbors import NeighborList, neighbor_list

#: The atom-graph and bond-graph cutoffs (angstrom), CHGNet's published
#: 6 and 3: every graph the library trains or serves on is built at these,
#: and :class:`~repro.model.config.CHGNetConfig` reads its cutoffs here.
CUTOFF_ATOM = 6.0
CUTOFF_BOND = 3.0


@dataclass
class GraphDiffStats:
    """Counters of the incremental angle-update path of :func:`build_graph`.

    ``angle_reuses`` — builds whose per-atom short-edge counts matched the
    previous graph exactly, so its angle arrays were shared by reference;
    ``angle_diffs`` — builds where only the changed atoms' pair grids were
    reconstructed; ``angle_rebuilds`` — full reconstructions (no usable
    previous graph).  ``angles_copied``/``angles_recomputed`` count the
    angles shifted over from the previous build vs. built from scratch
    during diff passes.
    """

    angle_reuses: int = 0
    angle_diffs: int = 0
    angle_rebuilds: int = 0
    angles_copied: int = 0
    angles_recomputed: int = 0


@dataclass
class CrystalGraph:
    """Graph representation of one crystal.

    Edge arrays describe the atom graph (cutoff ``cutoff_atom``); the short
    subset (``short_idx``) and the angle arrays describe the bond graph.
    ``angle_e1``/``angle_e2`` index into the *short-edge* array; the angle is
    at the shared source atom between short bonds ``e1 = (i -> j)`` and
    ``e2 = (i -> k)`` with ``j != k`` (ordered pairs, matching the directed
    messages of Eq. 5).
    """

    crystal: Crystal
    cutoff_atom: float
    cutoff_bond: float
    # atom graph
    edge_src: np.ndarray  # (nb,) int64
    edge_dst: np.ndarray  # (nb,) int64
    edge_image: np.ndarray  # (nb, 3) int64
    # bond graph
    short_idx: np.ndarray  # (ns,) int64 — positions of short edges in edge arrays
    angle_e1: np.ndarray  # (na,) int64 — into short-edge array
    angle_e2: np.ndarray  # (na,) int64
    angle_center: np.ndarray  # (na,) int64 — central atom index

    @property
    def num_atoms(self) -> int:
        return self.crystal.num_atoms

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @property
    def num_short_edges(self) -> int:
        return int(self.short_idx.shape[0])

    @property
    def num_angles(self) -> int:
        return int(self.angle_e1.shape[0])

    @property
    def feature_number(self) -> int:
        """Workload proxy used by the load-balance sampler (Fig. 9):
        atoms + bonds + angles."""
        return self.num_atoms + self.num_edges + self.num_angles


def _angle_grids(
    atoms: np.ndarray, counts: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered short-edge pair grids for the given atoms' runs.

    Short edges are sorted by src (the neighbor list is lexsorted), so each
    atom's edges form a contiguous run; the pair grids of all requested runs
    are built in one vectorized pass (enumerate each atom's c^2 local (p, q)
    combinations, then drop the p == q diagonal).  ``atoms`` must be
    ascending for the output to be in canonical (atom-major) order.
    """
    c = counts[atoms]
    sq = c * c
    total = int(sq.sum())
    if not total:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    c_rep = np.repeat(c, sq)  # run length c, repeated c^2 times
    base = np.repeat(starts[atoms], sq)  # run start per combination
    local = segment_arange(sq)
    p_local = local // np.maximum(c_rep, 1)
    q_local = local - p_local * c_rep
    off_diag = p_local != q_local
    angle_e1 = (base + p_local)[off_diag]
    angle_e2 = (base + q_local)[off_diag]
    angle_center = np.repeat(atoms, sq)[off_diag]
    return angle_e1, angle_e2, angle_center


def _angle_diff(
    counts: np.ndarray,
    starts: np.ndarray,
    prev_counts: np.ndarray,
    prev: CrystalGraph,
    diff_stats: GraphDiffStats | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angle arrays rebuilt only where per-atom short-edge counts changed.

    The angle arrays are a pure function of the per-atom short-edge count
    vector (each atom contributes its c*(c-1) ordered pair grid over a
    contiguous run), so an atom whose count is unchanged keeps its previous
    block verbatim up to a constant shift of the run start; only changed
    atoms' grids are reconstructed.  The result is bit-identical to the
    full build.
    """
    prev_starts = offsets(prev_counts)
    changed = counts != prev_counts
    ang_new = counts * (counts - 1)
    ang_prev = prev_counts * (prev_counts - 1)
    new_off = offsets(ang_new)
    prev_off = offsets(ang_prev)
    total = int(new_off[-1])
    angle_e1 = np.empty(total, dtype=np.int64)
    angle_e2 = np.empty(total, dtype=np.int64)
    angle_center = np.empty(total, dtype=np.int64)

    keep = np.flatnonzero(~changed & (ang_new > 0))
    if keep.size:
        block = ang_new[keep]
        seg = segment_arange(block)
        src_idx = np.repeat(prev_off[keep], block) + seg
        dst_idx = np.repeat(new_off[keep], block) + seg
        shift = np.repeat(starts[keep] - prev_starts[keep], block)
        angle_e1[dst_idx] = prev.angle_e1[src_idx] + shift
        angle_e2[dst_idx] = prev.angle_e2[src_idx] + shift
        angle_center[dst_idx] = np.repeat(keep, block)
    redo = np.flatnonzero(changed)
    redone = 0
    if redo.size:
        r1, r2, rc = _angle_grids(redo, counts, starts)
        redone = int(r1.shape[0])
        block = ang_new[redo]
        dst_idx = np.repeat(new_off[redo], block) + segment_arange(block)
        angle_e1[dst_idx] = r1
        angle_e2[dst_idx] = r2
        angle_center[dst_idx] = rc
    if diff_stats is not None:
        diff_stats.angle_diffs += 1
        diff_stats.angles_recomputed += redone
        diff_stats.angles_copied += total - redone
    return angle_e1, angle_e2, angle_center


def build_graph(
    crystal: Crystal,
    cutoff_atom: float = CUTOFF_ATOM,
    cutoff_bond: float = CUTOFF_BOND,
    nl: NeighborList | None = None,
    prev: CrystalGraph | None = None,
    diff_stats: GraphDiffStats | None = None,
) -> CrystalGraph:
    """Extract atom graph and bond graph from a crystal.

    ``nl`` supplies a precomputed neighbor list at ``cutoff_atom`` in
    canonical order (e.g. from a :class:`~repro.structures.NeighborCache`
    during MD); when given, the pair search is skipped and only the derived
    short-edge and angle arrays are recomputed.

    ``prev`` supplies the previous build of the *same trajectory* (same
    atom count and cutoffs — anything else falls back to a full build).
    Because the angle arrays depend only on the per-atom short-edge counts,
    a skin-reuse step whose short-edge set barely changed reuses the
    previous angle arrays outright (counts identical — the common MD case)
    or rebuilds only the changed atoms' pair grids, O(changed atoms)
    instead of O(angles); either way the output is bit-identical to a full
    rebuild.  ``diff_stats`` collects reuse/diff/rebuild counters.

    Raises if an atom has no neighbor within ``cutoff_atom`` (an isolated
    atom has no defined message path; the paper's dataset never contains
    one because MPtrj structures are condensed phases), and on a cutoff
    that is not finite — ``nan`` and ``inf`` compare silently wrong against
    precomputed distances.
    """
    if not (math.isfinite(cutoff_atom) and math.isfinite(cutoff_bond)):
        raise ValueError(f"cutoffs must be finite, got atom {cutoff_atom}, bond {cutoff_bond}")
    if cutoff_bond > cutoff_atom:
        raise ValueError(
            f"bond cutoff {cutoff_bond} cannot exceed atom cutoff {cutoff_atom}"
        )
    if nl is None:
        nl = neighbor_list(crystal, cutoff_atom)
    n = crystal.num_atoms
    if np.bincount(nl.src, minlength=n).min() == 0:
        raise ValueError(
            f"crystal {crystal.formula} has an isolated atom at cutoff {cutoff_atom}"
        )

    short_mask = nl.dist <= cutoff_bond
    short_idx = np.flatnonzero(short_mask).astype(np.int64)
    short_src = nl.src[short_idx]

    counts = np.bincount(short_src, minlength=n).astype(np.int64)
    starts = offsets(counts)
    usable_prev = (
        prev is not None
        and prev.num_atoms == n
        and prev.cutoff_bond == cutoff_bond
        and prev.cutoff_atom == cutoff_atom
    )
    if usable_prev:
        prev_counts = np.bincount(
            prev.edge_src[prev.short_idx], minlength=n
        ).astype(np.int64)
        if np.array_equal(counts, prev_counts):
            # Same counts => identical angle arrays; share them by reference
            # (graph arrays are immutable once built).
            if diff_stats is not None:
                diff_stats.angle_reuses += 1
            angle_e1 = prev.angle_e1
            angle_e2 = prev.angle_e2
            angle_center = prev.angle_center
        else:
            angle_e1, angle_e2, angle_center = _angle_diff(
                counts, starts, prev_counts, prev, diff_stats
            )
    else:
        if diff_stats is not None:
            diff_stats.angle_rebuilds += 1
        angle_e1, angle_e2, angle_center = _angle_grids(
            np.arange(n, dtype=np.int64), counts, starts
        )

    return CrystalGraph(
        crystal=crystal,
        cutoff_atom=cutoff_atom,
        cutoff_bond=cutoff_bond,
        edge_src=nl.src,
        edge_dst=nl.dst,
        edge_image=nl.image,
        short_idx=short_idx,
        angle_e1=angle_e1,
        angle_e2=angle_e2,
        angle_center=angle_center,
    )
