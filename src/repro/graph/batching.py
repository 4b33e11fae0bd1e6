"""Batching of crystal graphs: concatenation with index offsets.

A :class:`GraphBatch` holds the concatenated atoms/edges/angles of many
samples plus per-sample offset tables — everything both basis algorithms
need: Algorithm 1 slices per-sample ranges and processes them serially,
Algorithm 2 consumes the concatenated arrays in one pass.

:func:`collate` assembles batches zero-copy style: every output array is
allocated once at its final size (known from the offset tables) and filled
in a single pass over the graphs, with index offsets applied directly into
the destination slice (``np.add(..., out=...)``) — no per-graph temporary
copies, no repeated ``np.concatenate``.

Two services back the compile-once training step
(:mod:`repro.tensor.compile`):

* **Auxiliary arrays** — every batch-derived array the model consumes
  (float-cast images, per-sample index slices, pad masks, ...) is produced
  by :meth:`GraphBatch.aux` and cached on the batch.  A captured tape can
  therefore name each such array and rebind it on a *different* batch at
  replay time; :meth:`GraphBatch.find_array` is the reverse lookup the
  tracer uses.
* **Shape bucketing** — :func:`pad_batch` appends one ghost structure
  that pads the atom/edge/angle counts up to canonical bucket sizes
  (:func:`bucket_size`), so batches of similar size share one compiled
  program.  ``pad_info`` records the real counts; the ghost rows sit at
  the array tails, carry finite well-conditioned geometry (no zero-length
  bonds, no degenerate angles), and are masked out of losses and metrics.

The padding math lives here too, in two forms (docs/architecture.md,
"Padding: tiers for streams, plans for fixed blocks").  For streams nobody
sees in advance, **workload tiers** (:class:`TierShapes`): batches whose
workload proxy falls in the same geometric tier share one canonical,
bucket-rounded shape that grows as batches arrive; the serving engine
and the MD calculator each pad through their own before a compiler
(:mod:`repro.tensor.compile`) runs the batch, and the engine prices merges
through it.  For batches known up front, a **plan**
(:func:`plan_shapes`): the block samplers
(:class:`repro.data.samplers.BucketBatchSampler`) cut their fixed shards
into at most :data:`MAX_PROGRAMS` groups and pad each to the exact maximum
of its members.

:func:`pad_batch` results are **cached on the source batch** keyed by the
target shape (small LRU): a memoized loader that yields the same batch
object every epoch then re-pads for free, and the compiled step binds and
replays without re-concatenating anything.  Batches are treated as
read-only once assembled (already required by collate memoization); the
cache key includes label presence, so padding before labels are attached
never serves a stale labelless result afterwards.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.graph.crystal_graph import CrystalGraph
from repro.segments import offsets as _offsets
from repro.tensor.ops_shape import segment_plan


@dataclass
class Labels:
    """Per-structure training targets (the four CHGNet properties)."""

    energy_per_atom: float
    forces: np.ndarray  # (n_atoms, 3)
    stress: np.ndarray  # (3, 3)
    magmom: np.ndarray  # (n_atoms,)

    def validate(self, n_atoms: int) -> None:
        if self.forces.shape != (n_atoms, 3):
            raise ValueError(f"forces shape {self.forces.shape} != ({n_atoms}, 3)")
        if self.stress.shape != (3, 3):
            raise ValueError(f"stress shape {self.stress.shape} != (3, 3)")
        if self.magmom.shape != (n_atoms,):
            raise ValueError(f"magmom shape {self.magmom.shape} != ({n_atoms},)")


@dataclass(frozen=True)
class PadInfo:
    """Real (pre-padding) counts of a padded batch; see :func:`pad_batch`."""

    num_structs: int
    num_atoms: int
    num_edges: int
    num_short_edges: int
    num_angles: int


@dataclass
class GraphBatch:
    """Concatenated graphs of ``num_structs`` samples.

    Atom/edge/angle index arrays are globalized (offsets applied); the
    ``*_offsets`` tables allow recovering per-sample slices (Algorithm 1 and
    per-sample energy/stress reduction).
    """

    num_structs: int
    # atoms
    species: np.ndarray  # (n,) int64
    frac: np.ndarray  # (n, 3)
    atom_sample: np.ndarray  # (n,) int64
    lattices: np.ndarray  # (s, 3, 3)
    # atom graph
    edge_src: np.ndarray  # (nb,) global atom indices
    edge_dst: np.ndarray
    edge_image: np.ndarray  # (nb, 3)
    edge_sample: np.ndarray  # (nb,)
    # bond graph
    short_idx: np.ndarray  # (ns,) global edge positions
    angle_e1: np.ndarray  # (na,) into short-edge array (global)
    angle_e2: np.ndarray
    angle_center: np.ndarray  # (na,) global atom indices
    angle_sample: np.ndarray  # (na,)
    # offsets (s+1,)
    atom_offsets: np.ndarray
    edge_offsets: np.ndarray
    short_offsets: np.ndarray
    angle_offsets: np.ndarray
    # labels (None for pure-inference batches)
    energy_per_atom: np.ndarray | None = None  # (s,)
    forces: np.ndarray | None = None  # (n, 3)
    stress: np.ndarray | None = None  # (s, 3, 3)
    magmom: np.ndarray | None = None  # (n,)
    # real counts when this batch was padded to a bucket (else None)
    pad_info: PadInfo | None = None
    # cache of derived (auxiliary) arrays, keyed by aux key tuples
    _aux: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # LRU cache of padded variants of this batch, keyed by (targets, labels?)
    _pad_cache: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    @property
    def num_atoms(self) -> int:
        return int(self.species.shape[0])

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
        """Total workload proxy: atoms + bonds + angles (Fig. 9 y-axis)."""
        return self.num_atoms + self.num_edges + self.num_angles

    @property
    def atoms_per_sample(self) -> np.ndarray:
        return np.diff(self.atom_offsets)

    # ------------------------------------------------------- auxiliary arrays
    def aux(self, key: tuple) -> np.ndarray:
        """Derived array for ``key`` (``(kind, *args)``), cached on the batch.

        All batch-derived arrays the model feeds into tensor ops come from
        here, so the tape compiler can name them (:meth:`find_array`) and
        recompute them for a different batch on replay.
        """
        arr = self._aux.get(key)
        if arr is None:
            builder = _AUX_BUILDERS.get(key[0])
            if builder is None:
                raise KeyError(f"unknown aux array kind {key[0]!r}")
            arr = builder(self, *key[1:])
            self._aux[key] = arr
        return arr

    def find_array(self, target_id: int) -> tuple | None:
        """Reverse lookup: the spec of the field/aux array with ``id(...) == target_id``.

        Returns ``("field", name)`` or ``("aux", key)``; ``None`` when the
        array is not owned by this batch.  Used by the tape tracer to bind
        batch data symbolically (capture-time only, so a linear scan is fine).
        """
        for name in _ARRAY_FIELDS:
            arr = getattr(self, name)
            if arr is not None and id(arr) == target_id:
                return ("field", name)
        for key, arr in self._aux.items():
            if id(arr) == target_id:
                return ("aux", key)
        return None

    def bound_array(self, spec: tuple) -> np.ndarray:
        """Resolve a spec produced by :meth:`find_array` on *this* batch."""
        if spec[0] == "field":
            arr = getattr(self, spec[1])
            if arr is None:
                raise KeyError(f"batch has no {spec[1]!r} array")
            return arr
        return self.aux(spec[1])


_ARRAY_FIELDS = (
    "species",
    "frac",
    "atom_sample",
    "lattices",
    "edge_src",
    "edge_dst",
    "edge_image",
    "edge_sample",
    "short_idx",
    "angle_e1",
    "angle_e2",
    "angle_center",
    "angle_sample",
    "atom_offsets",
    "edge_offsets",
    "short_offsets",
    "angle_offsets",
    "energy_per_atom",
    "forces",
    "stress",
    "magmom",
)


def _require_pad(batch: GraphBatch) -> PadInfo:
    if batch.pad_info is None:
        raise ValueError("pad masks/counts are only defined for padded batches")
    return batch.pad_info


def _pad_mask(batch: GraphBatch, which: str) -> np.ndarray:
    pi = _require_pad(batch)
    if which == "struct":
        mask = np.zeros(batch.num_structs)
        mask[: pi.num_structs] = 1.0
        return mask
    if which == "atom":
        mask = np.zeros(batch.num_atoms)
        mask[: pi.num_atoms] = 1.0
        return mask
    if which == "atom_col":
        return _pad_mask(batch, "atom").reshape(-1, 1)
    if which == "stress":
        return _pad_mask(batch, "struct").reshape(-1, 1, 1)
    raise KeyError(f"unknown pad mask {which!r}")


def _pad_count(batch: GraphBatch, which: str) -> np.ndarray:
    pi = _require_pad(batch)
    counts = {
        "energy": pi.num_structs,
        "forces": 3 * pi.num_atoms,
        "stress": 9 * pi.num_structs,
        "magmom": pi.num_atoms,
    }
    # Must be a true 0-d ndarray: Tensor() wraps ndarrays without copying,
    # so the aux cache's object identity survives into the tape and the
    # compiled step rebinds the count per batch (a numpy *scalar* would be
    # re-wrapped into a fresh array and frozen as a capture-time constant).
    return np.array(float(counts[which]))


def _segment_plan(batch: GraphBatch, field: str) -> np.ndarray:
    # Boxed in a 0-d object array for the same reason _pad_count returns a
    # 0-d array: the tape rebinds ndarray kwargs by identity, and the box's
    # shape/dtype are the same on every batch (a plan's lengths are not).
    box = np.empty((), dtype=object)
    box[()] = segment_plan(getattr(batch, field))
    return box


def _sample_range(batch: GraphBatch, table: np.ndarray, s: int) -> tuple[int, int]:
    return int(table[s]), int(table[s + 1])


_AUX_BUILDERS: dict[str, Callable] = {
    # batched-basis (Algorithm 2) operands
    "frac_col": lambda b: b.frac.reshape(-1, 3, 1),
    "img_col": lambda b: b.edge_image.astype(np.float64).reshape(-1, 3, 1),
    "atom_counts": lambda b: b.atoms_per_sample.astype(np.float64),
    "volumes": lambda b: np.abs(np.linalg.det(b.lattices)),
    "volumes_col": lambda b: b.aux(("volumes",)).reshape(-1, 1, 1),
    # per-sample (Algorithm 1) operands
    "frac_s": lambda b, s: b.frac[slice(*_sample_range(b, b.atom_offsets, s))],
    "lat_s": lambda b, s: b.lattices[s],
    "img_s": lambda b, s: b.edge_image[
        slice(*_sample_range(b, b.edge_offsets, s))
    ].astype(np.float64),
    "src_local": lambda b, s: b.edge_src[slice(*_sample_range(b, b.edge_offsets, s))]
    - b.atom_offsets[s],
    "dst_local": lambda b, s: b.edge_dst[slice(*_sample_range(b, b.edge_offsets, s))]
    - b.atom_offsets[s],
    "short_local": lambda b, s: b.short_idx[slice(*_sample_range(b, b.short_offsets, s))]
    - b.edge_offsets[s],
    "ae1": lambda b, s: b.angle_e1[slice(*_sample_range(b, b.angle_offsets, s))]
    - b.short_offsets[s],
    "ae2": lambda b, s: b.angle_e2[slice(*_sample_range(b, b.angle_offsets, s))]
    - b.short_offsets[s],
    # sort-once plan of an index field, for every segment_sum by that field
    "segment_plan": _segment_plan,
    # padding masks and real-element counts (masked losses)
    "pad_mask": _pad_mask,
    "pad_count": _pad_count,
    # padded label views (the real prefix, for metrics)
    "energy_real": lambda b: b.energy_per_atom[: _require_pad(b).num_structs],
    "forces_real": lambda b: b.forces[: _require_pad(b).num_atoms],
    "stress_real": lambda b: b.stress[: _require_pad(b).num_structs],
    "magmom_real": lambda b: b.magmom[: _require_pad(b).num_atoms],
}


def register_aux(kind: str, builder: Callable) -> None:
    """Register an auxiliary-array builder (``builder(batch, *args)``).

    Lets model modules contribute derived arrays (e.g. the stress head's
    lattice dyad) without batching importing model code.
    """
    _AUX_BUILDERS[kind] = builder


def collate(graphs: list[CrystalGraph], labels: list[Labels] | None = None) -> GraphBatch:
    """Assemble graphs (and labels) into one batch in a single fill pass."""
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    if labels is not None and len(labels) != len(graphs):
        raise ValueError(f"{len(labels)} labels for {len(graphs)} graphs")

    s = len(graphs)
    n_atoms = np.array([g.num_atoms for g in graphs], dtype=np.int64)
    n_edges = np.array([g.num_edges for g in graphs], dtype=np.int64)
    n_short = np.array([g.num_short_edges for g in graphs], dtype=np.int64)
    n_angles = np.array([g.num_angles for g in graphs], dtype=np.int64)

    atom_off = _offsets(n_atoms)
    edge_off = _offsets(n_edges)
    short_off = _offsets(n_short)
    angle_off = _offsets(n_angles)
    total_atoms = int(atom_off[-1])
    total_edges = int(edge_off[-1])
    total_short = int(short_off[-1])
    total_angles = int(angle_off[-1])

    species = np.empty(total_atoms, dtype=np.int64)
    frac = np.empty((total_atoms, 3))
    lattices = np.empty((s, 3, 3))
    edge_src = np.empty(total_edges, dtype=np.int64)
    edge_dst = np.empty(total_edges, dtype=np.int64)
    edge_image = np.empty((total_edges, 3), dtype=np.int64)
    short_idx = np.empty(total_short, dtype=np.int64)
    angle_e1 = np.empty(total_angles, dtype=np.int64)
    angle_e2 = np.empty(total_angles, dtype=np.int64)
    angle_center = np.empty(total_angles, dtype=np.int64)

    with_labels = labels is not None
    if with_labels:
        energy_per_atom = np.empty(s)
        forces = np.empty((total_atoms, 3))
        stress = np.empty((s, 3, 3))
        magmom = np.empty(total_atoms)

    for i, g in enumerate(graphs):
        a0, a1 = atom_off[i], atom_off[i + 1]
        e0, e1 = edge_off[i], edge_off[i + 1]
        b0, b1 = short_off[i], short_off[i + 1]
        g0, g1 = angle_off[i], angle_off[i + 1]
        species[a0:a1] = g.crystal.species
        frac[a0:a1] = g.crystal.frac_coords
        lattices[i] = g.crystal.lattice.matrix
        np.add(g.edge_src, a0, out=edge_src[e0:e1])
        np.add(g.edge_dst, a0, out=edge_dst[e0:e1])
        edge_image[e0:e1] = g.edge_image
        np.add(g.short_idx, e0, out=short_idx[b0:b1])
        np.add(g.angle_e1, b0, out=angle_e1[g0:g1])
        np.add(g.angle_e2, b0, out=angle_e2[g0:g1])
        np.add(g.angle_center, a0, out=angle_center[g0:g1])
        if with_labels:
            lab = labels[i]
            lab.validate(g.num_atoms)
            energy_per_atom[i] = lab.energy_per_atom
            forces[a0:a1] = lab.forces
            stress[i] = lab.stress
            magmom[a0:a1] = lab.magmom

    sample_ids = np.arange(s, dtype=np.int64)
    batch = GraphBatch(
        num_structs=s,
        species=species,
        frac=frac,
        atom_sample=np.repeat(sample_ids, n_atoms),
        lattices=lattices,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_image=edge_image,
        edge_sample=np.repeat(sample_ids, n_edges),
        short_idx=short_idx,
        angle_e1=angle_e1,
        angle_e2=angle_e2,
        angle_center=angle_center,
        angle_sample=np.repeat(sample_ids, n_angles),
        atom_offsets=atom_off,
        edge_offsets=edge_off,
        short_offsets=short_off,
        angle_offsets=angle_off,
    )
    if with_labels:
        batch.energy_per_atom = energy_per_atom
        batch.forces = forces
        batch.stress = stress
        batch.magmom = magmom
    return batch


# ------------------------------------------------------------ shape buckets
# Ghost geometry: one extra structure in a 2.5 A cubic cell whose bonds are
# unit-cell image vectors — bond length 2.5 A (inside both cutoffs, far from
# r = 0) and perpendicular angle pairs (cos theta = 0, far from the arccos
# clip boundaries), so every padded quantity is finite and well-conditioned.
_GHOST_CELL = 2.5
_GHOST_SPECIES = 1  # hydrogen: always a valid embedding row


def bucket_size(n: int) -> int:
    """Round ``n`` up to its bucket boundary (geometric steps, <=25% slack)."""
    if n <= 0:
        return 0
    if n <= 8:
        return 8
    step = 1 << max(2, n.bit_length() - 3)
    return ((n + step - 1) // step) * step


def feasible_targets_for_counts(
    counts: tuple[int, int, int, int], targets: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """Bump raw padding targets so :func:`pad_batch` can satisfy them.

    ``counts`` are the batch's real (atoms, edges, short, angles).  Ghost
    consistency: padding needs at least one ghost atom, angle padding needs
    two distinct-direction ghost short edges (and edges), short-edge padding
    needs ghost edges.
    """
    n, e, ns, na = counts
    ta, te, ts, tg = targets
    ta = max(ta, n + 1)
    if tg > na:
        ts = max(ts, ns + 2)
    if ts > ns:
        te = max(te, e + 2)
    return ta, te, ts, tg


# Geometric growth factor between workload tiers: batches whose workload
# proxy (atoms + edges + short + 2*angles — angle kernels are the widest)
# falls in the same tier are padded to one shared canonical shape.
TIER_GROWTH = 1.4


def workload_cost(atoms: int, edges: int, short: int, angles: int) -> int:
    """The padding/compile workload proxy of a batch's raw counts."""
    return atoms + edges + short + 2 * angles


def workload_tier(counts: tuple[int, int, int, int]) -> int:
    """Geometric tier index of a batch's (atoms, edges, short, angles)."""
    return int(math.log(max(workload_cost(*counts), 2)) / math.log(TIER_GROWTH))


def _feasible_fixpoint(
    members: Sequence[tuple[int, int, int, int]], targets: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """Smallest shape >= ``targets`` that :func:`pad_batch` accepts for every member."""
    while True:
        merged = targets
        for m in members:
            merged = tuple(
                max(a, b) for a, b in zip(merged, feasible_targets_for_counts(m, merged))
            )
        if merged == targets:
            return targets
        targets = merged


def _tier_key(num_structs: int, labeled: bool, counts: tuple[int, int, int, int]) -> tuple:
    return (num_structs + 1, labeled, workload_tier(counts))


class TierShapes:
    """The tier-padding policy: the one owner of every streamed batch's shape.

    Batches of ``num_structs`` structures, with or without labels, whose
    workload proxy falls in one geometric tier (:func:`workload_tier`) are
    padded to that tier's canonical shape: the running elementwise maximum
    of its members' bucketed counts, made ghost-feasible.  The callers that
    stream batches to a compiler own one each and pad through :meth:`pad`
    before the run: the serving engine (``InferenceEngine.tiers``, shared
    by all its workers, so a tier has one shape and one program) and the
    compiled MD calculator.  The engine also prices a group by
    :meth:`target` — the shape :meth:`pad` would give it now — and pre-sizes
    tiers with :meth:`seed`.  A compiler knows nothing of tiers: it replays
    the batch it is given.

    Serial-basis programs hard-code per-sample offsets, so no two batches
    share one: ``tiered=False`` pads to the bucketed counts alone and
    neither reads nor writes the table.
    """

    def __init__(self) -> None:
        # _tier_key(...) -> the tier's (atoms, edges, short, angles)
        self._shapes: dict[tuple, tuple[int, int, int, int]] = {}

    def target(
        self, num_structs: int, labeled: bool, counts: tuple[int, int, int, int]
    ) -> tuple[int, int, int, int]:
        """The (atoms, edges, short, angles) :meth:`pad` gives a batch with
        these real counts now; ``counts`` itself when every count sits on
        its bucket boundary.  Reads the table, never writes it."""
        if num_structs < 1:
            raise ValueError(f"a batch holds at least one structure, got {num_structs}")
        return self._target(counts, _tier_key(num_structs, labeled, counts))

    def _target(self, counts: tuple, key: tuple | None) -> tuple[int, int, int, int]:
        bucketed = tuple(map(bucket_size, counts))
        if bucketed == counts:
            return counts  # served unpadded, whatever the tier holds
        stored = self._shapes.get(key)
        if stored is not None:
            # The tier's shape can pad a dimension this batch's own buckets
            # left alone (e.g. angles), so the ghost bumps apply after it.
            bucketed = tuple(map(max, bucketed, stored))
        return feasible_targets_for_counts(counts, bucketed)

    def pad(self, batch: GraphBatch, tiered: bool) -> GraphBatch:
        """``batch`` padded to its :meth:`target`, which becomes its tier's
        shape; ``batch`` itself when already padded or on every boundary."""
        if batch.pad_info is not None:
            return batch
        counts = (batch.num_atoms, batch.num_edges, batch.num_short_edges, batch.num_angles)
        key = _tier_key(batch.num_structs, batch.energy_per_atom is not None, counts)
        shape = self._target(counts, key if tiered else None)
        if shape == counts:
            return batch
        if tiered:
            self._shapes[key] = shape
        padded = pad_batch(batch, *shape)
        assert padded is not None
        return padded

    def seed(self, entries: Iterable[tuple[int, bool, tuple]], tiered: bool) -> int:
        """Pre-size tiers for known batches; returns the number of tiers seeded.

        ``entries`` are ``(num_structs, labeled, counts)`` of raw batches to
        come.  Each tier's shape becomes the fixpoint of its stored shape
        and its members' bucketed counts under their ghost-feasibility bumps
        — the shape :meth:`pad` converges to after seeing every member — so
        a seeded tier never grows.  Members on every boundary never pad and
        seed nothing; neither does ``tiered=False``.
        """
        if not tiered:
            return 0
        tiers: dict[tuple, list[tuple]] = {}
        for num_structs, labeled, counts in entries:
            if tuple(map(bucket_size, counts)) != counts:
                tiers.setdefault(_tier_key(num_structs, labeled, counts), []).append(counts)
        for key, members in tiers.items():
            shape = self._shapes.get(key, (0, 0, 0, 0))
            for m in members:
                shape = tuple(map(max, shape, map(bucket_size, m)))
            self._shapes[key] = _feasible_fixpoint(members, shape)
        return len(tiers)


#: Programs a :class:`repro.tensor.compile.SharedProgramCache` holds by
#: default, and therefore the number of shapes a loader that plans its own
#: padding may use: a planned shape must never be evicted.
MAX_PROGRAMS = 8


def plan_shapes(
    members: Sequence[tuple[int, int, int, int]], max_shapes: int
) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """Exact padded shapes for a set of batches known up front.

    ``members`` are the raw ``(atoms, edges, short, angles)`` of batches
    that never change (the fixed shards of a block sampler).  They are
    sorted by :func:`workload_cost` and cut into at most ``max_shapes``
    contiguous groups; a group's shape is the elementwise maximum of its
    members' raw dims made ghost-feasible for each of them — no
    :func:`bucket_size` rounding, because nothing outside ``members`` will
    ever need to fit.  The cut minimises the summed ``workload_cost`` of the
    shape every member is padded to (dynamic programme over the *distinct*
    members: ``O(d**3)`` feasibility checks for ``d`` of them).

    Returns ``(assignment, shapes)``: the groups' shapes (all different),
    lightest members' group first, and for every member in input order the
    index of its shape.  See docs/architecture.md, "Padding: tiers for
    streams, plans for fixed blocks".
    """
    if max_shapes < 1:
        raise ValueError(f"max_shapes must be >= 1, got {max_shapes}")
    members = [tuple(int(c) for c in m) for m in members]
    if not members:
        raise ValueError("plan_shapes needs at least one member")
    multiplicity: dict[tuple, int] = {}
    for m in members:
        multiplicity[m] = multiplicity.get(m, 0) + 1
    distinct = sorted(multiplicity, key=lambda m: (workload_cost(*m), m))
    d = len(distinct)
    k = min(max_shapes, d)

    # shape[i][j - i], price[i][j - i]: distinct[i..j] as one group
    shape: list[list[tuple]] = []
    price: list[list[int]] = []
    for i in range(d):
        shapes_i, prices_i = [], []
        raw = (0, 0, 0, 0)
        count = 0
        for j in range(i, d):
            raw = tuple(max(a, b) for a, b in zip(raw, distinct[j]))
            count += multiplicity[distinct[j]]
            closed = _feasible_fixpoint(distinct[i : j + 1], raw)
            shapes_i.append(closed)
            prices_i.append(count * workload_cost(*closed))
        shape.append(shapes_i)
        price.append(prices_i)

    # best[g][j]: cheapest cut of distinct[..j] into g + 1 groups; the last
    # group starts at start[g][j].  More groups never cost more (a group's
    # shape bounds each of its parts'), so exactly ``k`` groups is optimal.
    best = [price[0][:]]
    start = [[0] * d]
    for g in range(1, k):
        row, cut = [0] * d, [0] * d
        for j in range(g, d):
            options = [(best[g - 1][i - 1] + price[i][j - i], i) for i in range(g, j + 1)]
            row[j], cut[j] = min(options)
        best.append(row)
        start.append(cut)

    shapes: list[tuple[int, int, int, int]] = []
    shape_of: dict[tuple, int] = {}
    j = d - 1
    for g in range(k - 1, -1, -1):
        i = start[g][j]
        shapes.append(shape[i][j - i])
        for m in distinct[i : j + 1]:
            shape_of[m] = g
        j = i - 1
    shapes.reverse()
    return [shape_of[m] for m in members], shapes


# Padded variants kept per source batch: a batch meets at most a handful of
# canonical tier shapes over its lifetime, so a tiny LRU suffices.
_PAD_CACHE_CAP = 4


def pad_batch(
    batch: GraphBatch, atoms: int, edges: int, short_edges: int, angles: int
) -> GraphBatch | None:
    """Pad ``batch`` to exact target counts with one ghost structure.

    :class:`TierShapes` and the planned-shape loaders use this to pad a
    fresh batch up to the shapes of a compiled program so it can replay
    it.  Returns
    ``None`` when the targets are infeasible (no room for the required ghost
    rows — at least one ghost atom, plus two distinct-direction ghost edges/
    short edges whenever angles or short edges are padded).

    Successful pads are cached on ``batch`` keyed by the targets (and label
    presence), so memoized loaders re-padding the same batch every epoch get
    the identical padded object back — including its aux-array cache, which
    is what lets a compiled step bind and replay with zero re-concatenation.
    """
    if batch.pad_info is not None:
        return None
    key = (atoms, edges, short_edges, angles, batch.energy_per_atom is not None)
    cached = batch._pad_cache.get(key)
    if cached is not None:
        batch._pad_cache.move_to_end(key)
        return cached
    n, e = batch.num_atoms, batch.num_edges
    ns, na = batch.num_short_edges, batch.num_angles
    ga, ge = atoms - n, edges - e
    gs, gg = short_edges - ns, angles - na
    if min(ga - 1, ge, gs, gg) < 0:
        return None
    if gg > 0 and (gs < 2 or ge < 2):
        return None
    if gs > 0 and ge < 1:
        return None

    s = batch.num_structs
    g0 = n  # first ghost atom (global index)
    e0 = e  # first ghost edge position
    b0 = ns  # first ghost short-edge position

    species = np.concatenate([batch.species, np.full(ga, _GHOST_SPECIES, dtype=np.int64)])
    frac = np.concatenate([batch.frac, np.zeros((ga, 3))])
    atom_sample = np.concatenate([batch.atom_sample, np.full(ga, s, dtype=np.int64)])
    lattices = np.concatenate([batch.lattices, _GHOST_CELL * np.eye(3)[None]])

    # Ghost edges: self-edges on the first ghost atom through alternating
    # +x / +y images -> bond vectors (2.5, 0, 0) and (0, 2.5, 0).
    img = np.zeros((ge, 3), dtype=np.int64)
    img[0::2, 0] = 1
    img[1::2, 1] = 1
    edge_src = np.concatenate([batch.edge_src, np.full(ge, g0, dtype=np.int64)])
    edge_dst = np.concatenate([batch.edge_dst, np.full(ge, g0, dtype=np.int64)])
    edge_image = np.concatenate([batch.edge_image, img])
    edge_sample = np.concatenate([batch.edge_sample, np.full(ge, s, dtype=np.int64)])

    # Ghost short edges cycle over the ghost edges (the first two have
    # distinct directions); ghost angles pair those two.
    short_idx = np.concatenate(
        [batch.short_idx, e0 + (np.arange(gs, dtype=np.int64) % max(ge, 1))]
    )
    angle_e1 = np.concatenate([batch.angle_e1, np.full(gg, b0, dtype=np.int64)])
    angle_e2 = np.concatenate([batch.angle_e2, np.full(gg, b0 + 1, dtype=np.int64)])
    angle_center = np.concatenate([batch.angle_center, np.full(gg, g0, dtype=np.int64)])
    angle_sample = np.concatenate([batch.angle_sample, np.full(gg, s, dtype=np.int64)])

    def _extend(table: np.ndarray, total: int) -> np.ndarray:
        return np.concatenate([table, np.array([total], dtype=table.dtype)])

    padded = GraphBatch(
        num_structs=s + 1,
        species=species,
        frac=frac,
        atom_sample=atom_sample,
        lattices=lattices,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_image=edge_image,
        edge_sample=edge_sample,
        short_idx=short_idx,
        angle_e1=angle_e1,
        angle_e2=angle_e2,
        angle_center=angle_center,
        angle_sample=angle_sample,
        atom_offsets=_extend(batch.atom_offsets, n + ga),
        edge_offsets=_extend(batch.edge_offsets, e + ge),
        short_offsets=_extend(batch.short_offsets, ns + gs),
        angle_offsets=_extend(batch.angle_offsets, na + gg),
        pad_info=PadInfo(s, n, e, ns, na),
    )
    if batch.energy_per_atom is not None:
        padded.energy_per_atom = np.concatenate([batch.energy_per_atom, np.zeros(1)])
        padded.forces = np.concatenate([batch.forces, np.zeros((ga, 3))])
        padded.stress = np.concatenate([batch.stress, np.zeros((1, 3, 3))])
        padded.magmom = np.concatenate([batch.magmom, np.zeros(ga)])
    batch._pad_cache[key] = padded
    if len(batch._pad_cache) > _PAD_CACHE_CAP:
        batch._pad_cache.popitem(last=False)
    return padded
