"""Independent reference implementations the test suite compares against.

None of these run in the shipped system; each is a slow or seed-era version
of something ``src/`` does fast, kept so the fast path has an oracle:

* :func:`numeric_grad`, :func:`check_grad`, :func:`check_second_grad` —
  first- and second-order central-difference checks of the autodiff engine
  (forces and stress are energy gradients, so the training loss
  differentiates through a gradient);
* :func:`collate_concat` — the seed's graph-batch assembly (per-graph
  offset-added copies joined with repeated ``np.concatenate``), checked
  against the preallocating single-pass :func:`repro.graph.batching.collate`;
* :func:`neighbor_list_bruteforce` — the triple-loop periodic neighbor
  search behind the property tests of :func:`repro.structures.neighbor_list`;
* :func:`pad_to_bucket` — pads a batch to its canonical bucket sizes, the
  shape an empty :class:`repro.graph.batching.TierShapes` gives it (what a
  streaming caller pads to before any tier grows), so eager and replayed
  steps can be compared on one batch (a compiler replays the batch it is
  given and never pads);
* :func:`record_lowerings` — what :func:`repro.tensor.compile.run_passes`
  returned for each program built meanwhile: the instructions, liveness and
  buffer plan a built program no longer keeps, for tests that check the
  program against them.

Imported by tests as ``from oracles import ...`` (``tests/`` is on the path,
as for ``serve_harness``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.batching import GraphBatch, Labels, TierShapes
from repro.graph.crystal_graph import CrystalGraph
from repro.structures.crystal import Crystal
from repro.structures.neighbors import NeighborList, _empty_pairs
from repro.tensor.engine import Tensor, grad


# ------------------------------------------------------------- gradient checks
def numeric_grad(
    f: Callable[..., Tensor],
    tensors: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``f(*tensors)`` w.r.t. one input."""
    base = [t.data.copy() for t in tensors]
    g = np.zeros_like(base[wrt])
    flat = g.reshape(-1)
    for i in range(flat.size):
        perturbed = [Tensor(b.copy(), requires_grad=False) for b in base]
        plus = base[wrt].copy().reshape(-1)
        plus[i] += eps
        perturbed[wrt] = Tensor(plus.reshape(base[wrt].shape))
        f_plus = f(*perturbed).item()
        minus = base[wrt].copy().reshape(-1)
        minus[i] -= eps
        perturbed[wrt] = Tensor(minus.reshape(base[wrt].shape))
        f_minus = f(*perturbed).item()
        flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return g


def check_grad(
    f: Callable[..., Tensor],
    tensors: Sequence[Tensor],
    eps: float = 1e-6,
    rtol: float = 1e-5,
    atol: float = 1e-7,
) -> None:
    """Assert analytic gradients of scalar ``f`` match central differences."""
    live = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    out = f(*live)
    if out.size != 1:
        raise ValueError("check_grad requires a scalar-valued function")
    analytic = grad(out, live, allow_unused=True)
    for i, (t, ga) in enumerate(zip(live, analytic)):
        gn = numeric_grad(f, live, i, eps=eps)
        got = np.zeros_like(gn) if ga is None else ga.data
        if not np.allclose(got, gn, rtol=rtol, atol=atol):
            err = np.max(np.abs(got - gn))
            raise AssertionError(
                f"gradient mismatch for input {i}: max abs err {err:.3e}\n"
                f"analytic:\n{got}\nnumeric:\n{gn}"
            )


def check_second_grad(
    f: Callable[..., Tensor],
    tensors: Sequence[Tensor],
    wrt_first: int = 0,
    eps: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Verify grad-of-grad (the double-backward path) against differences.

    Checks ``d/dx_j [ sum(w * df/dx_first) ]`` for all inputs ``j``, where
    ``w`` is a fixed random weighting — the same structure as the force-error
    term inside the CHGNet training loss.
    """
    rng = np.random.default_rng(0)
    w = rng.normal(size=tensors[wrt_first].shape)

    def weighted_first_grad(*ts: Tensor) -> Tensor:
        live = [Tensor(t.data.copy(), requires_grad=True) for t in ts]
        out = f(*live)
        (gfirst,) = grad(out, [live[wrt_first]], create_graph=True)
        # A scalar functional of the gradient; for the finite-difference
        # comparison only the value matters here.
        from repro.tensor.ops_math import mul, sum as tsum

        return tsum(mul(gfirst, Tensor(w)))

    live = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    out = f(*live)
    (gfirst,) = grad(out, [live[wrt_first]], create_graph=True)
    from repro.tensor.ops_math import mul, sum as tsum

    scalar = tsum(mul(gfirst, Tensor(w)))
    analytic = grad(scalar, live, allow_unused=True)
    for i in range(len(tensors)):
        gn = numeric_grad(weighted_first_grad, live, i, eps=eps)
        got = np.zeros_like(gn) if analytic[i] is None else analytic[i].data
        if not np.allclose(got, gn, rtol=rtol, atol=atol):
            err = np.max(np.abs(got - gn))
            raise AssertionError(
                f"second-order gradient mismatch for input {i}: max abs err {err:.3e}"
            )


# ------------------------------------------------------------- seed collate
def collate_concat(
    graphs: list[CrystalGraph], labels: list[Labels] | None = None
) -> GraphBatch:
    """Concatenate graphs (and labels) into one batch (seed implementation)."""
    s = len(graphs)
    n_atoms = np.array([g.num_atoms for g in graphs])
    n_edges = np.array([g.num_edges for g in graphs])
    n_short = np.array([g.num_short_edges for g in graphs])
    n_angles = np.array([g.num_angles for g in graphs])
    atom_off = np.concatenate([[0], np.cumsum(n_atoms)])
    edge_off = np.concatenate([[0], np.cumsum(n_edges)])
    short_off = np.concatenate([[0], np.cumsum(n_short)])
    angle_off = np.concatenate([[0], np.cumsum(n_angles)])
    batch = GraphBatch(
        num_structs=s,
        species=np.concatenate([g.crystal.species for g in graphs]).astype(np.int64),
        frac=np.concatenate([g.crystal.frac_coords for g in graphs]),
        atom_sample=np.repeat(np.arange(s), n_atoms).astype(np.int64),
        lattices=np.stack([g.crystal.lattice.matrix for g in graphs]),
        edge_src=np.concatenate(
            [g.edge_src + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        edge_dst=np.concatenate(
            [g.edge_dst + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        edge_image=np.concatenate([g.edge_image for g in graphs]).astype(np.int64),
        edge_sample=np.repeat(np.arange(s), n_edges).astype(np.int64),
        short_idx=np.concatenate(
            [g.short_idx + edge_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_e1=np.concatenate(
            [g.angle_e1 + short_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_e2=np.concatenate(
            [g.angle_e2 + short_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_center=np.concatenate(
            [g.angle_center + atom_off[i] for i, g in enumerate(graphs)]
        ).astype(np.int64),
        angle_sample=np.repeat(np.arange(s), n_angles).astype(np.int64),
        atom_offsets=atom_off.astype(np.int64),
        edge_offsets=edge_off.astype(np.int64),
        short_offsets=short_off.astype(np.int64),
        angle_offsets=angle_off.astype(np.int64),
    )
    if labels is not None:
        batch.energy_per_atom = np.array([lab.energy_per_atom for lab in labels])
        batch.forces = np.concatenate([lab.forces for lab in labels])
        batch.stress = np.stack([lab.stress for lab in labels])
        batch.magmom = np.concatenate([lab.magmom for lab in labels])
    return batch


# ------------------------------------------------------------- neighbor search
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


# ------------------------------------------------------------- bucket padding
def pad_to_bucket(batch: GraphBatch) -> GraphBatch:
    """Pad a batch to canonical bucket sizes by appending one ghost structure.

    Batches with equal bucketed counts share one compiled program
    (:mod:`repro.tensor.compile`).  Returns ``batch`` unchanged when every
    count already sits on its bucket boundary (or it was padded before).
    The result's ``pad_info`` holds the real counts; all ghost rows are at
    the array tails, so the real data is the ``[:real]`` prefix of every
    array.  Ghost contributions are excluded from losses/metrics via the
    ``pad_mask``/``pad_count`` aux arrays (exactly zero weight), but padding
    may reorder float reductions, so padded totals match unpadded ones to
    rounding, not bit-for-bit.
    """
    return TierShapes().pad(batch, tiered=False)


def record_lowerings(monkeypatch) -> dict:
    """``{program: its Lowered}`` for every program built from now on, as
    :func:`repro.tensor.compile.run_passes` returned it to the
    :class:`~repro.tensor.compile.CompiledStep` it built (``monkeypatch`` a
    ``pytest.MonkeyPatch``)."""
    from repro.tensor import compile as tc

    seen: dict = {}
    run_passes, init = tc.run_passes, tc.CompiledStep.__init__
    pending: list = []

    def recording_passes(trace, outputs):
        pending.append(run_passes(trace, outputs))
        return pending[-1]

    def recording_init(prog, *args) -> None:
        init(prog, *args)
        seen[prog] = pending.pop()

    monkeypatch.setattr(tc, "run_passes", recording_passes)
    monkeypatch.setattr(tc.CompiledStep, "__init__", recording_init)
    return seen
