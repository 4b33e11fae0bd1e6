"""Bond-vector and angle computation: Algorithm 1 (serial) vs Algorithm 2.

This stage turns the batched graph topology into the differentiable
quantities the bases consume: bond distances ``r_ij``, bond vectors
``x_ij`` and bond angles ``theta_ijk``.

The reference CHGNet iterates over the samples of a batch (Algorithm 1),
launching a long chain of small kernels per sample; FastCHGNet concatenates
the per-sample operands — lattices, fractional coordinates and a
block-diagonal neighbor-image matrix — and computes everything in one
batched pass (Algorithm 2).

When ``differentiable=True`` (the reference force/stress path), a zero
displacement tensor is added to every Cartesian coordinate and a zero
strain tensor deforms every lattice, so that::

    F = -dE/d(disp)         sigma_s = (1/V_s) dE/d(strain_s)

can be obtained from :func:`repro.tensor.grad` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.batching import GraphBatch
from repro.model.config import CHGNetConfig
from repro.tensor import (
    Tensor,
    add,
    arccos,
    clip,
    concat,
    div,
    gather_add,
    gather_rows,
    is_grad_enabled,
    matmul,
    mul,
    slice_,
    sqrt,
    sub,
    sum as tsum,
)

_COS_EPS = 1e-8


def gather_field(a: Tensor, batch: GraphBatch, field: str, onto: Tensor | None = None) -> Tensor:
    """``a[batch.<field>]`` for an index field of the batch (``onto +
    a[batch.<field>]`` in one kernel when ``onto`` is given).

    Where a VJP can follow, the lookup carries the batch's sort-once plan of
    the field, so the segment sum that VJP is reduces by it instead of
    sorting the index again on every step.
    """
    plan = batch.aux(("segment_plan", field)) if is_grad_enabled() and a.requires_grad else None
    if onto is not None:
        return gather_add(onto, a, getattr(batch, field), plan)
    return gather_rows(a, getattr(batch, field), plan)


@dataclass
class Geometry:
    """Differentiable geometric quantities of a batch.

    ``disp``/``strain`` are the zero-valued tensors energy derivatives are
    taken against (``None`` on the Force/Stress-head path, where the whole
    geometry is constant and never taped).
    """

    d6: Tensor  # (nb,) atom-graph bond lengths
    vec6: Tensor  # (nb, 3) bond vectors, src -> dst
    d3: Tensor  # (ns,) short-bond lengths
    theta: Tensor  # (na,) bond angles
    disp: Tensor | None
    strain: Tensor | None
    volumes: np.ndarray  # (s,) cell volumes


def _effective_lattices(
    batch: GraphBatch, strain: Tensor | None
) -> tuple[list[Tensor], Tensor | None]:
    """Per-sample (possibly strained) lattices as tensors.

    Returns the per-sample list (Algorithm 1 consumers) and, when a strain
    tensor exists, ``None`` for the batched form — callers in batched mode
    build it themselves to keep kernel accounting honest.

    Batch-derived operands are fetched through ``batch.aux`` (here and in
    the geometry passes below) so a captured tape can rebind them to a new
    batch on compiled replay; see :mod:`repro.tensor.compile`.
    """
    lattices = []
    for s in range(batch.num_structs):
        lat = Tensor(batch.aux(("lat_s", s)))
        if strain is not None:
            eps = slice_(strain, (s,))
            lat = matmul(lat, add(Tensor(np.eye(3)), eps))
        lattices.append(lat)
    return lattices, None


def compute_geometry(
    batch: GraphBatch, config: CHGNetConfig, differentiable: bool
) -> Geometry:
    """Dispatch to the serial or batched implementation per ``config``."""
    disp = Tensor(np.zeros((batch.num_atoms, 3)), requires_grad=True) if differentiable else None
    strain = (
        Tensor(np.zeros((batch.num_structs, 3, 3)), requires_grad=True)
        if differentiable
        else None
    )
    if config.batched_basis:
        geo = _geometry_parallel(batch, disp, strain)
    else:
        geo = _geometry_serial(batch, disp, strain)
    return geo


def _bond_angles(v1: Tensor, v2: Tensor, d1: Tensor, d2: Tensor) -> Tensor:
    """theta_ijk = arccos(x_ij . x_ik / (|x_ij| |x_ik|)), clipped for stability.

    ``v1, v2`` are the two bond vectors of every angle, ``d1, d2`` their lengths.
    """
    cos_t = div(tsum(mul(v1, v2), axis=-1), mul(d1, d2))
    return arccos(clip(cos_t, -1.0 + _COS_EPS, 1.0 - _COS_EPS))


def _geometry_serial(
    batch: GraphBatch, disp: Tensor | None, strain: Tensor | None
) -> Geometry:
    """Algorithm 1: per-sample loop, concatenate at the end."""
    lattices, _ = _effective_lattices(batch, strain)
    d_list: list[Tensor] = []
    vec_list: list[Tensor] = []
    theta_list: list[Tensor] = []
    d3_list: list[Tensor] = []

    for s in range(batch.num_structs):
        a0, a1 = batch.atom_offsets[s], batch.atom_offsets[s + 1]
        e0, e1 = batch.edge_offsets[s], batch.edge_offsets[s + 1]
        s0, s1 = batch.short_offsets[s], batch.short_offsets[s + 1]
        g0, g1 = batch.angle_offsets[s], batch.angle_offsets[s + 1]
        lat = lattices[s]

        frac = Tensor(batch.aux(("frac_s", s)))
        cart = matmul(frac, lat)
        if disp is not None:
            cart = add(cart, slice_(disp, (slice(int(a0), int(a1)),)))

        src_local = batch.aux(("src_local", s))
        dst_local = batch.aux(("dst_local", s))
        img = Tensor(batch.aux(("img_s", s)))
        img_cart = matmul(img, lat)
        ri = gather_rows(cart, src_local)
        rj = add(gather_rows(cart, dst_local), img_cart)
        vec = sub(rj, ri)
        d = sqrt(tsum(mul(vec, vec), axis=-1))
        d_list.append(d)
        vec_list.append(vec)

        # bond graph of this sample
        if s1 > s0:
            short_local = batch.aux(("short_local", s))
            vec_short = gather_rows(vec, short_local)
            d_short = gather_rows(d, short_local)
            d3_list.append(d_short)
            if g1 > g0:  # "if angle nums != 0" guard of Algorithm 1
                ae1 = batch.aux(("ae1", s))
                ae2 = batch.aux(("ae2", s))
                theta_list.append(
                    _bond_angles(
                        gather_rows(vec_short, ae1),
                        gather_rows(vec_short, ae2),
                        gather_rows(d_short, ae1),
                        gather_rows(d_short, ae2),
                    )
                )

    d6 = concat(d_list, axis=0)
    vec6 = concat(vec_list, axis=0)
    d3 = concat(d3_list, axis=0) if d3_list else Tensor(np.zeros(0))
    theta = concat(theta_list, axis=0) if theta_list else Tensor(np.zeros(0))
    return Geometry(
        d6=d6,
        vec6=vec6,
        d3=d3,
        theta=theta,
        disp=disp,
        strain=strain,
        volumes=batch.aux(("volumes",)),
    )


def _geometry_parallel(
    batch: GraphBatch, disp: Tensor | None, strain: Tensor | None
) -> Geometry:
    """Algorithm 2: one batched pass over the concatenated operands."""
    s = batch.num_structs
    lat = Tensor(batch.lattices)  # (s, 3, 3)
    if strain is not None:
        eye = Tensor(np.broadcast_to(np.eye(3), (s, 3, 3)).copy())
        lat_eff = matmul(lat, add(eye, strain))
    else:
        lat_eff = lat

    # r_card = r_frac @ L, batched over atoms via per-atom lattice gather.
    # The row-times-matrix products are expressed as broadcast-multiply +
    # sum: one vectorized pass instead of n tiny per-item GEMMs.
    lat_per_atom = gather_rows(lat_eff, batch.atom_sample)  # (n, 3, 3)
    frac = Tensor(batch.aux(("frac_col",)))
    cart = tsum(mul(frac, lat_per_atom), axis=1)  # (n, 3)
    if disp is not None:
        cart = add(cart, disp)

    # Neighbor-image offsets, batched over all edges (Algorithm 2 lines
    # 11-13).  The paper assembles a block-diagonal image matrix and
    # multiplies by the stacked lattices; the dense block-diagonal operand
    # grows as O(n_edges * samples) zeros, so we compute the numerically
    # identical batched product via a per-edge lattice gather instead (the
    # sparse-aware formulation any production implementation uses).
    lat_per_edge = gather_rows(lat_eff, batch.edge_sample)  # (nb, 3, 3)
    img = Tensor(batch.aux(("img_col",)))
    offsets = tsum(mul(img, lat_per_edge), axis=1)  # (nb, 3)

    ri = gather_field(cart, batch, "edge_src")
    rj = add(gather_field(cart, batch, "edge_dst"), offsets)
    vec6 = sub(rj, ri)
    d6 = sqrt(tsum(mul(vec6, vec6), axis=-1))

    if batch.num_short_edges:
        vec_short = gather_field(vec6, batch, "short_idx")
        d3 = gather_field(d6, batch, "short_idx")
    else:
        vec_short = Tensor(np.zeros((0, 3)))
        d3 = Tensor(np.zeros(0))
    if batch.num_angles:
        theta = _bond_angles(
            gather_field(vec_short, batch, "angle_e1"),
            gather_field(vec_short, batch, "angle_e2"),
            gather_field(d3, batch, "angle_e1"),
            gather_field(d3, batch, "angle_e2"),
        )
    else:
        theta = Tensor(np.zeros(0))

    return Geometry(
        d6=d6,
        vec6=vec6,
        d3=d3,
        theta=theta,
        disp=disp,
        strain=strain,
        volumes=batch.aux(("volumes",)),
    )
