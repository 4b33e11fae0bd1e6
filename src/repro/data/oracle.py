"""DFT oracle: a classical potential that labels synthetic structures.

Substitute for the GGA/GGA+U calculations behind MPtrj.  The potential is a
smoothly cut Morse pair term plus a three-body angular term, with per-element
parameters derived deterministically from tabulated element data (radius,
electronegativity).  Energies are differentiated with the package's own
autodiff — the same displacement/strain construction the reference CHGNet
uses — so the force and stress labels are *exactly* consistent with the
energy label, as DFT labels are.

Magnetic moments are a smooth function of the local environment
(coordination-weighted, scaled by the element's magnetic tendency), giving
the charge-informed output a learnable target.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batching import Labels
from repro.structures.crystal import Crystal
from repro.structures.elements import (
    COVALENT_RADIUS,
    ELECTRONEGATIVITY,
    MAGNETIC_TENDENCY,
)
from repro.structures.neighbors import neighbor_list
from repro.tensor import Tensor, grad, no_grad
from repro.tensor.ops_fused import _envelope_np
from repro.tensor import (
    add,
    clip,
    div,
    exp,
    matmul,
    mul,
    neg,
    sqrt,
    sub,
    sum as tsum,
)


#: Pair-term cutoff, angular-term (and magmom first-shell) cutoff, in
#: angstrom, and the smoothing coefficient of their envelope.
CUTOFF = 6.0
ANGLE_CUTOFF = 3.0
ENVELOPE_P = 6.0


class OraclePotential:
    """Deterministic many-body potential with consistent E/F/S/M labels."""

    # --------------------------------------------------------- element params
    def pair_params(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, ...]:
        """Morse parameters (depth, width, equilibrium distance) per pair."""
        r0 = COVALENT_RADIUS[z1] + COVALENT_RADIUS[z2]
        chi = np.abs(ELECTRONEGATIVITY[z1] - ELECTRONEGATIVITY[z2])
        depth = 0.4 + 0.35 * chi  # ionic pairs bind more strongly
        width = 1.7 / r0
        return depth, width, r0

    def angle_params(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Angular stiffness and preferred cosine per central element."""
        k = 0.04 + 0.03 * ((z * 13) % 7) / 7.0
        cos0 = -0.5 + 0.35 * ((z * 37) % 11) / 11.0
        return k, cos0

    # ------------------------------------------------------------ energy expr
    def _energy(self, crystal: Crystal, disp: Tensor, strain: Tensor) -> Tensor:
        """Differentiable total energy given displacement/strain tensors."""
        nl = neighbor_list(crystal, CUTOFF)
        if nl.num_pairs == 0:
            raise ValueError(f"oracle found no pairs in {crystal.formula}")
        lat = matmul(Tensor(crystal.lattice.matrix), add(Tensor(np.eye(3)), strain))
        cart = add(matmul(Tensor(crystal.frac_coords), lat), disp)
        img = Tensor(nl.image.astype(np.float64))
        ri = cart[nl.src]
        rj = add(cart[nl.dst], matmul(img, lat))
        vec = sub(rj, ri)
        d = sqrt(tsum(mul(vec, vec), axis=-1))

        depth, width, r0 = self.pair_params(crystal.species[nl.src], crystal.species[nl.dst])
        env = Tensor(_envelope_np(np.clip(nl.dist / CUTOFF, 0.0, 1.0), ENVELOPE_P))
        # Morse: D * ((1 - exp(-a (r - r0)))^2 - 1); each pair appears twice.
        x = exp(neg(mul(Tensor(width), sub(d, Tensor(r0)))))
        pair = mul(Tensor(depth), sub(mul(sub(1.0, x), sub(1.0, x)), 1.0))
        e_pair = mul(tsum(mul(pair, env)), 0.5)

        # Angular term over short-bond pairs sharing a center.
        short = np.flatnonzero(nl.dist <= ANGLE_CUTOFF)
        e_angle = Tensor(np.zeros(()))
        if short.size:
            s_src = nl.src[short]
            counts = np.bincount(s_src, minlength=crystal.num_atoms)
            starts = np.concatenate([[0], np.cumsum(counts)])
            e1_list, e2_list, centers = [], [], []
            for atom in np.flatnonzero(counts >= 2):
                loc = np.arange(starts[atom], starts[atom + 1])
                p, q = np.meshgrid(loc, loc, indexing="ij")
                keep = p.ravel() < q.ravel()  # unordered pairs once
                e1_list.append(p.ravel()[keep])
                e2_list.append(q.ravel()[keep])
                centers.append(np.full(int(keep.sum()), atom))
            if e1_list:
                e1 = np.concatenate(e1_list)
                e2 = np.concatenate(e2_list)
                center_z = crystal.species[np.concatenate(centers)]
                vs = vec[short]
                ds = d[short]
                v1, v2 = vs[e1], vs[e2]
                cos_t = clip(
                    div(tsum(mul(v1, v2), axis=-1), mul(ds[e1], ds[e2])),
                    -1.0 + 1e-9,
                    1.0 - 1e-9,
                )
                k, cos0 = self.angle_params(center_z)
                w = Tensor(
                    _envelope_np(np.clip(nl.dist[short] / ANGLE_CUTOFF, 0, 1), ENVELOPE_P)
                )
                diff = sub(cos_t, Tensor(cos0))
                e_angle = tsum(mul(mul(Tensor(k), mul(diff, diff)), mul(w[e1], w[e2])))
        return add(e_pair, e_angle)

    # ---------------------------------------------------------------- labels
    def magmoms(self, crystal: Crystal) -> np.ndarray:
        """Smooth environment-dependent magnetic moments (mu_B).

        The smooth coordination number over the *bond* cutoff (first shell)
        modulates the element's magnetic tendency — a learnable, physically
        plausible stand-in for DFT site moments.
        """
        nl = neighbor_list(crystal, ANGLE_CUTOFF)
        w = _envelope_np(np.clip(nl.dist / ANGLE_CUTOFF, 0.0, 1.0), ENVELOPE_P)
        coord = np.zeros(crystal.num_atoms)
        np.add.at(coord, nl.src, w)
        tend = MAGNETIC_TENDENCY[crystal.species]
        return tend * np.exp(-(((coord - 3.0) / 3.0) ** 2))

    def label(self, crystal: Crystal) -> Labels:
        """Energy (eV/atom), forces (eV/A), stress, magmom for one crystal."""
        disp = Tensor(np.zeros((crystal.num_atoms, 3)), requires_grad=True)
        strain = Tensor(np.zeros((3, 3)), requires_grad=True)
        energy = self._energy(crystal, disp, strain)
        gd, gs = grad(energy, [disp, strain])
        forces = -gd.data
        stress = gs.data / crystal.lattice.volume
        with no_grad():
            magmom = self.magmoms(crystal)
        return Labels(
            energy_per_atom=float(energy.data) / crystal.num_atoms,
            forces=forces,
            stress=stress,
            magmom=magmom,
        )
