"""Radial Bessel and Fourier angular bases: reference vs fused.

The reference compositions deliberately mirror the inefficiencies the paper
removes: the polynomial envelope evaluates three separate powers (Eq. 12,
"redundancy"), and every elementary step is its own kernel.  The fused path
calls the single-kernel primitives from :mod:`repro.tensor.ops_fused`.
"""

from __future__ import annotations

import numpy as np

from repro.model.config import ENVELOPE_P, CHGNetConfig
from repro.tensor import (
    Tensor,
    concat,
    cos,
    div,
    fused_fourier,
    fused_srbf,
    mul,
    power,
    reshape,
    sin,
    sub,
)
from repro.tensor.module import Module, Parameter
from repro.tensor.ops_fused import _envelope_coeffs


def envelope_reference(xi: Tensor, p: float) -> Tensor:
    """Naive Eq. 12 envelope: three independent power kernels plus chains.

    ``u(xi) = 1 - A xi^p + B xi^(p+1) - C xi^(p+2)`` with the (corrected)
    DimeNet coefficients; the factored one-kernel form is
    :func:`repro.tensor.ops_fused.fused_envelope`.
    """
    a, b, c = _envelope_coeffs(p)
    term_a = mul(power(xi, p), a)
    term_b = mul(power(xi, p + 1.0), b)
    term_c = mul(power(xi, p + 2.0), c)
    return sub(sub(1.0, term_a), sub(term_c, term_b))


class RadialBessel(Module):
    """Trainable smooth Radial Bessel function (sRBF) expansion.

    ``f_n(r) = sqrt(2/rcut) * sin(freq_n * r) / r * u(r/rcut)`` with
    trainable frequencies initialized at ``n*pi/rcut``.
    """

    def __init__(self, num_radial: int, rcut: float, p: float, fused: bool) -> None:
        super().__init__()
        self.num_radial = num_radial
        self.rcut = rcut
        self.p = p
        self.fused = fused
        self.freqs = Parameter(np.arange(1, num_radial + 1) * np.pi / rcut)

    def forward(self, r: Tensor) -> Tensor:
        if self.fused:
            return fused_srbf(r, self.freqs, self.rcut, self.p)
        nb = r.shape[0]
        rc = reshape(r, (nb, 1))
        arg = mul(rc, reshape(self.freqs, (1, self.num_radial)))
        s = sin(arg)
        u = envelope_reference(div(r, self.rcut), self.p)
        scale = np.sqrt(2.0 / self.rcut)
        radial = div(mul(s, scale), rc)
        return mul(radial, reshape(u, (nb, 1)))


class FourierExpansion(Module):
    """Fourier angular basis: ``[1/sqrt(2pi), cos(n t)/sqrt(pi), sin(n t)/sqrt(pi)]``."""

    def __init__(self, order: int, fused: bool) -> None:
        super().__init__()
        self.order = order
        self.fused = fused

    def forward(self, theta: Tensor) -> Tensor:
        if self.fused:
            return fused_fourier(theta, self.order)
        na = theta.shape[0]
        n = Tensor(np.arange(1, self.order + 1, dtype=np.float64).reshape(1, self.order))
        nt = mul(reshape(theta, (na, 1)), n)
        cos_part = div(cos(nt), np.sqrt(np.pi))
        sin_part = div(sin(nt), np.sqrt(np.pi))
        const = Tensor(np.full((na, 1), 1.0 / np.sqrt(2.0 * np.pi)))
        return concat([const, cos_part, sin_part], axis=1)


def make_bases(config: CHGNetConfig) -> tuple[RadialBessel, RadialBessel, FourierExpansion]:
    """The three basis modules: atom-graph RBF, bond-graph RBF, angle Fourier."""
    rbf_atom = RadialBessel(config.num_radial, config.cutoff_atom, ENVELOPE_P, config.fused)
    rbf_bond = RadialBessel(config.num_radial, config.cutoff_bond, ENVELOPE_P, config.fused)
    fourier = FourierExpansion(config.angular_order, config.fused)
    return rbf_atom, rbf_bond, fourier
