"""Shared fixtures: small model configs and cached tiny datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.mptrj import generate_mptrj
from repro.graph import build_graph, collate
from repro.model import CHGNetConfig
from repro.structures import cscl, perovskite, rocksalt
from oracles import record_lowerings


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def small_config() -> CHGNetConfig:
    """Reduced-dimension CHGNet config: fast enough for unit tests."""
    return CHGNetConfig(
        atom_fea_dim=16,
        bond_fea_dim=16,
        angle_fea_dim=16,
        num_radial=7,
        angular_order=3,
        hidden_dim=16,
    )


@pytest.fixture(scope="session")
def tiny_crystals():
    """Three small crystals with distinct sizes/chemistries."""
    return [cscl(11, 17), rocksalt(3, 8), perovskite(38, 22, 8)]


@pytest.fixture(scope="session")
def tiny_batch(tiny_crystals):
    """One collated unlabeled batch of the tiny crystals."""
    return collate([build_graph(c) for c in tiny_crystals])


@pytest.fixture(scope="session")
def tiny_entries():
    """A small labeled corpus (cached for the whole session)."""
    return generate_mptrj(24, seed=3, max_atoms=8)


@pytest.fixture
def lowered(monkeypatch) -> dict:
    """Each program built during the test -> its :func:`run_passes` output
    (:func:`oracles.record_lowerings`)."""
    return record_lowerings(monkeypatch)
