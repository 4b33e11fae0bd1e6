"""One owner for the graph cutoffs.

The graph layer's :data:`~repro.graph.crystal_graph.CUTOFF_ATOM` /
:data:`~repro.graph.crystal_graph.CUTOFF_BOND` are the only cutoffs: every
model reads them through its config, and every dataset builds its graphs at
them, so a model cannot train on graphs built at other cutoffs than the ones
it serves on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.data.dataset import StructureDataset, split_dataset
from repro.data.mptrj import generate_mptrj
from repro.graph.crystal_graph import CUTOFF_ATOM, CUTOFF_BOND, build_graph
from repro.model import CHGNetConfig, OptLevel


@pytest.fixture(scope="module")
def entries():
    return generate_mptrj(6, seed=5, max_atoms=6)


def _same_graph(a, b) -> bool:
    return (a.cutoff_atom, a.cutoff_bond) == (b.cutoff_atom, b.cutoff_bond) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("edge_src", "edge_dst", "edge_image", "short_idx", "angle_e1", "angle_e2")
    )


class TestConfig:
    def test_reads_the_graph_constants(self):
        for level in OptLevel:
            cfg = CHGNetConfig(atom_fea_dim=8).with_level(level)
            assert (cfg.cutoff_atom, cfg.cutoff_bond) == (CUTOFF_ATOM, CUTOFF_BOND)

    @pytest.mark.parametrize("name", ["cutoff_atom", "cutoff_bond"])
    def test_takes_no_cutoff_setting(self, name):
        with pytest.raises(TypeError):
            CHGNetConfig(**{name: 4.0})

    def test_cutoffs_are_read_only(self):
        cfg = CHGNetConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cutoff_atom = 4.0
        assert "cutoff_atom" not in {f.name for f in dataclasses.fields(cfg)}


class TestDatasetGraphs:
    def test_built_at_the_model_cutoffs(self, entries):
        cfg = CHGNetConfig()
        ds = StructureDataset(entries)
        for entry, graph in zip(entries, ds.graphs):
            assert (graph.cutoff_atom, graph.cutoff_bond) == (cfg.cutoff_atom, cfg.cutoff_bond)
            assert _same_graph(graph, build_graph(entry.crystal, cfg.cutoff_atom, cfg.cutoff_bond))

    def test_split_builds_at_the_constants(self, entries):
        splits = split_dataset(entries, seed=1, fractions=(0.5, 0.25, 0.25))
        for ds in (splits.train, splits.val, splits.test):
            assert all(
                (g.cutoff_atom, g.cutoff_bond) == (CUTOFF_ATOM, CUTOFF_BOND) for g in ds.graphs
            )

    def test_dataset_takes_no_cutoffs(self, entries):
        with pytest.raises(TypeError):
            StructureDataset(entries, cutoff_atom=4.0, cutoff_bond=2.5)
