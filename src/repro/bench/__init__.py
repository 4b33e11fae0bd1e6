"""Helpers the paper figure and table benches share: result tables, workloads,
trained variants.  Import the submodules directly."""
