from setuptools import setup

# NumPy is the only runtime requirement of src/repro.  SciPy is imported by
# benchmarks only (bench_fig5_dataset.py, the perf ledger's provenance block).
setup(install_requires=["numpy"])
