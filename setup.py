"""Legacy setup shim: this offline environment lacks the `wheel` package,
so PEP 660 editable installs fail; `setup.py develop` works everywhere."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # What CI installs: tier-1 imports hypothesis unconditionally and the
    # benchmarks/bench_*.py figure scripts use the `benchmark` fixture.
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
)
