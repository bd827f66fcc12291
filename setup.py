"""Setup shim for environments without PEP 660 editable-install support."""
from setuptools import find_packages, setup

setup(
    name="repro-infine",
    version="1.2.0",
    description="Reproduction of InFine (ICDE 2022): FD profiling of SPJ views",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # 3.9 is exercised in CI (annotations are PEP 563 strings throughout).
    python_requires=">=3.9",
    # The partition kernel is vectorized with numpy.
    install_requires=["numpy>=1.22"],
)
