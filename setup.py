"""Legacy setuptools entry point.

The offline environment lacks the ``wheel`` package, so PEP 517/660
editable installs fail; this shim lets ``pip install -e .`` use the legacy
``setup.py develop`` path.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Whisper: a transient-execution-timing (TET) side channel, "
        "reproduced on a cycle-level out-of-order CPU simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["networkx"],
)
