"""Packaging metadata (legacy setuptools path).

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs (``pip install -e .``) cannot build; ``python setup.py develop``
installs the same editable package through the legacy path.

The one runtime dependency is numpy: every graph is stored as its CSR
columns (``repro.graphs.csr``), and the array-native verification core
(``repro.core.batch``) runs on them.  The library does not import
without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro-pls",
    version="0.7.0",
    description=(
        "Reproduction of Korman-Kutten-Peleg proof labeling schemes "
        "(PODC 2005)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
