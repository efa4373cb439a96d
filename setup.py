"""Package metadata and dependency declarations.

The execution environment ships setuptools without the ``wheel`` package,
so PEP 517 editable installs (which require ``bdist_wheel``) fail; keeping
everything in ``setup.py`` lets both plain ``pip install -e ".[test]"``
(CI) and ``pip install -e . --no-use-pep517 --no-build-isolation``
(wheel-less environments) work from one source of truth.

Runtime dependencies are numpy + scipy only; the test extra carries the
tier-1 suite's needs and the lint extra the CI linter, so CI installs
from this metadata instead of a hand-maintained pip line.  SciPy backs
exact MHR evaluation alone (the LPs and convex hulls of
``repro.geometry.lp``/``hull``, used at d >= 3 by ``repro.hms.exact``,
``MhrEvaluator``, the LP baselines and the experiments) and is imported
on first use, so the serving stack never loads it.  It stays required.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro-fairhms",
    version=_VERSION,
    description=(
        "Reproduction of 'Happiness Maximizing Sets under Group Fairness "
        "Constraints' (VLDB 2022) with a query-serving and multi-dataset "
        "service layer"
    ),
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": [
            "pytest",
            "hypothesis",
            "pytest-benchmark",
            "pytest-cov",
        ],
        "lint": ["ruff"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
