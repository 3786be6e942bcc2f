"""Package metadata for ``pip install .`` / ``pip install -e .``.

The version is read from ``src/repro/__init__.py`` as text, so building the
package does not import it (and does not need numpy installed first).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Vortex-like GPGPU simulator with runtime micro-architecture-"
                "aware kernel mapping (IISWC 2023 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
