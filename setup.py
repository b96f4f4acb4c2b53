"""Package metadata and the setuptools build.

The environment has setuptools but no ``wheel`` package, so PEP 517
editable installs fail with "invalid command 'bdist_wheel'".  Plain
``pip install -e . --no-use-pep517`` and ``python setup.py develop``
work.  All metadata lives here; the version is read from
``src/fecam/__init__.py``.  The C match kernel ships as source
(``fecam/kernels/_kernel.c``) and is compiled on first use.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "fecam" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="fecam",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"fecam.kernels": ["_kernel.c"]},
    # np.trapezoid (TransientResult.energy) is NumPy 2.0+.
    install_requires=["numpy>=2.0"],
)
