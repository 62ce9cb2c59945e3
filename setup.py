"""Package metadata for ``repro``, the LLMSched reproduction.

This file is the only packaging metadata.  The offline environment has no
`wheel` package, so PEP-517 editable installs (`pip install -e .`) cannot
build a wheel; `python setup.py develop` performs a legacy editable install.
The version is read from ``src/repro/__init__.py`` as text, so describing
the package never imports it.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE)
if _VERSION is None:
    raise RuntimeError(f"no __version__ in {_INIT}")

setup(
    name="repro",
    version=_VERSION.group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
