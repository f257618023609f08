"""Legacy setup shim (the environment has no `wheel` package, so the
PEP 517 editable-install path is unavailable; this enables `pip install -e .`
via the classic setuptools develop mode)."""
import re
from pathlib import Path

from setuptools import find_packages, setup

# One version number: read it from the package instead of repeating it here.
_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Path Invariants: CEGAR with path programs and constraint-based "
        "invariant synthesis (PLDI 2007 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro=repro.__main__:main"]},
)
