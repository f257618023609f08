"""The package has one version number: ``setup.py`` reads ``__version__``."""

import shutil
import subprocess
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_setup_reports_the_package_version(tmp_path):
    # Run on a copy so the check writes nothing into the checkout.
    shutil.copy(REPO_ROOT / "setup.py", tmp_path / "setup.py")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    shutil.copy(REPO_ROOT / "src" / "repro" / "__init__.py", package / "__init__.py")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == repro.__version__
