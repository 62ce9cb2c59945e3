"""Packaging metadata: ``setup.py`` describes the ``repro`` package."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_names_the_package_and_its_version():
    result = subprocess.run(
        [sys.executable, str(ROOT / "setup.py"), "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", repro.__version__]
