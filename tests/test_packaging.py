"""Packaging metadata: ``setup.py`` describes the real package."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_reports_the_package_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert completed.stdout.split() == ["repro", repro.__version__]
