"""setup.py builds the fecam package with its metadata and C source."""

import subprocess
import sys
from pathlib import Path

import fecam

ROOT = Path(__file__).resolve().parents[1]


def _setup(*args):
    return subprocess.run([sys.executable, "setup.py", *args], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_metadata_names_fecam_at_the_package_version():
    name, version = _setup("--name", "--version").split()
    assert name == "fecam"
    assert version == fecam.__version__


def test_build_ships_kernel_source(tmp_path):
    _setup("-q", "build", "--build-base", str(tmp_path))
    lib = tmp_path / "lib"
    assert (lib / "fecam" / "kernels" / "_kernel.c").is_file()
    assert (lib / "fecam" / "store" / "__init__.py").is_file()
    assert not (lib / "fecam" / "bench").exists()
