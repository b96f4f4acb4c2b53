"""On-demand C build of the compiled kernels.

The compiled backend (the match kernel and the SPICE Newton iteration) is
a single C translation unit (``_kernel.c``, shipped with the package)
built into a shared library by whatever C compiler the host has — no
Python build dependency, no wheel story, no import-time cost for users
who never select it.  The
build is content-addressed: the library lands in a cache directory
under a name keyed by the source hash, so it compiles exactly once per
source revision and every later import is one ``dlopen``.

Resolution order for the cache directory:

1. ``FECAM_KERNEL_CACHE`` (explicit override — CI uses this to persist
   the artifact across runs);
2. ``_build/`` next to this module (keeps artifacts inside the
   package tree when it is writable — the common dev checkout case);
3. a per-user directory under the system temp dir.

Every failure mode (no compiler, compile error, unloadable library,
ABI mismatch) raises :class:`~fecam.errors.KernelUnavailableError`
with the underlying reason; the registry turns that into a graceful
fallback to the NumPy kernel.
"""

from __future__ import annotations

import ctypes
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile

from typing import List, Optional

from ..errors import KernelUnavailableError

__all__ = ["source_path", "cache_dir", "build_library", "load_library"]

#: ABI the Python bindings speak; must match _kernel.c's FECAM_KERNEL_ABI.
KERNEL_ABI = 5

#: -ffp-contract=off keeps a*b + c two roundings: GCC's GNU-mode default
#: (and clang's within one expression) fuses it into an FMA, which would
#: break the MNA assembler's bit-identity with the Python stamp path.
_BASE_FLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]
#: Tried in order until one compiles: OpenMP + native tuning first,
#: then progressively plainer flag sets for conservative toolchains.
_FLAG_LADDER = [["-fopenmp", "-march=native"], ["-fopenmp"],
                ["-march=native"], []]


def source_path() -> str:
    """Path of the shipped C source."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "_kernel.c")


def find_compiler() -> Optional[str]:
    """The C compiler to use, or None (``FECAM_CC`` overrides)."""
    override = os.environ.get("FECAM_CC")
    if override:
        return shutil.which(override) or override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def cache_dir() -> str:
    """The directory compiled libraries land in (created on demand)."""
    override = os.environ.get("FECAM_KERNEL_CACHE")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    local = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "_build")
    try:
        os.makedirs(local, exist_ok=True)
        probe = os.path.join(local, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
        return local
    except OSError:
        pass  # read-only install: fall through to the temp dir
    try:
        user = getpass.getuser()
    except OSError:  # pragma: no cover - no passwd entry
        user = "anon"
    fallback = os.path.join(tempfile.gettempdir(),
                            f"fecam-kernels-{user}")
    os.makedirs(fallback, exist_ok=True)
    return fallback


def _read_source() -> str:
    try:
        with open(source_path()) as handle:
            return handle.read()
    except OSError as exc:
        raise KernelUnavailableError(
            f"kernel source missing: {exc}") from exc


def _library_path(source: str) -> str:
    digest = hashlib.sha256(
        f"abi{KERNEL_ABI}\n{_BASE_FLAGS}\n{source}".encode()).hexdigest()[:16]
    return os.path.join(cache_dir(), f"fecam_kernel_{digest}.so")


def build_library(*, verbose: bool = False) -> str:
    """Compile (or reuse) the kernel library; returns its path."""
    source = _read_source()
    lib_path = _library_path(source)
    if os.path.exists(lib_path):
        return lib_path
    compiler = find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "no C compiler found (set FECAM_CC, or install cc/gcc/clang)")
    errors: List[str] = []
    for extra in _FLAG_LADDER:
        # Build to a temp name, then atomically publish: concurrent
        # processes racing the first build each succeed and os.replace
        # makes one winner visible.
        tmp_path = lib_path + f".tmp{os.getpid()}"
        cmd = ([compiler] + _BASE_FLAGS + extra
               + ["-o", tmp_path, source_path(), "-lm"])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            errors.append(f"{' '.join(extra) or '(base flags)'}: {exc}")
            continue
        if proc.returncode == 0:
            os.replace(tmp_path, lib_path)
            if verbose:  # pragma: no cover - debug aid
                print(f"[fecam.kernels] built {lib_path} via {cmd}")
            return lib_path
        errors.append(f"{' '.join(extra) or '(base flags)'}: "
                      f"{proc.stderr.strip()[:500]}")
        try:
            os.remove(tmp_path)
        except OSError:
            pass
    raise KernelUnavailableError(
        "kernel compilation failed with every flag set:\n  "
        + "\n  ".join(errors))


def load_library() -> ctypes.CDLL:
    """Build if needed, ``dlopen``, and ABI-check the kernel library."""
    lib_path = build_library()
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError as exc:
        raise KernelUnavailableError(
            f"compiled kernel failed to load: {exc}") from exc
    try:
        abi_fn = lib.fecam_kernel_abi
    except AttributeError as exc:
        raise KernelUnavailableError(
            "compiled kernel exports no ABI probe") from exc
    abi_fn.restype = ctypes.c_int64
    abi_fn.argtypes = []
    abi = int(abi_fn())
    if abi != KERNEL_ABI:
        raise KernelUnavailableError(
            f"compiled kernel speaks ABI {abi}, bindings expect "
            f"{KERNEL_ABI} (stale cache? delete {lib_path})")
    return lib
