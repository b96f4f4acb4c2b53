"""Distribution shim: the library's import name is :mod:`fecam`.

The distribution is named ``repro`` per the reproduction harness contract;
this module re-exports the full :mod:`fecam` API so both spellings work::

    import repro
    import fecam

    assert repro.DesignKind is fecam.DesignKind
"""

from fecam import *  # noqa: F401,F403
from fecam import (DesignKind, __version__, apps, arch, cam, devices,
                   functional, spice)

__all__ = ["DesignKind", "spice", "devices", "cam", "arch", "functional",
           "apps", "__version__"]
