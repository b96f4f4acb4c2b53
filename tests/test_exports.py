"""Every name a module lists in ``__all__`` resolves on import.

A deletion that leaves a stale ``__all__`` entry or re-export behind
fails here, not as an ``ImportError`` on ``from fecam.x import *``.
"""

import importlib
import pkgutil

import fecam


def test_every_all_name_resolves():
    names = ["fecam", "repro"] + [
        info.name
        for info in pkgutil.walk_packages(fecam.__path__, prefix="fecam.")
        if info.name.rsplit(".", 1)[-1] != "__main__"]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing
