"""Cluster-suite wiring.

Two shared pieces:

* the same load-bearing sanitizer fixture the service suite uses —
  under ``FECAM_SANITIZE=1`` every :class:`ClusterService` a test
  builds instruments itself, and any unlocked writer-side arena access
  fails the exact test that provoked it;
* a ``cluster_config`` factory producing the small fabric config every
  end-to-end test shards, with an explicit energy model (no circuit
  evaluation in unit tests) and no query cache (bit-identity checks
  compare energy/latency, and cache hits legitimately cost zero).

The worker start method follows ``FECAM_CLUSTER_START``; unset, it is
``spawn`` (safe beside the OpenMP kernel).  CI re-runs the suite under
an explicit ``fork`` in the NumPy-kernel job, where forking is safe.
"""

import pytest

from fecam.analysis import sanitize

from cluster_utils import make_config


@pytest.fixture
def cluster_config():
    return make_config()


@pytest.fixture(autouse=True)
def assert_sanitizer_clean():
    if not sanitize.enabled():
        yield
        return
    sanitize.reset()
    yield
    violations = sanitize.violations()
    sanitize.reset()
    assert not violations, (
        "sanitizer violations during test:\n" + "\n".join(
            f"  [{v.kind}] {v.op} ({v.thread}): {v.message}"
            for v in violations))
