"""Copy-on-write entries: every result door hands out a snapshot.

A write replaces an entry's :class:`~fecam.store.result.Match` instead
of mutating it, so a result taken before the write keeps naming the
pre-write word and payload, while a fresh search sees the new ones.
Each door below is driven through its real write path.
"""

import asyncio
import shutil
import tempfile

import pytest

from fecam.cluster import ClusterService
from fecam.designs import DesignKind
from fecam.durable import DurabilityConfig, DurableCamStore
from fecam.functional import EnergyModel
from fecam.service import SearchService
from fecam.store import CamStore, StoreConfig

OLD, NEW = "0101XXXX", "1111XXXX"
OLD_PROBE, NEW_PROBE = "01010000", "11110000"


def make_config(**overrides):
    model = EnergyModel(DesignKind.DG_1T5, 8, e_1step_per_bit=0.8e-15,
                        e_2step_per_bit=1.3e-15, latency_1step=0.7e-9,
                        latency_2step=2.3e-9, write_energy_per_cell=0.4e-15)
    return StoreConfig(width=8, rows=8, banks=2, energy_model=model,
                       **overrides)


def fill(store):
    store.insert(OLD, key="rule-a", payload="v1")
    store.insert("00110011", key="rule-b")
    return store


def assert_pre_write(matches):
    (match,) = [m for m in matches if m.key == "rule-a"]
    assert (match.word, match.payload) == (OLD, "v1")


def assert_post_write(result):
    assert result.best.key == "rule-a"
    assert (result.best.word, result.best.payload) == (NEW, "v2")


def test_store_batch_view_is_a_snapshot():
    store = fill(CamStore(make_config()))
    (view,) = store.search_batch([OLD_PROBE], use_cache=False)
    assert view.freeze() is view           # nothing left to copy
    store.update("rule-a", NEW, payload="v2")
    assert_pre_write(view.matches)         # first read after the write
    assert_post_write(store.search(NEW_PROBE, use_cache=False))
    assert not store.search(OLD_PROBE, use_cache=False).matches


def test_query_cache_results_are_snapshots():
    store = fill(CamStore(make_config(cache_size=16)))
    miss = store.search(OLD_PROBE)
    hit = store.search(OLD_PROBE)
    assert hit.cached
    store.update("rule-a", NEW, payload="v2")
    assert_pre_write(miss.matches)
    assert_pre_write(hit.matches)
    after = store.search(OLD_PROBE)
    assert not after.cached and not after.matches
    assert_post_write(store.search(NEW_PROBE))


SERVICE_DOORS = {
    "search": lambda service: service.search(OLD_PROBE),
    "search_many": lambda service: service.search_many([OLD_PROBE])[0],
    "submit_many":
        lambda service: service.submit_many([OLD_PROBE])[0].result(5.0),
    "asearch": lambda service: asyncio.run(service.asearch(OLD_PROBE)),
}


@pytest.mark.parametrize("use_cache", [False, True])
@pytest.mark.parametrize("door", sorted(SERVICE_DOORS))
def test_service_doors_serve_snapshots(door, use_cache):
    store = fill(CamStore(make_config(cache_size=16 if use_cache else 0)))
    with SearchService(store, use_cache=use_cache) as service:
        served = SERVICE_DOORS[door](service)
        service.update("rule-a", NEW, payload="v2")
        assert_pre_write(served.result.matches)
        after = service.search(NEW_PROBE)
    assert after.generation == served.generation + 1
    assert_post_write(after.result)


def test_cluster_burst_door_serves_snapshots():
    # Workers answer with arena rows; the writer resolves them to its
    # own published entries, as every in-process door returns them.
    with ClusterService(config=make_config(), workers=1) as service:
        fill(service)
        published = service.read(lambda store: store.get("rule-a"))
        (served,) = service.search_many([OLD_PROBE])
        assert [m for m in served.result.matches
                if m.key == "rule-a"] == [published]
        assert all(m is published for m in served.result.matches
                   if m.key == "rule-a")
        service.update("rule-a", NEW, payload="v2")
        assert_pre_write(served.result.matches)
        after = service.search_many([NEW_PROBE])[0].result
        assert_post_write(after)
        assert after.best is service.read(lambda store: store.get("rule-a"))


def test_durable_update_leaves_earlier_results_alone():
    directory = tempfile.mkdtemp(prefix="fecam-cow-")
    try:
        store = fill(DurableCamStore(
            make_config(), durability=DurabilityConfig(directory=directory,
                                                       fsync="off")))
        before = store.search(OLD_PROBE)
        replaced = store.update("rule-a", NEW, payload="v2")
        assert_pre_write(before.matches)
        assert (replaced.word, replaced.payload) == (NEW, "v2")
        assert_post_write(store.search(NEW_PROBE))
        store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def test_entry_list_taken_before_an_update_is_unchanged():
    # What reshard's freeze phase relies on: the list it bulk-loads
    # from still names the pre-write words.
    store = fill(CamStore(make_config()))
    frozen = store.entries()
    store.update("rule-a", NEW, payload="v2")
    assert_pre_write(frozen)
    assert {m.key: m.word for m in store.entries()}["rule-a"] == NEW


def test_update_replaces_the_entry_everywhere_the_fabric_indexes_it():
    store = fill(CamStore(make_config()))
    fabric = store.backend.fabric
    old = store.get("rule-a")
    new = store.update("rule-a", NEW, payload="v2")
    assert new is not old
    assert (old.word, old.payload) == (OLD, "v1")      # never mutated
    assert store.get("rule-a") is new
    assert fabric._entries["rule-a"] is new
    assert fabric._row_entry[new.bank * fabric.rows_per_bank + new.row] \
        is new
    assert (new.priority, new.seq, new.bank, new.row) == \
        (old.priority, old.seq, old.bank, old.row)
    # Without a payload the replacement carries the old one over.
    kept = store.update("rule-a", OLD)
    assert (kept.word, kept.payload) == (OLD, "v2")
    assert store.get("rule-a") is kept
