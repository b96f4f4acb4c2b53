"""Seeded-violation tests for the runtime sanitizer.

Positive direction: disciplined use (every access under the right lock
mode, every mutation bumping the generation) produces zero violations.
Negative direction: each invariant is deliberately broken — a lock
dropped, a generation bump skipped in a test double — and the test
asserts the sanitizer reports exactly that violation.  Lock misuse
that would deadlock (read->write upgrade, re-entrant write) must raise
immediately rather than hang the suite.
"""

import threading

import numpy as np
import pytest

from fecam.analysis import sanitize
from fecam.analysis.sanitize import (LockMonitor, SanitizerError,
                                     instrument_planes)
from fecam.planes import TernaryPlanes
from fecam.service import SearchService
from fecam.service.locks import RWLock
from fecam.store import CamStore, StoreConfig


@pytest.fixture(autouse=True)
def clean_collector():
    sanitize.reset()
    yield
    sanitize.reset()


@pytest.fixture()
def monitored():
    lock = RWLock()
    monitor = LockMonitor(lock)
    return lock, monitor


def kinds():
    return [violation.kind for violation in sanitize.violations()]


def ops():
    return [violation.op for violation in sanitize.violations()]


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("FECAM_SANITIZE", raising=False)
        assert not sanitize.enabled()
        assert sanitize.maybe_sanitize_service(object()) is None

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes", "raise"])
    def test_enabled_values(self, monkeypatch, value):
        monkeypatch.setenv("FECAM_SANITIZE", value)
        assert sanitize.enabled()

    def test_raise_mode(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "raise")
        assert sanitize.raise_mode()
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        assert not sanitize.raise_mode()


class TestLockMonitor:
    def test_tracks_read_and_write_holds(self, monitored):
        lock, monitor = monitored
        assert not monitor.holds_read()
        with lock.read_locked():
            assert monitor.holds_read()
            assert not monitor.holds_write()
        assert not monitor.holds_read()
        with lock.write_locked():
            assert monitor.holds_write()
            assert monitor.holds_read()  # write satisfies read
        assert not monitor.holds_write()

    def test_locksets_are_per_thread(self, monitored):
        lock, monitor = monitored
        seen = {}

        def other():
            seen["read"] = monitor.holds_read()

        with lock.read_locked():
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen["read"] is False

    def test_upgrade_deadlock_raises(self, monitored):
        lock, _ = monitored
        with lock.read_locked():
            with pytest.raises(SanitizerError, match="upgrade"):
                lock.acquire_write()

    def test_reentrant_write_raises(self, monitored):
        lock, _ = monitored
        with lock.write_locked():
            with pytest.raises(SanitizerError, match="re-entrant"):
                lock.acquire_write()

    def test_read_while_writing_raises(self, monitored):
        lock, _ = monitored
        with lock.write_locked():
            with pytest.raises(SanitizerError, match="self-deadlock"):
                lock.acquire_read()

    def test_unmonitored_lock_unchanged(self):
        lock = RWLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass


def make_guarded_planes(rows=8, width=8):
    lock = RWLock()
    monitor = LockMonitor(lock)
    planes = TernaryPlanes(rows, width)
    instrument_planes(planes, monitor, label="test.planes")
    return lock, planes


def packed_row(planes, fill=1):
    value = np.full(planes.n_chunks, fill, dtype=np.uint64)
    care = np.full(planes.n_chunks, 3, dtype=np.uint64)
    return value, care


class TestInstrumentedPlanes:
    def test_disciplined_use_is_clean(self):
        lock, planes = make_guarded_planes()
        value, care = packed_row(planes)
        with lock.write_locked():
            planes.set_row(0, value, care)
        with lock.read_locked():
            planes.derived()
            planes.stored_word(0)
        assert sanitize.violations() == []

    def test_unlocked_write_reported(self):
        _lock, planes = make_guarded_planes()
        value, care = packed_row(planes)
        planes.set_row(0, value, care)
        assert "unlocked-write" in kinds()
        assert "test.planes.set_row" in ops()

    def test_unlocked_read_reported(self):
        _lock, planes = make_guarded_planes()
        planes.derived()
        assert "unlocked-read" in kinds()

    def test_unlocked_masked_read_reported(self):
        lock, planes = make_guarded_planes()
        mask = np.full(planes.n_chunks, 0x0F, dtype=np.uint64)
        with lock.read_locked():
            planes.derived(mask)
            planes.step1_index(mask)
        assert sanitize.violations() == []
        planes.derived(mask)
        assert kinds() == ["unlocked-read"]
        assert ops() == ["test.planes.derived"]
        planes.step1_index(mask)
        assert ops()[-1] == "test.planes.step1_index"

    def test_read_lock_insufficient_for_write(self):
        lock, planes = make_guarded_planes()
        value, care = packed_row(planes)
        with lock.read_locked():
            planes.set_row(0, value, care)
        assert "unlocked-write" in kinds()

    def test_missing_bump_in_test_double_reported(self):
        class SkipsBumpPlanes(TernaryPlanes):
            # The seeded bug: writes content, "forgets" the bump.
            def set_row(self, row, value, care):
                self.value[row] = value
                self.care[row] = care
                self.valid[row] = True

        lock = RWLock()
        monitor = LockMonitor(lock)
        planes = SkipsBumpPlanes(8, 8)
        instrument_planes(planes, monitor, label="double")
        value, care = packed_row(planes)
        with lock.write_locked():
            planes.set_row(0, value, care)
        assert kinds() == ["missing-generation-bump"]
        assert ops() == ["double.set_row"]

    def test_identical_rewrite_needs_no_bump(self):
        # set_row's no-op fast path (bit-identical rewrite) must not be
        # punished: content did not change, no bump owed.
        lock, planes = make_guarded_planes()
        value, care = packed_row(planes)
        with lock.write_locked():
            planes.set_row(0, value, care)
            generation = planes.generation
            planes.set_row(0, value, care)
        assert planes.generation == generation
        assert sanitize.violations() == []

    def test_unlocked_bump_reported(self):
        _lock, planes = make_guarded_planes()
        planes._bump()
        assert kinds() == ["unlocked-write"]
        assert ops() == ["test.planes._bump"]

    def test_inactive_gate_suppresses_checks(self):
        lock = RWLock()
        monitor = LockMonitor(lock)
        planes = TernaryPlanes(8, 8)
        instrument_planes(planes, monitor, label="gated",
                          active=lambda: False)
        planes.derived()
        value, care = packed_row(planes)
        planes.set_row(0, value, care)
        assert sanitize.violations() == []


class TestServiceIntegration:
    @pytest.mark.parametrize("backend", ["array", "fabric"])
    def test_disciplined_service_is_clean(self, monkeypatch, backend):
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        banks = 4 if backend == "fabric" else 1
        store = CamStore(StoreConfig(width=8, rows=64, banks=banks,
                                     backend=backend))
        with SearchService(store) as service:
            service.insert("1010XXXX", key="a")
            service.insert_many(["0101XXXX"], keys=["b"])
            assert service.search("10101111").result.matches
            service.update("b", "0101XX10")
            service.delete("a")
            service.stats
        assert sanitize.violations() == []

    def test_direct_store_write_reported(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        store = CamStore(StoreConfig(width=8, rows=64, banks=4,
                                     backend="fabric"))
        with SearchService(store) as service:
            service.insert("1010XXXX", key="a")
            # The seeded bug: bypassing service.write() while the
            # service is live mutates the arena without the write lock.
            store.insert("0000XXXX", key="rogue")
            assert "unlocked-write" in kinds()

    def test_direct_arena_read_reported(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        store = CamStore(StoreConfig(width=8, rows=64, banks=4,
                                     backend="fabric"))
        with SearchService(store):
            store.backend.fabric.arena.derived()
        assert "unlocked-read" in kinds()

    def test_closed_service_deactivates(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        store = CamStore(StoreConfig(width=8, rows=32))
        service = SearchService(store)
        service.insert("1010XXXX", key="a")
        service.close()
        sanitize.reset()
        # Post-close maintenance access is not a serving-path hazard.
        store.insert("0101XXXX", key="post")
        assert sanitize.violations() == []

    def test_preload_before_service_is_unchecked(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "1")
        store = CamStore(StoreConfig(width=8, rows=64, banks=4,
                                     backend="fabric"))
        store.insert_many(["1010XXXX", "0101XXXX"], keys=["a", "b"])
        with SearchService(store) as service:
            assert service.search("10101111").result.matches
        assert sanitize.violations() == []

    def test_raise_mode_raises_at_call_site(self, monkeypatch):
        monkeypatch.setenv("FECAM_SANITIZE", "raise")
        store = CamStore(StoreConfig(width=8, rows=64, banks=4,
                                     backend="fabric"))
        with SearchService(store) as service:
            service.insert("1010XXXX", key="a")
            with pytest.raises(SanitizerError, match="unlocked-write"):
                store.insert("0000XXXX", key="rogue")
