"""Seqlock torn-read fault injection.

The publish-window seams (``publish_hook`` and the
``cluster.publish.*`` :class:`CrashPoint` sites) stall or kill the
writer at the worst possible instant — *after* the planes mutated,
*before* the window closed — while a reader races it.  The contract
under test: a reader either waits out the window and observes the
fully published state, or (if the writer is dead and the window will
never close) fails with the typed :class:`WorkerUnavailable` — it
never returns a half-applied view.

Readers here are in-process :class:`Replica` instances attached to the
backend's arena: the identical code path a worker process runs, minus
the pipe — which makes the races deterministic enough to script with
events.  ``test_cluster_service.py`` covers the same seams through
real worker processes.
"""

import threading

import pytest

from fecam.cluster import ClusterBackend, Replica, SharedArena
from fecam.durable.crash import CrashPoint
from fecam.errors import SimulatedCrash, WorkerUnavailable

from cluster_utils import make_config

WORDS = ["1010XXXXXXXX", "10101111XXXX", "0101XXXXXXXX"]
PROBE = "101011111111"


@pytest.fixture
def backend(cluster_config):
    backend = ClusterBackend(cluster_config, workers=1)
    yield backend
    backend.close()


@pytest.fixture
def replica(backend):
    arena = SharedArena.attach(backend.arena.directory)
    yield Replica(arena, backend.config, read_timeout=5.0)
    arena.close()


def writer_keys(backend, rows):
    """Keys of the writer's entries in arena ``rows`` (a worker answers
    with rows; the writer resolves them)."""
    return [backend.fabric._row_entry[row].key for row in rows]


def serve(backend, replica, probe=PROBE, timeout=None):
    if timeout is not None:
        replica.read_timeout = timeout
    generation, rows, _, _, _ = replica.serve_search([probe], None)
    return generation, writer_keys(backend, rows)


class TestStalledWriter:
    def test_reader_waits_out_an_open_window(self, backend, replica):
        """A read racing a mid-mutation writer returns the *new* state
        once the window closes — and only then."""
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        in_window = threading.Event()
        release = threading.Event()

        def stall(site):
            if site == "cluster.publish.mid":
                in_window.set()
                assert release.wait(10)

        backend.publish_hook = stall
        writer = threading.Thread(
            target=backend.insert,
            args=("10101111XXXX", "b", 1.0, None, 1))
        writer.start()
        assert in_window.wait(10)
        # The window is open: the new row is (half-)applied but not
        # published.  A reader started now must block, not serve gen 1
        # content tagged gen 2 — prove it by releasing the writer from
        # a timer and checking the read spans the release.
        assert backend.arena.seq % 2 == 1
        timer = threading.Timer(0.1, release.set)
        timer.start()
        generation, keys = serve(backend, replica)
        writer.join()
        timer.join()
        assert generation == 2
        assert keys == ["a", "b"]  # the fully published state

    def test_read_before_the_window_sees_the_old_state(
            self, backend, replica):
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        generation, keys = serve(backend, replica)
        assert generation == 1 and keys == ["a"]

    def test_publish_during_read_retries_with_fresh_caches(
            self, backend, replica):
        """A publish landing mid-read tears the attempt; the replica
        must bust its derived/step1 memos and retry — stale memos over
        new planes are exactly the silent-wrong-answer failure mode."""
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        serve(backend, replica)  # warm the replica's memos at generation 1
        fired = []
        real_refresh = replica._refresh

        def racing_refresh():
            generation = real_refresh()
            if not fired:
                fired.append(1)
                backend.insert("10101111XXXX", "b", 1.0, None, 1)
            return generation

        replica._refresh = racing_refresh
        generation, keys = serve(backend, replica)
        assert generation == 2
        assert keys == ["a", "b"]


class TestDeadWriter:
    def test_wedged_window_turns_into_typed_timeout(
            self, backend, replica):
        """Writer killed inside the window: seq stays odd forever, and
        the reader's only correct answer is WorkerUnavailable."""
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        backend.crash_point = CrashPoint("cluster.publish.mid")
        with pytest.raises(SimulatedCrash):
            backend.insert("10101111XXXX", "b", 1.0, None, 1)
        assert backend.writer_failed
        assert backend.arena.seq % 2 == 1  # wedged open
        with pytest.raises(WorkerUnavailable, match="never closed"):
            serve(backend, replica, timeout=0.3)

    def test_crash_before_window_leaves_reads_serving(
            self, backend, replica):
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        backend.crash_point = CrashPoint("cluster.publish.before")
        with pytest.raises(SimulatedCrash):
            backend.insert("10101111XXXX", "b", 1.0, None, 1)
        assert backend.arena.seq % 2 == 0  # never opened
        generation, keys = serve(backend, replica)
        assert generation == 1 and keys == ["a"]

    def test_crash_after_publish_keeps_the_new_generation(
            self, backend, replica):
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        backend.crash_point = CrashPoint("cluster.publish.after")
        with pytest.raises(SimulatedCrash):
            backend.insert("10101111XXXX", "b", 1.0, None, 1)
        assert backend.writer_failed
        assert backend.arena.seq % 2 == 0  # published, then died
        generation, keys = serve(backend, replica)
        assert generation == 2 and keys == ["a", "b"]


class TestResultsAcrossAPublish:
    def test_earlier_results_keep_their_entries(self):
        """Workers answer with rows, which the writer resolves to its
        published entries; a result computed before a publish still
        names the entry that sat in the row when it searched, not the
        one reusing it now."""
        backend = ClusterBackend(make_config(banks=1), workers=1)
        arena = SharedArena.attach(backend.arena.directory)
        try:
            replica = Replica(arena, backend.config, read_timeout=5.0)
            old = backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
            assert serve(backend, replica) == (1, ["a"])
            earlier = backend.search_batch([PROBE])
            backend.delete("a")
            new = backend.insert("10101111XXXX", "b", 1.0, None, 1)
            assert (new.bank, new.row) == (old.bank, old.row)
            assert serve(backend, replica) == (3, ["b"])
            assert earlier[0].match_keys == ["a"]
            assert earlier[0].matches[0].key == "a"
        finally:
            arena.close()
            backend.close()


class TestMaskedMemoAcrossATornWindow:
    def test_bust_drops_a_masked_slot_built_from_torn_content(
            self, backend, replica):
        """A masked derivation built while a window was open (here: a
        row transiently cleared, then restored, the generation never
        moving) must not survive the retry — the bust drops the masked
        slot too, so the retry re-derives from the restored planes."""
        mask = "111111110000"
        backend.insert("1010XXXXXXXX", "a", 0.0, None, 0)
        entry = backend.get("a")
        row = entry.bank * backend.config.rows_per_bank + entry.row
        writer_planes = backend.arena.planes()
        saved = (writer_planes.value[row].copy(),
                 writer_planes.care[row].copy())
        real_refresh = replica._refresh
        torn = []

        def restore():
            writer_planes.set_row(row, *saved)
            backend.arena.end_publish()  # generation untouched

        def tearing_refresh():
            generation = real_refresh()
            if not torn:
                torn.append(1)
                backend.arena.begin_publish()
                writer_planes.clear_row(row)
                threading.Timer(0.05, restore).start()
            return generation

        replica._refresh = tearing_refresh
        generation, rows, _, _, _ = replica.serve_search([PROBE], mask)
        assert torn and generation == 1
        assert writer_keys(backend, rows) == ["a"]
        replica._refresh = real_refresh
        # Served again at the unchanged generation: still the restored
        # content, through the memoized masked slot.
        for _ in range(2):
            _, rows, _, _, _ = replica.serve_search([PROBE], mask)
            assert writer_keys(backend, rows) == ["a"]
