"""SharedArena unit tests: the seqlock primitive under the cluster.

Everything here is single-host and mostly single-process on purpose —
the arena is an mmap file, so a second :meth:`SharedArena.attach` in
the *same* process exercises the identical code path a worker process
runs, deterministically.  The cross-process behaviour rides on top in
``test_cluster_service.py`` / ``test_cluster_stress.py``.
"""

import os
import threading
import time

import numpy as np
import pytest

from fecam.cluster import SharedArena, default_shm_dir
from fecam.errors import OperationError, WorkerUnavailable
from fecam.fabric import TcamFabric

from cluster_utils import fast_model


@pytest.fixture
def arena(tmp_path):
    arena = SharedArena.create(rows=8, width=8, base_dir=str(tmp_path))
    yield arena
    arena.unlink()


class TestLayout:
    def test_create_then_attach_shares_geometry_and_bytes(
            self, arena, tmp_path):
        reader = SharedArena.attach(arena.directory)
        try:
            assert (reader.rows, reader.width, reader.n_chunks) == \
                (arena.rows, arena.width, arena.n_chunks)
            planes = arena.planes()
            view = reader.planes()
            planes.set_row(3, np.array([0b1010], dtype=np.uint64),
                           np.array([0xFF], dtype=np.uint64))
            # Same pages: the write is visible through the other
            # mapping with no copy and no flush.
            assert view.valid[3]
            assert view.value[3, 0] == planes.value[3, 0] == 0b1010
            assert view.care[3, 0] == planes.care[3, 0] == 0xFF
        finally:
            reader.close()

    def test_attach_times_out_on_missing_arena(self, tmp_path):
        with pytest.raises(WorkerUnavailable):
            SharedArena.attach(str(tmp_path / "nope"), timeout=0.1)

    def test_attach_waits_for_magic(self, arena):
        # Truncate the magic away: an attacher must poll, then give up
        # with the typed error instead of mapping half-initialized
        # geometry.
        header = arena._header
        magic = int(header[0])
        header[0] = 0
        with pytest.raises(WorkerUnavailable):
            SharedArena.attach(arena.directory, timeout=0.2)
        header[0] = magic
        reader = SharedArena.attach(arena.directory, timeout=0.2)
        reader.close()

    def test_bad_geometry_rejected(self, tmp_path):
        with pytest.raises(OperationError):
            SharedArena.create(rows=0, width=8, base_dir=str(tmp_path))

    def test_default_dir_prefers_tmpfs_when_present(self):
        d = default_shm_dir()
        assert os.path.isdir(d)
        if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
            assert d == "/dev/shm"


class TestPublishProtocol:
    def test_window_brackets_seq_and_generation(self, arena):
        assert arena.seq == 0 and arena.generation == 0
        arena.begin_publish()
        assert arena.seq == 1  # odd: window open
        arena.end_publish(generation=7)
        assert arena.seq == 2 and arena.generation == 7

    def test_closing_without_generation_keeps_the_old_one(self, arena):
        arena.begin_publish()
        arena.end_publish(generation=3)
        arena.begin_publish()
        arena.end_publish()  # validation-failure path
        assert arena.generation == 3
        assert arena.seq % 2 == 0

    def test_double_begin_and_stray_end_rejected(self, arena):
        arena.begin_publish()
        with pytest.raises(OperationError):
            arena.begin_publish()
        arena.end_publish()
        with pytest.raises(OperationError):
            arena.end_publish()

    def test_row_columns_ride_the_window(self, arena):
        """The fabric keeps its priority/seq/live columns in the arena:
        what the writer sets inside a window an attached reader sees,
        and a read that straddles a window retries — it never returns
        columns from the middle of one."""
        fabric = TcamFabric(banks=2, rows_per_bank=4, width=8,
                            energy_model=fast_model(8),
                            arena=arena.planes())
        reader = SharedArena.attach(arena.directory)
        try:
            priority, seq, live = reader.planes().row_columns
            arena.begin_publish()
            entry = fabric.insert("1010XXXX", key="a", priority=2.5, seq=7)
            arena.end_publish(generation=1)
            row = entry.bank * 4 + entry.row
            assert (priority[row], seq[row], live[row]) == (2.5, 7, True)

            attempts = []

            def read():
                attempts.append(1)
                observed = bool(live[row])
                if len(attempts) == 1:  # a delete lands mid-read
                    arena.begin_publish()
                    fabric.delete("a")
                    arena.end_publish(generation=2)
                return observed

            assert reader.read_consistent(read) is False
            assert len(attempts) == 2
        finally:
            reader.close()


class TestReadConsistent:
    def test_plain_read_runs_once(self, arena):
        calls = []
        out = arena.read_consistent(lambda: calls.append(1) or 42)
        assert out == 42 and len(calls) == 1

    def test_read_blocks_while_window_open(self, arena):
        """A reader entering during a window waits for the close and
        then sees the fully published state — never the torn middle."""
        planes = arena.planes()
        one = np.array([0xFF], dtype=np.uint64)
        arena.begin_publish()
        planes.set_row(0, one, one)  # half-applied mutation

        def close_later():
            time.sleep(0.05)
            planes.set_row(1, one, one)
            arena.end_publish(generation=1)

        closer = threading.Thread(target=close_later)
        closer.start()
        observed = arena.read_consistent(
            lambda: (arena.generation, int(np.sum(arena.planes().valid))))
        closer.join()
        assert observed == (1, 2)  # both rows, published generation

    def test_torn_window_retries_and_busts_caches(self, arena):
        """seq moving mid-read discards the attempt, fires ``on_retry``
        (the replica's memo-bust hook), and re-runs ``fn``."""
        busted = []
        attempts = []

        def fn():
            attempts.append(1)
            if len(attempts) == 1:
                # A publish lands in the middle of the first attempt.
                arena.begin_publish()
                arena.end_publish(generation=1)
            return arena.generation

        out = arena.read_consistent(fn, on_retry=lambda: busted.append(1))
        assert out == 1
        assert len(attempts) == 2 and busted == [1]

    def test_exception_during_torn_window_is_swallowed(self, arena):
        attempts = []

        def fn():
            attempts.append(1)
            if len(attempts) == 1:
                arena.begin_publish()
                arena.end_publish(generation=1)
                raise ValueError("malformed half-applied content")
            return "ok"

        assert arena.read_consistent(fn) == "ok"

    def test_exception_with_stable_seq_propagates(self, arena):
        with pytest.raises(ValueError, match="real bug"):
            arena.read_consistent(lambda: (_ for _ in ()).throw(
                ValueError("real bug")))

    def test_wedged_window_times_out_typed(self, arena):
        """Writer died mid-publish (seq stuck odd): the reader must
        fail with the typed error, not return a torn view."""
        arena.begin_publish()
        with pytest.raises(WorkerUnavailable, match="never closed"):
            arena.read_consistent(lambda: 1, timeout=0.2)


class TestLifecycle:
    def test_close_is_idempotent_and_tolerates_live_planes(self, arena):
        view = arena.planes()  # keeps an ndarray export alive
        arena.close()
        arena.close()
        assert view.rows == 8  # pages live until the view dies

    def test_unlink_removes_the_directory(self, tmp_path):
        arena = SharedArena.create(rows=4, width=8,
                                   base_dir=str(tmp_path))
        directory = arena.directory
        assert os.path.isdir(directory)
        arena.unlink()
        assert not os.path.exists(directory)
        arena.unlink()  # idempotent
