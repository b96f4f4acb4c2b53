"""Golden-fixture suite for the lint rules (FCA001-FCA006).

Each rule gets at least one *bad* fixture (must be flagged with the
right code on the right line) and one *good* fixture (must lint clean),
so a rule regression — stops firing, or starts over-firing — breaks a
named test here rather than silently in CI.

Fixture sources carry a ``# BAD`` marker comment on each line a
violation is expected; ``expect_lines`` resolves them so the tests
assert exact line numbers without brittle hand-counted constants.
"""

from pathlib import Path

import pytest

from fecam.analysis.linter import run_lint


def lint_source(tmp_path: Path, source: str, *, select=None,
                name: str = "fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    return run_lint([path], select=select, root=tmp_path)


def expect_lines(source: str, marker: str = "# BAD"):
    return [i for i, line in enumerate(source.splitlines(), start=1)
            if marker in line]


def codes_and_lines(result):
    return [(v.code, v.line) for v in result.violations]


# -- FCA001: generation discipline ---------------------------------------------

FCA001_BAD = """\
class Engine:
    def rewrite(self, planes, row, value):
        planes.value[row] = value  # BAD
        planes.care[row] = 0  # BAD
"""

FCA001_GOOD = """\
class Engine:
    def rewrite(self, planes, row, value):
        planes.value[row] = value
        planes.care[row] = 0
        planes._bump()

    def rewrite_via_mutator(self, planes, row, value, care):
        planes.set_row(row, value, care)

    def local_buffers(self, value, row):
        scratch = {}
        scratch["value"] = 1
        value[row] = 3  # plain array named value: not a planes buffer
"""

FCA001_SELF = """\
class TernaryPlanes:
    def __init__(self, rows):
        self.value = [0] * rows

    def _bump(self):
        pass

    def poke(self, row):
        self.value[row] = 1  # BAD

    def poke_bumped(self, row):
        self.value[row] = 1
        self._bump()
"""


class TestGenerationDiscipline:
    def test_bad_flagged_with_code_and_line(self, tmp_path):
        result = lint_source(tmp_path, FCA001_BAD)
        assert codes_and_lines(result) == [
            ("FCA001", line) for line in expect_lines(FCA001_BAD)]

    def test_good_clean(self, tmp_path):
        assert lint_source(tmp_path, FCA001_GOOD).ok

    def test_planes_class_self_writes(self, tmp_path):
        result = lint_source(tmp_path, FCA001_SELF)
        assert codes_and_lines(result) == [
            ("FCA001", line) for line in expect_lines(FCA001_SELF)]

    def test_marked_mutator_discharges_callers(self, tmp_path):
        source = """\
from fecam.analysis.markers import mutates_planes

class TernaryPlanes:
    def _bump(self):
        pass

    @mutates_planes
    def set_row(self, row, value):
        self.value[row] = value
        self._bump()

def loader(planes, rows, values):
    for row, value in zip(rows, values):
        planes.set_row(row, value)
"""
        assert lint_source(tmp_path, source).ok


# -- FCA002: lock discipline ---------------------------------------------------

FCA002_FIXTURE = """\
from fecam.analysis.markers import lock_free, requires_lock
from fecam.service.locks import RWLock


class Store:
    @property
    @lock_free
    def width(self):
        return 8

    @property
    @requires_lock("read")
    def generation(self):
        return 0

    @requires_lock("read")
    def search_batch(self, queries):
        return []

    @requires_lock("write")
    def insert(self, word):
        return None

    def occupancy_count(self):
        return 0


class Service:
    def __init__(self, store):
        self.store = store
        self._rw = RWLock()

    def bad_unlocked_read(self):
        return self.store.search_batch([])  # BAD: no lock held

    def bad_read_needs_write(self):
        with self._rw.read_locked():
            self.store.insert("1")  # BAD: write needed, read held

    def bad_unannotated(self):
        return self.store.occupancy_count()  # BAD: unannotated

    def good_locked_read(self):
        with self._rw.read_locked():
            gen = self.store.generation
            return gen, self.store.search_batch([])

    def good_write_satisfies_read(self):
        with self._rw.write_locked():
            self.store.insert("1")
            return self.store.search_batch([])

    def good_lock_free(self):
        return self.store.width

    def write(self, txn):
        with self._rw.write_locked():
            return txn(self.store)

    def good_wrapper_lambda(self, word):
        return self.write(lambda store: store.insert(word))


class NotLockOwner:
    def __init__(self, store):
        self.store = store

    def free_for_all(self):
        return self.store.search_batch([])
"""


class TestLockDiscipline:
    def test_fixture(self, tmp_path):
        result = lint_source(tmp_path, FCA002_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA002", line) for line in expect_lines(FCA002_FIXTURE)]

    def test_marked_method_decorator_grants_mode(self, tmp_path):
        source = """\
from fecam.analysis.markers import requires_lock
from fecam.service.locks import RWLock


class Store:
    @requires_lock("read")
    def search_batch(self, queries):
        return []


class Service:
    def __init__(self, store):
        self.store = store
        self._rw = RWLock()

    @requires_lock("read")
    def _serve_one(self):
        return self.store.search_batch([])
"""
        assert lint_source(tmp_path, source).ok


# Lock ownership is inherited: the base lives in another module and the
# subclasses name it by a dotted path and through another subclass.
INHERITED_BASE = """\
from fecam.analysis.markers import requires_lock
from fecam.service.locks import RWLock


class Store:
    @requires_lock("read")
    def search_batch(self, queries):
        return []


class Service:
    def __init__(self, store):
        self.store = store
        self._rw = RWLock()
"""

INHERITED_FCA002 = """\
import base


class ClusterService(base.Service):
    def search_many(self, queries):
        return self.store.search_batch(queries)  # BAD: no lock held

    def search_locked(self, queries):
        with self._rw.read_locked():
            return len(self.store.search_batch(queries))


class Grandchild(ClusterService):
    def peek(self):
        return self.store.search_batch([])  # BAD: no lock held
"""

INHERITED_FCA004 = """\
from base import Service


class ServedResult:
    def __init__(self, result=None):
        self.result = result


class ClusterService(Service):
    def serve(self, future):
        with self._rw.read_locked():
            results = self.store.search_batch(["1"])
        future.set_result(ServedResult(results[0]))  # BAD
"""


def lint_with_base(tmp_path: Path, source: str, *, select):
    (tmp_path / "base.py").write_text(INHERITED_BASE)
    (tmp_path / "sub.py").write_text(source)
    return run_lint([tmp_path / "sub.py", tmp_path / "base.py"],
                    select=select, root=tmp_path)


class TestInheritedLockOwnership:
    def test_subclass_store_access_checked(self, tmp_path):
        result = lint_with_base(tmp_path, INHERITED_FCA002,
                                select={"FCA002"})
        assert codes_and_lines(result) == [
            ("FCA002", line) for line in expect_lines(INHERITED_FCA002)]

    def test_subclass_live_result_escape_flagged(self, tmp_path):
        result = lint_with_base(tmp_path, INHERITED_FCA004,
                                select={"FCA004"})
        assert codes_and_lines(result) == [
            ("FCA004", line) for line in expect_lines(INHERITED_FCA004)]


# -- FCA003: frozen-dataclass mutation -----------------------------------------

FCA003_FIXTURE = """\
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Fom:
    energy: float = 0.0


@dataclass
class MutableStats:
    count: int = 0


def bad_assign(fom: Fom):
    fom.energy = 1.0  # BAD


def bad_constructed():
    point = Fom(energy=2.0)
    point.energy = 3.0  # BAD


def bad_setattr(fom: Fom):
    setattr(fom, "energy", 1.0)  # BAD


def bad_backdoor(fom):
    object.__setattr__(fom, "energy", 1.0)  # BAD


def good_replace(fom: Fom):
    return replace(fom, energy=1.0)


def good_mutable(stats: MutableStats):
    stats.count += 1
    return stats
"""

FCA003_POST_INIT = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class DesignPoint:
    rows: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rows", max(0, self.rows))
"""


class TestFrozenMutation:
    def test_fixture(self, tmp_path):
        result = lint_source(tmp_path, FCA003_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA003", line) for line in expect_lines(FCA003_FIXTURE)]

    def test_post_init_backdoor_allowed(self, tmp_path):
        assert lint_source(tmp_path, FCA003_POST_INIT).ok


# -- FCA004: snapshot escape ---------------------------------------------------

FCA004_FIXTURE = """\
from dataclasses import replace
from fecam.service.locks import RWLock


class ServedResult:
    def __init__(self, result=None):
        self.result = result


class Service:
    def __init__(self, store):
        self.store = store
        self._rw = RWLock()

    def bad_live_result(self, future):
        results = self.store.search_batch(["1"])  # fecam: noqa[FCA002]
        future.set_result(ServedResult(result=results[0]))  # BAD

    def good_frozen_result(self, future):
        results = self.store.search_batch(["1"])  # fecam: noqa[FCA002]
        frozen = [replace(r) for r in results]
        future.set_result(ServedResult(result=frozen[0]))

    def good_rebound_name(self, future, outcomes):
        results = self.store.search_batch(["1"])  # fecam: noqa[FCA002]
        frozen = [replace(r) for r in results]
        for group, results in outcomes:
            for pending, result in zip(group, results):
                future.set_result(ServedResult(result=result))
"""

FCA004_BUFFERS = """\
class Exporter:
    def dump(self, planes):
        return planes.value  # BAD

    def dump_copy(self, planes):
        return planes.value.copy()

    def _internal(self, planes):
        return planes.value
"""


class TestSnapshotEscape:
    def test_live_results(self, tmp_path):
        result = lint_source(tmp_path, FCA004_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA004", line) for line in expect_lines(FCA004_FIXTURE)]

    def test_raw_buffer_returns(self, tmp_path):
        result = lint_source(tmp_path, FCA004_BUFFERS)
        assert codes_and_lines(result) == [
            ("FCA004", line) for line in expect_lines(FCA004_BUFFERS)]


# -- FCA005: hot-path hygiene --------------------------------------------------

FCA005_FIXTURE = """\
import time
import numpy as np
from fecam.analysis.markers import hot_path


@hot_path
def bad_kernel(rows, out, arena):
    start = time.time()  # BAD
    scratch = np.copy(arena)  # BAD
    local = arena.copy()  # BAD
    for row in rows:
        out.append(row)  # BAD
    return start, scratch, local


@hot_path
def good_kernel(rows, arena):
    start = time.perf_counter()
    gathered = [row for row in rows]
    prepared = list(rows)
    prepared.append(0)
    return start, gathered, prepared


def cold_path(rows, out, arena):
    start = time.time()
    for row in rows:
        out.append(row)
    return start, np.copy(arena)
"""


FCA005_EXEMPT_FIXTURE = """\
import time
from fecam.analysis.markers import hot_path


@hot_path(exempt="ctypes shim: loops run in compiled code")
def exempt_shim(rows, out, arena):
    start = time.time()
    local = arena.copy()
    for row in rows:
        out.append(row)
    return start, local


@hot_path
def still_checked(rows, out):
    for row in rows:
        out.append(row)  # BAD
"""

FCA005_NON_EXEMPT_CALLS = """\
import time
from fecam.analysis.markers import hot_path


@hot_path(exempt="")
def empty_reason(out, rows):
    for row in rows:
        out.append(row)  # BAD: empty reason exempts nothing


@hot_path(exempt=reason_variable)
def dynamic_reason(out, rows):
    for row in rows:
        out.append(row)  # BAD: reason must be a literal
"""


class TestHotPathHygiene:
    def test_fixture(self, tmp_path):
        result = lint_source(tmp_path, FCA005_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA005", line) for line in expect_lines(FCA005_FIXTURE)]

    def test_exempt_decorator_suppresses_checks(self, tmp_path):
        result = lint_source(tmp_path, FCA005_EXEMPT_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA005", line) for line in
            expect_lines(FCA005_EXEMPT_FIXTURE)]

    def test_only_literal_nonempty_reasons_exempt(self, tmp_path):
        result = lint_source(tmp_path, FCA005_NON_EXEMPT_CALLS)
        assert codes_and_lines(result) == [
            ("FCA005", line) for line in
            expect_lines(FCA005_NON_EXEMPT_CALLS)]


# -- FCA006: observability hygiene ---------------------------------------------

FCA006_FIXTURE = """\
SPAN_NAME = "store.search_batch"
BAD_CONSTANT = "has spaces"


def instrument(registry, trace, targets, index):
    registry.counter("fecam_requests_total")
    registry.counter(f"fecam_{index}_total")  # BAD: dynamic
    registry.counter("bad name!")  # BAD: regex
    registry.gauge(unknown_name)  # BAD: unresolvable
    trace.record(SPAN_NAME, 0.0, 1.0)
    trace.record("queue", 0.0, 1.0)
    trace.record("Queue Stage", 0.0, 1.0)  # BAD: regex
    trace.record(BAD_CONSTANT, 0.0, 1.0)  # BAD: constant regex


def forwarding_wrapper(trace, name):
    trace.record(name, 0.0, 1.0)
"""


class TestObsHygiene:
    def test_fixture(self, tmp_path):
        result = lint_source(tmp_path, FCA006_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA006", line) for line in expect_lines(FCA006_FIXTURE)]

    def test_record_span_and_trace_stage(self, tmp_path):
        source = """\
def kernel(targets):
    record_span(targets, "fabric.merge", 0.0, 1.0)
    record_span(targets, "Bad Name", 0.0, 1.0)  # BAD
    with trace_stage("kernel.fused"):
        pass
"""
        result = lint_source(tmp_path, source)
        assert codes_and_lines(result) == [
            ("FCA006", line) for line in expect_lines(source)]


# -- recovery path: the durable subsystem's shapes, as golden fixtures ---------

RECOVERY_FCA001_FIXTURE = """\
from fecam.analysis.markers import mutates_planes


class TernaryPlanes:
    def _bump(self):
        pass

    @mutates_planes
    def load(self, value, care, valid):
        self.value[...] = value
        self.care[...] = care
        self.valid[...] = valid
        self._bump()


def restore_raw(planes, value, care, valid):
    planes.value[...] = value  # BAD: wholesale write, no bump
    planes.care[...] = care  # BAD
    planes.valid[...] = valid  # BAD


def restore_via_load(planes, value, care, valid):
    planes.load(value, care, valid)
"""

RECOVERY_FCA002_FIXTURE = """\
from fecam.analysis.markers import requires_lock
from fecam.service.locks import RWLock


class DurableStore:
    @requires_lock("read")
    def snapshot(self):
        return "snap"

    @requires_lock("write")
    def insert(self, word):
        return None


class DurableService:
    def __init__(self, store):
        self.store = store
        self._rw = RWLock()

    def bad_unlocked_snapshot(self):
        return self.store.snapshot()  # BAD: snapshot needs the read lock

    def good_snapshot_rides_the_read_lock(self):
        with self._rw.read_locked():
            return self.store.snapshot()

    def write(self, txn):
        with self._rw.write_locked():
            return txn(self.store)

    def good_reshard_commit_txn(self, word):
        return self.write(lambda store: store.insert(word))
"""


class TestRecoveryPathFixtures:
    def test_raw_planes_restore_flagged(self, tmp_path):
        result = lint_source(tmp_path, RECOVERY_FCA001_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA001", line)
            for line in expect_lines(RECOVERY_FCA001_FIXTURE)]

    def test_unlocked_snapshot_flagged(self, tmp_path):
        result = lint_source(tmp_path, RECOVERY_FCA002_FIXTURE)
        assert codes_and_lines(result) == [
            ("FCA002", line)
            for line in expect_lines(RECOVERY_FCA002_FIXTURE)]


# -- the shipped tree is the ultimate good fixture -----------------------------

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.skipif(not (REPO_ROOT / "src" / "fecam").is_dir(),
                    reason="repo layout not available")
def test_shipped_tree_lints_clean():
    """Acceptance criterion: src/fecam has zero violations, no baseline."""
    result = run_lint([REPO_ROOT / "src" / "fecam"], root=REPO_ROOT)
    assert result.ok, "\n".join(v.render() for v in result.violations)
