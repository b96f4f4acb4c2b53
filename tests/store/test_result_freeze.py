"""Snapshot semantics of ``QueryResult.freeze``.

Published ``Match`` objects are never mutated (a write replaces them),
so freezing a result is a shallow copy: a fresh match list holding the
same ``Match`` objects, which a caller may mutate without touching the
original.
"""

from fecam.store.result import Match, Query, QueryResult


def live_matches():
    return [Match(key="a", word="0101", priority=0.0, bank=0, row=0,
                  payload={"tag": 1}, seq=0),
            Match(key="b", word="1111", priority=1.0, bank=1, row=3,
                  payload=None, seq=1)]


def test_freeze_detaches_from_live_matches():
    live = live_matches()
    result = QueryResult(query=Query(bits="0101"), matches=live,
                         energy=2.0, latency=0.5)
    frozen = result.freeze()
    # A fresh list of the same (never mutated) Match objects.
    assert frozen.matches is not live
    assert all(a is b for a, b in zip(frozen.matches, live, strict=True))
    # Reshaping either list leaves the other alone.
    live.pop()
    assert [m.key for m in frozen.matches] == ["a", "b"]
    frozen.matches.clear()
    assert [m.key for m in result.matches] == ["a"]
    # Scalars and the query ride along unchanged.
    assert frozen.energy == 2.0
    assert frozen.latency == 0.5
    assert frozen.query == result.query
    assert frozen.cached is result.cached


def test_result_convenience_accessors_work_frozen():
    result = QueryResult(query=Query(bits="0101"),
                         matches=live_matches()).freeze()
    assert result.best.key == "a"
    assert result.match_keys == ["a", "b"]
    assert len(result) == 2
    assert bool(result)                    # zero-match results stay truthy
    empty = QueryResult(query=Query(bits="0101")).freeze()
    assert empty.best is None
    assert len(empty) == 0
    assert bool(empty)
