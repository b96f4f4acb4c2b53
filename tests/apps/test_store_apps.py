"""Every application workload runs on every store layout.

Each app is parametrized over a one-bank config, a multi-bank config
(with query caching), and the inert ``backend="array"`` spelling (one
bank; kept while the frozen benchmark passes it) and verified against
its pure-software reference — the acceptance contract of the
`fecam.store` design: sharding, batching, and caching are config edits
that never change answers.
"""

import random

import pytest

from fecam.apps import (HammingSearcher, OneShotClassifier, Packet, Rule,
                        SeedIndex, TcamCache, TcamClassifier, TcamRouter,
                        int_to_ip, vote_alignment)
from fecam.store import StoreConfig

CONFIGS = [
    pytest.param(StoreConfig(backend="array"), id="array"),
    pytest.param(StoreConfig(banks=3, cache_size=16), id="fabric"),
    pytest.param(StoreConfig(banks=1, backend="fabric"),
                 id="fabric-1bank"),
]


@pytest.mark.parametrize("config", CONFIGS)
class TestRouterOnBothBackends:
    def test_matches_reference(self, config):
        rng = random.Random(5)
        router = TcamRouter(capacity=128, store_config=config)
        router.add_route("0.0.0.0/0", "default")
        for i in range(40):
            net = rng.randrange(0, 1 << 32)
            router.add_route(f"{int_to_ip(net)}/{rng.randrange(4, 30)}",
                             f"hop{i}")
        addrs = [int_to_ip(rng.randrange(0, 1 << 32)) for _ in range(60)]
        expected = [router.lookup_reference(a) for a in addrs]
        assert [router.lookup(a) for a in addrs] == expected
        assert router.lookup_batch(addrs) == expected
        stats = router.store_stats
        assert stats.backend == "fabric"
        assert stats.banks == config.banks

    def test_store_stats_telemetry(self, config):
        router = TcamRouter(capacity=4, store_config=config)
        router.add_route("10.0.0.0/8", "hop")
        router.lookup("10.1.1.1")
        router.lookup("10.1.1.1")
        stats = router.store_stats
        assert stats.searches == 2
        if config.cache_size:
            assert stats.cache_hits == 1
            assert stats.array_searches == 1


@pytest.mark.parametrize("config", CONFIGS)
class TestClassifierOnBothBackends:
    def test_matches_reference(self, config):
        rng = random.Random(13)
        cl = TcamClassifier(store_config=config)
        cl.add_rule(Rule(name="a", dst_port_range=(100, 1000)))
        cl.add_rule(Rule(name="b",
                         src_prefix=(int("0a000000", 16), 8)))
        cl.add_rule(Rule(name="c", protocol=17))
        packets = [Packet(src_ip=rng.randrange(1 << 32),
                          dst_ip=rng.randrange(1 << 32),
                          src_port=rng.randrange(1 << 16),
                          dst_port=rng.randrange(1 << 16),
                          protocol=rng.choice((6, 17)))
                   for _ in range(60)]
        expected = [cl.classify_reference(p) for p in packets]
        assert [cl.classify(p) for p in packets] == expected
        assert cl.classify_batch(packets) == expected
        assert cl.store_stats.backend == "fabric"


@pytest.mark.parametrize("config", CONFIGS)
class TestCacheOnBothBackends:
    def test_lru_behavior(self, config):
        c = TcamCache(lines=2, block_bits=4, address_bits=16,
                      store_config=config)
        c.access(0x0010)
        c.access(0x0020)
        c.access(0x0010)  # touch line 0 -> 0x0020 becomes LRU
        result = c.access(0x0030)
        assert not result.hit
        assert result.evicted_tag == 0x0020 >> 4
        assert c.contains(0x0010)
        assert not c.contains(0x0020)
        assert c.contains_batch([0x0010, 0x0020, 0x0030]) == \
            [True, False, True]
        assert c.contains_batch([]) == []

    def test_random_trace_matches_model(self, config):
        rng = random.Random(3)
        c = TcamCache(lines=4, block_bits=4, address_bits=16,
                      store_config=config)
        model: "dict[int, int]" = {}  # tag -> last use
        tick = 0
        for _ in range(120):
            addr = rng.randrange(0, 1 << 12)
            tag = addr >> 4
            expect_hit = tag in model
            assert c.access(addr).hit == expect_hit
            model[tag] = tick = tick + 1
            if len(model) > 4:
                model.pop(min(model, key=model.get))
        assert 0 < c.hit_rate < 1
        assert c.store_stats.occupancy == 4


@pytest.mark.parametrize("config", CONFIGS)
class TestGenomicsOnBothBackends:
    def test_lookup_matches_scan(self, config):
        rng = random.Random(21)
        ref = "".join(rng.choice("ACGTN") for _ in range(150))
        idx = SeedIndex(ref, k=5, store_config=config)
        seeds = []
        for _ in range(15):
            pos = rng.randrange(0, 140)
            seed = ref[pos:pos + 5].replace("N", "A")
            seeds.append(seed)
            assert [h.position for h in idx.lookup(seed)] == \
                idx.lookup_reference_scan(seed)
        batched = idx.lookup_batch(seeds)
        assert [[h.position for h in hits] for hits in batched] == \
            [idx.lookup_reference_scan(s) for s in seeds]

    def test_vote_alignment(self, config):
        rng = random.Random(31)
        ref = "".join(rng.choice("ACGT") for _ in range(200))
        idx = SeedIndex(ref, k=8, store_config=config)
        assert vote_alignment(ref[60:100], idx) == 60
        assert idx.store_stats.backend == "fabric"


@pytest.mark.parametrize("config", CONFIGS)
class TestHammingOnBothBackends:
    def test_nearest_matches_reference(self, config):
        rng = random.Random(17)
        h = HammingSearcher(rows=6, width=10, store_config=config)
        for row in range(6):
            h.store(row, "".join(rng.choice("01X") for _ in range(10)))
        for _ in range(15):
            query = "".join(rng.choice("01") for _ in range(10))
            got = h.nearest(query)
            ref = h.nearest_reference(query)
            assert got is not None and got[1] == ref[1]
            hits = h.search_within(query, 2)
            assert all(d <= 2 for _, d in hits)
            assert [d for _, d in hits] == sorted(d for _, d in hits)

    def test_one_shot_classifier(self, config):
        clf = OneShotClassifier(width=8, store_config=config)
        clf.learn("cat", "1100XX00")
        clf.learn("dog", "0011XX11")
        assert clf.classify("11001100") == "cat"
        assert clf.classify_batch(["00110011", "11001100"]) == \
            ["dog", "cat"]

    def test_store_rewrites_in_place(self, config):
        h = HammingSearcher(rows=2, width=4, store_config=config)
        h.store(0, "1111")
        h.store(0, "0000")
        assert h.nearest("0000") == (0, 0)
        assert h.nearest("1111") == (0, 4)
        assert h.cam_store.occupancy == 1
