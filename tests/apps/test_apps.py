"""Tests for the application substrates (router, cache, classifier,
genomics), each verified against a pure-software reference."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecam.apps import (Packet, Rule, SeedIndex, TcamCache, TcamClassifier,
                        TcamRouter, encode_seed, int_to_ip, ip_to_int,
                        parse_cidr, range_to_prefixes, vote_alignment)
from fecam.cam import ternary_match
from fecam.errors import OperationError
from fecam.store import StoreConfig


class TestRouterHelpers:
    def test_ip_roundtrip(self):
        for ip in ("0.0.0.0", "10.1.2.3", "255.255.255.255"):
            assert int_to_ip(ip_to_int(ip)) == ip

    def test_parse_cidr_masks_host_bits(self):
        network, length = parse_cidr("10.1.2.3/16")
        assert int_to_ip(network) == "10.1.0.0"
        assert length == 16

    def test_parse_cidr_validation(self):
        with pytest.raises(OperationError):
            parse_cidr("10.1.2.3/40")
        with pytest.raises(OperationError):
            ip_to_int("300.1.1.1")
        with pytest.raises(OperationError):
            ip_to_int("1.2.3")


class TestRouter:
    def test_longest_prefix_wins(self):
        r = TcamRouter(capacity=8)
        r.add_route("10.0.0.0/8", "coarse")
        r.add_route("10.1.0.0/16", "fine")
        r.add_route("10.1.2.0/24", "finest")
        assert r.lookup("10.1.2.3") == "finest"
        assert r.lookup("10.1.9.9") == "fine"
        assert r.lookup("10.9.9.9") == "coarse"
        assert r.lookup("11.0.0.1") is None

    def test_default_route(self):
        r = TcamRouter(capacity=4)
        r.add_route("0.0.0.0/0", "default")
        assert r.lookup("1.2.3.4") == "default"

    def test_replace_and_remove(self):
        r = TcamRouter(capacity=4)
        r.add_route("10.0.0.0/8", "a")
        r.add_route("10.0.0.0/8", "b")
        assert len(r) == 1
        assert r.lookup("10.1.1.1") == "b"
        assert r.remove_route("10.0.0.0/8")
        assert not r.remove_route("10.0.0.0/8")
        assert r.lookup("10.1.1.1") is None

    def test_capacity_enforced(self):
        r = TcamRouter(capacity=1)
        r.add_route("1.0.0.0/8", "x")
        with pytest.raises(OperationError):
            r.add_route("2.0.0.0/8", "y")

    def test_matches_reference_on_random_tables(self):
        rng = random.Random(42)
        r = TcamRouter(capacity=128)
        r.add_route("0.0.0.0/0", "default")
        for i in range(60):
            net = rng.randrange(0, 1 << 32)
            length = rng.randrange(4, 30)
            r.add_route(f"{int_to_ip(net)}/{length}", f"hop{i}")
        for _ in range(200):
            addr = int_to_ip(rng.randrange(0, 1 << 32))
            assert r.lookup(addr) == r.lookup_reference(addr)


class TestRouterOnFabric:
    """Multi-bank / cached / batched router paths (fabric tier)."""

    def _random_router(self, rng, **kw):
        router = TcamRouter(capacity=128, store_config=StoreConfig(**kw))
        router.add_route("0.0.0.0/0", "default")
        for i in range(40):
            net = rng.randrange(0, 1 << 32)
            length = rng.randrange(4, 30)
            router.add_route(f"{int_to_ip(net)}/{length}", f"hop{i}")
        return router

    def test_multibank_matches_reference(self):
        rng = random.Random(17)
        router = self._random_router(rng, banks=4, cache_size=32)
        for _ in range(150):
            addr = int_to_ip(rng.randrange(0, 1 << 32))
            assert router.lookup(addr) == router.lookup_reference(addr)

    def test_lookup_batch_matches_scalar(self):
        rng = random.Random(23)
        router = self._random_router(rng, banks=3)
        addrs = [int_to_ip(rng.randrange(0, 1 << 32)) for _ in range(100)]
        assert router.lookup_batch(addrs) == \
            [router.lookup_reference(a) for a in addrs]
        assert router.lookup_batch([]) == []

    def test_cache_serves_hot_lookups(self):
        router = TcamRouter(capacity=8, store_config=StoreConfig(
            banks=2, cache_size=8))
        router.add_route("10.0.0.0/8", "hop")
        router.lookup("10.1.1.1")
        energy = router.stats["energy_j"]
        for _ in range(5):
            assert router.lookup("10.1.1.1") == "hop"
        assert router.stats["energy_j"] == energy  # all served from cache
        assert router.stats["cache_hits"] == 5

    def test_stats_keys_stable_before_first_lookup(self):
        router = TcamRouter(store_config=StoreConfig(banks=4))
        assert set(router.stats) == \
            {"searches", "energy_j", "banks", "cache_hits"}


class TestClassifierOnFabric:
    """Multi-bank / batched classifier paths (fabric tier)."""

    def _rules(self, cl):
        cl.add_rule(Rule(name="a", dst_port_range=(100, 1000)))
        cl.add_rule(Rule(name="b", src_prefix=(ip_to_int("10.0.0.0"), 8)))
        cl.add_rule(Rule(name="c", protocol=17))

    def test_multibank_matches_reference(self):
        rng = random.Random(31)
        cl = TcamClassifier(store_config=StoreConfig(banks=4,
                                                     cache_size=16))
        self._rules(cl)
        for _ in range(100):
            p = Packet(src_ip=rng.randrange(1 << 32),
                       dst_ip=rng.randrange(1 << 32),
                       src_port=rng.randrange(1 << 16),
                       dst_port=rng.randrange(1 << 16),
                       protocol=rng.choice((6, 17)))
            assert cl.classify(p) == cl.classify_reference(p)

    def test_classify_batch_matches_scalar(self):
        rng = random.Random(37)
        cl = TcamClassifier(store_config=StoreConfig(banks=3))
        self._rules(cl)
        packets = [Packet(src_ip=rng.randrange(1 << 32),
                          dst_ip=rng.randrange(1 << 32),
                          src_port=rng.randrange(1 << 16),
                          dst_port=rng.randrange(1 << 16),
                          protocol=rng.choice((6, 17)))
                   for _ in range(80)]
        assert cl.classify_batch(packets) == \
            [cl.classify_reference(p) for p in packets]
        assert cl.classify_batch([]) == []

    def test_priority_preserved_across_banks(self):
        cl = TcamClassifier(store_config=StoreConfig(banks=4))
        cl.add_rule(Rule(name="web", dst_port_range=(80, 443)))
        cl.add_rule(Rule(name="all", dst_port_range=(0, 65535)))
        p80 = Packet(src_ip=0, dst_ip=0, src_port=1, dst_port=80,
                     protocol=6)
        assert cl.classify(p80) == "web"
        assert cl.classify_batch([p80]) == ["web"]


class TestCache:
    def test_miss_then_hit(self):
        c = TcamCache(lines=4, block_bits=4, address_bits=16)
        assert not c.access(0x1230).hit
        assert c.access(0x1234).hit  # same block
        assert c.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        c = TcamCache(lines=2, block_bits=4, address_bits=16)
        c.access(0x0010)
        c.access(0x0020)
        c.access(0x0010)  # touch line 0 -> 0x0020 becomes LRU
        result = c.access(0x0030)
        assert not result.hit
        assert result.evicted_tag == 0x0020 >> 4
        assert c.contains(0x0010)
        assert not c.contains(0x0020)

    def test_validation(self):
        with pytest.raises(OperationError):
            TcamCache(lines=0)
        with pytest.raises(OperationError):
            TcamCache(lines=2, block_bits=32, address_bits=32)
        c = TcamCache(lines=2)
        with pytest.raises(OperationError):
            c.access(-1)

    def test_energy_accumulates(self):
        c = TcamCache(lines=4, block_bits=4, address_bits=16)
        c.access(0x100)
        assert c.energy_spent > 0


class TestRangeExpansion:
    def test_exact_value(self):
        assert range_to_prefixes(5, 5, 4) == ["0101"]

    def test_full_range_is_single_wildcard(self):
        assert range_to_prefixes(0, 15, 4) == ["XXXX"]

    def test_cover_is_exact(self):
        lo, hi, width = 3, 12, 4
        prefixes = range_to_prefixes(lo, hi, width)
        covered = set()
        for p in prefixes:
            fixed = p.rstrip("X")
            span = width - len(fixed)
            base = int(fixed, 2) << span if fixed else 0
            covered.update(range(base, base + (1 << span)))
        assert covered == set(range(lo, hi + 1))

    def test_worst_case_bound(self):
        # Classic bound: at most 2w - 2 prefixes.
        width = 16
        prefixes = range_to_prefixes(1, (1 << width) - 2, width)
        assert len(prefixes) <= 2 * width - 2

    def test_validation(self):
        with pytest.raises(OperationError):
            range_to_prefixes(5, 3, 4)
        with pytest.raises(OperationError):
            range_to_prefixes(0, 16, 4)


class TestClassifier:
    def _packet(self, dst_port, protocol=6):
        return Packet(src_ip=ip_to_int("192.168.1.5"),
                      dst_ip=ip_to_int("10.0.0.7"), src_port=1234,
                      dst_port=dst_port, protocol=protocol)

    def test_priority_order(self):
        cl = TcamClassifier()
        cl.add_rule(Rule(name="web", dst_port_range=(80, 443)))
        cl.add_rule(Rule(name="all", dst_port_range=(0, 65535)))
        assert cl.classify(self._packet(80)) == "web"
        assert cl.classify(self._packet(8080)) == "all"

    def test_protocol_filter(self):
        cl = TcamClassifier()
        cl.add_rule(Rule(name="dns", dst_port_range=(53, 53), protocol=17))
        assert cl.classify(self._packet(53, protocol=17)) == "dns"
        assert cl.classify(self._packet(53, protocol=6)) is None

    def test_prefix_fields(self):
        cl = TcamClassifier()
        cl.add_rule(Rule(name="lan", src_prefix=(ip_to_int("192.168.0.0"), 16)))
        assert cl.classify(self._packet(9999)) == "lan"
        outside = Packet(src_ip=ip_to_int("8.8.8.8"), dst_ip=0, src_port=1,
                         dst_port=9999, protocol=6)
        assert cl.classify(outside) is None

    def test_matches_reference_on_random_packets(self):
        rng = random.Random(9)
        cl = TcamClassifier()
        cl.add_rule(Rule(name="a", dst_port_range=(100, 1000)))
        cl.add_rule(Rule(name="b", src_prefix=(ip_to_int("10.0.0.0"), 8)))
        cl.add_rule(Rule(name="c", protocol=17))
        for _ in range(100):
            p = Packet(src_ip=rng.randrange(1 << 32),
                       dst_ip=rng.randrange(1 << 32),
                       src_port=rng.randrange(1 << 16),
                       dst_port=rng.randrange(1 << 16),
                       protocol=rng.choice((6, 17)))
            assert cl.classify(p) == cl.classify_reference(p)

    def test_rows_used_counts_expansion(self):
        cl = TcamClassifier()
        cl.add_rule(Rule(name="r", dst_port_range=(1, 6)))
        assert cl.rows_used == len(range_to_prefixes(1, 6, 16))


class TestGenomics:
    def test_encoding(self):
        assert encode_seed("ACGT") == "00011011"
        assert encode_seed("AN") == "00XX"
        with pytest.raises(OperationError):
            encode_seed("AZ")
        with pytest.raises(OperationError):
            encode_seed("")

    def test_lookup_matches_scan(self):
        rng = random.Random(21)
        ref = "".join(rng.choice("ACGT") for _ in range(200))
        idx = SeedIndex(ref, k=6)
        for _ in range(20):
            pos = rng.randrange(0, 195)
            seed = ref[pos:pos + 6]
            tcam_hits = [h.position for h in idx.lookup(seed)]
            assert tcam_hits == idx.lookup_reference_scan(seed)

    def test_n_in_reference_is_wildcard(self):
        idx = SeedIndex("ACGNACGT", k=4)
        hits = [h.position for h in idx.lookup("ACGT")]
        assert 0 in hits  # 'ACGN' matches 'ACGT'
        assert 4 in hits

    def test_query_n_rejected(self):
        idx = SeedIndex("ACGTACGT", k=4)
        with pytest.raises(OperationError):
            idx.lookup("ACGN")

    def test_vote_alignment_recovers_offset(self):
        rng = random.Random(31)
        ref = "".join(rng.choice("ACGT") for _ in range(300))
        idx = SeedIndex(ref, k=8)
        read = ref[100:140]
        assert vote_alignment(read, idx) == 100

    def test_vote_alignment_maps_exact_reads(self):
        rng = random.Random(13)
        ref = "".join(rng.choice("ACGT") for _ in range(512))
        idx = SeedIndex(ref, k=8)
        starts = [rng.randrange(0, 512 - 48) for _ in range(16)]
        correct = sum(vote_alignment(ref[s:s + 48], idx) == s
                      for s in starts)
        assert correct >= 14  # near-perfect mapping on exact reads

    def test_vote_alignment_none_for_foreign_read(self):
        idx = SeedIndex("A" * 64, k=8)
        assert vote_alignment("C" * 16, idx) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=8))
def test_route_word_matches_covered_addresses(hi, lo, shift):
    """Property: a route's ternary word matches exactly its covered IPs."""
    from fecam.apps.router import Route

    network = ((hi << 24) | (lo << 16)) & ~((1 << shift) - 1)
    route = Route(network=network, prefix_len=32 - shift, next_hop="x")
    word = route.ternary_word()
    inside = network | ((1 << shift) - 1)
    assert ternary_match(word, format(inside, "032b"))
    outside = network ^ (1 << 31)
    assert not ternary_match(word, format(outside, "032b"))
