import random

import pytest

from srv6sim import dataplane
from srv6sim.behaviors import BehaviorError, Forward
from srv6sim.dataplane import Node
from srv6sim.fib import FibEntry, PrefixTable, fnv1a64, select_nexthop
from srv6sim.packet import make_udp_packet, pton
from srv6sim.programs import flow_key
from util import rand_addr

NH1 = (pton("2001:db8::a"), "l1")
NH2 = (pton("2001:db8::b"), "l2")
# the packet whose flow key an ECMP route would hash
PKT = make_udp_packet(pton("2001:db8:1::1"), pton("2001:db8:2::1"), b"x")


def make_node() -> Node:
    return Node("R", [pton("2001:db8::1")])


def test_fnv1a64_known_values():
    # reference values of the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_longest_prefix_wins():
    node = make_node()
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH2]))
    nh, link = node.fib_lookup(pton("2001:db8::1"), 0, PKT)
    assert (nh, link) == NH2
    nh, link = node.fib_lookup(pton("2600::1"), 0, PKT)
    assert (nh, link) == NH1


def test_insert_replaces_same_prefix():
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH2]))
    assert node.fib_lookup(pton("2001:db8::5"), 0, PKT) == NH2


def test_host_route_exact_match():
    node = make_node()
    addr = pton("2001:db8::42")
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1]))
    node.fib_insert(FibEntry(addr, 128, [NH2]))
    assert node.fib_lookup(addr, 0, PKT) == NH2
    assert node.fib_lookup(pton("2001:db8::43"), 0, PKT) == NH1


def test_empty_table_no_route():
    node = make_node()
    with pytest.raises(BehaviorError):
        node.fib_lookup(pton("2001:db8::1"), 0, PKT)


def test_missing_table_no_route():
    node = make_node()
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [NH1]))
    with pytest.raises(BehaviorError):
        node.fib_lookup(pton("2001:db8::1"), 99, PKT)


def brute_force_lookup(entries, addr: bytes):
    key = int.from_bytes(addr, "big")
    best = None
    for prefix, plen, value in entries:
        pfx = int.from_bytes(prefix, "big")
        if plen == 0 or (key >> (128 - plen)) == (pfx >> (128 - plen)):
            if best is None or plen > best[0]:
                best = (plen, value)
    return None if best is None else best[1]


def test_lpm_against_brute_force_oracle():
    rng = random.Random(0x10_000)
    table = PrefixTable()
    entries = []
    seen = set()
    for i in range(10_000):
        plen = rng.randrange(0, 129)
        prefix_int = int.from_bytes(rand_addr(rng), "big")
        if plen < 128:
            prefix_int &= ~((1 << (128 - plen)) - 1)
        prefix = prefix_int.to_bytes(16, "big")
        if (prefix, plen) in seen:
            continue
        seen.add((prefix, plen))
        table.insert(prefix, plen, i)
        entries.append((prefix, plen, i))
    for _ in range(1000):
        if rng.random() < 0.5:
            # probe near an existing prefix so matches actually occur
            prefix, plen, _ = rng.choice(entries)
            addr_int = int.from_bytes(prefix, "big") | rng.getrandbits(128 - plen if plen < 128 else 0)
            addr = addr_int.to_bytes(16, "big")
        else:
            addr = rand_addr(rng)
        assert table.lookup(addr) == brute_force_lookup(entries, addr)


def test_remove_falls_back_to_covering_prefix():
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8:0:1::"), 64, [NH2]))
    addr = pton("2001:db8:0:1::9")
    assert node.fib_ecmp_list(addr) == [NH2]
    assert node.fib_remove(pton("2001:db8:0:1::"), 64)
    assert node.fib_ecmp_list(addr) == [NH1]


def test_ecmp_list_preserves_insertion_order():
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH2, NH1]))
    assert node.fib_ecmp_list(pton("2001:db8::77")) == [NH2, NH1]
    node.fib_insert(FibEntry(pton("2001:db8::7"), 128, [NH1]))
    assert node.fib_ecmp_list(pton("2001:db8::7")) == [NH1]


def test_ecmp_selection_reaches_all_nexthops():
    rng = random.Random(99)
    picks = set()
    for _ in range(1000):
        key = rng.randbytes(40)
        picks.add(select_nexthop([NH1, NH2], key))
    assert picks == {NH1, NH2}


def test_ecmp_flow_label_alone_spreads_lookups():
    node = make_node()
    entry = FibEntry(pton("2001:db8:2::"), 64, [NH1, NH2])
    node.fib_insert(entry)
    picks = set()
    for label in range(1000):
        p = make_udp_packet(
            pton("2001:db8:1::1"), pton("2001:db8:2::1"), b"x", flow_label=label
        )
        pick = node.fib_lookup(p.outer_header.dst, 0, p)
        assert pick == select_nexthop(entry.nexthops, flow_key(p))
        picks.add(pick)
    assert picks == {NH1, NH2}


def test_single_nexthop_lookup_builds_no_flow_key(monkeypatch):
    def no_key(p):
        raise AssertionError("flow key built for a single-nexthop route")

    monkeypatch.setattr(dataplane, "flow_key", no_key)
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8:3::"), 64, [NH1, NH2]))
    assert node.fib_lookup(pton("2001:db8:2::1"), 0, PKT) == NH1
    assert node.finish_forwarding(PKT) == Forward(NH1[1], NH1[0])
    with pytest.raises(AssertionError):
        node.fib_lookup(pton("2001:db8:3::1"), 0, PKT)


def test_ecmp_selection_stable_per_flow_key():
    key = b"the same flow key"
    first = select_nexthop([NH1, NH2], key)
    for _ in range(100):
        assert select_nexthop([NH1, NH2], key) == first


def test_single_nexthop_ignores_flow_key():
    rng = random.Random(5)
    for _ in range(50):
        assert select_nexthop([NH1], rng.randbytes(8)) == NH1


def test_entry_requires_nexthop():
    with pytest.raises(ValueError):
        FibEntry(pton("2001:db8::"), 32, []).check()
