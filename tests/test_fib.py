import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srv6sim import dataplane, fib
from srv6sim.behaviors import (
    DROP_NO_ROUTE,
    DropReason,
    End,
    EndDT6,
    EndT,
    EndX,
    Forward,
    TransitEncaps,
    TransitInsert,
    encapsulate,
)
from srv6sim.dataplane import Node
from srv6sim.fib import ROUTE_CACHE_SIZE, FibEntry, PrefixTable, fnv1a64, select_nexthop
from srv6sim.packet import SegmentRoutingHeader, make_udp_packet, pton
from srv6sim.programs import flow_key, helper_ecmp_nexthops
from srv6sim.scenario import (
    apply_overrides,
    build_simulation,
    fixture_path,
    load_scenario,
    parse_scenario,
)
from srv6sim.usecases import multipath_traceroute
from test_behaviors import sr_packet
from test_usecases import S2, diamond_sim
from util import rand_addr

NH1 = (pton("2001:db8::a"), "l1")
NH2 = (pton("2001:db8::b"), "l2")
NH3 = (pton("2001:db8::c"), "l3")
# the packet whose flow key an ECMP route would hash
PKT = make_udp_packet(pton("2001:db8:1::1"), pton("2001:db8:2::1"), b"x")


def make_node() -> Node:
    return Node("R", [pton("2001:db8::1")])


def test_fnv1a64_known_values():
    # reference values of the 64-bit FNV-1a parameters
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def forward_to(node: Node, dst: bytes, table: int = 0):
    """node's decision for a UDP packet to dst, routed by table."""
    return node.finish_forwarding(make_udp_packet(pton("2001:db8:1::1"), dst, b"x"), table)


def fwd(pair: tuple) -> Forward:
    """The Forward of a (nexthop, link) pair."""
    return Forward(pair[1], pair[0])


def test_longest_prefix_wins():
    node = make_node()
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH2]))
    assert forward_to(node, pton("2001:db8::2")) == fwd(NH2)
    assert forward_to(node, pton("2600::1")) == fwd(NH1)


def test_insert_replaces_same_prefix():
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH2]))
    assert forward_to(node, pton("2001:db8::5")) == fwd(NH2)


def test_host_route_exact_match():
    node = make_node()
    addr = pton("2001:db8::42")
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1]))
    node.fib_insert(FibEntry(addr, 128, [NH2]))
    assert forward_to(node, addr) == fwd(NH2)
    assert forward_to(node, pton("2001:db8::43")) == fwd(NH1)


def test_empty_table_no_route():
    node = make_node()
    assert forward_to(node, pton("2001:db8::2")) is DROP_NO_ROUTE
    assert node.fib_ecmp_list(pton("2001:db8::2")) == []


def test_missing_table_no_route():
    node = make_node()
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [NH1]))
    assert forward_to(node, pton("2001:db8::2"), 99) is DROP_NO_ROUTE
    assert node.fib_ecmp_list(pton("2001:db8::2"), 99) == []


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


def _near(base: int, flip: int | None) -> int:
    """base with bit ``flip`` (0 = most significant) toggled, if given."""
    return base if flip is None else base ^ (1 << (127 - flip))


_PREFIX = st.tuples(st.integers(0, 128), st.none() | st.integers(0, 127))
_OPS = st.lists(
    st.tuples(st.just("insert"), _PREFIX)
    | st.tuples(st.just("remove"), _PREFIX)
    | st.tuples(st.just("lookup"), st.none() | st.integers(0, 127)),
    max_size=40,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(base=st.integers(0, (1 << 128) - 1), ops=_OPS)
@example(base=0, ops=[("lookup", None)])
# a lookup under the /64 falls back to the base's /16; removing that /16
# (its sibling keeps the length populated) must clear what it answers
@example(
    base=(1 << 128) - 1,
    ops=[
        ("insert", (16, None)), ("insert", (16, 3)), ("insert", (48, 20)),
        ("insert", (64, None)), ("lookup", 50), ("remove", (16, None)), ("lookup", 50),
        ("insert", (0, None)), ("insert", (128, None)), ("lookup", None), ("lookup", 127),
    ],
)
def test_lpm_interleaved_ops_against_brute_force(base, ops):
    # every prefix and address is the base with at most one bit flipped, so
    # prefixes nest and the search meets markers and covering prefixes
    table = PrefixTable()
    model = {}
    for i, (kind, arg) in enumerate(ops):
        if kind == "lookup":
            addr = _near(base, arg).to_bytes(16, "big")
            entries = [(prefix, plen, value) for (prefix, plen), value in model.items()]
            assert table.lookup(addr) == brute_force_lookup(entries, addr)
            continue
        plen, flip = arg
        prefix = (_near(base, flip) >> (128 - plen) << (128 - plen)).to_bytes(16, "big")
        if kind == "insert":
            table.insert(prefix, plen, i)
            model[(prefix, plen)] = i
        else:
            assert table.remove(prefix, plen) == ((prefix, plen) in model)
            model.pop((prefix, plen), None)
        # the table holds the model's entries and no emptied length
        held = {(n, key): v for n, bucket in table._buckets.items() for key, v in bucket.items()}
        assert held == {(n, fib.masked(pfx, n)): v for (pfx, n), v in model.items()}
        assert all(table._buckets.values())


class _CountingBucket(dict):
    def __init__(self, items, probes: list):
        super().__init__(items)
        self.probes = probes

    def get(self, key, default=None):
        self.probes.append(key)
        return super().get(key, default)


def _probes(table: PrefixTable, addr: bytes) -> tuple[object, int]:
    """(lookup result, buckets probed) for one lookup of addr."""
    table.lookup(addr)  # sorts the populated lengths
    probes = []
    table._order = [(shift, _CountingBucket(bucket, probes)) for shift, bucket in table._order]
    return table.lookup(addr), len(probes)


def test_lookup_probes_each_length_longer_than_its_match():
    rng = random.Random(128)
    base = int.from_bytes(rand_addr(rng), "big")
    entries = []
    table = PrefixTable()
    for plen in range(1, 129):
        # the base's own prefix at every other length, a sibling at the rest
        flip = None if plen % 2 else plen - 1
        prefix = (_near(base, flip) >> (128 - plen) << (128 - plen)).to_bytes(16, "big")
        table.insert(prefix, plen, plen)
        entries.append((prefix, plen, plen))
    for flip in [None, *range(128)]:
        addr = _near(base, flip).to_bytes(16, "big")
        value, probes = _probes(table, addr)
        assert value == brute_force_lookup(entries, addr)
        # the match's own length and each populated one above it; a miss
        # probes all 128
        assert probes == (128 if value is None else 1 + 128 - value)


@pytest.mark.parametrize("plens", [(64,), (8, 64), (0, 128)])
def test_match_at_longest_length_of_small_table_takes_one_probe(plens):
    addr = pton("2001:db8::1")
    table = PrefixTable()
    for plen in plens:
        table.insert(addr, plen, plen)
    assert _probes(table, addr) == (max(plens), 1)


def _setup1_through_end_t_into_table_1() -> dict:
    """setup1 with S1 inserting an SRH toward an End.T SID on R, which
    routes the generator's destination by R's table 1."""
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw["fib"].append({
        "node": "R", "table": 1, "prefix": "2001:db8:2::/64",
        "nexthops": [{"via": "2001:db8:2::1", "link": "l12"}],
    })
    raw["sids"].append(
        {"node": "R", "sid": "fd00:72::7", "behavior": {"type": "end_t", "table": 1}}
    )
    raw["transits"].append({
        "node": "S1", "prefix": "2001:db8:2::/64",
        "behavior": {"type": "insert", "srh": {"segments": ["fd00:72::7"]}},
    })
    return raw


# a new case goes last, so every earlier case keeps its id
@pytest.mark.parametrize(
    "run", ["setup1.json", "setup2-hybrid.json", "diamond.json", "traceroute", "end_t-table1"]
)
def test_runs_ask_each_table_about_each_address_once(run, monkeypatch):
    """Probing every length longer than the match costs less than a
    search tree only while the route and behaviour caches keep each
    (table, address) to one lookup: pinned on each bundled fixture's full
    run at seed 1, on a traceroute over the diamond, and on setup1 routed
    through an End.T SID into table 1."""
    counts = Counter()
    lookup = PrefixTable.lookup

    def counting(table, addr):
        counts[table, addr] += 1
        return lookup(table, addr)

    monkeypatch.setattr(PrefixTable, "lookup", counting)
    if run == "traceroute":
        sim, oamp = diamond_sim()
        assert multipath_traceroute(sim, "S", S2, oamp).reached
    else:
        if run == "end_t-table1":
            cfg = parse_scenario(_setup1_through_end_t_into_table_1())
        else:
            cfg = apply_overrides(load_scenario(fixture_path(run)), seed=1)
        sim = build_simulation(cfg)
        sim.run_until(cfg.duration_ns)
        if run == "end_t-table1":  # every packet took End.T, by table 1
            assert counts[sim.nodes["R"].tables[1], pton("2001:db8:2::1")] == 1
            assert sim.stats.delivered["S2"] == sim.stats.injected == 1000
    assert counts and max(counts.values()) == 1


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
        picks.add(select_nexthop([NH1, NH2], key, {}))
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
        pick = node.finish_forwarding(p)
        assert pick == fwd(select_nexthop(entry.nexthops, flow_key(p), {}))
        picks.add(pick)
    assert picks == {fwd(NH1), fwd(NH2)}


def test_single_nexthop_lookup_builds_no_flow_key(monkeypatch):
    def no_key(p):
        raise AssertionError("flow key built for a single-nexthop route")

    monkeypatch.setattr(dataplane, "flow_key", no_key)
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [NH1]))
    node.fib_insert(FibEntry(pton("2001:db8:3::"), 64, [NH1, NH2]))
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [NH2], table_id=1))
    assert node.finish_forwarding(PKT) == fwd(NH1)
    assert node.finish_forwarding(PKT, 1) == fwd(NH2)
    with pytest.raises(AssertionError):
        forward_to(node, pton("2001:db8:3::1"))


def test_ecmp_selection_stable_per_flow_key():
    key = b"the same flow key"
    first = select_nexthop([NH1, NH2], key, {})
    for _ in range(100):
        assert select_nexthop([NH1, NH2], key, {}) == first


def test_single_nexthop_ignores_flow_key():
    rng = random.Random(5)
    for _ in range(50):
        assert select_nexthop([NH1], rng.randbytes(8), {}) == NH1


def test_entry_requires_nexthop():
    with pytest.raises(ValueError):
        FibEntry(pton("2001:db8::"), 32, []).check()


@pytest.mark.parametrize("plen", [-1, 129])
def test_fib_insert_and_add_transit_reject_a_bad_prefix_length(plen):
    node = make_node()
    srh = SegmentRoutingHeader(segments=[pton("fd00::1")], segments_left=0)
    with pytest.raises(ValueError, match=f"bad prefix length {plen}"):
        node.fib_insert(FibEntry(pton("2001:db8::"), plen, [NH1], table_id=7))
    with pytest.raises(ValueError, match=f"bad prefix length {plen}"):
        node.add_transit(pton("3000::"), plen, TransitInsert(srh))
    assert list(node.tables) == [0] and node.tables[0]._buckets == node.transits._buckets == {}
    assert node.transits.lookup(pton("3000::1")) is None


# ---------------------------------------------------------------------------
# The per-node route cache.

_FLIPS = st.none() | st.sampled_from([16, 64, 127])
_PLEN = st.sampled_from([0, 16, 64, 128])
_SEG = pton("fd00:ca::5")  # a segment no mutation routes: a fixed far end
_TABLES = st.integers(0, 3)
_MUTATION = (
    st.tuples(st.just("fib_insert"), _PLEN, _FLIPS, _TABLES, st.integers(1, 3))
    # removes the route of an earlier fib_insert, picked by index
    | st.tuples(st.just("fib_remove"), st.integers(0, 7))
    # End.T and End.DT6 route by the drawn table; End and End.X ignore it
    | st.tuples(
        st.just("add_sid"), _FLIPS, st.sampled_from(["end", "end_t", "end_x", "end_dt6"]), _TABLES
    )
    | st.tuples(st.just("add_transit"), _PLEN, _FLIPS, st.sampled_from(["insert", "encaps"]))
)
_LOOKUP = (
    # the kind of packet, and the flip of the address routed after dst: the
    # SR packet's next segment or the encapsulated packet's inner destination
    st.tuples(
        st.just("ingress"), _FLIPS, st.integers(0, 3),
        st.sampled_from(["plain", "sr", "encap"]), _FLIPS,
    )
    | st.tuples(st.just("finish"), _FLIPS, st.integers(0, 3), st.none() | _TABLES)
)


def _addr(base: int, flip: int | None) -> bytes:
    return _near(base, flip).to_bytes(16, "big")


def _mutate(node: Node, base: int, op: tuple, i: int, inserted: list) -> None:
    kind = op[0]
    if kind == "fib_insert":
        _, plen, flip, table, width = op
        nexthops = [(pton(f"2001:db8::{i:x}:{k}"), f"l{i}.{k}") for k in range(width)]
        node.fib_insert(FibEntry(_addr(base, flip), plen, nexthops, table))
        inserted.append(op)
    elif kind == "fib_remove":
        if inserted:
            _, plen, flip, table, _ = inserted[op[1] % len(inserted)]
            node.fib_remove(_addr(base, flip), plen, table)
    elif kind == "add_sid":
        _, flip, behavior, table = op
        node.add_sid(_addr(base, flip), {
            "end": End(),
            "end_t": EndT(table),
            "end_x": EndX(pton(f"2001:db8::{i:x}"), f"x{i}"),
            "end_dt6": EndDT6(table),
        }[behavior])
    else:
        _, plen, flip, behavior = op
        srh = SegmentRoutingHeader(segments=[_SEG], segments_left=0)
        node.add_transit(_addr(base, flip), plen, (
            TransitInsert(srh) if behavior == "insert" else TransitEncaps(srh, pton("2001:db8::1"))
        ))


def _lookup_packet(base: int, op: tuple):
    kind, flip, label, arg = op[:4]
    dst = _addr(base, flip)
    if kind == "ingress" and arg == "sr":  # an SR packet whose active segment is dst
        p = sr_packet([_addr(base, op[4]), dst], 1)
    else:
        p = make_udp_packet(pton("2001:db8:1::1"), dst, b"x")
        if kind == "ingress" and arg == "encap":  # dst as the last segment, over a UDP packet
            p.outer_header.dst = _addr(base, op[4])
            encapsulate(p, SegmentRoutingHeader([dst], 0), pton("2001:db8:1::2"))
    p.outer_header.flow_label = label
    return p


def _ecmp_list(node: Node, addr: bytes, table: int):
    """fib_ecmp_list's nexthops, or NO_ROUTE for none."""
    return node.fib_ecmp_list(addr, table) or DropReason.NO_ROUTE


def _lpm_nexthops(node: Node, addr: bytes, table: int):
    """The nexthops of the table's own longest match, with no cache."""
    entry = node.tables[table].lookup(addr) if table in node.tables else None
    return DropReason.NO_ROUTE if entry is None else list(entry.nexthops)


def _end_t_and_dt6_into(table: int) -> list:
    """Steps that route through table: an ECMP /16 around the base, an
    End.T SID and an End.DT6 SID into it, each forwarding to an address
    under the /16, and End.T into a table the node does not have."""
    return [
        (("fib_insert", 16, None, table, 2), [("finish", 64, 0, table)]),
        (("add_sid", 127, "end_t", table), [("ingress", 127, k, "sr", 64) for k in range(3)]),
        (("add_sid", 16, "end_dt6", table), [("ingress", 16, k, "encap", 64) for k in range(3)]),
        (("add_sid", None, "end_t", 9), [("ingress", flip, 0, "sr", 64) for flip in (None, 127)]),
    ]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    base=st.integers(0, (1 << 128) - 1),
    steps=st.lists(st.tuples(_MUTATION, st.lists(_LOOKUP, min_size=1, max_size=4)), max_size=10),
)
@example(base=1 << 100, steps=_end_t_and_dt6_into(0))
@example(base=1 << 100, steps=_end_t_and_dt6_into(1))
@example(base=1 << 100, steps=_end_t_and_dt6_into(2))
@example(base=1 << 100, steps=_end_t_and_dt6_into(3))
def test_route_cache_decisions_match_a_cold_twin(base, steps):
    """A node whose route cache lives across interleaved table mutations
    and lookups decides, and lists ECMP nexthops, exactly as a fresh node
    given the same mutations."""
    node, inserted, done = make_node(), [], []
    for i, (mutation, lookups) in enumerate(steps):
        _mutate(node, base, mutation, i, inserted)
        done.append(mutation)
        cold, cold_inserted = make_node(), []
        for j, m in enumerate(done):
            _mutate(cold, base, m, j, cold_inserted)
        for op in lookups:
            p, q = _lookup_packet(base, op), _lookup_packet(base, op)
            if op[0] == "ingress":
                got, want = node.process_ingress(p, i), cold.process_ingress(q, i)
            else:
                table = op[3] or 0
                got, want = node.finish_forwarding(p, table), cold.finish_forwarding(q, table)
            assert (got, p) == (want, q)
            assert getattr(got, "detail", None) == getattr(want, "detail", None)
            assert node._routes.keys() == node.tables.keys()  # nothing for a missing table
            dst = _addr(base, op[1])
            for table in range(4):
                listed = _ecmp_list(node, dst, table)
                assert listed == _ecmp_list(cold, dst, table) == _lpm_nexthops(cold, dst, table)
                if isinstance(listed, list):  # a fresh copy, the cache unharmed
                    listed.clear()
                    assert _ecmp_list(node, dst, table) == _ecmp_list(cold, dst, table)


def test_route_cache_shares_one_forward_until_a_mutation():
    """One (table, destination) returns the identical Forward on every
    lookup until a table mutator runs, then an equal new one; each table
    keeps its own."""
    node = make_node()
    dst, prefix = pton("2001:db8:2::1"), pton("2001:db8:2::")
    for table, nh in enumerate([NH1, NH2, NH3]):
        node.fib_insert(FibEntry(prefix, 64, [nh], table))
    srh = SegmentRoutingHeader(segments=[pton("fd00::1")], segments_left=0)
    mutators = [
        lambda: node.fib_insert(FibEntry(prefix, 64, [NH1])),
        lambda: node.fib_insert(FibEntry(prefix, 64, [NH3], 2)),
        lambda: node.fib_remove(pton("2001:db8:9::"), 64),
        lambda: node.fib_remove(pton("2001:db8:9::"), 64, 1),
        lambda: node.add_sid(pton("fd00::9"), End()),
        lambda: node.add_transit(pton("2001:db8:9::"), 64, TransitInsert(srh)),
    ]
    first = [forward_to(node, dst, table) for table in range(3)]
    assert first == [fwd(NH1), fwd(NH2), fwd(NH3)]
    for mutate in mutators:
        assert all(forward_to(node, dst, table) is first[table] for table in range(3))
        mutate()
        again = [forward_to(node, dst, table) for table in range(3)]
        assert again == first and all(a is not f for a, f in zip(again, first))
        first = again


def test_fib_insert_into_table_1_changes_the_next_table_1_decision():
    """Each table-1 mutation shows in the next lookup, whether it comes
    from finish_forwarding or from an End.T SID into table 1; table 0,
    left empty, routes nothing throughout."""
    node = make_node()
    sid, dst, prefix = pton("fd00:7::1"), pton("2001:db8:2::1"), pton("2001:db8:2::")
    node.add_sid(sid, EndT(1))
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, [NH1], 1))

    def decisions():
        p = sr_packet([dst, sid], 1)
        end_t = node.process_ingress(p, 0)
        assert node.finish_forwarding(p, 1) is end_t
        assert forward_to(node, dst) is DROP_NO_ROUTE
        return end_t

    assert decisions() == fwd(NH1)
    node.fib_insert(FibEntry(prefix, 64, [NH2], 1))
    assert decisions() == fwd(NH2)
    node.fib_insert(FibEntry(prefix, 64, [NH2, NH3], 1))
    assert decisions() == fwd(select_nexthop([NH2, NH3], flow_key(sr_packet([dst, sid], 0)), {}))
    assert node.fib_ecmp_list(dst, 1) == [NH2, NH3]
    assert node.fib_remove(prefix, 64, 1)
    assert decisions() == fwd(NH1)
    assert node.fib_remove(pton("2001:db8::"), 32, 1)
    assert decisions() is DROP_NO_ROUTE


def test_end_t_into_a_missing_table_drops_no_route_and_caches_nothing():
    """End.T and End.DT6 into tables the node does not have drop no_route
    on every packet, while table 0 routes the same destination, and the
    route cache keeps a map for table 0 alone."""
    node = make_node()
    node.fib_insert(FibEntry(b"\x00" * 16, 0, [NH1]))
    dst = pton("2001:db8:2::1")
    sids = {n: pton(f"fd00:7::{n:x}") for n in range(1, 300)}
    for n, sid in sids.items():
        node.add_sid(sid, EndT(n) if n % 2 else EndDT6(n))
    for _ in range(2):
        for n, sid in sids.items():
            if n % 2:
                p = sr_packet([dst, sid], 1)
            else:
                srh = SegmentRoutingHeader([sid], 0)
                p = encapsulate(_udp_to(dst, 0), srh, pton("2001:db8:1::2"))
            assert node.process_ingress(p, 0) is DROP_NO_ROUTE
            assert node.finish_forwarding(p) == fwd(NH1)
    assert list(node.tables) == list(node._routes) == [0]
    assert list(node._routes[0]) == [dst]


def test_route_cache_ecmp_route_hashes_every_packet(monkeypatch):
    calls = []

    def counting_flow_key(p):
        calls.append(p)
        return flow_key(p)

    monkeypatch.setattr(dataplane, "flow_key", counting_flow_key)
    node = make_node()
    entry = FibEntry(pton("2001:db8:2::"), 64, [NH1, NH2])
    node.fib_insert(entry)
    picks = set()
    for label in range(200):
        p = make_udp_packet(pton("2001:db8:1::1"), pton("2001:db8:2::1"), b"x", flow_label=label)
        decision = node.process_ingress(p, label)
        nh, link = select_nexthop(entry.nexthops, flow_key(p), {})
        assert decision == Forward(link, nh)
        picks.add(decision)
    assert len(calls) == 200
    assert picks == {Forward(NH1[1], NH1[0]), Forward(NH2[1], NH2[0])}


def _udp_to(dst: bytes, label: int):
    return make_udp_packet(pton("2001:db8:1::1"), dst, b"x", flow_label=label)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_ecmp_route_returns_one_shared_forward_per_nexthop(width):
    """Over 1,200 flow labels an ECMP route decides as the per-packet
    reference Forward of select_nexthop over the entry's pairs; a repeated
    flow gets the identical object, each nexthop has one, and after a
    fib_insert or fib_remove the next decision follows the new nexthops."""
    dst, prefix = pton("2001:db8:2::1"), pton("2001:db8:2::")
    nexthops = [(pton(f"2001:db8::{k + 1:x}"), f"l{k}") for k in range(width)]
    wider = nexthops + [(pton("2001:db8::ff"), "lw")]
    covering = [(pton("2001:db8::fe"), "lc"), NH3]
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8::"), 32, covering))
    node.fib_insert(FibEntry(prefix, 64, nexthops))
    for route, mutate in (
        (nexthops, lambda: node.fib_insert(FibEntry(prefix, 64, wider))),
        (wider, lambda: node.fib_remove(prefix, 64)),
        (covering, None),
    ):
        shared = {}
        for label in range(1200):
            got = node.finish_forwarding(_udp_to(dst, label))
            nh, link = select_nexthop(route, flow_key(_udp_to(dst, label)), {})
            assert got == Forward(link, nh)
            assert node.finish_forwarding(_udp_to(dst, label)) is got
            assert shared.setdefault(got, got) is got
        assert len(shared) == len(route)
        for listed in (node.fib_ecmp_list(dst), helper_ecmp_nexthops(node.transit_ctx, dst)):
            assert listed == route and all(type(pair) is tuple for pair in listed)
        if mutate is not None:
            mutate()


def test_flow_hash_memo_is_bounded_and_decides_as_a_fresh_hash(monkeypatch):
    """More flow labels than ROUTE_CACHE_SIZE through one ECMP node: each
    decision is select_nexthop's with no memo, the node's memo is cleared
    when full rather than grown, and a flow hashed since the last clear is
    not hashed again."""
    nexthops = [NH1, NH2, NH3]
    labels = list(range(ROUTE_CACHE_SIZE + 500))
    packets = [_udp_to(pton("2001:db8:2::1"), label) for label in labels + labels[-100:]]
    wants = [select_nexthop(nexthops, flow_key(p), {}) for p in packets]
    hashed = []

    def counting_fnv1a64(data, h=fib.FNV_OFFSET):
        hashed.append(data)
        return fnv1a64(data, h)

    monkeypatch.setattr(fib, "fnv1a64", counting_fnv1a64)
    node = make_node()
    node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, nexthops))
    for p, (nh, link) in zip(packets, wants):
        assert node.process_ingress(p, 0) == Forward(link, nh)
        assert len(node._hashes) <= ROUTE_CACHE_SIZE
    assert set(wants) == set(nexthops)
    # every flow shares one address pair, hashed at the start and again
    # after the clear; each flow then hashes only its 8-octet tail, and the
    # repeated last 100 were memo hits
    assert Counter(len(data) for data in hashed) == {32: 2, 8: len(labels)}
    # the pair's entry made the clear come one flow earlier, and holds one
    # more entry after it
    assert len(node._hashes) == len(labels) - ROUTE_CACHE_SIZE + 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=st.binary(max_size=48), b=st.binary(max_size=48))
def test_fnv1a64_resumes_from_a_prefix_state(a, b):
    assert fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(st.binary(max_size=48), min_size=1, max_size=6), n=st.integers(1, 5))
@example(keys=[b"", b"\x01" * 31, b"\x02" * 32, b"\x02" * 33], n=3)
def test_select_nexthop_decides_as_a_fresh_hash_for_any_key_length(keys, n):
    """A cold memo, and one shared by keys with the same first 32 octets:
    both pick nexthops[fnv1a64(key) % len(nexthops)], for keys shorter and
    longer than an address pair."""
    nexthops = list(range(n))
    shared = {}
    for key in keys + [key[:32] + b"\x07" * 8 for key in keys]:
        want = nexthops[fnv1a64(key) % n]
        assert select_nexthop(nexthops, key, {}) == want
        assert select_nexthop(nexthops, key, shared) == want
    assert all(shared[k] == fnv1a64(k) for k in shared)


def test_route_cache_cleared_when_full_still_matches_a_cold_twin():
    """More destinations than ROUTE_CACHE_SIZE through process_ingress: the
    behaviour and route caches are cleared when full, and every decision,
    before and after the clear, is that of a node that never saw the
    destination."""
    def routed() -> Node:
        node = make_node()
        node.fib_insert(FibEntry(pton("2001:db8:2::"), 64, [NH1, NH2]))
        node.fib_insert(FibEntry(pton("2001:db8:3::"), 64, [NH3]))
        return node

    rng = random.Random(20)
    prefixes = [pton(f"2001:db8:{k}::")[:8] for k in (2, 3, 4)]  # ECMP, single, none
    dsts = [prefixes[i % 3] + rng.randbytes(8) for i in range(ROUTE_CACHE_SIZE + 300)]
    node = routed()
    for i, dst in enumerate(dsts + dsts[-100:]):
        got = node.process_ingress(_udp_to(dst, i), i)
        assert got == routed().process_ingress(_udp_to(dst, i), i)
        assert len(node._behaviors) <= ROUTE_CACHE_SIZE and len(node._routes[0]) <= ROUTE_CACHE_SIZE
    assert len(node._behaviors) == len(node._routes[0]) == len(dsts) - ROUTE_CACHE_SIZE
