"""Per-node dataplane: routing tables, local SIDs, transit routes and the
ingress pipeline that ties them together."""

from __future__ import annotations

from . import behaviors, programs
from .behaviors import (
    Behavior,
    DROP_HOP_LIMIT,
    DROP_NO_ROUTE,
    Forward,
    ForwardingDecision,
    LOCAL_DELIVER,
    ProgramBehavior,
)
from .fib import FibEntry, PrefixTable, remember, select_nexthop
from .packet import (
    Address,
    PROTO_ICMPV6,
    Packet,
    PacketError,
    Ipv6Header,
    encode_packet,
)
from .programs import EventQueue, Hook, Program, ProgramContext, flow_key

ICMP_TIME_EXCEEDED = 3
_TIME_EXCEEDED_HEAD = bytes((ICMP_TIME_EXCEEDED, 0, 0, 0))  # type, code, checksum
TIME_EXCEEDED_QUOTE_AT = len(_TIME_EXCEEDED_HEAD)  # the offset of the quoted packet
_UNSPECIFIED = bytes(16)

_MISS = object()

Route = tuple[Forward, ...]  # one shared Forward per nexthop; () for no route


class Node:
    """A router/host. Its tables change only through the mutators below,
    each of which clears the route cache."""

    def __init__(self, node_id: str, addresses: list[Address]):
        self.id = node_id
        self.index = 0  # the node's place in its Simulation, set by add_node
        self.addresses = list(addresses)
        self.local_addrs = set(addresses)
        self.tables: dict[int, PrefixTable] = {0: PrefixTable()}
        self.sids: dict[Address, Behavior] = {}
        self.transits = PrefixTable()
        self.programs: dict[str, Program] = {}
        self.maps: dict[str, tuple[int, int, dict[bytes, bytes]]] = {}
        self.events = EventQueue()
        # egress ports, {link id: (sim.Link, peer Node)}, set by Simulation.add_link
        self.ports: dict[str, tuple] = {}
        # per-hop counters, read by Simulation.stats where they are kept
        self.forwarded = self.delivered = self.dropped = 0
        # one ProgramContext per hook, made here and reset for each run
        self.endpoint_ctx = ProgramContext(None, Hook.ENDPOINT, 0, self)
        self.transit_ctx = ProgramContext(None, Hook.TRANSIT, 0, self)
        # The route cache, as the seg6 dst_cache: per destination, the
        # behaviour _behavior picks (None: finish_forwarding), and per
        # table in self.tables, per destination, its Route: the tuple of
        # one shared Forward per nexthop of its route, () when none
        # matches. Every table mutator below clears it.
        self._behaviors: dict[Address, Behavior | None] = {}
        self._routes: dict[int, dict[Address, Route]] = {0: {}}
        # The flow-hash memo: each ECMP flow key's FNV-1a hash. It holds
        # hashes, not nexthop choices, so no mutator needs to clear it.
        self._hashes: dict[bytes, int] = {}

    def _flush_route_cache(self) -> None:
        self._behaviors.clear()
        for routes in self._routes.values():
            routes.clear()

    # -- table management ---------------------------------------------------

    def fib_insert(self, entry: FibEntry) -> None:
        entry.check()
        table = self.tables.get(entry.table_id)
        if table is None:
            table = PrefixTable()
        table.insert(entry.prefix, entry.plen, entry)  # checks the prefix length
        if entry.table_id not in self.tables:  # a rejected entry adds no table
            self.tables[entry.table_id] = table
            self._routes[entry.table_id] = {}
        self._flush_route_cache()

    def fib_remove(self, prefix: Address, plen: int, table: int = 0) -> bool:
        self._flush_route_cache()
        t = self.tables.get(table)
        return t is not None and t.remove(prefix, plen)

    def _check_program(self, behavior: Behavior) -> None:
        """Refuse a program route whose program is not loaded, as Linux does."""
        if isinstance(behavior, ProgramBehavior) and behavior.program not in self.programs:
            raise ValueError(f"program {behavior.program!r} is not loaded")

    def add_sid(self, sid: Address, behavior: Behavior) -> None:
        self._check_program(behavior)
        self.sids[sid] = behavior
        self.local_addrs.add(sid)
        self._flush_route_cache()

    def add_transit(self, prefix: Address, plen: int, behavior: Behavior) -> None:
        self._check_program(behavior)
        self.transits.insert(prefix, plen, behavior)
        self._flush_route_cache()

    def add_program(self, name: str, program: Program) -> None:
        """Load a program: create or share the maps it declares, then bind name."""
        for map_name, (key_size, value_size) in getattr(program, "maps", {}).items():
            entry = self.maps.setdefault(map_name, (key_size, value_size, {}))
            if entry[:2] != (key_size, value_size):
                raise ValueError(f"map {map_name!r} exists with widths {entry[:2]}")
        self.programs[name] = program

    # -- lookups ------------------------------------------------------------

    def _route(self, dst: Address, table: int) -> Route:
        """Fill dst's route in table into the route cache; a table the node
        does not have routes nothing, and nothing is cached for it."""
        t = self.tables.get(table)
        entry = t.lookup(dst) if t is not None else None
        route = () if entry is None else tuple([Forward(link, nh) for nh, link in entry.nexthops])
        if t is not None:
            remember(self._routes[table], dst, route)
        return route

    def fib_ecmp_list(self, addr: Address, table: int = 0) -> list[tuple[Address, str]]:
        """A fresh list of every nexthop of addr's route in table; [] if none."""
        try:
            forwards = self._routes[table][addr]
        except KeyError:
            forwards = self._route(addr, table)
        return [(f.nexthop, f.link) for f in forwards]

    def _behavior(self, dst: Address) -> Behavior | None:
        """Fill dst's behaviour into the route cache, as Linux's local table
        precedes the main table's seg6 routes: an address on the node takes
        its SID, if it is one, else None (finish_forwarding delivers it);
        any other takes its transit behaviour, if one matches."""
        b = self.sids.get(dst) if dst in self.local_addrs else self.transits.lookup(dst)
        remember(self._behaviors, dst, b)
        return b

    # -- pipeline -----------------------------------------------------------

    def finish_forwarding(self, p: Packet, table: int = 0) -> ForwardingDecision:
        """Common tail, the seg6_lookup_nexthop analog: local delivery,
        else the destination's route in table, served from the route cache:
        a single-nexthop route returns its one shared Forward, an ECMP route
        still chooses one of its shared Forwards per packet, from a flow
        hash the node keeps per flow key."""
        dst = p.headers[0][0].dst
        if dst in self.local_addrs:
            return LOCAL_DELIVER
        try:
            forwards = self._routes[table][dst]
        except KeyError:
            forwards = self._route(dst, table)
        if len(forwards) == 1:
            return forwards[0]
        if forwards:
            return select_nexthop(forwards, flow_key(p), self._hashes)
        return DROP_NO_ROUTE

    def process_ingress(self, p: Packet, now: int) -> ForwardingDecision:
        """Dispatch one received packet: hop-limit handling, then a local
        SID, local delivery, a transit match or plain forwarding, as
        _behavior picks. Its decision is its only output: the caller
        answers DROP_HOP_LIMIT with time_exceeded."""
        hdr = p.headers[0][0]
        hdr.hop_limit -= 1
        if hdr.hop_limit <= 0:
            hdr.hop_limit = 0
            return DROP_HOP_LIMIT
        dst = hdr.dst
        b = self._behaviors.get(dst, _MISS)
        if b is _MISS:
            b = self._behavior(dst)
        if b is None:
            return self.finish_forwarding(p)
        return self._dispatch(b, p, now)

    def output(self, p: Packet, now: int) -> ForwardingDecision:
        """Route a packet this node originates, as seg6's lwtunnel output:
        a destination on the node is delivered (local SIDs act on input
        only), any other takes its transit behaviour, if one matches, then
        the common forwarding tail."""
        dst = p.headers[0][0].dst
        if dst in self.local_addrs:
            return LOCAL_DELIVER
        b = self._behaviors.get(dst, _MISS)
        if b is _MISS:
            b = self._behavior(dst)
        if b is None:
            return self.finish_forwarding(p)
        return self._dispatch(b, p, now)

    def _dispatch(self, b: Behavior, p: Packet, now: int) -> ForwardingDecision:
        """Run a SID or transit behaviour: an endpoint one advances the SRH
        first, then its action or program runs and returns the decision,
        a Drop for a failure."""
        if b.advance and (drop := behaviors.end(p)) is not None:
            return drop
        if isinstance(b, ProgramBehavior):
            program = self.programs[b.program]
            if b.advance:
                return programs.run_endpoint_program(self.endpoint_ctx, program, p, now)
            return programs.run_transit_program(self.transit_ctx, program, p, now)
        return b.action(p, self)

    def time_exceeded(self, offender: Packet) -> Packet | None:
        """The ICMPv6 time-exceeded (RFC 4443 §3.3, code 0) this node sends
        toward the offender's source; None from a node with no address, to
        the unspecified address, or about an ICMPv6 error (§2.4(e.1), as
        Linux's is_ineligible, from memory). The body is the type, the code,
        a zero checksum, then the offender's first 64 octets. The RFC has 4
        unused octets before the quote, and quotes up to 1,280 octets in
        all; the short quote is this model's choice, the digests pin it."""
        hdr, srhs = offender.headers[0]
        src = hdr.src
        if (not self.addresses or src == _UNSPECIFIED
                or (srhs[-1] if srhs else hdr).next_header == PROTO_ICMPV6
                and offender.transport[:1] < b"\x80"):  # an error type, or none
            return None
        try:
            quoted = encode_packet(offender)[:64]
        except PacketError:  # an offender with a broken invariant is not quoted
            quoted = b""
        body = _TIME_EXCEEDED_HEAD + quoted
        hdr = Ipv6Header(self.addresses[0], src, PROTO_ICMPV6, 64, 0, 0, len(body))
        # born with the ids trace_ids() reads from a bytes transport
        return Packet([(hdr, [])], body, (None, None))
