"""Per-node dataplane: routing tables, local SIDs, transit routes and the
ingress pipeline that ties them together."""

from __future__ import annotations

from . import behaviors, programs
from .behaviors import (
    Behavior,
    BehaviorError,
    Drop,
    DropReason,
    Forward,
    ForwardingDecision,
    LocalDeliver,
    ProgramBehavior,
)
from .fib import FibEntry, PrefixTable, select_nexthop
from .packet import (
    Address,
    InvariantViolation,
    PROTO_ICMPV6,
    Packet,
    Ipv6Header,
    encode_packet,
)
from .programs import EventQueue, MapStore, Program, flow_key

ICMP_TIME_EXCEEDED = 3


class Node:
    """A router/host with static tables, mutated only during setup."""

    def __init__(self, node_id: str, addresses: list[Address], index: int = 0):
        self.id = node_id
        self.index = index
        self.addresses = list(addresses)
        self.local_addrs = set(addresses)
        self.tables: dict[int, PrefixTable] = {0: PrefixTable()}
        self.sids: dict[Address, Behavior] = {}
        self.transits = PrefixTable()
        self.programs: dict[str, Program] = {}
        self.maps = MapStore()
        self.events = EventQueue()
        self.originated: list[Packet] = []

    # -- table management ---------------------------------------------------

    def fib_insert(self, entry: FibEntry) -> None:
        entry.check()
        table = self.tables.setdefault(entry.table_id, PrefixTable())
        table.insert(entry.prefix, entry.plen, entry)

    def fib_remove(self, prefix: Address, plen: int, table: int = 0) -> bool:
        t = self.tables.get(table)
        return t.remove(prefix, plen) if t else False

    def add_sid(self, sid: Address, behavior: Behavior) -> None:
        self.sids[sid] = behavior
        self.local_addrs.add(sid)

    def add_transit(self, prefix: Address, plen: int, behavior: Behavior) -> None:
        self.transits.insert(prefix, plen, behavior)

    def add_program(self, name: str, program: Program) -> None:
        self.programs[name] = program

    # -- lookups ------------------------------------------------------------

    def _nexthops(self, addr: Address, table: int) -> list[tuple[Address, str]]:
        t = self.tables.get(table)
        entry = t.lookup(addr) if t else None
        if entry is None:
            raise BehaviorError(DropReason.NO_ROUTE)
        return entry.nexthops

    def fib_lookup(self, addr: Address, table: int, p: Packet) -> tuple[Address, str]:
        """Nexthop for addr; p's ECMP flow key is built only when the
        matched route has more than one nexthop."""
        nexthops = self._nexthops(addr, table)
        if len(nexthops) == 1:
            return nexthops[0]
        return select_nexthop(nexthops, flow_key(p))

    def fib_ecmp_list(self, addr: Address, table: int = 0) -> list[tuple[Address, str]]:
        return list(self._nexthops(addr, table))

    # -- pipeline -----------------------------------------------------------

    def finish_forwarding(self, p: Packet) -> ForwardingDecision:
        """Common tail: pending destination wins, then local delivery,
        then a FIB lookup honouring a pending table."""
        meta = p.meta
        if meta.pending_destination is not None:
            return Forward(meta.pending_link, meta.pending_destination)
        dst = p.outer_header.dst
        if dst in self.local_addrs:
            return LocalDeliver()
        table = meta.pending_table if meta.pending_table is not None else 0
        try:
            nh, link = self.fib_lookup(dst, table, p)
        except BehaviorError as exc:
            return Drop(exc.reason, exc.detail)
        return Forward(link, nh)

    def process_ingress(self, p: Packet, now: int) -> ForwardingDecision:
        """Dispatch one received packet: hop-limit handling, local SID
        match, transit match, then plain forwarding."""
        meta = p.meta
        meta.rx_timestamp_ns = now
        meta.ingress_node = self.id
        hdr = p.outer_header
        hdr.hop_limit -= 1
        if hdr.hop_limit <= 0:
            hdr.hop_limit = 0
            self._emit_time_exceeded(p)
            return Drop(DropReason.HOP_LIMIT_EXCEEDED)
        dst = hdr.dst
        b = self.sids.get(dst) or self.transits.lookup(dst)
        if b is None:
            return self.finish_forwarding(p)
        return self._dispatch(b, p, now)

    def _dispatch(self, b: Behavior, p: Packet, now: int) -> ForwardingDecision:
        """Run a SID or transit behaviour, then the common forwarding tail."""
        try:
            if isinstance(b, ProgramBehavior):
                program = self.programs.get(b.program)
                if program is None:
                    return Drop(DropReason.PROGRAM_ERROR, f"no program {b.program!r}")
                if b.advance:
                    return programs.run_endpoint_program(self, program, p, now)
                return programs.run_transit_program(self, program, p, now)
            if b.advance:
                behaviors.end(p)
            b.action(p)
        except BehaviorError as exc:
            return Drop(exc.reason, exc.detail)
        except InvariantViolation as exc:
            return Drop(DropReason.INVARIANT, str(exc))
        return self.finish_forwarding(p)

    def _emit_time_exceeded(self, offender: Packet) -> None:
        """Queue a minimal ICMPv6 time-exceeded toward the packet source:
        a 4-octet type tag followed by the offender's first 64 octets."""
        if not self.addresses:
            return
        src = offender.outer_header.src
        if src == bytes(16):
            return
        try:
            quoted = encode_packet(offender)[:64]
        except Exception:
            quoted = b""
        hdr = Ipv6Header(
            src=self.addresses[0], dst=src, next_header=PROTO_ICMPV6, hop_limit=64
        )
        body = bytes((ICMP_TIME_EXCEEDED, 0, 0, 0)) + quoted
        self.originated.append(Packet(headers=[(hdr, [])], transport=body))
