"""Native SRv6 endpoint functions and transit behaviours.

Each body mutates the packet in place. A failure is returned, not raised,
as seg6local's: a body returns the Drop it reports, or None on success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .packet import (
    Address,
    InvariantViolation,
    Ipv6Header,
    PROTO_IPV6,
    PROTO_ROUTING,
    Packet,
    SegmentRoutingHeader,
    validate_srh,
)

if TYPE_CHECKING:
    from .dataplane import Node

DEFAULT_HOP_LIMIT = 64


class DropReason(Enum):
    HOP_LIMIT_EXCEEDED = "hop_limit_exceeded"
    NO_ROUTE = "no_route"
    NO_SRH = "no_srh"
    SEGMENTS_EXHAUSTED = "segments_exhausted"
    NOT_LAST_SEGMENT = "not_last_segment"
    NO_INNER_HEADER = "no_inner_header"
    INVALID_SRH_AFTER_PROGRAM = "invalid_srh_after_program"
    REDIRECT_WITHOUT_DESTINATION = "redirect_without_destination"
    PROGRAM_DROP = "program_drop"
    PROGRAM_ERROR = "program_error"
    INVARIANT = "invariant_violation"
    BAD_EGRESS_LINK = "bad_egress_link"  # the simulator's: a Forward to no port


@dataclass(frozen=True)
class Forward:
    link: str
    nexthop: Address


@dataclass(frozen=True)
class Drop:
    reason: DropReason
    detail: str = field(default="", compare=False)


@dataclass(frozen=True)
class LocalDeliver:
    pass


ForwardingDecision = Forward | Drop | LocalDeliver

# Decisions are immutable, so these are shared: one Drop per reason, without detail.
LOCAL_DELIVER = LocalDeliver()
DROPS = {reason: Drop(reason) for reason in DropReason}
DROP_NO_ROUTE = DROPS[DropReason.NO_ROUTE]
DROP_HOP_LIMIT = DROPS[DropReason.HOP_LIMIT_EXCEEDED]  # only process_ingress returns it


# ---------------------------------------------------------------------------
# Behaviour descriptors, as bound to local SIDs / transit routes.
#
# A descriptor class is the whole definition of one behaviour: its scenario
# ``behavior.type`` name, its fields (named after the scenario keys the
# loader reads, whose types the schema's behavior properties declare) and
# its action, which returns its decision as seg6local's actions end in
# their own lookup. The node runs end() first when ``advance`` is set,
# then the action or program; helper_action applies the action alone,
# without re-advancing, and keeps its decision for a REDIRECT outcome.
# Adding a behaviour is one class here, one entry in SID_BEHAVIORS or
# TRANSIT_BEHAVIORS and one entry in the scenario schema's type enum
# (plus a property for any new field).

class Behavior:
    """Base of every descriptor; the defaults describe a transit body."""

    type_name = ""
    advance = False  # the node runs end() before the action or program
    helper = False  # helper_action may apply the action

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        """The body run after any advance: it mutates p in place and ends
        in its own lookup. This one is End's, the main-table lookup."""
        return node.finish_forwarding(p)


class SrhTemplate(Behavior):
    """Base of the descriptors that push a configured ``srh``. As
    seg6_build_state and parse_nla_srh do when a route is installed, the
    SRH is validated once, with the action's room, and a private copy kept
    as the template each push copies; packets then pay no validation."""

    room = 0  # segments the action adds to the template

    def __post_init__(self) -> None:
        srh = self.srh.copy()
        if bad := validate_srh(srh, self.room):
            raise InvariantViolation(str(bad))
        object.__setattr__(self, "srh", srh)


@dataclass(frozen=True)
class End(Behavior):
    type_name = "end"
    advance = True


@dataclass(frozen=True)
class EndX(Behavior):
    nexthop: Address
    link: str

    type_name = "end_x"
    advance = helper = True

    def __post_init__(self) -> None:
        # the decision is frozen, so every packet shares the one built here
        object.__setattr__(self, "_forward", Forward(self.link, self.nexthop))

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        return self._forward


@dataclass(frozen=True)
class EndT(Behavior):
    table: int

    type_name = "end_t"
    advance = helper = True

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        return node.finish_forwarding(p, self.table)


@dataclass(frozen=True)
class EndB6(SrhTemplate):
    srh: SegmentRoutingHeader

    type_name = "end_b6"
    advance = helper = True

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        insert_srh(p, self.srh)
        return node.finish_forwarding(p)


@dataclass(frozen=True)
class EndDT6(Behavior):
    table: int

    type_name = "end_dt6"
    helper = True

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        return end_dt6(p) or node.finish_forwarding(p, self.table)


@dataclass(frozen=True)
class TransitInsert(SrhTemplate):
    srh: SegmentRoutingHeader

    type_name = "insert"
    room = 1  # t_insert appends the original destination

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        return t_insert(p, self.srh) or node.finish_forwarding(p)


@dataclass(frozen=True)
class TransitEncaps(SrhTemplate):
    srh: SegmentRoutingHeader
    src: Address

    type_name = "encaps"

    def action(self, p: Packet, node: Node) -> ForwardingDecision:
        encapsulate(p, self.srh, self.src)
        return node.finish_forwarding(p)


class EndB6Encaps(TransitEncaps):
    """End, then T.Encaps' push, as in Linux."""

    type_name = "end_b6_encaps"
    advance = helper = True


@dataclass(frozen=True)
class ProgramBehavior(Behavior):
    """Runs the node's program instance of this name instead of an action."""

    program: str


@dataclass(frozen=True)
class EndProgram(ProgramBehavior):
    type_name = "end_program"
    advance = True  # End plus a program: the node advances, then runs it


@dataclass(frozen=True)
class TransitProgram(ProgramBehavior):
    type_name = "program"


SID_BEHAVIORS: dict[str, type[Behavior]] = {
    cls.type_name: cls
    for cls in (End, EndX, EndT, EndB6, EndB6Encaps, EndDT6, EndProgram)
}
TRANSIT_BEHAVIORS: dict[str, type[Behavior]] = {
    cls.type_name: cls for cls in (TransitInsert, TransitEncaps, TransitProgram)
}


# ---------------------------------------------------------------------------
# Endpoint bodies.

def end(p: Packet) -> Drop | None:
    """Advance to the next segment: segments_left -= 1, dst = new active."""
    hdr, srhs = p.headers[0]
    if not srhs:
        return DROPS[DropReason.NO_SRH]
    srh = srhs[0]
    sl = srh.segments_left
    if sl == 0:
        return DROPS[DropReason.SEGMENTS_EXHAUSTED]
    srh.segments_left = sl = sl - 1
    hdr.dst = srh.segments[sl]
    return None


def _splice(
    p: Packet, srh: SegmentRoutingHeader, segments: list[Address], segments_left: int
) -> Packet:
    """Splice a new SRH with srh's other fields directly after the outer
    IPv6 header, fixing the header chain and payload_length."""
    hdr, srhs = p.headers[0]
    tlv = srh.tlv_bytes
    srhs.insert(0, SegmentRoutingHeader(
        segments, segments_left, PROTO_ROUTING if srhs else hdr.next_header,
        srh.flags, srh.tag, tlv, srh.routing_type,
    ))
    hdr.next_header = PROTO_ROUTING
    hdr.dst = segments[segments_left]
    hdr.payload_length += 8 + 16 * len(segments) + len(tlv)
    return p


def insert_srh(p: Packet, new_srh: SegmentRoutingHeader) -> Packet:
    """Splice a copy of an already validated SRH directly after the outer
    IPv6 header, with no advance (the seg6_do_srh_inline analog)."""
    return _splice(p, new_srh, list(new_srh.segments), new_srh.segments_left)


def encapsulate(p: Packet, outer_srh: SegmentRoutingHeader, outer_src: Address) -> Packet:
    """Wrap the whole packet in a fresh IPv6 header carrying a copy of the
    already validated outer_srh (the seg6_do_srh_encap analog)."""
    segments, sl, tlv = outer_srh.segments, outer_srh.segments_left, outer_srh.tlv_bytes
    hdr = Ipv6Header(
        outer_src, segments[sl], PROTO_ROUTING, DEFAULT_HOP_LIMIT, 0, 0,
        48 + 16 * len(segments) + len(tlv) + p.headers[0][0].payload_length,
    )
    p.headers.insert(0, (hdr, [SegmentRoutingHeader(
        list(segments), sl, PROTO_IPV6, outer_srh.flags, outer_srh.tag, tlv,
        outer_srh.routing_type,
    )]))
    return p


def end_dt6(p: Packet) -> Drop | None:
    """Decapsulate the outer IPv6 header (+SRH) at the last segment."""
    headers = p.headers
    srhs = headers[0][1]
    if srhs and srhs[0].segments_left != 0:
        return DROPS[DropReason.NOT_LAST_SEGMENT]
    if len(headers) < 2:
        return DROPS[DropReason.NO_INNER_HEADER]
    headers.pop(0)
    return None


# ---------------------------------------------------------------------------
# Transit bodies.

def t_insert(p: Packet, srh: SegmentRoutingHeader) -> Drop | None:
    """Insert an SRH into a plain IPv6 packet, appending the original
    destination as the final segment and activating the first configured
    segment. srh is validated already, with room for that segment.
    Packets already carrying an SRH are dropped."""
    hdr, srhs = p.headers[0]
    if srhs:
        return Drop(DropReason.INVARIANT, "t_insert on a packet already carrying an SRH")
    _splice(p, srh, [hdr.dst, *srh.segments], len(srh.segments))
    return None

