"""Pluggable packet-program interface.

Programs are host-language callables registered by name. They receive a
ProgramContext with full read access to the packet and may mutate it only
through the helpers below, which keep the in-kernel write restrictions and
hooks (Linux 4.18, read from memory): store_bytes, adjust_srh and action
serve End.BPF only, push_encap transit only, the rest both. The returned
outcome (OK / DROP / REDIRECT) drives post-program forwarding. A TLV write
or any resize marks the SRH, as it clears seg6_bpf_srh_state.valid; the
next helper_action validates a marked SRH first, as bpf_lwt_seg6_action
does, and finalize one still marked, as seg6_bpf_has_valid_srh does. A
run's own state (the stored decision, the marked SRH) lives on its
ProgramContext, as the kernel keeps it in the per-CPU seg6_bpf_srh_state,
never in the packet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from . import behaviors
from .behaviors import Behavior, DROPS, Drop, DropReason, ForwardingDecision
from .packet import Address, InvariantViolation, Packet, SegmentRoutingHeader, validate_srh

if TYPE_CHECKING:
    from .dataplane import Node

EVENT_QUEUE_CAPACITY = 4096
MAX_EVENT_PAYLOAD = 256
_FLOW_TAIL = struct.Struct(">IHH")  # a flow key after its address pair


class Outcome(Enum):
    OK = 0
    DROP = 1
    REDIRECT = 2


class Hook(Enum):
    ENDPOINT = "endpoint"
    TRANSIT = "transit"


# enum class attribute reads go through a metaclass hook; hot paths read these
_OK, _DROP, _REDIRECT = Outcome
_ENDPOINT, _TRANSIT = Hook


class HelperError(Exception):
    """Raised by helpers on contract violations; programs may catch it."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code


class EventQueue:
    """Bounded one-producer queue of event payloads, as a perf buffer hands
    its one reader only the bytes written. A full queue keeps what it
    holds: like a perf buffer in its default, non-overwrite mode, it loses
    the new event and counts it in ``dropped``. ``reader`` is the daemon
    that drains it (set by Simulation.add_daemon), and each queued event
    wakes it."""

    def __init__(self):
        self._events: list[bytes] = []
        self.dropped = 0
        self.emitted = 0
        self.reader = None

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, payload: bytes) -> bool:
        """Queue payload; False if the queue was full and it was lost.
        ``emitted`` counts both, so emitted - dropped events reach the
        reader."""
        self.emitted += 1
        if len(self._events) >= EVENT_QUEUE_CAPACITY:
            self.dropped += 1
            return False
        self._events.append(payload)
        if self.reader is not None:
            self.reader.wake()
        return True

    def drain(self) -> list[bytes]:
        out, self._events = self._events, []
        return out


@dataclass(slots=True)
class ProgramContext:
    packet: Packet
    hook: Hook
    now_ns: int
    dataplane: "Node"
    # per run, reset by run_program: the decision helper_action stored
    # (None until an action succeeds), and the marked outer SRH, if any
    redirect: ForwardingDecision | None = None
    srh_dirty: SegmentRoutingHeader | None = None
    maps: dict = field(init=False)  # dataplane.maps, for map_get/map_put

    def __post_init__(self):
        self.maps = self.dataplane.maps


Program = Callable[[ProgramContext], Outcome]
# A program may carry ``maps = {name: (key_size, value_size)}``, its
# object's maps section; Node.add_program creates them when it loads it.

# Program registry: name -> factory(params dict) -> Program. Scenario
# files reference these names; use cases register theirs on import.
PROGRAM_FACTORIES: dict[str, Callable[[dict], Program]] = {}


def register_program(name: str):
    def deco(factory: Callable[[dict], Program]):
        PROGRAM_FACTORIES[name] = factory
        return factory

    return deco


def make_program(name: str, params: dict | None = None) -> Program:
    try:
        factory = PROGRAM_FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown program {name!r}") from None
    return factory(params or {})


# ---------------------------------------------------------------------------
# Helpers.

_SRH_FIXED = 8  # next_header, hdr_ext_len, routing_type, sl, le, flags, tag


def _outer_srh(ctx: ProgramContext) -> SegmentRoutingHeader:
    if ctx.hook is not _ENDPOINT:
        raise HelperError("wrong_hook", "SRH writes are endpoint-only")
    srhs = ctx.packet.headers[0][1]
    if not srhs:
        raise HelperError("no_srh")
    return srhs[0]


def helper_store_bytes(ctx: ProgramContext, offset: int, data: bytes) -> None:
    """Indirect write into the SRH, restricted to flags, tag and the TLV
    region; anything overlapping the structural fields or the segment
    list raises write_out_of_bounds and leaves the packet untouched. Only
    a TLV write marks the SRH, as only it clears seg6_bpf_srh_state.valid
    in bpf_lwt_seg6_store_bytes. Endpoint only."""
    srh = _outer_srh(ctx)
    if not data:
        return
    end = offset + len(data)
    if 5 <= offset and end <= 8:
        # flags and tag are the 3-octet word at octets 5..7
        shift = 8 * (8 - end)
        mask = ((1 << 8 * len(data)) - 1) << shift
        word = (srh.flags << 16 | srh.tag) & ~mask | int.from_bytes(data, "big") << shift
        srh.flags, srh.tag = word >> 16, word & 0xFFFF
        return
    seg_end = _SRH_FIXED + 16 * len(srh.segments)
    tlv = srh.tlv_bytes
    if not (seg_end <= offset and end <= seg_end + len(tlv)):
        raise HelperError("write_out_of_bounds", f"[{offset}, {end}) not writable")
    srh.tlv_bytes = tlv[: offset - seg_end] + data + tlv[end - seg_end :]
    ctx.srh_dirty = srh


def helper_adjust_srh(ctx: ProgramContext, delta_octets: int) -> None:
    """Grow (zero-filled) or shrink the TLV region at its start, keeping
    hdr_ext_len and the enclosing payload_length consistent; marks the SRH."""
    srh = _outer_srh(ctx)
    if delta_octets % 8 != 0:
        raise HelperError("bad_delta", f"{delta_octets} not a multiple of 8")
    if delta_octets < 0 and -delta_octets > len(srh.tlv_bytes):
        raise HelperError("bad_delta", "shrink below zero TLV octets")
    new_len = len(srh.tlv_bytes) + delta_octets
    if 2 * len(srh.segments) + new_len // 8 > 0xFF:
        raise HelperError("size_overflow", "hdr_ext_len would exceed 255")
    if delta_octets >= 0:
        srh.tlv_bytes = b"\x00" * delta_octets + srh.tlv_bytes
    else:
        srh.tlv_bytes = srh.tlv_bytes[-delta_octets:]
    # the outer SRH sits directly under the outermost header
    ctx.packet.headers[0][0].payload_length += delta_octets
    ctx.srh_dirty = srh


def helper_timestamp(ctx: ProgramContext) -> int:
    return ctx.now_ns


def helper_ecmp_nexthops(ctx: ProgramContext, addr: Address) -> list[tuple[Address, str]]:
    """All ECMP nexthops of the longest match in the default table."""
    nexthops = ctx.dataplane.fib_ecmp_list(addr, table=0)
    if not nexthops:
        raise HelperError("no_route")
    return nexthops


def helper_action(ctx: ProgramContext, action: Behavior) -> None:
    """Apply the action of a descriptor marked ``helper``, with no
    re-advance: the endpoint hook already advanced the SRH. A marked SRH
    is validated first, as bpf_lwt_seg6_action does: an invalid one raises
    invalid_srh and nothing is done, a valid one is unmarked. The decision
    the action returns is kept for a REDIRECT outcome; a Drop, the action's
    failure, raises with its reason as the code. Its lookup is made now,
    as the kernel helper's is: End.B6 and End.B6.Encaps look the pushed
    segment up in the main table, as bpf_push_seg6_encap ends in
    seg6_lookup_nexthop; the SRH they push was validated when its
    descriptor was built and is not marked. One action per program run."""
    if ctx.hook is not _ENDPOINT:
        raise HelperError("wrong_hook", "helper_action is endpoint-only")
    if ctx.redirect is not None:
        raise HelperError("action_already_taken")
    if not (isinstance(action, Behavior) and action.helper):
        raise HelperError("bad_action", repr(action))
    if ctx.srh_dirty is not None:
        if bad := validate_srh(ctx.srh_dirty):
            raise HelperError("invalid_srh", str(bad))
        ctx.srh_dirty = None
    decision = action.action(ctx.packet, ctx.dataplane)
    if type(decision) is Drop:
        raise HelperError(decision.reason.value, decision.detail)
    ctx.redirect = decision


def helper_push_encap(
    ctx: ProgramContext,
    mode: str,
    srh: SegmentRoutingHeader,
    outer_src: Address | None = None,
) -> None:
    """Insert an SRH or encapsulate pure IPv6 traffic (transit hook only).
    As bpf_lwt_push_encap, the push validates the program's SRH once per
    call, with room for the segment an insert adds, and then copies it, so
    it is not marked; an invalid one raises and pushes nothing."""
    if ctx.hook is not _TRANSIT:
        raise HelperError("wrong_hook", "helper_push_encap is transit-only")
    if mode not in ("insert", "encaps"):
        raise HelperError("bad_mode", mode)
    if bad := validate_srh(srh, mode == "insert"):  # room: 1 for an insert
        raise HelperError("invariant_violation", str(bad))
    if mode == "encaps":
        if outer_src is None:
            outer_src = ctx.dataplane.addresses[0]
        behaviors.encapsulate(ctx.packet, srh, outer_src)
    elif (drop := behaviors.t_insert(ctx.packet, srh)) is not None:
        raise HelperError(drop.reason.value, drop.detail)


def map_get(holder, name: str, key: bytes) -> bytes | None:
    """Read a map of holder: a ProgramContext, or outside a program run
    the Node that owns the maps."""
    try:
        ksize, _, data = holder.maps[name]
    except KeyError:
        raise HelperError("unknown_map", name) from None
    if len(key) != ksize:
        raise HelperError("width_mismatch", f"key {len(key)} != {ksize}")
    return data.get(key)


def map_put(holder, name: str, key: bytes, value: bytes) -> None:
    try:
        ksize, vsize, data = holder.maps[name]
    except KeyError:
        raise HelperError("unknown_map", name) from None
    if len(key) != ksize:
        raise HelperError("width_mismatch", f"key {len(key)} != {ksize}")
    if len(value) != vsize:
        raise HelperError("width_mismatch", f"value {len(value)} != {vsize}")
    data[key] = value


def emit_event(ctx: ProgramContext, payload: bytes) -> bool:
    """Queue an event for the node's daemon. A full queue loses it and
    returns False, as bpf_perf_event_output returns -ENOSPC, without
    raising: the program goes on."""
    if len(payload) > MAX_EVENT_PAYLOAD:
        raise HelperError("payload_too_large", str(len(payload)))
    return ctx.dataplane.events.emit(payload)


# ---------------------------------------------------------------------------
# Execution.

def flow_key(p: Packet) -> bytes:
    """Flow identity for ECMP: outer addresses and flow label, plus the
    transport ports when the packet is plain UDP."""
    hdr = p.headers[0][0]
    udp = p.transport
    if len(p.headers) == 1 and not isinstance(udp, bytes):
        return hdr.src + hdr.dst + _FLOW_TAIL.pack(hdr.flow_label, udp.src_port, udp.dst_port)
    return hdr.src + hdr.dst + _FLOW_TAIL.pack(hdr.flow_label, 0, 0)


def finalize(ctx: ProgramContext, outcome: Outcome) -> ForwardingDecision:
    """Turn a program outcome into a forwarding decision.

    A marked SRH, always the packet's outer one, is validated first.
    REDIRECT returns the decision helper_action stored, and drops without
    one. OK looks the current destination up in the main table, whatever
    a helper stored, as input_action_end_bpf does.
    """
    if ctx.srh_dirty is not None and (bad := validate_srh(ctx.srh_dirty)):
        return Drop(DropReason.INVALID_SRH_AFTER_PROGRAM, str(bad))
    if outcome is _DROP:
        return DROPS[DropReason.PROGRAM_DROP]
    if outcome is _REDIRECT:
        return ctx.redirect or DROPS[DropReason.REDIRECT_WITHOUT_DESTINATION]
    return ctx.dataplane.finish_forwarding(ctx.packet)


def run_program(
    ctx: ProgramContext, program: Program, packet: Packet, now: int
) -> ForwardingDecision:
    """Run program on packet with the hook's context, then finalize. At
    the endpoint hook the node has already advanced the SRH, as
    input_action_end_bpf does before it resets seg6_bpf_srh_state; from
    there on both hooks share this contract. A program's HelperError or
    InvariantViolation, the only exceptions a packet raises, is its Drop."""
    ctx.packet, ctx.now_ns = packet, now
    ctx.redirect = ctx.srh_dirty = None
    try:
        outcome = program(ctx)
    except HelperError as exc:
        return Drop(DropReason.PROGRAM_ERROR, str(exc))
    except InvariantViolation as exc:  # as encode_packet raises on a broken packet
        return Drop(DropReason.INVARIANT, str(exc))
    return finalize(ctx, outcome)


# The End.BPF and LWT hook entry points: one function under two names,
# which Node._dispatch calls by hook, so a trace counts each hook's runs.
run_endpoint_program = run_transit_program = run_program


@register_program("noop")
def _noop_factory(params: dict) -> Program:
    """Program that does nothing: the BPF reimplementation of End."""

    def run(ctx: ProgramContext) -> Outcome:
        return _OK

    return run
