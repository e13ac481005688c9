"""Userspace SRv6 dataplane with pluggable packet programs and a
deterministic network simulator."""

from .packet import (
    Ipv6Header,
    Packet,
    SegmentRoutingHeader,
    Tlv,
    Udp,
    decode_packet,
    encode_packet,
    ntop,
    pton,
    udp_checksum,
    validate_srh,
)
from .behaviors import (
    Drop,
    DropReason,
    End,
    EndB6,
    EndB6Encaps,
    EndDT6,
    EndProgram,
    EndT,
    EndX,
    Forward,
    ForwardingDecision,
    LocalDeliver,
    TransitEncaps,
    TransitInsert,
    TransitProgram,
)
from .dataplane import Node
from .fib import FibEntry, PrefixTable
from .programs import (
    Hook,
    Outcome,
    ProgramContext,
    run_endpoint_program,
    run_transit_program,
)
from .sim import Link, Rng, Simulation, TraceRecord, UdpStream
from .scenario import ScenarioConfig, build_simulation, fixture_path, load_scenario

__version__ = "0.1.0"
