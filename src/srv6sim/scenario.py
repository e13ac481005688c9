"""Scenario files: JSON schema, validation, and simulation building.

A scenario describes nodes, links (bandwidth + RTT parameters), routing
tables, local SIDs, transit routes, daemons and traffic generators. RTTs
are split into per-direction link parameters (mean/2, stddev/2). Segment
lists in scenario files are written in travel order; storage is reversed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .behaviors import SID_BEHAVIORS, TRANSIT_BEHAVIORS, Behavior, ProgramBehavior
from .dataplane import Node
from .fib import FibEntry
from .packet import Address, SegmentRoutingHeader, pton
from .programs import make_program
from .sim import Simulation, UdpStream
from .usecases import OampResponder, OwdCollector, ProbeLink, TwdProber


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def fixture_path(name: str) -> Path:
    """Path of a bundled scenario fixture (setup1.json, ...)."""
    return Path(str(resources.files("srv6sim").joinpath("fixtures", name)))


def schema_path() -> Path:
    return Path(str(resources.files("srv6sim").joinpath("schemas", "scenario.schema.json")))


# -- raw JSON access helpers -------------------------------------------------

_REQUIRED = object()


def _get(obj: dict, key: str, path: str, kind=None, default=_REQUIRED):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"{path}.{key}", "missing required key")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def _uint(obj: dict, key: str, path: str, top: int, default: int) -> int:
    """An integer field bounded to 0..top, as the schema bounds it."""
    value = _get(obj, key, path, int, default=default)
    if not 0 <= value <= top:
        raise ConfigError(f"{path}.{key}", f"{value} out of range 0..{top}")
    return value


def _addr(text, path: str) -> Address:
    if not isinstance(text, str):
        raise ConfigError(path, "expected an IPv6 address string")
    try:
        return pton(text)
    except OSError:
        raise ConfigError(path, f"bad IPv6 address {text!r}") from None


def _prefix(text, path: str) -> tuple[Address, int]:
    if not isinstance(text, str) or "/" not in text:
        raise ConfigError(path, f"expected 'addr/len', got {text!r}")
    addr_s, _, len_s = text.partition("/")
    try:
        plen = int(len_s)
    except ValueError:
        raise ConfigError(path, f"bad prefix length {len_s!r}") from None
    if not (0 <= plen <= 128):
        raise ConfigError(path, f"prefix length {plen} out of range")
    return _addr(addr_s, path), plen


def _srh(obj, path: str) -> SegmentRoutingHeader:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an SRH object")
    travel = _get(obj, "segments", path, list)
    if not travel:
        raise ConfigError(f"{path}.segments", "segment list must be non-empty")
    segments = [
        _addr(s, f"{path}.segments[{i}]") for i, s in enumerate(travel)
    ][::-1]
    sl = _get(obj, "segments_left", path, int, default=len(segments) - 1)
    if not (0 <= sl < len(segments)):
        raise ConfigError(f"{path}.segments_left", f"{sl} out of range")
    return SegmentRoutingHeader(segments=segments, segments_left=sl)


_ADDR_PARAM_KEYS = {"controller_addr", "outer_src", "dm_sid", "return_addr"}
_SRH_PARAM_KEYS = {"path_srh", "srh_a", "srh_b", "srh"}


def _program_params(obj, path: str) -> dict:
    """Convert JSON program parameters to runtime values (addresses and
    SRH objects); unknown keys pass through untouched."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(path, "params must be an object")
    out = {}
    for key, value in obj.items():
        if key in _ADDR_PARAM_KEYS:
            out[key] = _addr(value, f"{path}.{key}")
        elif key in _SRH_PARAM_KEYS:
            out[key] = _srh(value, f"{path}.{key}")
        elif key == "weights":
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"{path}.{key}", "weights must be a 2-list")
            out[key] = (int(value[0]), int(value[1]))
        else:
            out[key] = value
    return out


# Readers for the descriptor field types; str and int values pass through
# after a type check.
_FIELD_READERS = {Address: _addr, SegmentRoutingHeader: _srh}


@functools.cache
def _field_types(cls: type[Behavior]) -> tuple[tuple[str, type], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _behavior(
    obj: dict, path: str, table: dict[str, type[Behavior]], instance: str
) -> Behavior:
    """The descriptor for a scenario ``behavior`` object: its ``type``
    names the class, each field is read from the key of the same name.
    A program descriptor names the node-local program instance."""
    btype = _get(obj, "type", path, str)
    cls = table.get(btype)
    if cls is None:
        raise ConfigError(f"{path}.type", f"unknown behavior type {btype!r}")
    if issubclass(cls, ProgramBehavior):
        _get(obj, "program", path, str)  # the registry name build_simulation resolves
        return cls(instance)
    args = []
    for name, kind in _field_types(cls):
        read = _FIELD_READERS.get(kind)
        if read is None:
            args.append(_get(obj, name, path, kind))
        else:
            args.append(read(_get(obj, name, path), f"{path}.{name}"))
    return cls(*args)


# -- parsed model ------------------------------------------------------------

@dataclass
class NodeCfg:
    id: str
    addresses: list[Address]


@dataclass
class LinkCfg:
    id: str
    endpoints: tuple[str, str]
    bandwidth_bps: int
    delay_mean_ns: int
    delay_stddev_ns: int


@dataclass
class FibCfg:
    node: str
    table: int
    prefix: Address
    plen: int
    nexthops: list[tuple[Address, str]]


@dataclass
class SidCfg:
    node: str
    sid: Address
    behavior: Behavior
    program: str | None = None
    params: dict = field(default_factory=dict)


@dataclass
class TransitCfg:
    node: str
    prefix: Address
    plen: int
    behavior: Behavior
    program: str | None = None
    params: dict = field(default_factory=dict)


@dataclass
class DaemonCfg:
    id: str
    type: str
    node: str
    interval_ns: int
    params: dict


@dataclass
class GeneratorCfg:
    src_node: str
    src: Address
    dst: Address
    rate_pps: int
    payload_size: int
    count: int
    flow: int
    src_port: int
    dst_port: int
    flow_label: int
    start_ns: int


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration_ns: int
    nodes: list[NodeCfg]
    links: list[LinkCfg]
    fib: list[FibCfg]
    sids: list[SidCfg]
    transits: list[TransitCfg]
    daemons: list[DaemonCfg]
    generators: list[GeneratorCfg]
    digest: str

    def node_ids(self) -> set[str]:
        return {n.id for n in self.nodes}


def config_digest(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_scenario(path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return parse_scenario(raw)


def parse_scenario(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("$", "scenario must be a JSON object")
    name = _get(raw, "name", "$", str, default="scenario")
    seed = _get(raw, "seed", "$", int, default=0)
    duration_ms = _get(raw, "duration_ms", "$", (int, float))
    if duration_ms <= 0:
        raise ConfigError("$.duration_ms", "duration must be positive")

    nodes = []
    seen_nodes = set()
    for i, obj in enumerate(_get(raw, "nodes", "$", list)):
        path = f"$.nodes[{i}]"
        node_id = _get(obj, "id", path, str)
        if node_id in seen_nodes:
            raise ConfigError(f"{path}.id", f"duplicate node id {node_id!r}")
        seen_nodes.add(node_id)
        addrs = [
            _addr(a, f"{path}.addresses[{j}]")
            for j, a in enumerate(_get(obj, "addresses", path, list))
        ]
        if not addrs:
            raise ConfigError(f"{path}.addresses", "node needs an address")
        nodes.append(NodeCfg(node_id, addrs))

    links = []
    seen_links = set()
    for i, obj in enumerate(_get(raw, "links", "$", list, default=[])):
        path = f"$.links[{i}]"
        link_id = _get(obj, "id", path, str)
        if link_id in seen_links:
            raise ConfigError(f"{path}.id", f"duplicate link id {link_id!r}")
        seen_links.add(link_id)
        ends = _get(obj, "endpoints", path, list)
        if len(ends) != 2 or not all(e in seen_nodes for e in ends):
            raise ConfigError(f"{path}.endpoints", f"bad endpoints {ends!r}")
        mbps = _get(obj, "bandwidth_mbps", path, (int, float))
        if mbps <= 0:
            raise ConfigError(f"{path}.bandwidth_mbps", "must be positive")
        rtt = _get(obj, "rtt_mean_ms", path, (int, float), default=0.0)
        std = _get(obj, "rtt_stddev_ms", path, (int, float), default=0.0)
        links.append(
            LinkCfg(
                link_id,
                (ends[0], ends[1]),
                int(mbps * 1_000_000),
                int(rtt * 500_000),  # RTT/2, in ns
                int(std * 500_000),
            )
        )

    def check_node(node_id, path):
        if node_id not in seen_nodes:
            raise ConfigError(path, f"unknown node {node_id!r}")
        return node_id

    def check_link(link_id, node_id, path):
        for link in links:
            if link.id == link_id:
                if node_id not in link.endpoints:
                    raise ConfigError(path, f"link {link_id!r} not at node {node_id!r}")
                return link_id
        raise ConfigError(path, f"unknown link {link_id!r}")

    fib = []
    for i, obj in enumerate(_get(raw, "fib", "$", list, default=[])):
        path = f"$.fib[{i}]"
        node_id = check_node(_get(obj, "node", path, str), f"{path}.node")
        prefix, plen = _prefix(_get(obj, "prefix", path, str), f"{path}.prefix")
        nexthops = []
        for j, nh in enumerate(_get(obj, "nexthops", path, list)):
            nh_path = f"{path}.nexthops[{j}]"
            via = _addr(_get(nh, "via", nh_path, str), f"{nh_path}.via")
            link_id = check_link(
                _get(nh, "link", nh_path, str), node_id, f"{nh_path}.link"
            )
            nexthops.append((via, link_id))
        if not nexthops:
            raise ConfigError(f"{path}.nexthops", "need at least one nexthop")
        fib.append(
            FibCfg(node_id, _get(obj, "table", path, int, default=0), prefix, plen, nexthops)
        )

    sids = []
    for i, obj in enumerate(_get(raw, "sids", "$", list, default=[])):
        path = f"$.sids[{i}]"
        node_id = check_node(_get(obj, "node", path, str), f"{path}.node")
        sid = _addr(_get(obj, "sid", path, str), f"{path}.sid")
        b = _get(obj, "behavior", path, dict)
        behavior = _behavior(b, f"{path}.behavior", SID_BEHAVIORS, f"sid:{sid.hex()}")
        params = _program_params(b.get("params"), f"{path}.behavior.params")
        sids.append(SidCfg(node_id, sid, behavior, b.get("program"), params))

    transits = []
    for i, obj in enumerate(_get(raw, "transits", "$", list, default=[])):
        path = f"$.transits[{i}]"
        node_id = check_node(_get(obj, "node", path, str), f"{path}.node")
        prefix, plen = _prefix(_get(obj, "prefix", path, str), f"{path}.prefix")
        b = _get(obj, "behavior", path, dict)
        behavior = _behavior(
            b, f"{path}.behavior", TRANSIT_BEHAVIORS, f"transit:{prefix.hex()}/{plen}"
        )
        params = _program_params(b.get("params"), f"{path}.behavior.params")
        transits.append(TransitCfg(node_id, prefix, plen, behavior, b.get("program"), params))

    daemons = []
    seen_daemons = set()
    for i, obj in enumerate(_get(raw, "daemons", "$", list, default=[])):
        path = f"$.daemons[{i}]"
        daemon_id = _get(obj, "id", path, str)
        if daemon_id in seen_daemons:
            raise ConfigError(f"{path}.id", f"duplicate daemon id {daemon_id!r}")
        seen_daemons.add(daemon_id)
        dtype = _get(obj, "type", path, str)
        node_id = check_node(_get(obj, "node", path, str), f"{path}.node")
        interval_ms = _get(obj, "interval_ms", path, (int, float), default=100.0)
        params = _program_params(obj.get("params"), f"{path}.params")
        if dtype == "twd_prober":
            params = _prober_params(params, node_id, check_link, f"{path}.params")
        elif dtype not in ("owd_collector", "oamp_responder"):
            raise ConfigError(f"{path}.type", f"unknown daemon type {dtype!r}")
        daemons.append(
            DaemonCfg(daemon_id, dtype, node_id, int(interval_ms * 1_000_000), params)
        )

    generators = []
    for i, obj in enumerate(_get(raw, "generators", "$", list, default=[])):
        path = f"$.generators[{i}]"
        src_node = check_node(_get(obj, "src_node", path, str), f"{path}.src_node")
        src_default = next(n.addresses[0] for n in nodes if n.id == src_node)
        src = (
            _addr(obj["src"], f"{path}.src") if "src" in obj else src_default
        )
        rate_pps = _get(obj, "rate_pps", path, int)
        if rate_pps <= 0:
            raise ConfigError(f"{path}.rate_pps", "must be positive")
        payload_size = _get(obj, "payload_size", path, int, default=64)
        if payload_size < 8:
            raise ConfigError(f"{path}.payload_size", "must be at least 8")
        generators.append(
            GeneratorCfg(
                src_node=src_node,
                src=src,
                dst=_addr(_get(obj, "dst", path, str), f"{path}.dst"),
                rate_pps=rate_pps,
                payload_size=payload_size,
                count=_get(obj, "count", path, int),
                flow=_uint(obj, "flow", path, 0xFFFF, default=1),
                src_port=_uint(obj, "src_port", path, 0xFFFF, default=49152),
                dst_port=_uint(obj, "dst_port", path, 0xFFFF, default=33434),
                flow_label=_uint(obj, "flow_label", path, 0xFFFFF, default=0),
                start_ns=int(_get(obj, "start_ms", path, (int, float), default=0) * 1e6),
            )
        )

    return ScenarioConfig(
        name=name,
        seed=seed,
        duration_ns=int(duration_ms * 1_000_000),
        nodes=nodes,
        links=links,
        fib=fib,
        sids=sids,
        transits=transits,
        daemons=daemons,
        generators=generators,
        digest=config_digest(raw),
    )


def apply_overrides(
    cfg: ScenarioConfig,
    seed: int | None = None,
    duration_ms: float | None = None,
    ratio: int | None = None,
    compensation: bool | None = None,
) -> ScenarioConfig:
    """Runtime overrides; these do not change the scenario digest."""
    if seed is not None:
        cfg.seed = seed
    if duration_ms is not None:
        cfg.duration_ns = int(duration_ms * 1_000_000)
    if ratio is not None:
        for entry in list(cfg.sids) + list(cfg.transits):
            if entry.program == "dm_transit":
                entry.params["ratio"] = ratio
    if compensation is not None:
        for d in cfg.daemons:
            if d.type == "twd_prober":
                d.params["compensate"] = compensation
    return cfg


# -- building ----------------------------------------------------------------

def build_simulation(cfg: ScenarioConfig) -> Simulation:
    """Instantiate nodes, links, tables, programs, daemons and generators."""
    sim = Simulation(seed=cfg.seed)
    for n in cfg.nodes:
        sim.add_node(Node(n.id, n.addresses))
    for l in cfg.links:
        sim.add_link(
            l.id, l.endpoints[0], l.endpoints[1],
            l.bandwidth_bps, l.delay_mean_ns, l.delay_stddev_ns,
        )
    for f in cfg.fib:
        sim.nodes[f.node].fib_insert(
            FibEntry(f.prefix, f.plen, f.nexthops, f.table)
        )
    for key, entries in (("sids", cfg.sids), ("transits", cfg.transits)):
        for i, entry in enumerate(entries):
            b = entry.behavior
            if isinstance(b, ProgramBehavior):
                try:
                    program = make_program(entry.program, entry.params)
                except KeyError as exc:
                    raise ConfigError(f"$.{key}[{i}].behavior.program", str(exc)) from None
                except ValueError as exc:
                    raise ConfigError(f"$.{key}[{i}].behavior.params", str(exc)) from None
                sim.nodes[entry.node].add_program(b.program, program)
    for s in cfg.sids:
        sim.nodes[s.node].add_sid(s.sid, s.behavior)
    for t in cfg.transits:
        sim.nodes[t.node].add_transit(t.prefix, t.plen, t.behavior)
    for d in cfg.daemons:
        daemon = _make_daemon(d)
        sim.add_daemon(daemon)
        setup = getattr(daemon, "setup", None)
        if setup is not None:
            setup(sim)
    for g in cfg.generators:
        sim.add_stream(
            UdpStream(
                src_node=g.src_node, src=g.src, dst=g.dst,
                rate_pps=g.rate_pps, payload_size=g.payload_size,
                count=g.count, flow=g.flow, src_port=g.src_port,
                dst_port=g.dst_port, flow_label=g.flow_label,
                start_ns=g.start_ns,
            )
        )
    return sim


def _prober_params(params: dict, node_id: str, check_link, path: str) -> dict:
    """A twd_prober's params with its two probe links, each at the
    prober's node, as ProbeLinks and alpha checked to be a number."""
    raw_links = params.get("links")
    if not isinstance(raw_links, list) or len(raw_links) != 2:
        raise ConfigError(f"{path}.links", "twd_prober needs exactly two links")
    links = []
    for j, pl in enumerate(raw_links):
        pl_path = f"{path}.links[{j}]"
        links.append(
            ProbeLink(
                link=check_link(_get(pl, "link", pl_path, str), node_id, f"{pl_path}.link"),
                dm_sid=_addr(_get(pl, "dm_sid", pl_path, str), f"{pl_path}.dm_sid"),
                return_addr=_addr(
                    _get(pl, "return_addr", pl_path, str), f"{pl_path}.return_addr"
                ),
            )
        )
    alpha = params.get("alpha", 0.3)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ConfigError(f"{path}.alpha", f"expected a number, got {alpha!r}")
    return {**params, "links": links, "alpha": float(alpha)}


def _make_daemon(d: DaemonCfg):
    if d.type == "owd_collector":
        return OwdCollector(d.id, d.node, d.interval_ns)
    if d.type == "oamp_responder":
        return OampResponder(d.id, d.node, d.interval_ns)
    return TwdProber(
        d.id, d.node, d.params["links"],
        interval_ns=d.interval_ns,
        alpha=d.params["alpha"],
        compensate=bool(d.params.get("compensate", True)),
    )
