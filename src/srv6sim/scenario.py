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
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from .behaviors import SID_BEHAVIORS, TRANSIT_BEHAVIORS, Behavior, ProgramBehavior
from .dataplane import Node
from .fib import FibEntry, masked
from .packet import Address, InvariantViolation, SegmentRoutingHeader, pton
from .programs import make_program
from .sim import SimError, Simulation, UdpStream
from .usecases import OampResponder, OwdCollector, ProbeLink, TwdProber


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def within(self, prefix: str) -> ConfigError:
        """The same error at prefix + path."""
        return ConfigError(prefix + self.path, self.message)


def fixture_path(name: str) -> Path:
    """Path of a bundled scenario fixture (setup1.json, ...)."""
    return Path(str(resources.files("srv6sim").joinpath("fixtures", name)))


def schema_path() -> Path:
    return Path(str(resources.files("srv6sim").joinpath("schemas", "scenario.schema.json")))


# -- the schema-driven reader -------------------------------------------------
#
# The shipped schema is the one statement of what a scenario may hold. It is
# compiled once into readers, functions value -> value that raise ConfigError
# on the first violation and otherwise return the value read: an object
# becomes a dict of its declared properties, an array a list of its items,
# and the $defs in _CONVERTERS runtime values. A reader's error carries the
# path below the value it was given; each enclosing object or array prefixes
# its key or index on the way out, so no path is built unless one is raised.
# Compiling fails on any keyword the reader does not implement.

Reader = Callable[[Any], Any]

_ANNOTATIONS = {"$schema", "$id", "$defs", "title", "description", "format"}
_LEAF_KEYWORDS = {"type", "enum", "minimum", "maximum", "exclusiveMinimum", "pattern"}
_MEMBER_KEYWORDS = {"required", "properties", "additionalProperties", "allOf"}
_ARRAY_KEYWORDS = {"type", "items", "minItems", "maxItems"}
# exact types, so that a JSON true is neither an integer nor a number
_JSON_TYPES = {
    "string": (str,), "boolean": (bool,), "integer": (int,), "number": (int, float),
}


def _addr(text: str) -> Address:
    try:
        return pton(text)
    except (OSError, ValueError):
        raise ConfigError("", f"bad IPv6 address {text!r}") from None


def _prefix(text: str) -> tuple[Address, int]:
    addr, _, plen = text.rpartition("/")  # the pattern admits lengths 0..128
    return _addr(addr), int(plen)


def _srh(obj: dict) -> SegmentRoutingHeader:
    segments = obj["segments"][::-1]
    sl = obj.get("segments_left", len(segments) - 1)
    if sl >= len(segments):
        raise ConfigError(".segments_left", f"{sl} out of range")
    return SegmentRoutingHeader(segments=segments, segments_left=sl)


# the defs whose readers return runtime values, applied after validation
_CONVERTERS = {"addr": _addr, "prefix": _prefix, "srh": _srh}


def _check_keywords(schema: dict, allowed: set, pointer: str) -> None:
    unknown = set(schema) - allowed - _ANNOTATIONS
    if unknown:
        raise ValueError(f"{pointer}: unsupported schema keywords {sorted(unknown)}")


def _compile_schema(root: dict) -> dict[str, Reader]:
    """Every reader of the schema, by JSON pointer ("#/properties/seed")."""
    nodes: dict[str, Reader] = {}

    def compile_node(schema: dict, pointer: str) -> Reader:
        if "$ref" in schema:
            _check_keywords(schema, {"$ref"}, pointer)
            target = schema["$ref"]
            if target not in nodes:
                name = target.removeprefix("#/$defs/")
                inner = compile_node(root["$defs"][name], target)
                convert = _CONVERTERS.get(name)
                if convert is not None:
                    nodes[target] = lambda value: convert(inner(value))
            return nodes[target]
        kind = schema.get("type")
        if kind == "object":
            _check_keywords(schema, _MEMBER_KEYWORDS | {"type"}, pointer)
            read = compile_members(schema, pointer)
        elif kind == "array":
            _check_keywords(schema, _ARRAY_KEYWORDS, pointer)
            item = compile_node(schema["items"], f"{pointer}/items")
            lo, hi = schema.get("minItems", 0), schema.get("maxItems", float("inf"))

            def read(value):
                if type(value) is not list:
                    raise ConfigError("", f"expected array, got {value!r:.40}")
                if not lo <= len(value) <= hi:
                    raise ConfigError("", f"expected {lo}..{hi} items, got {len(value)}")
                out = []
                for i, v in enumerate(value):
                    try:
                        out.append(item(v))
                    except ConfigError as exc:
                        raise exc.within(f"[{i}]") from None
                return out
        else:
            read = compile_leaf(schema, pointer)
        nodes[pointer] = read
        return read

    def compile_leaf(schema: dict, pointer: str) -> Reader:
        _check_keywords(schema, _LEAF_KEYWORDS, pointer)
        kind = schema.get("type")
        types = _JSON_TYPES[kind] if kind else None
        allowed = schema.get("enum")
        bounds = {k: schema[k] for k in ("minimum", "maximum", "exclusiveMinimum") if k in schema}
        # the default bounds are the finite floats: JSON numbers are never
        # NaN or infinite, though Python's json module and float() admit them
        big = sys.float_info.max
        lo, hi = schema.get("minimum", -big), schema.get("maximum", big)
        above = schema.get("exclusiveMinimum", float("-inf"))
        ranged = bounds or kind == "number"
        pattern = schema.get("pattern")
        # a closing $ of ECMA-262, as JSON Schema reads it, matches only at
        # the end, where Python's also matches before a final newline
        search = re.compile(re.sub(r"(?<!\\)\$$", r"\\Z", pattern)).search if pattern else None

        def read(value):
            if types is not None and type(value) not in types:
                raise ConfigError("", f"expected {kind}, got {value!r:.40}")
            if allowed is not None and value not in allowed:
                raise ConfigError("", f"{value!r:.40} is not one of {allowed}")
            if ranged and not (lo <= value <= hi and value > above):
                raise ConfigError("", f"{value} out of range {bounds}")
            if search is not None and search(value) is None:
                raise ConfigError("", f"{value!r:.40} does not match {pattern}")
            return value

        return read

    def compile_members(schema: dict, pointer: str):
        """Reader of an object into a dict: required keys, declared
        properties (unknown keys rejected when closed), then the properties
        of each allOf branch whose if-property holds its const. A branch's
        property reader runs after, and its value replaces, the base one."""
        required = schema.get("required", ())
        props = {
            key: compile_node(sub, f"{pointer}/properties/{key}")
            for key, sub in schema.get("properties", {}).items()
        }
        closed = schema.get("additionalProperties", True) is False
        branches: dict[str, dict[Any, Callable]] = {}
        for i, cond in enumerate(schema.get("allOf", ())):
            at = f"{pointer}/allOf/{i}"
            _check_keywords(cond, {"if", "then"}, at)
            (key, sub), = cond["if"]["properties"].items()
            if cond["if"] != {"properties": {key: {"const": sub["const"]}}, "required": [key]}:
                raise ValueError(f"{at}/if: only 'key equals const' conditions are supported")
            _check_keywords(cond["then"], {"required", "properties"}, f"{at}/then")
            branches.setdefault(key, {})[sub["const"]] = compile_members(cond["then"], f"{at}/then")

        def members(value):
            if type(value) is not dict:
                raise ConfigError("", f"expected object, got {value!r:.40}")
            for key in required:
                if key not in value:
                    raise ConfigError(f".{key}", "missing required key")
            out = {}
            try:
                if closed:
                    for key, item in value.items():
                        read = props.get(key)
                        if read is None:
                            raise ConfigError("", "unknown key")
                        out[key] = read(item)
                else:
                    for key, read in props.items():
                        if key in value:
                            out[key] = read(value[key])
            except ConfigError as exc:
                raise exc.within(f".{key}") from None
            # a branch key is a declared string property, read just above
            if branches:
                for key, cases in branches.items():
                    then = cases.get(value.get(key))
                    if then is not None:
                        out.update(then(value))
            return out

        return members

    compile_node(root, "#")
    return nodes


@functools.cache
def _schema_nodes() -> dict[str, Reader]:
    return _compile_schema(json.loads(schema_path().read_text()))


def read_value(pointer: str, value, path: str):
    """Read one value at path with the schema's reader at pointer, e.g.
    read_value("#/$defs/addr", "2001:db8::1", "$.target")."""
    try:
        return _schema_nodes()[pointer](value)
    except ConfigError as exc:
        raise exc.within(path) from None


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
    params: dict  # the class's keyword arguments, interval_ns only if set


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    duration_ns: int
    nodes: list[NodeCfg]
    links: list[LinkCfg]
    fib: list[tuple[str, FibEntry]]  # (node id, entry)
    sids: list[SidCfg]
    transits: list[TransitCfg]
    daemons: list[DaemonCfg]
    generators: list[UdpStream]
    raw: dict = field(repr=False)  # the document as read; parsing leaves it unchanged

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the canonical document, computed when first read:
        only reports print it. Overrides do not change it."""
        return config_digest(self.raw)


def config_digest(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_scenario(path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("$", f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    return parse_scenario(raw)


def _behavior(b: dict, table: dict[str, type[Behavior]], instance: str, path: str) -> Behavior:
    """The descriptor for a read ``behavior`` object: its ``type`` names
    the class, each field is the key of the same name. A program
    descriptor holds the node-local program instance in place of the
    ``program`` key's registry name. Any other key but a program's
    ``params`` is refused."""
    cls = table.get(b["type"])
    if cls is None:
        raise ConfigError(f"{path}.type", f"unknown behavior type {b['type']!r}")
    keys = cls.__match_args__  # the dataclass fields, in __init__ order
    for key in keys:
        if key not in b:
            raise ConfigError(f"{path}.{key}", "missing required key")
    is_program = issubclass(cls, ProgramBehavior)
    for key in b:
        if key != "type" and key not in keys and not (is_program and key == "params"):
            raise ConfigError(f"{path}.{key}", f"unknown key for behavior type {b['type']!r}")
    if is_program:
        return cls(instance)
    try:
        return cls(*(b[key] for key in keys))
    except InvariantViolation as exc:  # an SRH that no push could carry
        raise ConfigError(f"{path}.srh", str(exc)) from None


def parse_scenario(raw: dict) -> ScenarioConfig:
    doc = read_value("#", raw, "$")

    nodes: dict[str, NodeCfg] = {}
    holders: dict[bytes, str] = {}  # a later holder would take the address
    for i, obj in enumerate(doc["nodes"]):
        if obj["id"] in nodes:
            raise ConfigError(f"$.nodes[{i}].id", f"duplicate node id {obj['id']!r}")
        for j, addr in enumerate(obj["addresses"]):
            if holders.setdefault(addr, obj["id"]) != obj["id"]:
                raise ConfigError(
                    f"$.nodes[{i}].addresses[{j}]", f"address already on node {holders[addr]!r}"
                )
        nodes[obj["id"]] = NodeCfg(obj["id"], obj["addresses"])

    # cross-references; the path is formatted from where and at on error only
    def check_node(node_id, where, *at):
        if node_id not in nodes:
            raise ConfigError(where.format(*at), f"unknown node {node_id!r}")
        return node_id

    links: dict[str, LinkCfg] = {}
    for i, obj in enumerate(doc.get("links", ())):
        if obj["id"] in links:
            raise ConfigError(f"$.links[{i}].id", f"duplicate link id {obj['id']!r}")
        links[obj["id"]] = LinkCfg(
            obj["id"],
            tuple(check_node(end, "$.links[{}].endpoints[{}]", i, j)
                  for j, end in enumerate(obj["endpoints"])),
            int(obj["bandwidth_mbps"] * 1_000_000),
            int(obj.get("rtt_mean_ms", 0.0) * 500_000),  # RTT/2, in ns
            int(obj.get("rtt_stddev_ms", 0.0) * 500_000),
        )

    def check_link(link_id, node_id, where, *at):
        link = links.get(link_id)
        if link is None:
            raise ConfigError(where.format(*at), f"unknown link {link_id!r}")
        if node_id not in link.endpoints:
            raise ConfigError(where.format(*at), f"link {link_id!r} not at node {node_id!r}")
        return link_id

    # (kind, node, ...) of each SID, transit and route read: a node would
    # replace an entry by a later one of the same key, so that is refused
    keys = set()

    def check_once(key, where, *at):
        if key in keys:
            raise ConfigError(where.format(*at), f"duplicate {key[0]} at node {key[1]!r}")
        keys.add(key)

    fib = []
    for i, obj in enumerate(doc.get("fib", ())):
        node_id = check_node(obj["node"], "$.fib[{}].node", i)
        nexthops = [
            (nh["via"], check_link(nh["link"], node_id, "$.fib[{}].nexthops[{}].link", i, j))
            for j, nh in enumerate(obj["nexthops"])
        ]
        prefix, plen = obj["prefix"]
        table = obj.get("table", 0)
        check_once(("route", node_id, table, plen, masked(prefix, plen)), "$.fib[{}].prefix", i)
        fib.append((node_id, FibEntry(prefix, plen, nexthops, table)))

    sids = []
    for i, obj in enumerate(doc.get("sids", ())):
        node_id = check_node(obj["node"], "$.sids[{}].node", i)
        check_once(("SID", node_id, obj["sid"]), "$.sids[{}].sid", i)
        b = obj["behavior"]
        behavior = _behavior(
            b, SID_BEHAVIORS, f"sid:{obj['sid'].hex()}", f"$.sids[{i}].behavior"
        )
        sids.append(SidCfg(node_id, obj["sid"], behavior, b.get("program"), b.get("params", {})))

    transits = []
    for i, obj in enumerate(doc.get("transits", ())):
        node_id = check_node(obj["node"], "$.transits[{}].node", i)
        prefix, plen = obj["prefix"]
        check_once(("transit", node_id, plen, masked(prefix, plen)), "$.transits[{}].prefix", i)
        b = obj["behavior"]
        behavior = _behavior(
            b, TRANSIT_BEHAVIORS, f"transit:{prefix.hex()}/{plen}", f"$.transits[{i}].behavior"
        )
        transits.append(
            TransitCfg(node_id, prefix, plen, behavior, b.get("program"), b.get("params", {}))
        )

    daemons = []
    for i, obj in enumerate(doc.get("daemons", ())):
        if any(d.id == obj["id"] for d in daemons):
            raise ConfigError(f"$.daemons[{i}].id", f"duplicate daemon id {obj['id']!r}")
        node_id = check_node(obj["node"], "$.daemons[{}].node", i)
        params = obj.get("params", {})
        if obj["type"] == "twd_prober":
            for j, pl in enumerate(params["links"]):
                where = "$.daemons[{}].params.links[{}]."
                check_link(pl["link"], node_id, where + "link", i, j)
                for key in ("link", "return_addr"):  # a path probed twice never compensates
                    check_once((key, node_id, i, pl[key]), where + key, i, j)
            params["links"] = [ProbeLink(**pl) for pl in params["links"]]
        if "interval_ms" in obj:  # else the class's own default
            params["interval_ns"] = int(obj["interval_ms"] * 1_000_000)
        daemons.append(DaemonCfg(obj["id"], obj["type"], node_id, params))

    # the generator keys are UdpStream's fields, but for the ones popped here
    generators = []
    for i, obj in enumerate(doc.get("generators", ())):
        src_node = check_node(obj.pop("src_node"), "$.generators[{}].src_node", i)
        generators.append(
            UdpStream(
                src_node=src_node,
                src=obj.pop("src", nodes[src_node].addresses[0]),
                payload_size=obj.pop("payload_size", 64),
                start_ns=int(obj.pop("start_ms", 0) * 1e6),
                **obj,
            )
        )

    return ScenarioConfig(
        name=doc.get("name", "scenario"),
        seed=doc.get("seed", 0),
        duration_ns=int(doc["duration_ms"] * 1_000_000),
        nodes=list(nodes.values()),
        links=list(links.values()),
        fib=fib,
        sids=sids,
        transits=transits,
        daemons=daemons,
        generators=generators,
        raw=raw,
    )


def apply_overrides(
    cfg: ScenarioConfig,
    seed: int | None = None,
    duration_ms: float | None = None,
    ratio: int | None = None,
    compensation: bool | None = None,
) -> ScenarioConfig:
    """Runtime overrides, read like the scenario keys they replace; these
    do not change the scenario digest."""
    if seed is not None:
        cfg.seed = read_value("#/properties/seed", seed, "$.seed")
    if duration_ms is not None:
        duration_ms = read_value("#/properties/duration_ms", duration_ms, "$.duration_ms")
        cfg.duration_ns = int(duration_ms * 1_000_000)
    if ratio is not None:
        ratio = read_value("#/$defs/dm_transit_params/properties/ratio", ratio, "$.ratio")
        for entry in cfg.transits:
            if entry.program == "dm_transit":
                entry.params["ratio"] = ratio
    if compensation is not None:
        for d in cfg.daemons:
            if d.type == "twd_prober":
                d.params["compensate"] = compensation
    return cfg


# -- building ----------------------------------------------------------------

# the class of each daemon type; a daemon's params, read by its type's
# schema definition, are keyword arguments of the class
DAEMON_TYPES = {
    "owd_collector": OwdCollector,
    "oamp_responder": OampResponder,
    "twd_prober": TwdProber,
}


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
    for node_id, entry in cfg.fib:
        sim.nodes[node_id].fib_insert(entry)
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
    for i, d in enumerate(cfg.daemons):
        daemon = DAEMON_TYPES[d.type](d.id, d.node, **d.params)
        try:
            sim.add_daemon(daemon)
        except SimError as exc:  # the parser checked ids, nodes and intervals: a second reader
            raise ConfigError(f"$.daemons[{i}].node", str(exc)) from None
    for g in cfg.generators:
        sim.add_stream(g)
    return sim
