import copy
import inspect
import json

import pytest

from srv6sim import scenario
from srv6sim.behaviors import (
    SID_BEHAVIORS,
    TRANSIT_BEHAVIORS,
    End,
    EndB6,
    EndB6Encaps,
    EndDT6,
    EndProgram,
    EndT,
    EndX,
    TransitEncaps,
    TransitInsert,
    TransitProgram,
)
from srv6sim.packet import SegmentRoutingHeader, pton
from srv6sim.programs import PROGRAM_FACTORIES
from srv6sim.scenario import (
    ConfigError,
    apply_overrides,
    build_simulation,
    config_digest,
    fixture_path,
    load_scenario,
    parse_scenario,
    schema_path,
)
from srv6sim.usecases import multipath_traceroute

FIXTURES = ("setup1.json", "setup2-hybrid.json", "diamond.json")


def raw_fixture(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def test_fixtures_parse_and_build():
    for name in FIXTURES:
        cfg = load_scenario(fixture_path(name))
        sim = build_simulation(cfg)
        assert sim.nodes


def test_setup1_is_three_nodes_two_links():
    cfg = load_scenario(fixture_path("setup1.json"))
    assert len(cfg.nodes) == 3
    assert len(cfg.links) == 2


def test_setup2_builds_hybrid_topology():
    cfg = load_scenario(fixture_path("setup2-hybrid.json"))
    sim = build_simulation(cfg)
    # the two aggregated links share the same endpoints
    assert {sim.links["la"].a, sim.links["la"].b} == {"A", "M"}
    assert {sim.links["lb"].a, sim.links["lb"].b} == {"A", "M"}
    assert sim.links["la"].delay_mean_ns == 15_000_000
    assert sim.links["la"].delay_stddev_ns == 2_500_000
    assert sim.links["lb"].delay_mean_ns == 2_500_000
    assert sim.links["lb"].delay_stddev_ns == 1_000_000
    assert sim.links["la"].bandwidth_bps == 50_000_000


def test_duplicate_node_id_rejected():
    raw = raw_fixture("setup1.json")
    raw["nodes"].append({"id": "S1", "addresses": ["2001:db8:9::1"]})
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert "nodes[3].id" in str(exc.value)


def test_an_entry_key_repeated_at_another_node_or_table_loads():
    # a SID's, transit's or route's key is per node, and a route's per table
    raw = raw_fixture("setup1.json")
    raw["sids"].append({"node": "S1", "sid": "fd00:72::b", "behavior": {"type": "end"}})
    raw["transits"].append({**raw["transits"][0], "node": "S1"})
    raw["fib"].append({**raw["fib"][1], "table": 7})
    raw["fib"].append({**raw["fib"][1], "prefix": "2001:db8:1::/65"})
    cfg = parse_scenario(raw)
    assert (len(cfg.sids), len(cfg.transits), len(cfg.fib)) == (4, 2, 7)


def test_unknown_node_reference_rejected():
    raw = raw_fixture("setup1.json")
    raw["fib"][0]["node"] = "NOPE"
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert "fib[0].node" in str(exc.value)


def test_link_not_at_node_rejected():
    raw = raw_fixture("setup1.json")
    raw["fib"][0]["nexthops"][0]["link"] = "l12"  # l12 is not at S1
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert "l12" in str(exc.value)


def test_bad_address_rejected_with_path():
    raw = raw_fixture("setup1.json")
    raw["nodes"][0]["addresses"][0] = "not-an-address"
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert "addresses[0]" in str(exc.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("rate_pps", 0), ("rate_pps", -5), ("payload_size", 4), ("payload_size", 7),
        ("flow", 70000), ("flow", -1), ("src_port", 70000), ("dst_port", 65536),
        ("flow_label", 2097152), ("flow_label", 0x100000),
        ("payload_size", 2**40), ("count", -1),
    ],
)
def test_generator_bounds_rejected_with_path(key, value):
    raw = raw_fixture("setup2-hybrid.json")
    raw["generators"][0][key] = value
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == f"$.generators[0].{key}"


def test_generator_bounds_accept_schema_maxima():
    raw = raw_fixture("setup2-hybrid.json")
    raw["generators"][0].update(flow=65535, src_port=65535, dst_port=0, flow_label=0xFFFFF)
    build_simulation(parse_scenario(raw))


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d["params"]["links"][0].update(link="nolink"), "$.daemons[0].params.links[0].link"),
        (lambda d: d["params"]["links"][1].update(link="lm"), "$.daemons[0].params.links[1].link"),
        (lambda d: d["params"]["links"][1].update(dm_sid="x"), "$.daemons[0].params.links[1].dm_sid"),
        (lambda d: d["params"]["links"].pop(), "$.daemons[0].params.links"),
        (lambda d: d["params"].update(alpha="x"), "$.daemons[0].params.alpha"),
        (lambda d: d["params"].update(alpha=None), "$.daemons[0].params.alpha"),
        (lambda d: d.update(type="twd_probe"), "$.daemons[0].type"),
        (lambda d: d["params"].update(alpha=0), "$.daemons[0].params.alpha"),
        (lambda d: d["params"].update(compensate="no"), "$.daemons[0].params.compensate"),
        (lambda d: d.update(interval_ms=1e-9), "$.daemons[0].interval_ms"),
    ],
    ids=["unknown-link", "link-not-at-node", "bad-dm-sid", "one-link", "alpha-str", "alpha-null", "bad-type",
         "alpha-zero", "compensate-str", "interval-0ns"],
)
def test_prober_params_rejected_with_path(mutate, path):
    raw = raw_fixture("setup2-hybrid.json")
    mutate(raw["daemons"][0])
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == path


@pytest.mark.parametrize("name, daemon_id", [("setup1.json", "collector"), ("diamond.json", "oamp-a")])
def test_daemon_without_interval_ticks_on_its_class_grid(name, daemon_id):
    """A daemon without interval_ms keeps its class's default interval (a
    collector's 50 ms, a responder's 1 ms) and ticks on that grid."""
    raw = raw_fixture(name)
    del next(d for d in raw["daemons"] if d["id"] == daemon_id)["interval_ms"]
    cfg = parse_scenario(raw)
    sim = build_simulation(cfg)
    daemon = sim.daemons[daemon_id]
    interval = inspect.signature(type(daemon)).parameters["interval_ns"].default
    ticks = []
    tick = daemon.tick
    daemon.tick = lambda sim, now: (ticks.append(now), tick(sim, now))
    if daemon_id == "collector":
        sim.run_until(cfg.duration_ns)
    else:  # a responder ticks for the probes it answers
        oamp_sids = {s.node: s.sid for s in cfg.sids if s.program == "end_oamp"}
        assert multipath_traceroute(sim, "S", pton("2001:db8:2::1"), oamp_sids).reached
    assert daemon.interval_ns == interval
    assert ticks and all(t % interval == 0 for t in ticks)


def test_program_factory_error_rejected_with_path():
    # the schema rejects weights below 1, so the bad value comes after parsing
    cfg = parse_scenario(raw_fixture("setup2-hybrid.json"))
    cfg.transits[0].params["weights"] = [0, 1]
    with pytest.raises(ConfigError) as exc:
        build_simulation(cfg)
    assert exc.value.path == "$.transits[0].behavior.params"
    assert "weights must be positive" in str(exc.value)


@pytest.mark.parametrize(
    "section, behavior, path",
    [
        ("sids", {"type": "end_y"}, "$.sids[0].behavior.type"),
        ("sids", {"type": "insert", "srh": {"segments": ["fd00::1"]}}, "$.sids[0].behavior.type"),
        ("sids", {"type": "end_x", "link": "l12"}, "$.sids[0].behavior.nexthop"),
        ("sids", {"type": "end_x", "nexthop": "x", "link": "l12"}, "$.sids[0].behavior.nexthop"),
        ("sids", {"type": "end_t", "table": "7"}, "$.sids[0].behavior.table"),
        ("sids", {"type": "end_program"}, "$.sids[0].behavior.program"),
        ("transits", {"type": "end"}, "$.transits[0].behavior.type"),
        ("transits", {"type": "encaps", "srh": {"segments": ["fd00::1"]}}, "$.transits[0].behavior.src"),
        ("transits", {"type": "insert", "srh": {"segments": []}}, "$.transits[0].behavior.srh.segments"),
    ],
)
def test_bad_behavior_rejected_with_path(section, behavior, path):
    raw = raw_fixture("setup1.json")
    raw[section][0]["behavior"] = behavior
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == path


def set_at(doc, at, value):
    for key in at[:-1]:
        doc = doc[key]
    doc[at[-1]] = value


PARAMS = ("transits", 0, "behavior", "params")


@pytest.mark.parametrize(
    "name, at, value, path",
    [
        ("setup2-hybrid.json", PARAMS + ("weights",), ["x", 1],
         "$.transits[0].behavior.params.weights[0]"),
        ("setup2-hybrid.json", PARAMS + ("weights",), [0, 1],
         "$.transits[0].behavior.params.weights[0]"),
        ("setup2-hybrid.json", PARAMS + ("weights",), [2**40, 3],
         "$.transits[0].behavior.params.weights[0]"),
        ("setup2-hybrid.json", PARAMS + ("weights",), [5],
         "$.transits[0].behavior.params.weights"),
        ("setup2-hybrid.json", ("links", 1, "bandwidth_mbps"), 1e-9, "$.links[1].bandwidth_mbps"),
        ("setup1.json", PARAMS + ("route_id",), -1, "$.transits[0].behavior.params.route_id"),
        ("setup1.json", PARAMS + ("route_id",), 2**32, "$.transits[0].behavior.params.route_id"),
        ("setup1.json", PARAMS + ("ratio",), None, "$.transits[0].behavior.params.ratio"),
        ("setup1.json", PARAMS + ("controller_port",), 65536,
         "$.transits[0].behavior.params.controller_port"),
        ("setup1.json", PARAMS + ("ratoi",), 10, "$.transits[0].behavior.params.ratoi"),
        ("setup1.json", PARAMS, {"ratio": 10},
         "$.transits[0].behavior.params.path_srh"),
        ("setup1.json", ("seed",), -1, "$.seed"),
        ("setup1.json", ("seed",), 2**64, "$.seed"),
        ("setup1.json", ("fib", 0, "prefix"), "::/129", "$.fib[0].prefix"),
        ("setup2-hybrid.json", ("links", 0, "rtt_mean_ms"), -1, "$.links[0].rtt_mean_ms"),
        # finite but beyond 2^64 - 1 ns (or bit/s) once converted
        ("setup1.json", ("duration_ms",), 1e308, "$.duration_ms"),
        ("setup1.json", ("generators", 0, "start_ms"), 1e308, "$.generators[0].start_ms"),
        ("setup1.json", ("links", 0, "rtt_mean_ms"), 1e308, "$.links[0].rtt_mean_ms"),
        ("setup1.json", ("links", 0, "rtt_stddev_ms"), 1e308, "$.links[0].rtt_stddev_ms"),
        ("setup1.json", ("daemons", 0, "interval_ms"), 1e308, "$.daemons[0].interval_ms"),
        ("setup1.json", ("links", 0, "bandwidth_mbps"), 1e308, "$.links[0].bandwidth_mbps"),
        # the name prefixes every output file, so it is one path component
        ("setup1.json", ("name",), "../escaped", "$.name"),
        ("setup1.json", ("name",), "a/b", "$.name"),
        ("setup1.json", ("name",), "a\u0000b", "$.name"),
        # a pattern's closing $ matches only at the end, not before a final newline
        ("setup1.json", ("fib", 0, "prefix"), "::/0\n", "$.fib[0].prefix"),
    ],
)
def test_schema_rule_rejected_with_path(name, at, value, path):
    raw = raw_fixture(name)
    set_at(raw, at, value)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == path


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_number_rejected(tmp_path, literal):
    text = fixture_path("setup1.json").read_text()
    bad = tmp_path / "inf.json"
    bad.write_text(text.replace('"rtt_mean_ms": 0.2', f'"rtt_mean_ms": {literal}', 1))
    with pytest.raises(ConfigError) as exc:
        load_scenario(bad)
    assert exc.value.path == "$.links[0].rtt_mean_ms"


def mutations(raw: dict):
    """The single-field mutations of a scenario: every numeric leaf set to
    -1, 0, 1e-9, "x", 2**40 and null, every string leaf to "", 5 and
    null, plus one unknown top-level key. Yields the container, key and
    new value."""
    def leaves(doc):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            if isinstance(value, (dict, list)):
                yield from leaves(value)
            else:
                yield doc, key, value

    for doc, key, value in list(leaves(raw)):
        if type(value) in (int, float):
            yield from ((doc, key, v) for v in (-1, 0, 1e-9, "x", 2**40, None))
        elif type(value) is str:
            yield from ((doc, key, v) for v in ("", 5, None))
    yield raw, "unexpected", 1


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_mutations_against_jsonschema(name):
    """Each mutation either fails with a ConfigError or parses and builds,
    and nothing the shipped schema rejects gets through."""
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(
        json.loads(schema_path().read_text()), format_checker=jsonschema.FormatChecker()
    )
    raw = raw_fixture(name)
    uncaught, accepted = [], []
    missing = object()
    for doc, key, value in mutations(raw):
        old = doc[key] if isinstance(doc, list) or key in doc else missing
        doc[key] = value
        try:
            build_simulation(parse_scenario(raw))
            if not validator.is_valid(raw):
                accepted.append((key, value))
        except ConfigError:
            pass
        except Exception as exc:  # anything but a ConfigError is a finding
            uncaught.append((key, value, repr(exc)))
        finally:
            if old is missing:
                del doc[key]
            else:
                doc[key] = old
    assert raw == raw_fixture(name)
    assert uncaught == []
    assert accepted == []


def test_duration_must_be_positive():
    raw = raw_fixture("setup1.json")
    raw["duration_ms"] = 0
    with pytest.raises(ConfigError):
        parse_scenario(raw)


def test_unknown_program_name_rejected():
    raw = raw_fixture("setup1.json")
    raw["sids"][1]["behavior"]["program"] = "does_not_exist"
    cfg = parse_scenario(raw)
    with pytest.raises(ConfigError):
        build_simulation(cfg)


def test_digest_stable_and_override_independent():
    raw = raw_fixture("setup1.json")
    d1 = config_digest(raw)
    d2 = config_digest(copy.deepcopy(raw))
    assert d1 == d2
    cfg = parse_scenario(raw)
    before = cfg.digest
    apply_overrides(cfg, seed=777, duration_ms=50)
    assert cfg.seed == 777
    assert cfg.digest == before


@pytest.mark.parametrize("name", ["setup1.json", "setup2-hybrid.json"])
def test_digest_is_computed_on_first_read_and_ignores_overrides(name, monkeypatch):
    raw = raw_fixture(name)
    pristine = copy.deepcopy(raw)
    calls = []
    digest = scenario.config_digest
    monkeypatch.setattr(scenario, "config_digest", lambda r: calls.append(r) or digest(r))
    cfg = parse_scenario(raw)
    assert calls == []  # parsing computes no digest
    apply_overrides(cfg, seed=777, duration_ms=50, ratio=3, compensation=False)
    assert cfg.digest == cfg.digest == digest(pristine)
    assert len(calls) == 1
    assert raw == pristine


def test_ratio_override_reaches_dm_programs():
    cfg = load_scenario(fixture_path("setup1.json"))
    apply_overrides(cfg, ratio=10)
    entry = next(t for t in cfg.transits if t.program == "dm_transit")
    assert entry.params["ratio"] == 10


def test_segments_listed_in_travel_order():
    raw = raw_fixture("setup1.json")
    cfg = parse_scenario(raw)
    entry = next(t for t in cfg.transits if t.program == "dm_transit")
    srh = entry.params["path_srh"]
    # travel order [dm sid, final]; stored reversed with the active first
    from srv6sim.packet import pton

    assert srh.segments == [pton("2001:db8:2::1"), pton("fd00:73::d")]
    assert srh.segments_left == 1
    assert srh.segments[srh.segments_left] == pton("fd00:73::d")


def test_srh_segments_left_equal_to_its_segment_count_rejected():
    raw = raw_fixture("setup1.json")
    raw["transits"][0]["behavior"]["params"]["path_srh"]["segments_left"] = 2
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == "$.transits[0].behavior.params.path_srh.segments_left"


def test_fixtures_validate_against_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(schema_path().read_text())
    for name in FIXTURES:
        jsonschema.validate(raw_fixture(name), schema)


def test_schema_rejects_unknown_keys():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(schema_path().read_text())
    raw = raw_fixture("setup1.json")
    raw["unexpected"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(raw, schema)


def schema_behavior_types() -> list[str]:
    schema = json.loads(schema_path().read_text())
    return schema["$defs"]["behavior"]["properties"]["type"]["enum"]


SRH_JSON = {"segments": ["fd00:9::1", "2001:db8:2::1"]}
SRH = SegmentRoutingHeader(
    segments=[pton("2001:db8:2::1"), pton("fd00:9::1")], segments_left=1
)
# setup1.json's sids[0] is fd00:72::e and its transits[0] is 2001:db8:2::/64
BEHAVIOR_CASES = {
    "end": ({}, End()),
    "end_x": ({"nexthop": "2001:db8::9", "link": "l12"}, EndX(pton("2001:db8::9"), "l12")),
    "end_t": ({"table": 7}, EndT(7)),
    "end_b6": ({"srh": SRH_JSON}, EndB6(SRH)),
    "end_b6_encaps": (
        {"srh": SRH_JSON, "src": "2001:db8::1"}, EndB6Encaps(SRH, pton("2001:db8::1"))
    ),
    "end_dt6": ({"table": 0}, EndDT6(0)),
    "end_program": ({"program": "noop"}, EndProgram("sid:" + pton("fd00:72::e").hex())),
    "insert": ({"srh": SRH_JSON}, TransitInsert(SRH)),
    "encaps": ({"srh": SRH_JSON, "src": "2001:db8::1"}, TransitEncaps(SRH, pton("2001:db8::1"))),
    "program": (
        {"program": "noop"}, TransitProgram("transit:" + pton("2001:db8:2::").hex() + "/64")
    ),
}


@pytest.mark.parametrize(
    "name",
    sorted(
        set(schema_behavior_types())
        | set(SID_BEHAVIORS)
        | set(TRANSIT_BEHAVIORS)
        | set(BEHAVIOR_CASES)
    ),
)
def test_behavior_type_in_schema_parses_into_its_class(name):
    """The schema's behavior.type enum is exactly the union of the SID and
    transit type names, and each name parses into its descriptor."""
    assert name in schema_behavior_types()
    assert (name in SID_BEHAVIORS) != (name in TRANSIT_BEHAVIORS)
    section = "sids" if name in SID_BEHAVIORS else "transits"
    fields, want = BEHAVIOR_CASES[name]
    raw = raw_fixture("setup1.json")
    raw[section][0]["behavior"] = {"type": name, **fields}
    cfg = parse_scenario(raw)
    got = getattr(cfg, section)[0].behavior
    assert type(got) is {**SID_BEHAVIORS, **TRANSIT_BEHAVIORS}[name]
    assert got == want
    build_simulation(cfg)


def schema_program_names() -> list[str]:
    schema = json.loads(schema_path().read_text())
    return [c["if"]["properties"]["program"]["const"] for c in schema["$defs"]["behavior"]["allOf"]]


# setup1.json's sids[0] and transits[0] are at node R
PROGRAM_CASES = {
    "noop": ("sids", {}),
    "end_oamp": ("sids", {}),
    "end_dm": ("sids", {"path_id": 7, "table": 0}),
    "dm_transit": (
        "transits",
        {"ratio": 10, "path_srh": SRH_JSON, "controller_addr": "2001:db8:1::1",
         "controller_port": 9000, "path_id": 1, "route_id": 2, "outer_src": "2001:db8::1"},
    ),
    "wrr": (
        "transits",
        {"srh_a": SRH_JSON, "srh_b": SRH_JSON, "weights": [5, 3], "route_id": 2,
         "outer_src": "2001:db8::1"},
    ),
}


@pytest.mark.parametrize(
    "name", sorted(set(schema_program_names()) | set(PROGRAM_FACTORIES) | set(PROGRAM_CASES))
)
def test_program_in_schema_reads_its_params(name):
    """The schema's params conditionals name exactly the registered
    programs; each program's params are read into runtime values, build,
    and admit no other key."""
    assert name in schema_program_names()
    assert name in PROGRAM_FACTORIES
    section, params = PROGRAM_CASES[name]
    raw = raw_fixture("setup1.json")
    btype = "end_program" if section == "sids" else "program"
    raw[section][0]["behavior"] = {"type": btype, "program": name, "params": params}
    cfg = parse_scenario(raw)
    got = getattr(cfg, section)[0].params
    assert got.keys() == params.keys()
    for key, value in got.items():
        if key in ("path_srh", "srh_a", "srh_b"):
            assert value == SRH
        elif key in ("controller_addr", "outer_src"):
            assert value == pton(params[key])
        else:
            assert value == params[key]
    build_simulation(cfg)
    raw[section][0]["behavior"]["params"] = {**params, "bogus": 1}
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == f"$.{section}[0].behavior.params.bogus"
