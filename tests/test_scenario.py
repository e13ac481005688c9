import copy
import json

import pytest

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
    assert sim.links["la"].peer("A") == "M"
    assert sim.links["lb"].peer("A") == "M"
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
    ],
    ids=["unknown-link", "link-not-at-node", "bad-dm-sid", "one-link", "alpha-str", "alpha-null", "bad-type"],
)
def test_prober_params_rejected_with_path(mutate, path):
    raw = raw_fixture("setup2-hybrid.json")
    mutate(raw["daemons"][0])
    with pytest.raises(ConfigError) as exc:
        parse_scenario(raw)
    assert exc.value.path == path


def test_program_factory_error_rejected_with_path():
    raw = raw_fixture("setup2-hybrid.json")
    raw["transits"][0]["behavior"]["params"]["weights"] = [0, 1]
    cfg = parse_scenario(raw)
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
    assert srh.active_segment == pton("fd00:73::d")


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
