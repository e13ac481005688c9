import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from srv6sim import cli
from srv6sim import sim as sim_mod
from srv6sim.cli import main, run_bench, BENCH_FUNCTIONS
from srv6sim.scenario import fixture_path


def run_cli(*argv) -> int:
    return main(list(argv))


def test_run_setup1_succeeds(tmp_path, capsys):
    code = run_cli("run", str(fixture_path("setup1.json")), "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "forwarded_total" in out
    report = tmp_path / "setup1-run-report.txt"
    trace = tmp_path / "setup1-run-trace.tsv"
    assert report.exists() and trace.exists()
    assert "sha256:" in report.read_text()
    assert trace.read_text().count("\n") > 1000


def test_run_missing_node_reference_exits_2(tmp_path, capsys):
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw["fib"][0]["node"] = "GHOST"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("generators", "rate_pps", 0),
        ("generators", "payload_size", 4),
        ("transits", "weights", [0, 1]),
        ("generators", "flow", 70000),
        ("daemons", "alpha", "x"),
        ("daemons", "links", [
            {"link": "nolink", "dm_sid": "fd00:6d::da", "return_addr": "2001:db8:a::a"},
            {"link": "lb", "dm_sid": "fd00:6d::db", "return_addr": "2001:db8:a::b"},
        ]),
    ],
)
def test_hybrid_out_of_bounds_parameter_exits_2(tmp_path, capsys, section, key, value):
    raw = json.loads(fixture_path("setup2-hybrid.json").read_text())
    entry = raw[section][0]
    if section == "transits":
        entry = entry["behavior"]["params"]
    elif section == "daemons":
        entry = entry["params"]
    entry[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("hybrid", str(bad), "--out", str(tmp_path)) == 2
    assert f"$.{section}[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, path",
    [
        (("run", "setup1.json", "--seed", "-1"), "$.seed"),
        (("run", "setup1.json", "--seed", str(2**64)), "$.seed"),
        (("run", "setup1.json", "--duration", "-5"), "$.duration_ms"),
        (("run", "setup1.json", "--duration", "inf"), "$.duration_ms"),
        (("traceroute", "diamond.json", "S", "not-an-addr"), "$.target"),
        (("bench", "--count", "0"), "$.count"),
        (("bench", "--count", "-1"), "$.count"),
        (("run", "setup1.json", "--duration", "1e308"), "$.duration_ms"),
        (("owd", "setup1.json", "--ratio", "0"), "$.ratio"),
        (("traceroute", "diamond.json", "S", "2001:db8:2::1", "--no-oamp", "a,Q"), "$.no_oamp"),
        (("traceroute", "diamond.json", "Q", "2001:db8:2::1"), "$.src"),
        (("bench", "--functions", "nosuch"), "$.functions"),
        (("bench", "--functions", "plain,plain"), "$.functions"),
    ],
)
def test_out_of_range_flag_exits_2(tmp_path, capsys, argv, path):
    argv = [str(fixture_path(a)) if a.endswith(".json") else a for a in argv]
    if argv[0] != "traceroute":  # traceroute writes no files
        argv += ["--out", str(tmp_path)]
    assert run_cli(*argv) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


def _with_first_repeated(section: str) -> str:
    """setup1 with the first entry of section repeated at its end."""
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw[section].append(dict(raw[section][0]))
    return json.dumps(raw)


def _with_nodes(nodes) -> str:
    """setup1 with its nodes array replaced by nodes."""
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw["nodes"] = nodes
    return json.dumps(raw)


def _with_entry(section: str, entry: dict, fixture="setup1.json") -> str:
    """fixture with entry appended to section."""
    raw = json.loads(fixture_path(fixture).read_text())
    raw[section].append(entry)
    return json.dumps(raw)


def _with_behavior(section: str, behavior: dict, fixture="setup1.json", node="R", at=None) -> str:
    """fixture with one more SID or transit route at node, of behavior,
    inserted at index at (default: appended)."""
    raw = json.loads(fixture_path(fixture).read_text())
    key = {"sid": "fd00:72::f"} if section == "sids" else {"prefix": "2001:db8:9::/64"}
    entries = raw[section]
    entries.insert(len(entries) if at is None else at, {"node": node, **key, "behavior": behavior})
    return json.dumps(raw)


def _with_probe_link(j: int, key: str, value: str) -> str:
    """setup2-hybrid with key of its prober's link j set to value."""
    raw = json.loads(fixture_path("setup2-hybrid.json").read_text())
    raw["daemons"][0]["params"]["links"][j][key] = value
    return json.dumps(raw)


SRH = {"segments": ["fd00:73::d"]}
WRR_PARAMS = {"srh_a": SRH, "srh_b": SRH}
DM_PARAMS = {"path_srh": SRH, "controller_addr": "2001:db8:1::1"}
# the command each case runs, if not run
CASE_COMMAND = {"stray_wrr_on_encaps": "hybrid"}


@pytest.mark.parametrize(
    "case",
    ["truncated", "duplicate_link", "duplicate_daemon", "nodes_not_array", "node_not_object",
     "wrr_as_sid", "dm_transit_as_sid", "end_dm_as_transit", "end_oamp_as_transit",
     "stray_wrr_on_encaps", "table_on_end", "src_on_end_b6", "params_on_end_t",
     "program_on_encaps", "duplicate_sid", "duplicate_transit", "duplicate_route",
     "shared_address", "probed_link_twice", "probe_return_addr_twice"],
)
def test_scenario_file_error_exits_2_and_names_its_path(tmp_path, capsys, case):
    text, error = {
        "truncated": (fixture_path("setup1.json").read_text()[:300], "$: invalid JSON"),
        "duplicate_link": (_with_first_repeated("links"), "$.links[2].id: duplicate link id 'l01'"),
        "duplicate_daemon": (
            _with_first_repeated("daemons"), "$.daemons[1].id: duplicate daemon id 'collector'"
        ),
        "nodes_not_array": (_with_nodes(5), "$.nodes: expected array, got 5"),
        "node_not_object": (_with_nodes([5]), "$.nodes[0]: expected object, got 5"),
        # a hook-specific program bound at the other hook
        "wrr_as_sid": (
            _with_behavior(
                "sids", {"type": "end_program", "program": "wrr", "params": WRR_PARAMS}
            ),
            "$.sids[3].behavior.type: 'end_program' is not one of ['program']",
        ),
        "dm_transit_as_sid": (
            _with_behavior(
                "sids", {"type": "end_program", "program": "dm_transit", "params": DM_PARAMS}
            ),
            "$.sids[3].behavior.type: 'end_program' is not one of ['program']",
        ),
        "end_dm_as_transit": (
            _with_behavior("transits", {"type": "program", "program": "end_dm"}),
            "$.transits[1].behavior.type: 'program' is not one of ['end_program']",
        ),
        "end_oamp_as_transit": (
            _with_behavior("transits", {"type": "program", "program": "end_oamp"}),
            "$.transits[1].behavior.type: 'program' is not one of ['end_program']",
        ),
        # hybrid took this route, at a node without wrr, for its WRR route
        # and failed reading wrr's map
        "stray_wrr_on_encaps": (
            _with_behavior(
                "transits",
                {"type": "encaps", "srh": SRH, "src": "2001:db8:a::1",
                 "program": "wrr", "params": WRR_PARAMS},
                "setup2-hybrid.json", node="M", at=0,
            ),
            "$.transits[0].behavior.type: 'encaps' is not one of ['program']",
        ),
        # a key that is not a field of the behavior type
        "table_on_end": (
            _with_behavior("sids", {"type": "end", "table": 3}),
            "$.sids[3].behavior.table: unknown key for behavior type 'end'",
        ),
        "src_on_end_b6": (
            _with_behavior("sids", {"type": "end_b6", "srh": SRH, "src": "2001:db8::1"}),
            "$.sids[3].behavior.src: unknown key for behavior type 'end_b6'",
        ),
        "params_on_end_t": (
            _with_behavior("sids", {"type": "end_t", "table": 0, "params": {}}),
            "$.sids[3].behavior.params: unknown key for behavior type 'end_t'",
        ),
        "program_on_encaps": (
            _with_behavior(
                "transits",
                {"type": "encaps", "srh": SRH, "src": "2001:db8::1", "program": "noop"},
            ),
            "$.transits[1].behavior.program: unknown key for behavior type 'encaps'",
        ),
        # an entry of the same key at the same node, which replaced the first:
        # R's End.BPF SID became End and still loaded its program
        "duplicate_sid": (
            _with_entry("sids", {"node": "R", "sid": "fd00:72::b", "behavior": {"type": "end"}}),
            "$.sids[3].sid: duplicate SID at node 'R'",
        ),
        # a prefix is compared masked to its length, as the node keys it
        "duplicate_transit": (
            _with_entry("transits", {"node": "R", "prefix": "2001:db8:2::1/64", "behavior": {
                "type": "encaps", "srh": SRH, "src": "2001:db8::1"}}),
            "$.transits[1].prefix: duplicate transit at node 'R'",
        ),
        # A's two-nexthop route lost its ECMP
        "duplicate_route": (
            _with_entry("fib", {"node": "A", "prefix": "2001:db8:2::/64",
                                "nexthops": [{"via": "2001:db8:bb::1", "link": "lab"}]},
                        "diamond.json"),
            "$.fib[20].prefix: duplicate route at node 'A'",
        ),
        # a later node took the address: with B's on D too, traceroute
        # from S saw A -> C, D and D -> D
        "shared_address": (
            _with_entry("nodes", {"id": "E", "addresses": ["2001:db8:bb::1"]}, "diamond.json"),
            "$.nodes[6].addresses[0]: address already on node 'B'",
        ),
        # a path probed twice: hybrid ran with compensation on and applied
        # no delay, as if both paths were equal
        "probed_link_twice": (
            _with_probe_link(1, "link", "la"),
            "$.daemons[0].params.links[1].link: duplicate link at node 'A'",
        ),
        "probe_return_addr_twice": (
            _with_probe_link(1, "return_addr", "2001:db8:a::a"),
            "$.daemons[0].params.links[1].return_addr: duplicate return_addr at node 'A'",
        ),
    }[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(CASE_COMMAND.get(case, "run"), str(bad), "--out", str(tmp_path)) == 2
    assert f"config error: {error}" in capsys.readouterr().err


def test_huge_finite_duration_in_file_exits_2(tmp_path, capsys):
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw["duration_ms"] = 1e308  # finite, but no 64-bit nanosecond count
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
    assert "config error: $.duration_ms:" in capsys.readouterr().err


@pytest.mark.parametrize("command, fixture, extra", [
    ("run", "setup1.json", ()),
    ("owd", "setup1.json", ()),
    ("hybrid", "setup2-hybrid.json", ("--duration", "2500")),
])
def test_non_ascii_node_id_is_written_verbatim_as_utf8(tmp_path, command, fixture, extra):
    renamed = tmp_path / fixture
    renamed.write_text(fixture_path(fixture).read_text().replace('"S1"', '"SÄ1"'), "utf-8")
    out = tmp_path / "out"
    assert run_cli(command, str(renamed), "--out", str(out), *extra) == 0
    stem = f"{fixture.removesuffix('.json')}-{command}"
    rows = [r.split("\t") for r in (out / f"{stem}-trace.tsv").read_text("utf-8").splitlines()]
    assert {len(r) for r in rows} == {6}
    assert ["egress", "1", "0"] == next(r[2:5] for r in rows if r[1] == "SÄ1")
    assert "forwarded[SÄ1]\t" in (out / f"{stem}-stats.txt").read_text("utf-8")


@pytest.mark.parametrize("bad_id", ["S\t1", "S1\n", "S1\r", ""])
def test_node_id_that_would_break_a_trace_row_exits_2(tmp_path, capsys, bad_id):
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw["nodes"][0]["id"] = bad_id
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
    assert "config error: $.nodes[0].id:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*-trace.tsv"))


def srh_of(n: int) -> dict:
    return {"segments": [f"fd00:9::{i + 1:x}" for i in range(n)]}


# setup1.json's sids[0] and transits[0] are at node R; hdr_ext_len is 2 per
# segment plus 1 per 8 TLV octets, at most 255
UNPUSHABLE_SRH_CASES = {
    "encaps": ("transits", {"type": "encaps", "srh": srh_of(128), "src": "2001:db8::1"}, "srh"),
    "end_b6": ("sids", {"type": "end_b6", "srh": srh_of(128)}, "srh"),
    "end_b6_encaps": (
        "sids", {"type": "end_b6_encaps", "srh": srh_of(128), "src": "2001:db8::1"}, "srh"
    ),
    # t_insert adds the original destination as one more segment
    "insert": ("transits", {"type": "insert", "srh": srh_of(127)}, "srh"),
    "wrr": (
        "transits",
        {"type": "program", "program": "wrr",
         "params": {"srh_a": srh_of(1), "srh_b": srh_of(128)}},
        "params",
    ),
    # each probe adds 32 octets of DM and controller TLVs
    "dm_transit": (
        "transits",
        {"type": "program", "program": "dm_transit",
         "params": {"path_srh": srh_of(126), "controller_addr": "2001:db8:1::1"}},
        "params",
    ),
}


@pytest.mark.parametrize("case", sorted(UNPUSHABLE_SRH_CASES))
def test_srh_no_push_could_carry_exits_2(tmp_path, capsys, case):
    section, behavior, key = UNPUSHABLE_SRH_CASES[case]
    raw = json.loads(fixture_path("setup1.json").read_text())
    raw[section][0]["behavior"] = behavior
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", str(bad), "--out", str(tmp_path)) == 2
    assert f"config error: $.{section}[0].behavior.{key}: " in capsys.readouterr().err


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-m", "srv6sim", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "usage: srv6sim" in out.stdout


def test_run_missing_file_exits_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    for scenario, out in [
        (tmp_path / "nope.json", tmp_path),
        (not_utf8, tmp_path),
        (tmp_path, tmp_path),  # a directory as the scenario
        (fixture_path("diamond.json"), a_file),  # --out names an existing file
    ]:
        assert run_cli("run", str(scenario), "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, work",
    [
        (("run", "setup1.json"), "build_simulation"),
        (("owd", "setup1.json"), "build_simulation"),
        (("hybrid", "setup2-hybrid.json"), "build_simulation"),
        (("bench", "--functions", "plain", "--count", "200"), "run_bench"),
    ],
    ids=["run", "owd", "hybrid", "bench"],
)
def test_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    calls = []
    real = getattr(cli, work)
    monkeypatch.setattr(cli, work, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    argv = [str(fixture_path(a)) if a.endswith(".json") else a for a in argv]
    assert run_cli(*argv, "--out", str(a_file)) == 2
    assert "config error" in capsys.readouterr().err
    assert calls == []


TRACEROUTE_ARGV = ("traceroute", "diamond.json", "S", "2001:db8:2::1")


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--seed", "1"),
        ("bench", "--duration", "5"),
        (*TRACEROUTE_ARGV, "--out", "d"),
        (*TRACEROUTE_ARGV, "--format", "tsv"),
        (*TRACEROUTE_ARGV, "--duration", "5"),
    ],
    ids=["bench-seed", "bench-duration", "traceroute-out", "traceroute-format",
         "traceroute-duration"],
)
def test_flag_a_command_does_not_read_is_rejected(capsys, argv):
    argv = [str(fixture_path(a)) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_drop_storm_exits_3(tmp_path):
    raw = json.loads(fixture_path("setup1.json").read_text())
    # unroutable traffic: everything dropped at the first hop
    raw["generators"] = [
        {"src_node": "S1", "dst": "fd00:ff::1", "rate_pps": 1000,
         "payload_size": 64, "count": 200, "flow": 1}
    ]
    raw["fib"] = [
        {"node": "S1", "prefix": "::/0",
         "nexthops": [{"via": "2001:db8::1", "link": "l01"}]}
    ]
    raw["transits"] = []
    raw["sids"] = []
    raw["daemons"] = []
    bad = tmp_path / "storm.json"
    bad.write_text(json.dumps(raw))
    assert run_cli("run", str(bad), "--out", str(tmp_path)) == 3


def test_owd_report_zero_jitter_p99_equals_mean(tmp_path, capsys):
    code = run_cli("owd", str(fixture_path("setup1.json")), "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "setup1-owd-report.txt").read_text()
    metrics = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0].startswith(("owd_", "probe_", "events_")):
            metrics[parts[0]] = parts[1]
    assert metrics["probe_count"] == "10"  # 1000 packets at 1:100
    assert metrics["owd_p99"] == metrics["owd_mean"] == metrics["owd_max"]
    assert metrics["events_dropped"] == "0"


def test_owd_ratio_override_changes_probe_count(tmp_path):
    code = run_cli(
        "owd", str(fixture_path("setup1.json")), "--ratio", "10", "--out", str(tmp_path)
    )
    assert code == 0
    text = (tmp_path / "setup1-owd-report.txt").read_text()
    assert " 100" in [l for l in text.splitlines() if l.startswith("probe_count")][0]


def test_owd_on_scenario_without_dm_exits_2(tmp_path):
    assert run_cli("owd", str(fixture_path("diamond.json")), "--out", str(tmp_path)) == 2


def test_hybrid_on_scenario_without_wrr_and_prober_exits_2(tmp_path, capsys):
    assert run_cli("hybrid", str(fixture_path("setup1.json")), "--out", str(tmp_path)) == 2
    assert "config error: $: scenario is not a hybrid-access setup" in capsys.readouterr().err


def test_hybrid_reports_wrr_split_and_reordering(tmp_path):
    code = run_cli(
        "hybrid", str(fixture_path("setup2-hybrid.json")),
        "--compensation", "off", "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "setup2-hybrid-hybrid-report.txt").read_text()
    rows = {l.split()[0]: l.split()[1] for l in text.splitlines() if l and l[0].isalpha()}
    assert int(rows["path_a_packets"]) == 2500
    assert int(rows["path_b_packets"]) == 1500
    assert float(rows["reorder_fraction"]) > 0.3
    assert float(rows["goodput_estimate"]) > 0


def test_hybrid_run_ending_before_the_first_packet_reports_zero_counts(tmp_path):
    # the generator starts at 1.5 s, so wrr never runs and creates no map
    code = run_cli(
        "hybrid", str(fixture_path("setup2-hybrid.json")),
        "--duration", "300", "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "setup2-hybrid-hybrid-report.txt").read_text()
    rows = {l.split()[0]: l.split()[1] for l in text.splitlines() if l and l[0].isalpha()}
    assert rows["path_a_packets"] == rows["path_b_packets"] == "0"


@pytest.mark.parametrize(
    "argv, sha256",
    [
        ((), "f3f639d2ffacdc4a115268c9231e729e81441ed64657cdad5c8575855227e581"),
        (("--duration", "2500"), "686d1739532a1f9356151952bed57851d0e001261ee210f8e9cfd4c4f7f48c31"),
        (("--duration", "300"), "8f3310a4f8594a3bded0fa83996e4da0961c4c49748297f74bc8b4f69f6b485d"),
        (("--compensation", "off"), "48c97355ec435879f27378e0dbac0cc3db567a459390e86fd2e64b491e9db4a0"),
    ],
    ids=["default", "2500ms", "no_sink", "uncompensated"],
)
def test_hybrid_report_bytes_are_pinned(tmp_path, monkeypatch, argv, sha256):
    """The report's sha256 under a relative --out, recorded when each
    metric still scanned the trace for the sink on its own; now one scan
    serves both."""
    scans, scan = [], sim_mod.sink_arrivals

    def counted(trace, flow):
        scans.append(flow)
        return scan(trace, flow)

    monkeypatch.setattr(cli, "sink_arrivals", counted)
    monkeypatch.setattr(sim_mod, "sink_arrivals", counted)
    monkeypatch.chdir(tmp_path)
    assert run_cli("hybrid", str(fixture_path("setup2-hybrid.json")), "--out", "out", *argv) == 0
    assert scans == [1]
    report = (tmp_path / "out" / "setup2-hybrid-hybrid-report.txt").read_bytes()
    assert hashlib.sha256(report).hexdigest() == sha256


def test_hybrid_tsv_format(tmp_path):
    code = run_cli(
        "hybrid", str(fixture_path("setup2-hybrid.json")),
        "--out", str(tmp_path), "--format", "tsv", "--duration", "2500",
    )
    assert code == 0
    tsv = (tmp_path / "setup2-hybrid-hybrid-report.tsv").read_text()
    assert any(l.startswith("reorder_fraction\t") for l in tsv.splitlines())


def test_traceroute_diamond_prints_both_nexthops(capsys):
    code = run_cli("traceroute", str(fixture_path("diamond.json")), "S", "2001:db8:2::1")
    assert code == 0
    out = capsys.readouterr().out
    branch = [l for l in out.splitlines() if l.strip().startswith("1  A")][0]
    assert "(B)" in branch and "(C)" in branch
    assert "[oamp]" in branch
    assert "reached" in out


def test_traceroute_no_oamp_flag_forces_fallback(capsys):
    code = run_cli(
        "traceroute", str(fixture_path("diamond.json")), "S", "2001:db8:2::1",
        "--no-oamp", "A",
    )
    assert code == 0
    out = capsys.readouterr().out
    branch = [l for l in out.splitlines() if l.strip().startswith("1  A")][0]
    assert "[icmp]" in branch
    assert "(B)" in branch and "(C)" in branch


def diamond_with_daemons(tmp_path, *daemons):
    raw = json.loads(fixture_path("diamond.json").read_text())
    raw["daemons"] = [d for d in raw["daemons"] if d["node"] != "A"] + list(daemons)
    scenario = tmp_path / "diamond-daemons.json"
    scenario.write_text(json.dumps(raw))
    return str(scenario)


COLLECTOR_A = {"id": "collector-a", "type": "owd_collector", "node": "A", "interval_ms": 1}
RESPONDER_A = {"id": "oamp-a", "type": "oamp_responder", "node": "A", "interval_ms": 1}


def test_second_reader_of_a_node_event_queue_exits_2(tmp_path, capsys):
    # each would take the other's events: a DM event and a two-nexthop
    # OAMP event are both 38 octets
    scenario = diamond_with_daemons(tmp_path, RESPONDER_A, COLLECTOR_A)
    assert run_cli("traceroute", scenario, "S", "2001:db8:2::1") == 2
    err = capsys.readouterr().err
    assert "$.daemons[4].node" in err and "'oamp-a'" in err


def test_traceroute_probes_by_icmp_a_node_whose_queue_a_collector_reads(tmp_path, capsys):
    scenario = diamond_with_daemons(tmp_path, COLLECTOR_A)
    assert run_cli("traceroute", scenario, "S", "2001:db8:2::1") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == " 1  A            [icmp]  -> 2001:db8:bb::1 (B), 2001:db8:cc::1 (C)"
    assert out[-1] == "target 2001:db8:2::1: reached"


def test_traceroute_unroutable_target_exits_1(capsys):
    code = run_cli("traceroute", str(fixture_path("diamond.json")), "S", "fd00:ff::1")
    assert code == 1
    assert "NOT reached" in capsys.readouterr().out


def test_traceroute_without_a_local_route_exits_1(tmp_path, capsys):
    raw = json.loads(fixture_path("diamond.json").read_text())
    raw["fib"] = [f for f in raw["fib"] if f["node"] != "S"]  # S's ::/0
    scenario = tmp_path / "no-route.json"
    scenario.write_text(json.dumps(raw))
    code = run_cli("traceroute", str(scenario), "S", "2001:db8:2::1")
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        " 0  S            [local]  -> ",
        "target 2001:db8:2::1: NOT reached",
    ]


def test_determinism_same_seed_identical_trace_files(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("run", str(fixture_path("setup1.json")), "--seed", "5", "--out", str(out1)) == 0
    assert run_cli("run", str(fixture_path("setup1.json")), "--seed", "5", "--out", str(out2)) == 0
    t1 = (out1 / "setup1-run-trace.tsv").read_bytes()
    t2 = (out2 / "setup1-run-trace.tsv").read_bytes()
    assert t1 == t2


def test_bench_command_and_ordering(tmp_path, capsys):
    code = run_cli("bench", "--count", "3000", "--out", str(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "pps_plain" in out and "normalized_add_tlv" in out


def test_bench_consecutive_runs_stable():
    # consecutive runs of one function are timed back to back so shared-CPU
    # drift cannot separate them; a noisy pair gets a couple of retries
    for f in BENCH_FUNCTIONS:
        for attempt in range(3):
            r1 = run_bench((f,), count=6000, repeats=5)
            r2 = run_bench((f,), count=6000, repeats=5)
            if abs(r1[f] - r2[f]) / max(r1[f], r2[f]) < 0.10:
                break
        else:
            pytest.fail(f"{f}: consecutive bench runs differ by more than 10%")


@pytest.mark.parametrize(
    "compensate, flag, used",
    [(False, None, "off"), (False, "on", "on"), (True, "off", "off"), (True, None, "on")],
)
def test_hybrid_compensation_is_the_scenarios_unless_the_flag_overrides(
    tmp_path, compensate, flag, used
):
    raw = json.loads(fixture_path("setup2-hybrid.json").read_text())
    prober = next(d for d in raw["daemons"] if d["type"] == "twd_prober")
    prober["params"]["compensate"] = compensate
    scenario = tmp_path / "setup2-hybrid.json"
    scenario.write_text(json.dumps(raw))
    argv = ["hybrid", str(scenario), "--format", "tsv", "--out", str(tmp_path)]
    assert run_cli(*argv, *(["--compensation", flag] if flag else [])) == 0
    rows = dict(
        line.split("\t")[:2]
        for line in (tmp_path / "setup2-hybrid-hybrid-report.tsv").read_text().splitlines()
    )
    assert rows["param:compensation"] == used
    assert (float(rows["applied_delay_last"]) > 0) == (used == "on")
