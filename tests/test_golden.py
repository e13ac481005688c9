"""Byte-identical behaviour guard.

Pins the sha256 of the ``write_trace`` bytes and of ``Statistics.summary()``
for every bundled fixture at seeds 1, 5 and 42, each run for its full
``duration_ms``, and the per-link delivered counts the summary omits. A
performance or refactoring change must leave every digest unchanged; a
change that alters behaviour on purpose updates them in the same commit
and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from srv6sim.behaviors import Forward
from srv6sim.dataplane import Node
from srv6sim.scenario import apply_overrides, build_simulation, fixture_path, load_scenario
from srv6sim.sim import Simulation, trace_ids, write_trace

# (fixture, seed) -> (sha256 of the trace file, sha256 of the summary)
GOLDEN = {
    ("setup1.json", 1): (
        "3a219931744b434f943df30deeb169b2e1d8ee74b2b684757bcf4619703e5ed3",
        "d7b45b066a680c99d5d985d71808e73ae4efc92ae614ffcddcfd828b74001591",
    ),
    ("setup1.json", 5): (
        "3a219931744b434f943df30deeb169b2e1d8ee74b2b684757bcf4619703e5ed3",
        "d7b45b066a680c99d5d985d71808e73ae4efc92ae614ffcddcfd828b74001591",
    ),
    ("setup1.json", 42): (
        "3a219931744b434f943df30deeb169b2e1d8ee74b2b684757bcf4619703e5ed3",
        "d7b45b066a680c99d5d985d71808e73ae4efc92ae614ffcddcfd828b74001591",
    ),
    ("setup2-hybrid.json", 1): (
        "f8763ad4b8db9e0611eee124d560ef4d75c0855d295fb1748d651a4aa21311ce",
        "4cdebe80fc57bcbd946eabbfce1bfd921acbf20107aa7c9a04384fc01e2379a7",
    ),
    ("setup2-hybrid.json", 5): (
        "45342a633e4904232e58d4c7132df6a1c0ed46f714af62f276203be94280dce6",
        "4cdebe80fc57bcbd946eabbfce1bfd921acbf20107aa7c9a04384fc01e2379a7",
    ),
    ("setup2-hybrid.json", 42): (
        "77a61b4693e403a07d1ded512e5f554e5e2a5e463df87e3e06ce3b558ab16166",
        "4cdebe80fc57bcbd946eabbfce1bfd921acbf20107aa7c9a04384fc01e2379a7",
    ),
    ("diamond.json", 1): (
        "c506a4c949447700b1c91b1ef8f8d27ad88eb26534680867503daec57a3fc7f8",
        "dbc11ed5155b3259735a77586a82586cd013c6fcc4d62617216c7d1c936d0ed1",
    ),
    ("diamond.json", 5): (
        "c506a4c949447700b1c91b1ef8f8d27ad88eb26534680867503daec57a3fc7f8",
        "dbc11ed5155b3259735a77586a82586cd013c6fcc4d62617216c7d1c936d0ed1",
    ),
    ("diamond.json", 42): (
        "c506a4c949447700b1c91b1ef8f8d27ad88eb26534680867503daec57a3fc7f8",
        "dbc11ed5155b3259735a77586a82586cd013c6fcc4d62617216c7d1c936d0ed1",
    ),
}

# fixture -> packets each link delivered, at every seed of GOLDEN; the
# summary digest does not cover these
LINK_DELIVERED = {
    "setup1.json": {"l01": 1010, "l12": 1010},
    "setup2-hybrid.json": {"la": 2640, "lb": 1640, "lm": 4000, "ls": 4000},
    "diamond.json": {"lab": 50, "lbd": 50, "ldt": 50, "lsa": 50},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name: str, seed: int):
    cfg = apply_overrides(load_scenario(fixture_path(name)), seed=seed)
    sim = build_simulation(cfg)
    return sim, sim.run_until(cfg.duration_ns)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_fixture_digests_unchanged(name, seed, tmp_path):
    sim, stats = _run(name, seed)
    path = tmp_path / "trace.tsv"
    write_trace(sim.trace, path)
    assert (_sha256(path.read_bytes()), _sha256(stats.summary().encode())) == GOLDEN[
        (name, seed)
    ]
    # the per-link counts, which perfbench divides by time, match the rows
    assert sum(stats.link_delivered.values()) == sum(1 for r in sim.trace if r[2] == "ingress")
    assert stats.link_delivered == LINK_DELIVERED[name]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_carried_size_and_trace_ids_match_the_packet(name, seed, monkeypatch):
    """The size carried to each ingress and egress row and the (flow, seq)
    cached in the packet's trace_ids, which the traffic generator or the
    node's local output set, equal what the packet itself gives there.
    A received packet's ingress row is the last row when Node.process_ingress
    takes it."""
    cfg = apply_overrides(load_scenario(fixture_path(name)), seed=seed)
    sim = build_simulation(cfg)
    process_ingress = Node.process_ingress
    apply = Simulation._apply
    directions = set()

    def check_row(row, head, p):
        assert p.trace_ids == trace_ids(p)
        assert row == (*head, *trace_ids(p), p.wire_size())
        directions.add(row[2])

    def checked_ingress(self, p, now):
        check_row(sim.trace[-1], (now, self.id, "ingress"), p)
        return process_ingress(self, p, now)

    def checked_apply(self, node, p, decision):
        apply(self, node, p, decision)
        if type(decision) is Forward:
            check_row(self.trace[-1], (self.clock, node.id, "egress"), p)

    monkeypatch.setattr(Node, "process_ingress", checked_ingress)
    monkeypatch.setattr(Simulation, "_apply", checked_apply)
    sim.run_until(cfg.duration_ns)
    assert sim.trace and {"ingress", "egress"} <= directions
