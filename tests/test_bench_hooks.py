"""The benchmark's per-layer tracer must keep finding the functions it wraps.

perfbench/tracer.py patches package functions by name from outside the
program and publishes one span per function.  A refactor that stops
calling one of them, or calls it a different number of times per update,
would silently zero or skew a published metric; this test fails instead.
The tracer module is only read: it is imported without writing bytecode
next to it.
"""

import importlib.util
import os
import sys

import numpy as np

from optcons import scenarios

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_session_step_calls_every_published_span(monkeypatch):
    tracer_mod = load_tracer(monkeypatch)
    spec = scenarios.load_preset("leader_follower")
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        session = scenarios.new_session(spec)
        summary = session.step()
    assert summary["rounds"] > 1
    calls = {span: tracer.stats[span][0] for span in tracer_mod.PUBLISHED_SPANS}
    layers = ("coordinator.", "dynamics.", "adjoint.", "solver.")
    missing = [span for span, n in calls.items() if span.startswith(layers) and n == 0]
    assert not missing
    assert calls["dynamics.linearize"] == calls["adjoint.costate_sweep"]
    assert calls["dynamics.second_order_action"] == calls["adjoint.hessian"]
    # One regularize per Hessian stack, and one closed-loop dynamics.step per
    # model group: no call per agent, and none for the leader, whose next
    # state is stage 1 of its window's rollout.
    assert calls["solver.regularize"] == calls["adjoint.hessian"]
    assert calls["dynamics.step"] == len(session.groups)


def test_traced_leaderless_run_calls_every_published_span(monkeypatch, tmp_path):
    # The leaderless path, from loading to the artifacts, with the rounds
    # capped so that window 0's cold start stays short: every published
    # span must be called, the per-group dynamics.step of Session.step and
    # the window cost's cost.global_cost among them.
    tracer_mod = load_tracer(monkeypatch)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        spec = scenarios.load_preset("agv_rendezvous",
                                     ["solver.max_outer=3", "mpc.T=2"])
        result = scenarios.run_scenario(spec)
        scenarios.emit_results(result, spec, str(tmp_path))
    assert spec.leader_model is None and list(result.rounds) == [3, 3]
    calls = {span: tracer.stats[span][0] for span in tracer_mod.PUBLISHED_SPANS}
    assert [span for span, n in calls.items() if n == 0] == []
    assert calls["cost.global_cost"] == 2
    assert calls["dynamics.linearize"] == calls["adjoint.costate_sweep"]
    assert calls["dynamics.second_order_action"] == calls["adjoint.hessian"]
    # The one model group, no leader: one dynamics.step per closed-loop step.
    assert calls["solver.regularize"] == calls["adjoint.hessian"]
    assert len({id(model) for model in spec.models.values()}) == 1
    assert calls["dynamics.step"] == len(result.rounds)


def test_traced_exchange_counts_stale_deliveries(monkeypatch):
    # The tracer counts a delivery as stale when its payload is the very
    # object the pair got before, so a dropped message must re-deliver that
    # object; a fresh copy would zero coordinator.stale_delivery_frac.
    tracer_mod = load_tracer(monkeypatch)
    spec = scenarios.load_preset("leader_follower",
                                 ["mpc.drop_probability=0.3", "mpc.T=3"])
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        session = scenarios.new_session(spec)
        result = session.run()
    rounds = int(result.rounds.sum())
    assert tracer.stats["coordinator.exchange"][0] == rounds
    # Every pair has had a delivery after round 0, so from then on each of
    # its drops re-delivers.
    rng, links = np.random.default_rng(spec.seed), session.links
    drops = [rng.random(len(links)) < spec.mpc.drop_probability for _ in range(rounds)]
    replayed = int(sum(d.sum() for d in drops[1:]))
    assert tracer.counts["stale"] > 0
    assert tracer.counts["stale"] == replayed
    assert tracer.counts["delivered"] == rounds * len(links)
    assert tracer.counts["messages"] == rounds * (spec.topology.n + 1)
