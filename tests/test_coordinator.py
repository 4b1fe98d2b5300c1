import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from optcons import CostSpec, Topology
from optcons.coordinator import (MpcConfig, Session, consensus_error, run_algorithm1,
                                 solve_local)
from optcons import dynamics as dyn
from optcons.cost import NeighborBundle, global_cost
from optcons.errors import ConfigError, NumericError, PreconditionError
from optcons.graph import neighbors
from optcons.solver import LocalProblem, SolverConfig, sweep
from optcons import adjoint, cli, coordinator, scenarios, solver

from conftest import mutual_pair_topology


def integrator_pair(q=1.0, r=1.0, d=0.0):
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=q, r=r, d=d)
    models = {1: dyn.linear([[1.0]], [[1.0]]), 2: dyn.linear([[1.0]], [[1.0]])}
    return top, spec, models


def test_algorithm1_consensus_start_terminates_immediately():
    top, spec, models = integrator_pair(d=0.0)
    res = run_algorithm1(top, models, spec, SolverConfig(), horizon=4,
                         initial_states={1: [2.0], 2: [2.0]})
    assert res.converged and res.rounds == 0
    for i in (1, 2):
        np.testing.assert_array_equal(res.controls[i], np.zeros((4, 1)))


def test_algorithm1_mirror_symmetry():
    # Coupling soft enough that the simultaneous rounds contract.
    top, spec, models = integrator_pair(q=0.5, r=2.0, d=0.25)
    res = run_algorithm1(top, models, spec, SolverConfig(eps=1e-10),
                         horizon=5, initial_states={1: [1.0], 2: [-1.0]})
    assert res.converged
    np.testing.assert_array_equal(res.controls[1], -res.controls[2])
    np.testing.assert_array_equal(res.trajectories[1], -res.trajectories[2])


def test_algorithm1_global_cost_decreases_on_agv_instance():
    spec = scenarios.load_preset("agv_rendezvous")
    cfg = SolverConfig(c=2.0, eps=1e-6, max_outer=50)
    res = run_algorithm1(spec.topology, spec.models, spec.cost, cfg,
                         horizon=8, initial_states=spec.initial_states)
    costs = res.global_costs
    assert len(costs) >= 10
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-9 * max(1.0, a)


def test_algorithm1_requires_strong_connectivity():
    top = Topology.from_edge_list(2, [[1, 2, 1.0]])  # 2 cannot reach 1
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0)
    models = {1: dyn.linear([[1.0]], [[1.0]]), 2: dyn.linear([[1.0]], [[1.0]])}
    with pytest.raises(PreconditionError, match="strongly connected"):
        run_algorithm1(top, models, spec, SolverConfig(), 3,
                       {1: [0.0], 2: [1.0]})


def test_mpc_consensus_start_is_a_fixed_point():
    top, spec, models = integrator_pair()
    mpc = MpcConfig(N_p=4, T=5)
    res = Session(top, models, spec, SolverConfig(), mpc, {1: [3.0], 2: [3.0]}).run()
    for i in (1, 2):
        np.testing.assert_array_equal(res.controls[i], np.zeros((5, 1)))
    np.testing.assert_array_equal(res.max_errors, np.zeros(6))
    assert res.converged.all() and (res.rounds == 1).all()


def test_mpc_integrators_reach_consensus_with_monotone_window_costs():
    top, spec, models = integrator_pair(q=4.0, r=1.0)
    mpc = MpcConfig(N_p=5, T=25)
    res = Session(top, models, spec, SolverConfig(eps=1e-8), mpc,
                  {1: [1.0], 2: [-1.0]}).run()
    assert res.max_errors[-1] < 1e-3
    for a, b in zip(res.window_costs, res.window_costs[1:]):
        assert b <= a * (1 + 1e-6) + 1e-12


def test_run_result_history_lengths():
    top, spec, models = integrator_pair()
    mpc = MpcConfig(N_p=3, T=7)
    res = Session(top, models, spec, SolverConfig(), mpc, {1: [1.0], 2: [0.0]}).run()
    for i in (1, 2):
        assert res.states[i].shape == (8, 1)
        assert res.controls[i].shape == (7, 1)
    assert res.max_errors.shape == (8,)
    assert res.window_costs.shape == (7,)


def leader_chain_setup(h_amp=0.1, mode="first"):
    top = Topology.from_edge_list(
        4, [[2, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, p=2, q=30.0, r=1.0, w=80.0)
    follower = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode)
    leader = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, h_amp=h_amp, mode=mode)
    models = {i: follower for i in range(1, 5)}
    return top, spec, models, leader


def test_leader_follower_zero_error_on_leader_trajectory():
    top, spec, models, leader = leader_chain_setup(h_amp=0.0)
    x0 = np.array([0.4, -1.2])
    mpc = MpcConfig(N_p=4, T=6)
    res = Session(top, models, spec, SolverConfig(), mpc,
                  {i: x0.copy() for i in range(1, 5)}, leader_model=leader,
                  leader_x0=x0).run()
    for i in range(1, 5):
        np.testing.assert_array_equal(res.controls[i], np.zeros((6, 1)))
        np.testing.assert_array_equal(res.states[i], res.leader_states)
    np.testing.assert_array_equal(res.max_errors, np.zeros(7))


def test_leader_follower_requires_leader_data():
    top, spec, models, leader = leader_chain_setup()
    with pytest.raises(ConfigError, match="leader"):
        Session(top, models, spec, SolverConfig(), MpcConfig(N_p=3, T=2),
                {i: [0.0, 0.0] for i in range(1, 5)}, leader_model=None,
                leader_x0=None).run()


def pair_kwargs(**changes):
    top, spec, models = integrator_pair()
    return dict(dict(topology=top, models=models, spec=spec, solver_cfg=SolverConfig(),
                     mpc_cfg=MpcConfig(N_p=3, T=2), initial_states={1: [1.0], 2: [0.0]}),
                **changes)


def chain_kwargs(**changes):
    top, spec, models, leader = leader_chain_setup()
    return dict(dict(topology=top, models=models, spec=spec, solver_cfg=SolverConfig(),
                     mpc_cfg=MpcConfig(N_p=3, T=2),
                     initial_states={i: [0.0, 0.0] for i in range(1, 5)},
                     leader_model=leader, leader_x0=[0.1, 0.0]), **changes)


def chain_weight(name, key, value):
    """``chain_kwargs`` with the cost table ``name``'s entry ``key`` set."""
    kwargs = chain_kwargs()
    getattr(kwargs["spec"], name)[key] = value
    return kwargs


@pytest.mark.parametrize("kwargs, match", [
    (lambda: pair_kwargs(initial_states={1: 1.0, 2: 0.0}), "vectors of one length"),
    (lambda: pair_kwargs(initial_states={1: [1.0], 2: [0.0, 0.0]}), "vectors of one length"),
    (lambda: pair_kwargs(initial_states={1: [1.0, 0.0], 2: [0.0, 0.0]}),
     r"agent 1: model state_dim 1 != 2; agent 2"),
    (lambda: pair_kwargs(initial_states={1: [1.0]}),
     r"^models and initial states must cover agents 1..n$"),
    (lambda: pair_kwargs(initial_states={1: [1.0], 2: [0.0], 3: [0.0]}),
     r"^models and initial states must cover agents 1..n$"),
    (lambda: pair_kwargs(models={1: dyn.linear([[1.0]], [[1.0]])}),
     r"^models and initial states must cover agents 1..n$"),
    (lambda: pair_kwargs(leader_model=dyn.linear([[1.0]], np.zeros((1, 0))),
                         leader_x0=[0.0]),
     r"^leader model/state given but topology has no leader links$"),
    (lambda: chain_kwargs(leader_x0=[0.1]), r"leader x0 has shape \(1,\), expected \(2,\)"),
    (lambda: chain_kwargs(leader_x0=[[0.1, 0.0]]), r"leader x0 has shape \(1, 2\)"),
    (lambda: chain_kwargs(leader_x0=0.1), r"leader x0 has shape \(\)"),
    (lambda: chain_kwargs(leader_model=dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)),
     r"leader model must be autonomous .* got linear_sine\(sum,amp=0.01\) with 2, 1"),
    (lambda: chain_kwargs(leader_model=dyn.unicycle_drift()),
     r"leader model must be autonomous .*state_dim 2, got unicycle_drift.* with 3, 0"),
    (lambda: chain_kwargs(error_mask=[]),
     r"^error_mask: expected at least one component index, got \[\]$"),
    (lambda: chain_kwargs(error_mask=[5]), r"^error_mask: components \[5\] out of range 0..1$"),
    (lambda: chain_kwargs(error_mask=[-1]), r"^error_mask: components \[-1\] out of range 0..1$"),
    (lambda: chain_kwargs(error_mask=[0, 0]), r"^error_mask: repeated components \[0\]$"),
    (lambda: chain_kwargs(error_mask=[1.0]), r"^error_mask: components \[1.0\] are not integers$"),
    (lambda: chain_kwargs(error_mask=[True]), r"^error_mask: components \[True\] are not integers$"),
    (lambda: chain_kwargs(error_mask=[0, False]),
     r"^error_mask: components \[False\] are not integers$"),
    (lambda: chain_kwargs(error_mask=np.array([0.0, 1.0])), r"^error_mask: components \[np"),
    (lambda: pair_kwargs(initial_states={1: [1e308], 2: [-1e308]}),
     r"^initial_states: non-finite deviation norms on pairs \['1-2', '2-1'\]$"),
    (lambda: chain_kwargs(leader_x0=[-1e308, 0.0], initial_states={1: [1e308, 0.0], 2: [0.0, 0.0],
                                                                  3: [0.0, 0.0], 4: [0.0, 0.0]}),
     r"^initial_states: non-finite deviation norms on pairs \['2-1', '1-l'\]$"),
    (lambda: chain_weight("Q", (2, 1), np.eye(3)),
     r"^Q\[\(2, 1\)\] has shape \(3, 3\), expected \(2, 2\)$"),
    (lambda: chain_weight("D", (2, 1), np.eye(1)),
     r"^D\[\(2, 1\)\] has shape \(1, 1\), expected \(2, 2\)$"),
    (lambda: chain_weight("W", 1, np.eye(3)), r"^W\[1\] has shape \(3, 3\), expected \(2, 2\)$"),
    (lambda: chain_weight("E", 1, np.eye(1)), r"^E\[1\] has shape \(1, 1\), expected \(2, 2\)$"),
])
def test_session_rejects_malformed_inputs_early(kwargs, match):
    # Shapes and dimensions are checked before anything is built, with a
    # ConfigError that names the problem, instead of failing later inside
    # the set-up or at the first step.
    with pytest.raises(ConfigError, match=match):
        Session(**kwargs())


@pytest.mark.parametrize("error_mask", [None, [1]])
def test_session_forms_its_initial_deviations_once(monkeypatch, error_mask):
    # The check that the initial deviation norms are finite and the first
    # recorded error read one edge table and one edge_errors call: with a
    # mask, the unmasked norms come from the same deviations.
    calls = []
    for name in ("edge_table", "edge_errors"):
        real = getattr(coordinator, name)
        monkeypatch.setattr(coordinator, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    session = Session(**chain_kwargs(error_mask=error_mask))
    assert calls == ["edge_table", "edge_errors"]
    monkeypatch.undo()
    assert session.max_errors == [consensus_error(session.x, session.topology,
                                                  session.spec.offsets, error_mask,
                                                  leader_state=session.xl)[1]]
    # A gap that overflows off the mask is refused as without one, and
    # after every other problem only.
    states = {1: [0.0, 0.0], 2: [1e200, 0.0], 3: [0.0, 0.0], 4: [0.0, 0.0]}
    with pytest.raises(ConfigError) as err:
        Session(**chain_kwargs(error_mask=error_mask, initial_states=states))
    assert err.value.violations == [
        "initial_states: non-finite deviation norms on pairs ['2-1', '3-2']"]
    with pytest.raises(ConfigError) as err:
        Session(**chain_kwargs(error_mask=[5], initial_states=states))
    assert err.value.violations == ["error_mask: components [5] out of range 0..1"]


def test_leader_follower_requires_spanning_tree():
    # agent 4 unreachable from the leader
    top = Topology.from_edge_list(4, [[2, 1, 1.0], [3, 2, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, p=2, q=1.0, r=1.0, w=1.0)
    follower = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    leader = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    with pytest.raises(PreconditionError, match="spanning tree"):
        Session(top, {i: follower for i in range(1, 5)}, spec, SolverConfig(),
                MpcConfig(N_p=3, T=2), {i: [0.0, 0.0] for i in range(1, 5)},
                leader_model=leader, leader_x0=[0.0, 0.0]).run()


def test_unified_reduction_leaderless_equals_leader_runner_bitwise():
    top, spec, models = integrator_pair(q=3.0, r=0.5)
    mpc = MpcConfig(N_p=4, T=10)
    cfg = SolverConfig(eps=1e-7)
    states = {1: [1.0], 2: [-2.0]}
    a = Session(top, models, spec, cfg, mpc, states, seed=3).run()
    b = Session(top, models, spec, cfg, mpc, states, leader_model=None,
                leader_x0=None, seed=3).run()
    for i in (1, 2):
        np.testing.assert_array_equal(a.states[i], b.states[i])
        np.testing.assert_array_equal(a.controls[i], b.controls[i])
    np.testing.assert_array_equal(a.window_costs, b.window_costs)
    np.testing.assert_array_equal(a.rounds, b.rounds)
    assert a.leader_states is None and b.leader_states is None


def test_consensus_error_examples():
    top = mutual_pair_topology()
    errs, mx = consensus_error({1: [1.0, 2.0], 2: [1.0, 2.0]}, top)
    assert mx == 0.0
    errs, mx = consensus_error({1: [0.0, 0.0], 2: [3.0, 4.0]}, top)
    assert errs["1-2"] == pytest.approx(5.0)
    assert mx == pytest.approx(5.0)
    offs = {1: np.array([1.0, 1.0]), 2: np.array([-1.0, 0.0])}
    errs, mx = consensus_error({1: offs[1], 2: offs[2]}, top, offsets=offs)
    assert mx == 0.0


def test_consensus_error_mask_and_leader():
    top = Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]], leader_links=[2])
    states = {1: [0.0, 0.0, 9.0], 2: [3.0, 4.0, -9.0]}
    errs, mx = consensus_error(states, top, mask=[0, 1],
                               leader_state=[0.0, 0.0, 0.0])
    assert errs["1-2"] == pytest.approx(5.0)
    assert errs["2-l"] == pytest.approx(5.0)
    assert mx == pytest.approx(5.0)


def test_scheduling_independence_bitwise():
    # Solving the agents in reverse order must not change a bit: every
    # update reads only its round's snapshot.
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=8"])
    runs = {}
    for reverse in (False, True):
        session = scenarios.new_session(spec)
        if reverse:
            session.order.reverse()
        runs[reverse] = session.run()
    a, b = runs[False], runs[True]
    for i in sorted(a.states):
        np.testing.assert_array_equal(a.states[i], b.states[i])
        np.testing.assert_array_equal(a.controls[i], b.controls[i])
    np.testing.assert_array_equal(a.window_costs, b.window_costs)
    np.testing.assert_array_equal(a.rounds, b.rounds)


def watch_exchange(session):
    """Wrap ``session._exchange``; returns the list that collects, per round,
    (trajs, leader_traj, deliveries), the deliveries (i, j, payload) in
    bundle order with the leader (j = 0) last."""
    rounds, exchange = [], session._exchange

    def watched(trajs, leader_traj, r):
        bundles = exchange(trajs, leader_traj, r)
        rounds.append((trajs, leader_traj, [
            (i, j, payload) for i, b in bundles.items()
            for j, payload in [*b.trajectories.items(),
                               *[(0, b.leader)] * (b.leader is not None)]]))
        return bundles

    session._exchange = watched
    return rounds


def stale_deliveries(rounds):
    """(round, i, j) of every delivery whose payload is the pair's previous
    payload object, the rounds counted across steps."""
    last, stale = {}, []
    for r, (*_, deliveries) in enumerate(rounds):
        for i, j, payload in deliveries:
            if last.get((i, j)) is payload:
                stale.append((r, i, j))
            last[(i, j)] = payload
    return stale


def test_protocol_locality_instrumented():
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=3"])
    session = scenarios.new_session(spec)
    rounds = watch_exchange(session)
    session.run()
    allowed = set(spec.topology.edges) | {(i, 0) for i in spec.topology.leader_links}
    seen = {(i, j) for *_, deliveries in rounds for i, j, _ in deliveries}
    assert seen  # something was exchanged
    assert seen <= allowed


def test_exchange_lists_each_agents_senders_once(monkeypatch):
    """A session builds every agent's neighbour list once, and its delivery
    list is in receiver order, then sender order, the leader last: the
    order in which each round delivers and draws the drop stream, one
    number per pair."""
    calls = []
    real = coordinator.neighbors
    monkeypatch.setattr(coordinator, "neighbors",
                        lambda topology, i: calls.append(i) or real(topology, i))
    spec = scenarios.load_preset("leader_follower",
                                 overrides=["mpc.T=3", "mpc.drop_probability=0.3"])
    session = scenarios.new_session(spec)
    rounds = watch_exchange(session)
    session.run()
    assert calls == [1, 2, 3, 4]
    want = [(i, j) for i in range(1, 5)
            for j in real(spec.topology, i) + [0] * (i in spec.topology.leader_links)]
    assert session.links == want
    assert len(rounds) > 3
    assert all([(i, j) for i, j, _ in deliveries] == want for *_, deliveries in rounds)
    # Replaying the seed's stream over the list, a pair's message dropped
    # once it has had one delivered, gives exactly the stale deliveries.
    rng, delivered, replayed = np.random.default_rng(spec.seed), set(), []
    for r in range(len(rounds)):
        for pair, x in zip(want, rng.random(len(want))):
            if x < spec.mpc.drop_probability and pair in delivered:
                replayed.append((r, *pair))
            delivered.add(pair)
    assert replayed
    assert stale_deliveries(rounds) == replayed


def test_drops_draw_the_seed_stream_built_at_the_first_exchange():
    # A session builds its generator at its first draw, not with the
    # session, and drops exactly the links that np.random.default_rng(seed)
    # drops, drawn one number per pair of ``links`` each round; a run
    # without drops never builds one.
    spec = scenarios.load_preset("leader_follower", overrides=[
        "mpc.T=3", "mpc.drop_probability=0.4", "seed=5"])
    session = scenarios.new_session(spec)
    assert "rng" not in vars(session)
    rounds = watch_exchange(session)
    session.run()
    fresh, delivered, replayed = np.random.default_rng(5), set(), []
    for r in range(len(rounds)):
        for pair, x in zip(session.links, fresh.random(len(session.links))):
            if x < 0.4 and pair in delivered:
                replayed.append((r, *pair))
            delivered.add(pair)
    assert replayed
    assert stale_deliveries(rounds) == replayed
    assert session.rng.bit_generator.state == fresh.bit_generator.state
    spec, quiet = preset_session("leader_follower", ["mpc.T=2"])
    quiet.run()
    assert "rng" not in vars(quiet)


def preset_session(name, overrides=(), models=None):
    spec = scenarios.load_preset(name, overrides=list(overrides))
    return spec, scenarios.new_session(replace(spec, models=models) if models else spec)


def leader_follower_session(overrides=()):
    return preset_session("leader_follower", overrides)


def test_one_linearization_per_update(monkeypatch):
    # One window-level linearization and one window-level curvature call per
    # model group and round, each covering the N_p stages of every agent in
    # the group; the preset's agents all take the `default` model, so they
    # form one group.
    spec, session = leader_follower_session()
    calls = {"linearize": [], "second_order_action": []}
    for name, seen in calls.items():
        def counted(model, X, *args, _fn=getattr(dyn, name), _seen=seen):
            _seen.append(np.shape(X)[:2])
            return _fn(model, X, *args)
        monkeypatch.setattr(dyn, name, counted)
    summary = session.step()
    assert summary["rounds"] > 1
    for seen in calls.values():
        assert seen == [(spec.topology.n, spec.mpc.N_p)] * summary["rounds"]


def spy_on(monkeypatch, owner, name, seen, key=lambda *args: args):
    """Record key(*args) of every call of owner.<name> in ``seen``."""
    fn = getattr(owner, name)

    def counted(*args):
        seen.append(key(*args))
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


def test_a_banded_group_round_builds_one_band_of_l_and_no_cholesky(monkeypatch):
    # In a warm 64-stage window every group-round takes the banded direction
    # and its next round rolls out by Newton.  L's band is built once from
    # each sweep's A: the costate sweep and the next round's Newton rollout
    # read it.  The preset's stage blocks are diagonal, so the certificate
    # decides them without a Cholesky.
    _, session = leader_follower_session(["mpc.N_p=64"])
    session.step()
    sweep_As, built, newton, cholesky, certified = [], [], [], [], []
    linearize_window, certificate = adjoint.linearize_window, solver.banded_certificate

    def linearized(*args):
        jac = linearize_window(*args)
        sweep_As.append(jac[0])
        return jac

    def certifying(*args):
        before = len(cholesky)
        ok = certificate(*args)
        certified.append((ok.all(), len(cholesky) - before))
        return ok

    monkeypatch.setattr(adjoint, "linearize_window", linearized)
    monkeypatch.setattr(solver, "banded_certificate", certifying)
    spy_on(monkeypatch, adjoint, "_lower_band", built, key=lambda A: A)
    spy_on(monkeypatch, adjoint, "newton_rollout", newton)
    spy_on(monkeypatch, np.linalg, "cholesky", cholesky)
    rounds = session.step()["rounds"]
    assert rounds > 1 and len(sweep_As) == len(newton) == rounds
    assert [sum(A is B for B in built) for A in sweep_As] == [1] * rounds
    assert certified == [(True, 0)] * rounds


def test_a_dense_group_round_builds_one_band_of_l(monkeypatch):
    # The dense path's Hessian reads the band that the costate sweep read.
    _, session = preset_session("formation", ["mpc.T=2", "solver.max_outer=3"])
    sweeps, built, hessians = [], [], []
    spy_on(monkeypatch, adjoint, "costate_sweep", sweeps)
    spy_on(monkeypatch, adjoint, "_lower_band", built)
    spy_on(monkeypatch, adjoint, "hessian", hessians)
    rounds = session.step()["rounds"]
    assert rounds > 1 and len(sweeps) == len(hessians) == len(built) == rounds
    for (*_, band, _), (_, _, read) in zip(sweeps, hessians):
        assert read.base is band or read is band


def test_cost_terms_walks_do_not_grow_with_rounds(monkeypatch):
    # Each model group's cost-term table is built once, at the first window,
    # and the sweeps, Hessians and global_cost read it: one CostSpec.terms
    # walk per agent and session, however many rounds a step takes.
    walks = []
    terms = CostSpec.terms

    def counted(self, i, p):
        walks.append(i)
        return terms(self, i, p)

    monkeypatch.setattr(CostSpec, "terms", counted)
    rounds = {}
    for max_outer in (1, 100):
        spec, session = leader_follower_session([f"solver.max_outer={max_outer}"])
        walks.clear()
        rounds[max_outer] = [session.step()["rounds"] for _ in range(2)]
        assert sorted(walks) == session.order
    assert rounds[1] == [1, 1] and min(rounds[100]) > 1


def test_msa_walks_the_cost_terms_once_per_agent(monkeypatch):
    # The baseline's backtracking costs read each agent's row of its group's
    # table: one CostSpec.terms walk per agent and session, as with ocp.
    walks = []
    terms = CostSpec.terms

    def counted(self, i, p):
        walks.append(i)
        return terms(self, i, p)

    monkeypatch.setattr(CostSpec, "terms", counted)
    spec, session = leader_follower_session(["solver.method=msa"])
    rounds = [session.step()["rounds"] for _ in range(2)]
    assert min(rounds) > 1
    assert sorted(walks) == session.order


@pytest.mark.parametrize("method", ["ocp", "msa"])
def test_round_loop_builds_no_local_problem(method, monkeypatch):
    # The rounds keep each model group's windows as arrays and hand sweep and
    # _round_update the group's model, table and bundles: neither MPC steps
    # nor the one-shot run build a LocalProblem.
    built, init = [], LocalProblem.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LocalProblem, "__init__", counted)
    _, session = leader_follower_session([f"solver.method={method}"])
    assert sum(session.step()["rounds"] for _ in range(2)) > 2
    spec = scenarios.load_preset("scalar_chain", overrides=[f"solver.method={method}"])
    result = run_algorithm1(spec.topology, spec.models, spec.cost, spec.solver, spec.horizon,
                            spec.initial_states, spec.leader_model, spec.leader_x0)
    assert result.rounds > 0
    assert built == []


def test_definite_hessians_skip_eigvalsh(monkeypatch):
    # Every window Hessian of the preset is >= R = I, so regularize's
    # Cholesky certificate passes on each and no eigvalsh runs; an
    # indefinite Hessian still takes the eigenvalue path, once.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == solver.__name__:
            calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    spec, session = leader_follower_session()
    summary = session.step()
    assert summary["rounds"] > 1 and calls == []
    H = np.diag([1.0, -0.5])
    out = solver.regularize(H[None], solver.REG_FLOOR)
    assert len(calls) == 1
    np.testing.assert_array_equal(out, [H + (solver.REG_FLOOR + 0.5) * np.eye(2)])


def test_one_leader_rollout_per_window(monkeypatch):
    spec, session = leader_follower_session()
    rollout = dyn.rollout
    leader_calls = []

    def counted(model, *args, **kwargs):
        if model is spec.leader_model:
            leader_calls.append(args)
        return rollout(model, *args, **kwargs)

    monkeypatch.setattr(dyn, "rollout", counted)
    summary = session.step()
    assert summary["rounds"] > 1
    assert len(leader_calls) == 1


def test_msa_update_reuses_round_rollout(monkeypatch):
    # Every rollout of an msa step is a round's rollout (one per model group,
    # the last one the window's result and never broadcast), the window's
    # single leader rollout or a backtracking trial; the cost at the current
    # controls comes from the broadcast rollout.
    spec, session = leader_follower_session(["solver.method=msa"])
    rollout, backtrack = dyn.rollout, coordinator.backtrack_step
    rollouts, trials = [], []

    def counted_rollout(*args, **kwargs):
        rollouts.append(args)
        return rollout(*args, **kwargs)

    def counted_backtrack(cost_fn, *args):
        def cost(u):
            trials.append(u)
            return cost_fn(u)
        return backtrack(cost, *args)

    monkeypatch.setattr(dyn, "rollout", counted_rollout)
    monkeypatch.setattr(coordinator, "backtrack_step", counted_backtrack)
    summary = session.step()
    groups = len(session.groups)
    assert groups == 1
    assert summary["rounds"] > 1
    assert len(rollouts) == summary["rounds"] * groups + 1 + len(trials) + groups


def test_one_shot_result_is_its_last_rounds_rollout(monkeypatch):
    # Each round of a one-shot run rolls out the agents' controls once, and
    # the run's result is the rollout of its stopping round: one rollout
    # per update plus that one, none made after the round loop.
    rollout, calls = dyn.rollout, []

    def counted(*args, **kwargs):
        calls.append(args)
        return rollout(*args, **kwargs)

    spec = scenarios.load_preset("scalar_chain")
    monkeypatch.setattr(dyn, "rollout", counted)
    result = run_algorithm1(spec.topology, spec.models, spec.cost, spec.solver, spec.horizon,
                            spec.initial_states, spec.leader_model, spec.leader_x0)
    assert spec.leader_model is None and len({id(m) for m in spec.models.values()}) == 1
    assert result.converged and result.rounds > 0
    assert len(calls) == result.rounds + 1
    agents = sorted(result.controls)
    fresh = rollout(spec.models[1], [spec.initial_states[i] for i in agents],
                    np.array([result.controls[i] for i in agents]), 0)
    np.testing.assert_array_equal([result.trajectories[i] for i in agents], fresh)


@pytest.mark.parametrize("max_outer", [3, 100], ids=["capped", "converged"])
def test_one_shot_metrics_hold_the_returned_iterate(max_outer, tmp_path):
    # A one-shot run sweeps and costs every rollout it makes, the one it
    # returns included, whether it converges or hits max_outer: the global
    # costs hold one entry per rollout, and metrics.json the global cost and
    # the gradient norms at the returned trajectories and controls.
    spec = scenarios.load_preset("scalar_chain", overrides=[f"solver.max_outer={max_outer}"])
    res = scenarios.run_scenario(spec)
    assert (res.converged, res.rounds) == ((False, 3) if max_outer == 3 else (True, 7))
    assert len(res.global_costs) == res.rounds + 1
    arts = scenarios.emit_results(res, spec, tmp_path)
    with open(arts.metrics_json) as fh:
        metrics = json.load(fh)
    agents = sorted(res.controls)
    terms = spec.cost.group_terms(agents, spec.models[1].state_dim)
    bundles = [NeighborBundle({j: res.trajectories[j] for j in neighbors(spec.topology, i)})
               for i in agents]
    *_, G = sweep(spec.models[1], 0, terms, bundles, np.array([res.controls[i] for i in agents]),
                  np.array([res.trajectories[i] for i in agents]))
    assert metrics["final_global_cost"] == global_cost([terms], res.trajectories, res.controls,
                                                       spec.topology)
    assert metrics["max_grad_norm"] == max(np.linalg.norm(g) for g in G)


def test_control_history_holds_rows_of_its_own():
    # Session.step records each agent's applied control; the record must
    # not be a view into the window's (K, H, m) controls, which it would
    # keep alive for the rest of the run.
    _, session = leader_follower_session(["mpc.N_p=64"])
    for _ in range(3):
        seen = {i: len(h) for i, h in session.control_hist.items()}
        session.step()
        stacks = [us for us, _ in session.last_window.stacks]
        for i, hist in session.control_hist.items():
            [row] = hist[seen[i]:]
            assert not any(np.shares_memory(row, us) for us in stacks)


def test_msa_backtracking_collapse_names_agent_and_round(monkeypatch, scalar_chain):
    # Under a cost that always rises, the first agent's backtracking collapses
    # in round 0: the session and solve_local both raise, naming the agent and
    # the round.
    backtrack = coordinator.backtrack_step
    monkeypatch.setattr(coordinator, "backtrack_step", lambda cost_fn, u, g, J, eta:
                        backtrack(lambda v: J + 1.0, u, g, J, eta))
    _, session = leader_follower_session(["solver.method=msa"])
    with pytest.raises(NumericError, match=r"^agent 1, round 0: backtracking step size"):
        session.step()
    with pytest.raises(NumericError, match=r"^agent 1, round 0: backtracking step size"):
        solve_local(scalar_chain, np.zeros((1, 1)), SolverConfig(method="msa"))


def test_solve_local_names_agent_and_round_of_a_non_finite_jacobian(scalar_chain):
    # The sweep's linearization fails in round 1 of solve_local, after the
    # first update has moved u off zero; the error names agent and round as
    # the session's sweep does.
    model = scalar_chain.model
    broken = replace(model, jac_fn=lambda X, U, k0: tuple(
        np.where(U != 0.0, np.nan, J) for J in model.jac_fn(X, U, k0)))
    with pytest.raises(NumericError, match=r"^agent 1, round 1: linear: non-finite Jacobian "
                                           r"at k=0$"):
        solve_local(replace(scalar_chain, model=broken), np.zeros((1, 1)), SolverConfig())


@pytest.mark.parametrize("method", ["ocp", "msa"])
def test_round_update_is_first_iterate_of_solve_local(method):
    # The round loop and solve_local run one update: a session's first round
    # moves every agent's window exactly where solve_local's first iterate
    # does on the same frozen-neighbor problem and starting controls.
    spec, session = leader_follower_session(
        [f"solver.method={method}", "solver.max_outer=1"])
    problems = session.local_problems()
    summary = session.step()
    assert summary["rounds"] == 1
    for i, (problem, u0) in problems.items():
        res = solve_local(problem, u0, spec.solver)
        assert len(res.history) == 2
        np.testing.assert_array_equal(session.last_window.controls[i].reshape(-1), res.history[1])


def test_local_problems_deliver_every_fresh_rollout_with_drops():
    # With message drops the round's exchange may hand an agent a stale
    # payload; the window snapshot delivers every neighbour's and the
    # leader's fresh rollout of the windows the next step starts from, and
    # gradcheck checks that snapshot's window.
    spec, session = preset_session("formation", ["mpc.drop_probability=0.5"])
    for _ in range(2):
        session.step()
    problems = session.local_problems()
    fresh = {i: dyn.rollout(p.model, [p.x0], u[None], p.k0)[0] for i, (p, u) in problems.items()}
    leader = dyn.rollout(spec.leader_model, [session.xl], np.zeros((1, spec.mpc.N_p, 0)), 2)[0]
    gradcheck, u = cli._window_problem(spec, 2, 2)
    for i, (problem, _) in [*problems.items(), (2, (gradcheck, u))]:
        assert (problem.i, problem.k0) == (i, 2)
        assert sorted(problem.nb.trajectories) == neighbors(spec.topology, i)
        for j, payload in problem.nb.trajectories.items():
            np.testing.assert_array_equal(payload, fresh[j])
        if i in spec.topology.leader_links:
            np.testing.assert_array_equal(problem.nb.leader, leader)
        else:
            assert problem.nb.leader is None
    np.testing.assert_array_equal(u, problems[2][1])
    np.testing.assert_array_equal(gradcheck.x0, problems[2][0].x0)


def test_local_problems_leave_the_run_unchanged():
    # The snapshot draws no drop and touches no held payload: a run that
    # takes it before every step equals one that does not, bit for bit.
    def run(snapshot):
        _, session = preset_session("formation", ["mpc.drop_probability=0.5", "mpc.T=4"])
        while session.t < session.mpc.T:
            if snapshot:
                rng, held = session.rng.bit_generator.state, dict(session.held)
                session.local_problems()
                assert session.rng.bit_generator.state == rng
                assert session.held.keys() == held.keys()
                assert all(session.held[k] is v for k, v in held.items())
            session.step()
        return session.result()

    a, b = run(False), run(True)
    for name in ("states", "controls"):
        for i in a.states:
            np.testing.assert_array_equal(getattr(a, name)[i], getattr(b, name)[i])
    for name in ("leader_states", "max_errors", "window_costs", "rounds", "converged"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_msa_group_round_costs_the_whole_table(monkeypatch):
    # The baseline's backtracking reads only its group's arrays: every
    # local_costs call of an msa group-round costs the group's K-row table,
    # the first one the J of all rows at the round's windows and rollouts,
    # and each trial the same arrays with one row's window and rollout
    # swapped in.
    spec, session = leader_follower_session(["solver.method=msa", "solver.max_outer=1"])
    [(_, agents, terms)] = session.groups
    us = session._initial_window()
    [trajs], [us] = session._rollouts(us), us
    real, calls = coordinator.local_costs, []

    def spy(table, X, U, bundles):
        out = real(table, X, U, bundles)
        calls.append((table, X, U, out))
        return out

    monkeypatch.setattr(coordinator, "local_costs", spy)
    assert session.step()["rounds"] == 1
    assert len(calls) > len(agents)
    assert all(table is terms and len(out) == len(agents) for table, _, _, out in calls)
    np.testing.assert_array_equal(calls[0][1], trajs)
    np.testing.assert_array_equal(calls[0][2], us)
    for _, X, U, _ in calls[1:]:
        swapped = (X != trajs).any(axis=(1, 2)) | (U != us).any(axis=(1, 2))
        assert np.count_nonzero(swapped) <= 1


def test_message_drops_deterministic_and_stale_reuse():
    spec = scenarios.load_preset("leader_follower",
                                 overrides=["mpc.T=6", "mpc.drop_probability=0.4"])

    def run(seed):
        s = scenarios.new_session(replace(spec, seed=seed))
        rounds = watch_exchange(s)
        return s.run(), stale_deliveries(rounds)

    (a, stale_a), (b, stale_b) = run(5), run(5)
    for i in sorted(a.states):
        np.testing.assert_array_equal(a.states[i], b.states[i])
    assert stale_a and stale_a == stale_b
    c, _ = run(6)
    assert any(not np.array_equal(a.states[i], c.states[i]) for i in a.states)
    # errors still head to zero despite drops
    assert c.max_errors[-1] < a.max_errors[0]


def test_drop_probability_zero_ignores_seed():
    top, spec, models = integrator_pair(q=2.0)
    mpc = MpcConfig(N_p=3, T=5, drop_probability=0.0)
    cfg = SolverConfig()
    a = Session(top, models, spec, cfg, mpc, {1: [1.0], 2: [0.0]}, seed=1).run()
    b = Session(top, models, spec, cfg, mpc, {1: [1.0], 2: [0.0]}, seed=99).run()
    np.testing.assert_array_equal(a.states[1], b.states[1])


def test_delivered_payloads_are_read_only_copies():
    spec = scenarios.load_preset("leader_follower",
                                 overrides=["mpc.T=3", "mpc.drop_probability=0.3"])
    session = scenarios.new_session(spec)
    rounds = watch_exchange(session)
    session.run()
    assert stale_deliveries(rounds)
    for trajs, leader_traj, deliveries in rounds:
        for i, j, payload in deliveries:
            assert not payload.flags.writeable
            with pytest.raises(ValueError):
                payload[0, 0] = 1.0
            assert not np.shares_memory(payload, leader_traj if j == 0 else trajs[j])


def test_stepwise_session_api():
    top, spec, models = integrator_pair(q=2.0)
    session = Session(top, models, spec, SolverConfig(),
                      MpcConfig(N_p=3, T=4), {1: [1.0], 2: [0.0]})
    info = session.step()
    assert info["t"] == 0 and info["rounds"] >= 1
    session.step()
    res = session.result()
    assert res.states[1].shape == (3, 1)   # two steps taken so far
    full = session.run()                   # completes the remaining steps
    assert full.states[1].shape == (5, 1)


@pytest.mark.parametrize("name, m", [("leader_follower", 1), ("agv_rendezvous", 2)])
def test_result_before_any_step(name, m):
    # A fresh session's result holds the initial states and no controls,
    # each agent's shaped (0, m).
    spec, session = preset_session(name)
    res = session.result()
    for i in session.order:
        assert res.controls[i].shape == (0, m)
        np.testing.assert_array_equal(res.states[i], [spec.initial_states[i]])
    assert (res.leader_states is None) == (spec.leader_model is None)
    assert res.max_errors.shape == (1,) and res.window_costs.shape == (0,)
    assert res.rounds.shape == (0,) and res.converged.shape == (0,)


def test_formation_offsets_reach_shape():
    spec = scenarios.load_preset("formation", overrides=["mpc.T=60"])
    res = scenarios.run_scenario(spec)
    # offset-corrected neighbor errors drop below 0.05 well within budget
    assert res.max_errors[-1] < 0.05
    assert (res.max_errors[20:] < 0.06).all()
    settled = scenarios.steps_to_threshold(res.max_errors, 0.05)
    assert settled is not None and settled <= 300


# -- model groups: stacking must not change a bit ---------------------------

def run_grouped(spec, models, out_dir):
    """Run spec's MPC session on ``models`` and write its artifacts; returns
    the session, the result and the stale deliveries it saw (payloads that
    differ from the sender's trajectory of that round)."""
    session = scenarios.new_session(replace(spec, models=models))
    exchange, stale = session._exchange, []

    def counted(trajs, leader_traj, r):
        bundles = exchange(trajs, leader_traj, r)
        stale.extend((i, j) for i, b in bundles.items()
                     for j, payload in b.trajectories.items()
                     if not np.array_equal(payload, trajs[j]))
        return bundles

    session._exchange = counted
    result = session.run()
    scenarios.emit_results(result, spec, out_dir)
    return session, result, stale


MIXED_DIAG = {"type": "linear_sine", "A": [[0.898, 0.056], [0.968, -0.084]],
              "B": [0.87, -1.8], "amp": 0.02, "mode": "diag"}


@pytest.mark.parametrize("name,overrides,groups", [
    # Drops make receivers reuse stale trajectories; only agent 1 has a
    # leader link.
    ("formation", ["mpc.T=6", "mpc.drop_probability=0.2", "seed=3"], [[1, 2, 3, 4]]),
    # Agent 1 has no neighbors, only the leader.
    ("leader_follower", ["mpc.T=8"], [[1, 2, 3, 4]]),
    # Agents 3 and 4 share a second model config: two groups.
    ("leader_follower", ["mpc.T=8", f"models.3={json.dumps(MIXED_DIAG)}",
                         f"models.4={json.dumps(MIXED_DIAG)}"], [[1, 2], [3, 4]]),
])
def test_shared_models_equal_groups_of_one(tmp_path, name, overrides, groups):
    spec = scenarios.load_preset(name, overrides=overrides)
    alone = {i: replace(model) for i, model in spec.models.items()}
    shared, a, stale_a = run_grouped(spec, spec.models, tmp_path / "shared")
    single, b, stale_b = run_grouped(spec, alone, tmp_path / "alone")
    assert [agents for _, agents, _ in shared.groups] == groups
    assert [agents for _, agents, _ in single.groups] == [[1], [2], [3], [4]]
    if spec.mpc.drop_probability > 0:
        assert stale_a
    assert stale_a == stale_b
    for i in sorted(a.states):
        np.testing.assert_array_equal(a.states[i], b.states[i])
        np.testing.assert_array_equal(a.controls[i], b.controls[i])
    for field_name in ("max_errors", "window_costs", "rounds", "converged"):
        np.testing.assert_array_equal(getattr(a, field_name), getattr(b, field_name))
    files = sorted(os.listdir(tmp_path / "shared"))
    assert files == sorted(os.listdir(tmp_path / "alone")) and len(files) == 4
    for f in files:
        assert (tmp_path / "shared" / f).read_bytes() == (tmp_path / "alone" / f).read_bytes()


def test_one_shot_stop_rule_runs_before_the_hessians(monkeypatch, scalar_chain):
    # The gradient stop rule is tested after the round's sweeps, so the
    # converged round builds no Hessian: the one-shot scalar chain stops at
    # round 7 after 7 rounds x 2 agents of updates, one regularize call per
    # model group and round, and so does every solve_local iteration count.
    calls = []
    regularize = coordinator.regularize

    def counted(*args):
        calls.append(args)
        return regularize(*args)

    monkeypatch.setattr(coordinator, "regularize", counted)
    spec = scenarios.load_preset("scalar_chain")
    res = scenarios.run_scenario(spec)
    assert res.converged and res.rounds == 7
    groups = len({id(model) for model in spec.models.values()})
    assert len(calls) == res.rounds * groups
    assert sum(len(Hs) for Hs, _ in calls) == res.rounds * spec.topology.n == 14
    calls.clear()
    local = solve_local(scalar_chain, np.zeros((1, 1)), SolverConfig(eps=1e-12))
    assert local.converged and local.iterations >= 1
    assert len(calls) == local.iterations


def count_direction_calls(monkeypatch, models):
    """Step the leader_follower preset once with ``models``; returns (rounds,
    ocp_direction calls, regularize calls)."""
    calls = {"ocp_direction": 0, "regularize": 0}
    for name in calls:
        def counted(*args, _fn=getattr(coordinator, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(coordinator, name, counted)
    spec = scenarios.load_preset("leader_follower")
    session = scenarios.new_session(replace(spec, models=models(spec.models)))
    return session.step()["rounds"], calls["ocp_direction"], calls["regularize"]


def test_one_direction_per_group_and_round(monkeypatch):
    # A model group's Newton directions are one ocp_direction call on its
    # stack, and so are its regularized Hessians.
    n = scenarios.load_preset("leader_follower").topology.n
    rounds, directions, regularized = count_direction_calls(monkeypatch, dict)
    assert rounds > 1
    assert directions == regularized == rounds
    monkeypatch.undo()
    rounds, directions, regularized = count_direction_calls(
        monkeypatch, lambda models: {i: replace(m) for i, m in models.items()})
    assert directions == regularized == n * rounds


def test_numeric_failure_names_the_agent_and_round(monkeypatch):
    # Agents 1-3 form a 3-stack; a Hessian that is not positive definite in
    # its middle row (agent 2) fails in the first round.
    spec = scenarios.load_preset("leader_follower", overrides=[
        "mpc.T=2", f"models.4={json.dumps(MIXED_DIAG)}"])
    session = scenarios.new_session(spec)
    assert [agents for _, agents, _ in session.groups] == [[1, 2, 3], [4]]
    calls = []

    def indefinite_second(Hs, floor):
        calls.append(Hs)
        if len(calls) == 1:
            Hs = Hs.copy()
            Hs[1] = -3.0 * spec.solver.c * np.eye(Hs.shape[1])
        return Hs

    monkeypatch.setattr(coordinator, "regularize", indefinite_second)
    with pytest.raises(NumericError, match=r"^agent 2, round 0: G \+ H is not "
                                           r"positive definite: 1-th leading minor"):
        session.step()


def test_overflowing_shift_names_the_agent_and_round(monkeypatch):
    # A finite Hessian whose regularizing shift overflows (agent 3's, the
    # last row of the 3-stack, at round 1) is refused by regularize, so
    # ocp_direction never reads it and the round names the agent.
    spec = scenarios.load_preset("leader_follower", overrides=[
        "mpc.T=2", f"models.4={json.dumps(MIXED_DIAG)}"])
    session = scenarios.new_session(spec)
    real, calls = adjoint.hessian, []

    def overflowing_second(blocks, B, band):
        Hs = real(blocks, B, band)
        calls.append(len(Hs))
        if len(calls) == 3:  # round 1's first group
            Hs[2] = np.diag(np.r_[1e308, np.full(Hs.shape[1] - 1, -1e308)])
        return Hs

    monkeypatch.setattr(adjoint, "hessian", overflowing_second)
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^agent 3, round 1: non-finite Hessian$"):
        session.step()
    assert calls == [3, 1, 3]


@pytest.mark.parametrize("name, overrides", [
    ("leader_follower", []), ("agv_rendezvous", []), ("scalar_chain", []),
    ("leader_follower", ["mpc.N_p=64"])],
    ids=["leader_follower", "agv_rendezvous", "scalar_chain", "leader_follower-N_p=64"])
def test_stepped_states_are_stage_one_of_the_final_rollouts(name, overrides):
    # Session.step applies each window's first controls through dyn.step,
    # once per model group and once for the leader; stage 1 of the window's
    # final rollouts is that same state, bit for bit, for the agents and the
    # leader alike.  scalar_chain, a one-shot preset, runs 4-stage windows.
    # At N_p=64 the rounds r >= 1 roll out by Newton, the window's last
    # rollout included, and stage 1 is still the stage loop's bit for bit.
    spec = scenarios.load_preset(name, overrides=overrides)
    session = scenarios.new_session(spec if spec.mpc else replace(spec, horizon=4))
    for _ in range(3):
        session.step()
        window = session.last_window
        for i in session.order:
            np.testing.assert_array_equal(window.trajectories[i][1], session.x[i])
            np.testing.assert_array_equal(np.signbit(window.trajectories[i][1]),
                                          np.signbit(session.x[i]))
        if name == "leader_follower":
            np.testing.assert_array_equal(window.leader_trajectory[1], session.xl)
            np.testing.assert_array_equal(np.signbit(window.leader_trajectory[1]),
                                          np.signbit(session.xl))
    assert (session.xl is None) == (name != "leader_follower")


def test_newton_rollouts_keep_the_stage_loops_round_counts(monkeypatch):
    # The tracking_long shape: leader_follower with 64-stage windows, whose
    # rounds r >= 1 roll out by Newton on the stage defects, the rollout of
    # the window's result included.  With the switch out of reach every
    # rollout is the stage loop's; each window takes the same rounds either
    # way and the final errors agree to rounding.
    newton, calls = adjoint.newton_rollout, []

    def counted(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(adjoint, "newton_rollout", counted)
    results, newton_calls = [], []
    for min_h in (adjoint.NEWTON_MIN_H, 10 ** 9):
        monkeypatch.setattr(adjoint, "NEWTON_MIN_H", min_h)
        _, session = leader_follower_session(["mpc.N_p=64", "mpc.T=6"])
        results.append(session.run())
        newton_calls.append(len(calls))
        calls.clear()
    # One group: each of a window's updates is followed by one Newton
    # rollout, the last of them the window's result.
    assert newton_calls == [results[0].rounds.sum(), 0]
    assert newton_calls[0] > 0
    np.testing.assert_array_equal(results[0].rounds, results[1].rounds)
    assert results[0].converged.all() and results[1].converged.all()
    np.testing.assert_allclose(results[0].max_errors, results[1].max_errors, rtol=1e-10)


def test_long_windows_linearize_about_once_per_group_round(monkeypatch):
    # The tracking_long shape (leader_follower, N_p=64, 30 steps): the sweep
    # linearizes once per group-round, and the Newton rollouts, started from
    # the update's predicted states, relinearize only in the cold window 0,
    # whose large steps contract by less than NEWTON_THETA.  The counts are
    # exact; the stage loop's rollouts made 531 calls for the same rounds.
    linearize, calls = dyn.linearize, []
    update, group_rounds = coordinator._round_update, []

    def counted_linearize(*args):
        calls.append(args[3])
        return linearize(*args)

    def counted_update(*args):
        group_rounds.append(args[1])
        return update(*args)

    monkeypatch.setattr(dyn, "linearize", counted_linearize)
    monkeypatch.setattr(coordinator, "_round_update", counted_update)
    _, session = leader_follower_session(["mpc.N_p=64"])
    result = session.run()
    assert result.converged.all()
    assert len(group_rounds) == result.rounds.sum() == 183
    assert len(calls) == 197 and len(calls) / len(group_rounds) < 1.2
    assert calls.count(0) == group_rounds.count(0) + 14
    assert [k for k in calls if k] == [k for k in group_rounds if k]


def spy_known_stages(monkeypatch):
    """Each dyn.rollout call's ``known`` stages (None for a full rollout)."""
    rollout, calls = dyn.rollout, []

    def spy(*args, **kwargs):
        calls.append(args[4] if len(args) > 4 else kwargs.get("known"))
        return rollout(*args, **kwargs)

    monkeypatch.setattr(dyn, "rollout", spy)
    return calls


@pytest.mark.parametrize("name", ["formation", "leader_follower"])
def test_warm_round_zero_rollouts_equal_fresh_ones(monkeypatch, name):
    # A warm window's round 0 continues the last window's final rollouts,
    # shifted by one stage plus one new stage, and so does the leader's
    # window; both equal full rollouts from the current states bit for bit.
    spec, session = preset_session(name)
    rollout, H = dyn.rollout, spec.mpc.N_p
    calls = spy_known_stages(monkeypatch)
    seen, exchange = [], session._exchange

    def round_zero(trajs, leader_traj, r):
        if r == 0:
            seen.append((trajs, leader_traj))
        return exchange(trajs, leader_traj, r)

    monkeypatch.setattr(session, "_exchange", round_zero)
    for step in range(3):
        u0 = session._by_agent(session._initial_window())
        x, xl, t = dict(session.x), session.xl, session.t
        calls.clear()
        session.step()
        shifted = [k for k in calls if k is not None]
        assert len(shifted) == (0 if step == 0 else len(session.groups) + 1)
        assert all(np.shape(k)[1] == H - 1 for k in shifted)
        trajs, leader_traj = seen[-1]
        for i, traj in trajs.items():
            np.testing.assert_array_equal(
                traj, rollout(spec.models[i], [x[i]], u0[i][None], t)[0])
        np.testing.assert_array_equal(
            leader_traj, rollout(spec.leader_model, [xl], np.zeros((1, H, 0)), t)[0])


def test_cold_windows_take_full_rollouts(monkeypatch):
    spec, session = leader_follower_session(["mpc.warm_start=false"])
    calls = spy_known_stages(monkeypatch)
    for _ in range(2):
        session.step()
    assert calls and all(k is None for k in calls)


def test_non_finite_new_stage_fails_like_a_fresh_rollout():
    # The model blows up from k = N_p on: the first window never steps
    # there, and the second fails at its new last stage with the message a
    # full rollout of the same window gives, named by agent and round as
    # every round error is.
    spec = scenarios.load_preset("leader_follower")
    H, model = spec.mpc.N_p, spec.models[1]

    def blows_up(x, u, k):
        out = model.step_fn(x, u, k)
        return np.full_like(out, np.inf) if k >= H else out

    broken = replace(model, step_fn=blows_up)
    _, session = preset_session("leader_follower", models={i: broken for i in spec.models})
    session.step()
    u0 = session._by_agent(session._initial_window())
    with pytest.raises(NumericError) as fresh:
        dyn.rollout(broken, [session.x[1]], u0[1][None], session.t)
    with pytest.raises(NumericError) as warm:
        session.step()
    assert str(warm.value) == f"agent 1, round 0: {fresh.value}"
    assert str(fresh.value) == (f"rollout failed at step {H - 1}: {model.name}: "
                                f"non-finite state at k={session.t + H - 1}")


def test_non_finite_new_stage_fails_like_a_fresh_rollout_on_unicycles():
    # The same on the formation preset, whose unicycles roll out whole
    # windows by running sums: the replaced step function carries no window
    # function, so every stage goes through it and a fresh rollout fails too.
    spec = scenarios.load_preset("formation")
    H, model = spec.mpc.N_p, spec.models[1]
    assert hasattr(model.step_fn, "window")

    def blows_up(x, u, k):
        out = model.step_fn(x, u, k)
        return np.full_like(out, np.inf) if k >= H else out

    broken = replace(model, step_fn=blows_up)
    _, session = preset_session("formation", models={i: broken for i in spec.models})
    session.step()
    u0 = session._by_agent(session._initial_window())
    with pytest.raises(NumericError) as fresh:
        dyn.rollout(broken, [session.x[1]], u0[1][None], session.t)
    with pytest.raises(NumericError) as warm:
        session.step()
    assert str(warm.value) == f"agent 1, round 0: {fresh.value}"
    assert str(fresh.value) == (f"rollout failed at step {H - 1}: {model.name}: "
                                f"non-finite state at k={session.t + H - 1}")
