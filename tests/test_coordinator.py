import numpy as np
import pytest

from optcons import CostSpec, Topology
from optcons.coordinator import (MpcConfig, RoundMessage, Session,
                                 consensus_error, run_algorithm1,
                                 run_mpc_leader_follower, run_mpc_leaderless,
                                 solve_local)
from optcons import dynamics as dyn
from optcons.errors import ConfigError, PreconditionError
from optcons.solver import LocalProblem, SolverConfig
from optcons import coordinator, scenarios

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
    res = run_algorithm1(top, models, spec, SolverConfig(eps_grad=1e-10),
                         horizon=5, initial_states={1: [1.0], 2: [-1.0]})
    assert res.converged
    np.testing.assert_array_equal(res.controls[1], -res.controls[2])
    np.testing.assert_array_equal(res.trajectories[1], -res.trajectories[2])


def test_algorithm1_global_cost_decreases_on_agv_instance():
    spec = scenarios.load_preset("agv_rendezvous")
    cfg = SolverConfig(c=2.0, eps_grad=1e-6, max_outer=50)
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
    res = run_mpc_leaderless(top, models, spec, SolverConfig(),
                             mpc, {1: [3.0], 2: [3.0]})
    for i in (1, 2):
        np.testing.assert_array_equal(res.controls[i], np.zeros((5, 1)))
    np.testing.assert_array_equal(res.max_errors, np.zeros(6))
    assert res.converged.all() and (res.rounds == 1).all()


def test_mpc_integrators_reach_consensus_with_monotone_window_costs():
    top, spec, models = integrator_pair(q=4.0, r=1.0)
    mpc = MpcConfig(N_p=5, T=25)
    res = run_mpc_leaderless(top, models, spec,
                             SolverConfig(eps_step=1e-8),
                             mpc, {1: [1.0], 2: [-1.0]})
    assert res.max_errors[-1] < 1e-3
    for a, b in zip(res.window_costs, res.window_costs[1:]):
        assert b <= a * (1 + 1e-6) + 1e-12


def test_run_result_history_lengths():
    top, spec, models = integrator_pair()
    mpc = MpcConfig(N_p=3, T=7)
    res = run_mpc_leaderless(top, models, spec, SolverConfig(),
                             mpc, {1: [1.0], 2: [0.0]})
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
    res = run_mpc_leader_follower(top, models, leader, spec,
                                  SolverConfig(), mpc,
                                  {i: x0.copy() for i in range(1, 5)}, x0)
    for i in range(1, 5):
        np.testing.assert_array_equal(res.controls[i], np.zeros((6, 1)))
        np.testing.assert_array_equal(res.states[i], res.leader_states)
    np.testing.assert_array_equal(res.max_errors, np.zeros(7))


def test_leader_follower_requires_leader_data():
    top, spec, models, leader = leader_chain_setup()
    with pytest.raises(ConfigError, match="leader"):
        run_mpc_leader_follower(top, models, None, spec,
                                SolverConfig(), MpcConfig(N_p=3, T=2),
                                {i: [0.0, 0.0] for i in range(1, 5)}, None)


def test_leader_follower_requires_spanning_tree():
    # agent 4 unreachable from the leader
    top = Topology.from_edge_list(4, [[2, 1, 1.0], [3, 2, 1.0]], leader_links=[1])
    spec = CostSpec.uniform(top, p=2, q=1.0, r=1.0, w=1.0)
    follower = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    leader = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B)
    with pytest.raises(PreconditionError, match="spanning tree"):
        run_mpc_leader_follower(top, {i: follower for i in range(1, 5)}, leader,
                                spec, SolverConfig(),
                                MpcConfig(N_p=3, T=2),
                                {i: [0.0, 0.0] for i in range(1, 5)}, [0.0, 0.0])


def test_unified_reduction_leaderless_equals_leader_runner_bitwise():
    top, spec, models = integrator_pair(q=3.0, r=0.5)
    mpc = MpcConfig(N_p=4, T=10)
    cfg = SolverConfig(eps_step=1e-7)
    states = {1: [1.0], 2: [-2.0]}
    a = run_mpc_leaderless(top, models, spec, cfg, mpc, states, seed=3)
    b = run_mpc_leader_follower(top, models, None, spec, cfg, mpc, states,
                                None, seed=3)
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
        session = Session(spec.topology, spec.models, spec.cost, spec.solver,
                          spec.mpc, spec.initial_states,
                          leader_model=spec.leader_model,
                          leader_x0=spec.leader_x0, seed=spec.seed)
        if reverse:
            session.order.reverse()
        runs[reverse] = session.run()
    a, b = runs[False], runs[True]
    for i in sorted(a.states):
        np.testing.assert_array_equal(a.states[i], b.states[i])
        np.testing.assert_array_equal(a.controls[i], b.controls[i])
    np.testing.assert_array_equal(a.window_costs, b.window_costs)
    np.testing.assert_array_equal(a.rounds, b.rounds)


def test_protocol_locality_instrumented():
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=3"])
    session = Session(spec.topology, spec.models, spec.cost, spec.solver,
                      spec.mpc, spec.initial_states,
                      leader_model=spec.leader_model, leader_x0=spec.leader_x0,
                      record_messages=True)
    session.run()
    allowed = set(spec.topology.edges) | {(i, 0) for i in spec.topology.leader_links}
    seen = {(rcv, snd) for (_, _, rcv, snd) in session.message_log}
    assert seen  # something was exchanged
    assert seen <= allowed


def leader_follower_session(overrides=()):
    spec = scenarios.load_preset("leader_follower", overrides=list(overrides))
    return spec, Session(spec.topology, spec.models, spec.cost, spec.solver,
                         spec.mpc, spec.initial_states,
                         leader_model=spec.leader_model, leader_x0=spec.leader_x0)


def test_one_linearization_per_update(monkeypatch):
    # One window-level linearization and one window-level curvature call per
    # agent update, each covering the update's N_p stages.
    spec, session = leader_follower_session()
    calls = {"linearize": [], "second_order_action": []}
    for name, seen in calls.items():
        def counted(model, X, *args, _fn=getattr(dyn, name), _seen=seen):
            _seen.append(len(X))
            return _fn(model, X, *args)
        monkeypatch.setattr(dyn, name, counted)
    summary = session.step()
    assert summary["rounds"] > 1
    for seen in calls.values():
        assert seen == [spec.mpc.N_p] * (summary["rounds"] * spec.topology.n)


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
    # Every rollout of an msa step is a round broadcast, the window's single
    # leader rollout, a backtracking trial or the final window rollout; the
    # cost at the current controls comes from the broadcast rollout.
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
    n = spec.topology.n
    assert summary["rounds"] > 1
    assert len(rollouts) == summary["rounds"] * n + 1 + len(trials) + n


@pytest.mark.parametrize("method", ["ocp", "msa"])
def test_round_update_is_first_iterate_of_solve_local(method):
    # The round loop and solve_local run one update: a session's first round
    # moves every agent's window exactly where solve_local's first iterate
    # does on the same frozen-neighbor problem and starting controls.
    spec, session = leader_follower_session(
        [f"solver.method={method}", "solver.max_outer=1"])
    u0 = session._initial_window()
    _, bundles = session._broadcast(u0, session._leader_window(), 0)
    problems = {i: LocalProblem(i, spec.models[i], session.x[i], bundles[i],
                                spec.cost, session.t) for i in session.order}
    summary = session.step()
    assert summary["rounds"] == 1
    for i, problem in problems.items():
        res = solve_local(problem, u0[i], spec.solver)
        assert len(res.history) == 2
        np.testing.assert_array_equal(session.u_prev[i].reshape(-1), res.history[1])


def test_message_drops_deterministic_and_stale_reuse():
    spec = scenarios.load_preset("leader_follower",
                                 overrides=["mpc.T=6", "mpc.drop_probability=0.4"])

    def run(seed):
        s = Session(spec.topology, spec.models, spec.cost, spec.solver,
                    spec.mpc, spec.initial_states,
                    leader_model=spec.leader_model, leader_x0=spec.leader_x0,
                    seed=seed, record_messages=True)
        return s.run(), s

    (a, sa), (b, sb) = run(5), run(5)
    for i in sorted(a.states):
        np.testing.assert_array_equal(a.states[i], b.states[i])
    assert sa.message_log == sb.message_log
    (c, sc), _ = run(6), None
    assert any(not np.array_equal(a.states[i], c.states[i]) for i in a.states)
    # errors still head to zero despite drops
    assert c.max_errors[-1] < a.max_errors[0]


def test_drop_probability_zero_ignores_seed():
    top, spec, models = integrator_pair(q=2.0)
    mpc = MpcConfig(N_p=3, T=5, drop_probability=0.0)
    cfg = SolverConfig()
    a = run_mpc_leaderless(top, models, spec, cfg, mpc, {1: [1.0], 2: [0.0]}, seed=1)
    b = run_mpc_leaderless(top, models, spec, cfg, mpc, {1: [1.0], 2: [0.0]}, seed=99)
    np.testing.assert_array_equal(a.states[1], b.states[1])


def test_round_message_immutable_payload():
    msg = RoundMessage(1, 0, 0, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        msg.payload[0, 0] = 1.0


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


def test_formation_offsets_reach_shape():
    spec = scenarios.load_preset("formation", overrides=["mpc.T=60"])
    res = scenarios.run_scenario(spec)
    # offset-corrected neighbor errors drop below 0.05 well within budget
    assert res.max_errors[-1] < 0.05
    assert (res.max_errors[20:] < 0.06).all()
    settled = scenarios.steps_to_threshold(res.max_errors, 0.05)
    assert settled is not None and settled <= 300
