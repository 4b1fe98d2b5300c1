"""The closed-loop monitors against per-pair and per-term oracles.

The deviations and ``consensus_error`` (one stacked ``edge_errors`` call
over an edge table) must equal a per-edge ``np.linalg.norm`` loop bit for bit,
and ``local_costs``/``global_cost`` (three stacked products) must equal a
per-term loop.  The oracles below are the loops that the stacked forms
replaced, kept here as they were.  Bitwise means equal bytes, so a
signed zero that flips sign fails too.
"""

from dataclasses import replace

import numpy as np
import pytest

from optcons import CostSpec, Topology, scenarios
from optcons.coordinator import consensus_error, edge_errors, edge_table
from optcons.cost import NeighborBundle, local_costs, local_errors, global_cost
from optcons.graph import LEADER, neighbors

from conftest import random_psd, random_spd


def assert_bitwise(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# -- oracles ------------------------------------------------------------------

def deviations_oracle(states, topology, offsets=None, leader_state=None):
    offsets = offsets or {}

    def z(idx, x):
        d = offsets.get(idx)
        return np.asarray(x, dtype=float) if d is None else np.asarray(x, dtype=float) - d

    out = {f"{i}-{j}": z(i, states[i]) - z(j, states[j])
           for (i, j) in sorted(topology.edges)}
    if leader_state is not None:
        zl = z(LEADER, leader_state)
        for i in sorted(topology.leader_links):
            out[f"{i}-l"] = z(i, states[i]) - zl
    return out


def consensus_error_oracle(states, topology, offsets=None, mask=None, leader_state=None):
    errors = {pair: float(np.linalg.norm(dev if mask is None else dev[list(mask)]))
              for pair, dev in deviations_oracle(states, topology, offsets,
                                                 leader_state).items()}
    return errors, (max(errors.values()) if errors else 0.0)


def local_costs_oracle(terms, trajs, us, bundles):
    H = us.shape[1]
    totals = [0.0] * len(terms.agents)
    for a, e, Q, D in zip(terms.rows, local_errors(terms, trajs, us, bundles),
                          terms.Q, terms.D):
        totals[a] += float(np.einsum("tp,pq,tq->", e[:H], Q, e[:H]))
        totals[a] += float(e[H] @ D @ e[H])
    return [max(0.5 * (total + float(np.einsum("tp,pq,tq->", u, R, u))), 0.0)
            for total, u, R in zip(totals, us, terms.R)]


def global_cost_oracle(tables, trajectories, controls, topology, leader_traj=None):
    costs = {}
    for terms in tables:
        bundles = [NeighborBundle({j: trajectories[j] for j in neighbors(topology, i)},
                                  leader=leader_traj) for i in terms.agents]
        costs.update(zip(terms.agents, local_costs_oracle(
            terms, np.array([trajectories[i] for i in terms.agents]),
            np.array([controls[i] for i in terms.agents]), bundles)))
    return sum(costs[i] for i in range(1, topology.n + 1))


# -- random instances ---------------------------------------------------------

def random_topology(rng, n, leader):
    edges = {(i, i % n + 1) for i in range(1, n + 1)}            # a ring
    edges |= {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
              if i != j and rng.random() < 0.4}
    links = ([i for i in range(1, n + 1) if rng.random() < 0.5] or [1]) if leader else []
    return Topology(n=n, edges=frozenset(edges), leader_links=frozenset(links))


def signed_zero_states(rng, n, p):
    """States with exact ties and signed zeros, so that deviations are -0.0
    or +0.0 depending on the operands' order."""
    pool = np.array([0.0, -0.0, 1.5, -1.5, 1e-300, 3.0])
    return {i: np.where(rng.random(p) < 0.5, rng.choice(pool, p), rng.normal(size=p))
            for i in range(1, n + 1)}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("leader", [False, True])
def test_consensus_error_equals_per_edge_norms_bitwise(p, leader):
    rng = np.random.default_rng(10 * p + leader)
    masks = [None, [0], [p - 1, 0], list(range(p)), [True] * p]
    for trial in range(40):
        n = int(rng.integers(2, 6))
        top = random_topology(rng, n, leader)
        states = signed_zero_states(rng, n, p)
        leader_state = signed_zero_states(rng, 1, p)[1] if leader else None
        # Offsets for some agents and, half the time, for the leader.
        offsets = {i: rng.choice([0.0, -0.0, 1.5], p) if trial % 3 else rng.normal(size=p)
                   for i in range(1, n + 1) if rng.random() < 0.6}
        if rng.random() < 0.5:
            offsets[LEADER] = rng.normal(size=p)
        want = deviations_oracle(states, top, offsets, leader_state)
        table = edge_table(top, p, offsets, leader=leader_state is not None)
        got = dict(zip(table.pairs, edge_errors(table, states, leader_state)[0]))
        assert list(got) == list(want)
        for pair in want:
            assert_bitwise(got[pair], want[pair])
        for mask in masks:
            errs, mx = consensus_error(states, top, offsets, mask, leader_state)
            want_errs, want_mx = consensus_error_oracle(states, top, offsets, mask,
                                                        leader_state)
            assert list(errs) == list(want_errs)
            assert_bitwise(list(errs.values()), list(want_errs.values()))
            assert_bitwise(mx, want_mx)


def test_session_max_errors_equal_per_edge_norms():
    # Formation: leader links, offsets and a position mask.
    spec = scenarios.load_preset("formation", overrides=["mpc.T=3"])
    res = scenarios.run_scenario(spec)
    for t, mx in enumerate(res.max_errors):
        states = {i: x[t] for i, x in res.states.items()}
        _, want = consensus_error_oracle(states, spec.topology, spec.cost.offsets,
                                         spec.error_mask, res.leader_states[t])
        assert_bitwise(mx, want)


def error_rows_oracle(states, leader, spec):
    """The per-step errors.csv rows: consensus_error, then deviations."""
    steps, p = states[1].shape
    rows = []
    for t in range(steps):
        states_t = {i: x[t] for i, x in sorted(states.items())}
        leader_state = None if leader is None else leader[t]
        errs, _ = consensus_error_oracle(states_t, spec.topology, spec.cost.offsets,
                                         mask=spec.error_mask, leader_state=leader_state)
        devs = deviations_oracle(states_t, spec.topology, spec.cost.offsets, leader_state)
        for pair in sorted(errs):
            rows.append([str(t), pair, repr(errs[pair])]
                        + [repr(float(v)) for v in np.abs(devs[pair])])
    return rows


@pytest.mark.parametrize("name", ["formation", "agv_rendezvous", "scalar_chain"])
def test_error_rows_equal_per_step_oracle(name):
    spec = scenarios.load_preset(name)
    rng = np.random.default_rng(5)
    steps, p = 4, len(spec.initial_states[1])
    states = {i: rng.normal(size=(steps, p)) for i in spec.initial_states}
    states[1][1] = -0.0
    leader = rng.normal(size=(steps, p)) if spec.leader_model is not None else None
    _, rows = scenarios._error_rows(states, leader, spec)
    assert rows == error_rows_oracle(states, leader, spec)


def test_error_rows_keep_string_order_past_nine_agents():
    # Agents 10 and 11 make "10-11" sort before "2-3", as the pair strings do.
    spec = scenarios.load_preset("agv_rendezvous")
    n = 11
    top = Topology(n=n, edges=frozenset({(i, i % n + 1) for i in range(1, n + 1)}))
    spec = replace(spec, topology=top)
    rng = np.random.default_rng(6)
    states = {i: rng.normal(size=(3, 3)) for i in range(1, n + 1)}
    _, rows = scenarios._error_rows(states, None, spec)
    assert rows == error_rows_oracle(states, None, spec)
    assert [row[1] for row in rows[:3]] == ["1-2", "10-11", "11-1"]


# -- window cost ----------------------------------------------------------------

# Bit for bit everywhere except where a stage or control form has one stage
# of width two (H = 1 with p = 2, or H = 1 with m = 2): there numpy's einsum
# adds the stacked form's products in another order, a last-bit difference.
# No shipped preset or workload has that shape (scalar_chain is H = 1 with
# p = m = 1).
def bitwise_shape(H, p, ms):
    return not (H == 1 and (p == 2 or 2 in ms))


def random_groups_instance(rng, H, p, leader):
    """Four agents in two model groups of control sizes 1 and 2, random PSD
    weights (some stage-only or terminal-only terms), offsets, a leader."""
    n = 4
    top = random_topology(rng, n, leader)
    m = {1: 1, 2: 2, 3: 1, 4: 2}
    Q, D = {}, {}
    for edge in sorted(top.edges):
        kind = rng.integers(3)
        if kind != 1:
            Q[edge] = random_psd(rng, p)
        if kind != 2:
            D[edge] = random_psd(rng, p)
    W = {i: random_psd(rng, p) for i in top.leader_links}
    E = {i: random_psd(rng, p) for i in top.leader_links if rng.random() < 0.5}
    R = {i: random_spd(rng, m[i]) for i in range(1, n + 1)}
    offsets = {i: rng.normal(size=p) for i in range(0, n + 1) if rng.random() < 0.5}
    spec = CostSpec(Q=Q, R=R, D=D, W=W, E=E, offsets=offsets)
    trajs = {i: rng.normal(size=(H + 1, p)) for i in range(1, n + 1)}
    controls = {i: rng.normal(size=(H, m[i])) for i in range(1, n + 1)}
    leader_traj = rng.normal(size=(H + 1, p)) if leader else None
    tables = [spec.group_terms([1, 3], p), spec.group_terms([2, 4], p)]
    return top, tables, trajs, controls, leader_traj


@pytest.mark.parametrize("H", [1, 2, 8, 64])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_window_costs_equal_per_term_loop(H, p):
    rng = np.random.default_rng(100 * H + p)
    for trial in range(6):
        top, tables, trajs, controls, leader_traj = random_groups_instance(
            rng, H, p, leader=trial % 2 == 1)
        for terms in tables:
            args = (terms, np.array([trajs[i] for i in terms.agents]),
                    np.array([controls[i] for i in terms.agents]),
                    [NeighborBundle({j: trajs[j] for j in neighbors(top, i)},
                                    leader=leader_traj) for i in terms.agents])
            got, want = local_costs(*args), local_costs_oracle(*args)
            if bitwise_shape(H, p, [terms.R.shape[1]]):
                assert_bitwise(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14)
        got = global_cost(tables, trajs, controls, top, leader_traj)
        want = global_cost_oracle(tables, trajs, controls, top, leader_traj)
        if bitwise_shape(H, p, [1, 2]):
            assert_bitwise(got, want)
        else:
            assert got == pytest.approx(want, rel=1e-14)


def test_global_cost_needs_the_leader_trajectory():
    rng = np.random.default_rng(7)
    top, tables, trajs, controls, _ = random_groups_instance(rng, 3, 2, leader=True)
    with pytest.raises(ValueError, match="no leader trajectory"):
        global_cost(tables, trajs, controls, top)


def test_step_window_costs_equal_per_term_loop():
    spec = scenarios.load_preset("leader_follower", overrides=["mpc.T=3"])
    session = scenarios.new_session(spec)
    for _ in range(3):
        summary = session.step()
        window = session.last_window
        want = global_cost_oracle([terms for *_, terms in session.groups],
                                  window.trajectories, window.controls, spec.topology,
                                  window.leader_trajectory)
        assert_bitwise(summary["window_cost"], want)
