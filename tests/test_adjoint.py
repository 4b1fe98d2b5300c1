import dataclasses
import re

import numpy as np
import pytest

from optcons import CostSpec, Topology, adjoint
from optcons.cost import NeighborBundle, local_cost, local_errors
from optcons import dynamics as dyn
from optcons.errors import NumericError
from optcons.graph import LEADER
from optcons.coordinator import _round_update
from optcons.solver import SolverConfig, banded_pays, sweep

from conftest import (model_hessian, mutual_pair_topology, random_instance, random_psd,
                      random_spd)


def scalar_chain_pieces():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, d=1.0)
    model = dyn.linear([[1.0]], [[1.0]])
    nb = NeighborBundle({2: np.zeros((2, 1))})
    return model, spec, nb


def table(spec, p, agents=(1,)):
    """The stack's cost-term table: agent 1 alone unless ``agents`` says."""
    return spec.group_terms(list(agents), p)


def test_costate_hand_sweep():
    model, spec, nb = scalar_chain_pieces()
    terms = table(spec, 1)
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
    np.testing.assert_allclose(lam.ravel(), [2.0, 1.0])


def test_costate_zero_at_consensus():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=4.0, r=1.0, d=0.0, control_dims={1: 2, 2: 2})
    model = dyn.linear(np.eye(2), np.eye(2))
    traj = np.tile([0.3, -0.7], (1, 4, 1))
    nb = NeighborBundle({2: traj[0].copy()})
    u = np.zeros((1, 3, 2))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(table(spec, 2), traj, u, jac, [nb])
    np.testing.assert_array_equal(lam, np.zeros((1, 4, 2)))


def test_costate_leader_mode_on_leader_trajectory():
    top = Topology.from_edge_list(2, [[2, 1, 1.0]], leader_links=[1])
    spec = CostSpec(Q={}, R={1: np.eye(1)}, W={1: 5.0 * np.eye(2)}, E={})
    model = dyn.linear(np.eye(2), np.array([[1.0], [0.0]]))
    traj = np.tile([1.0, 2.0], (1, 3, 1))
    nb = NeighborBundle({}, leader=traj[0].copy())
    u = np.zeros((1, 2, 1))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(table(spec, 2), traj, u, jac, [nb])
    np.testing.assert_array_equal(lam, np.zeros((1, 3, 2)))


def test_gradient_hand_values():
    model, spec, nb = scalar_chain_pieces()
    terms = table(spec, 1)
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
    g = adjoint.gradient(terms, u, jac, lam)
    np.testing.assert_allclose(g, [[1.0]])

    u_star = np.array([[[-0.5]]])
    traj = dyn.rollout(model, [[1.0]], u_star)
    jac = adjoint.linearize_window(model, traj, u_star)
    lam = adjoint.costate_sweep(terms, traj, u_star, jac, [nb])
    g = adjoint.gradient(terms, u_star, jac, lam)
    np.testing.assert_allclose(g, [[0.0]], atol=1e-15)


def test_gradient_zero_when_stationary_sources_vanish():
    model, spec, nb = scalar_chain_pieces()
    terms = table(spec, 1)
    u = np.zeros((1, 3, 1))
    traj = np.zeros((1, 4, 1))
    nb0 = NeighborBundle({2: np.zeros((4, 1))})
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(terms, traj, u, jac, [nb0])
    g = adjoint.gradient(terms, u, jac, lam)
    np.testing.assert_array_equal(g, np.zeros((1, 3)))


def test_hessian_hand_value():
    model, spec, nb = scalar_chain_pieces()
    terms = table(spec, 1)
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
    H = model_hessian(terms, model, traj, u, jac, lam)
    np.testing.assert_allclose(H, [[[2.0]]])


def test_hessian_constant_for_lq():
    rng = np.random.default_rng(8)
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=1.5, r=0.7, d=0.9, control_dims={1: 2, 2: 2})
    model = dyn.linear(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    nb = NeighborBundle({2: rng.normal(size=(5, 2))})
    x0 = rng.normal(size=2)
    terms = table(spec, 2)
    H_at = {}
    for trial in range(2):
        u = rng.normal(size=(1, 4, 2))
        traj = dyn.rollout(model, [x0], u)
        jac = adjoint.linearize_window(model, traj, u)
        lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
        H_at[trial] = model_hessian(terms, model, traj, u, jac, lam)
    np.testing.assert_allclose(H_at[0], H_at[1], atol=1e-12)


def test_hessian_identity_for_pure_control_penalty():
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 2): np.zeros((2, 2))}, R={1: np.eye(2)},
                    D={(1, 2): np.zeros((2, 2))})
    model = dyn.linear(np.eye(2), np.eye(2))
    u = np.zeros((1, 3, 2))
    traj = dyn.rollout(model, [[1.0, -1.0]], u)
    nb = NeighborBundle({2: np.zeros((4, 2))})
    terms = table(spec, 2)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
    H = model_hessian(terms, model, traj, u, jac, lam)
    np.testing.assert_allclose(H[0], np.eye(6), atol=1e-14)


def stack_of_one(problem, u):
    """The stacked sweep and Hessian of one subproblem at u: (traj, jac, lam,
    g, Hessian), the agent axis dropped from all but jac."""
    traj = dyn.rollout(problem.model, [problem.x0], u[None], problem.k0)
    jac, lam, g = sweep(problem.model, problem.k0, problem.terms, [problem.nb], u[None], traj)
    Hmat = model_hessian(problem.terms, problem.model, traj, u[None], jac, lam,
                         k0=problem.k0)
    return traj[0], jac, lam[0], g[0], Hmat[0]


def test_fd_oracles_hand_values():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1))
    g = adjoint.fd_gradient(1, model, [1.0], u, nb, spec)
    assert g[0] == pytest.approx(1.0, abs=1e-6)
    H = adjoint.fd_hessian(1, model, [1.0], u, nb, spec)
    assert H[0, 0] == pytest.approx(2.0, abs=1e-4)


def test_fd_gradient_exact_on_quadratic():
    # Central differences are exact on quadratics regardless of h.
    model, spec, nb = scalar_chain_pieces()
    terms = table(spec, 1)
    u = np.array([[0.3]])
    traj = dyn.rollout(model, [[1.0]], u[None])
    jac = adjoint.linearize_window(model, traj, u[None])
    lam = adjoint.costate_sweep(terms, traj, u[None], jac, [nb])
    g_exact = adjoint.gradient(terms, u[None], jac, lam)[0]
    for h in (1e-2, 1e-4):
        g_fd = adjoint.fd_gradient(1, model, [1.0], u, nb, spec, h=h)
        np.testing.assert_allclose(g_fd, g_exact, atol=1e-9)


def test_fd_rejects_nonpositive_step():
    model, spec, nb = scalar_chain_pieces()
    with pytest.raises(ValueError):
        adjoint.fd_gradient(1, model, [1.0], np.zeros((1, 1)), nb, spec, h=0.0)
    with pytest.raises(ValueError):
        adjoint.fd_hessian(1, model, [1.0], np.zeros((1, 1)), nb, spec, h=-1e-6)


@pytest.mark.parametrize("kind", ["unicycle", "linear_sine"])
def test_gradient_matches_fd_on_random_instances(kind):
    rng = np.random.default_rng(1234)
    for _ in range(25):
        problem, u = random_instance(rng, kind)
        g = stack_of_one(problem, u)[3]
        g_fd = adjoint.fd_gradient(problem.i, problem.model, problem.x0, u,
                                   problem.nb, problem.spec)
        assert np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd)) < 1e-5


@pytest.mark.parametrize("kind", ["unicycle", "linear_sine"])
def test_hessian_matches_fd_on_random_instances(kind):
    rng = np.random.default_rng(99)
    for _ in range(10):
        problem, u = random_instance(rng, kind)
        H = stack_of_one(problem, u)[4]
        H_fd = adjoint.fd_hessian(problem.i, problem.model, problem.x0, u,
                                  problem.nb, problem.spec)
        rel = np.linalg.norm(H - H_fd) / (1 + np.linalg.norm(H_fd))
        assert rel < 1e-3
        drift = np.linalg.norm(H - H.T)
        assert drift <= 1e-8 * max(np.linalg.norm(H), 1e-30)


# Per-agent oracles for the stacked assembly: the single-agent costate
# recursion, the per-stage gradient loop and the dense identity-tensor (V)
# Hessian assembly with its backward second-order costate pass.  Each takes
# one agent's window with its own (A, B).  The stacked costate and gradient
# must reproduce them row for row, bit for bit.  The condensed Hessian
# S^T W S sums in another order, so it matches the stage assembly to
# HESSIAN_RTOL in the Frobenius norm; it is exactly symmetric, and a row of a
# stack equals that agent's stack of one bit for bit.  The costate oracle
# reads the raw Q, D, W and E tables and skips absent weights, so it also
# checks that the zero matrices which CostSpec.terms fills in change nothing.

HESSIAN_RTOL = 1e-13


def loop_costate(i, traj, u, jac, nb, spec):
    A, _ = jac
    H, p = u.shape[0], traj.shape[1]
    z = traj - spec.offset(i, p)
    stage_src, term_src = np.zeros((H + 1, p)), np.zeros(p)
    for j in sorted({j for (a, j) in list(spec.Q) + list(spec.D) if a == i}):
        e = z - (nb.trajectories[j] - spec.offset(j, p))
        if (i, j) in spec.Q:
            stage_src += e @ spec.Q[(i, j)]
        if (i, j) in spec.D:
            term_src += spec.D[(i, j)] @ e[H]
    if i in spec.W or i in spec.E:
        el = z - (nb.leader - spec.offset(0, p))
        if i in spec.W:
            stage_src += el @ spec.W[i]
        if i in spec.E:
            term_src += spec.E[i] @ el[H]
    lam = np.empty((H + 1, p))
    lam[H] = term_src
    for t in range(H - 1, -1, -1):
        lam[t] = stage_src[t] + lam[t + 1] @ A[t]
    return lam


def terms_costate(i, traj, u, jac, nb, spec):
    """The costate from a walk over ``CostSpec.terms``, one error per term."""
    A, _ = jac
    H, p = u.shape[0], traj.shape[1]
    stage_src, lam = np.zeros((H + 1, p)), np.zeros((H + 1, p))
    for j, Q, D in spec.terms(i, p):
        x_j = nb.leader if j == LEADER else nb.trajectories[j]
        e = (traj - spec.offset(i, p)) - (x_j - spec.offset(j, p))
        stage_src += e @ Q
        lam[H] += D @ e[H]
    for t in range(H - 1, -1, -1):
        lam[t] = stage_src[t] + lam[t + 1] @ A[t]
    return lam


def loop_gradient(i, u, jac, lam, spec):
    _, B = jac
    H, m = u.shape
    g = np.empty((H, m))
    for t in range(H):
        g[t] = spec.R[i] @ u[t] + lam[t + 1] @ B[t]
    return g.reshape(-1)


def dense_hessian(i, model, traj, u, jac, lam, spec, k0=0):
    H, m = u.shape
    p = traj.shape[1]
    n = H * m
    C_stage, C_term = np.zeros((p, p)), np.zeros((p, p))
    for _, Q, D in spec.terms(i, p):
        C_stage += Q
        C_term += D
    R = spec.R[i]
    A, B = jac
    M = dyn.second_order_action(model, traj[None, :H], u[None], k0, lam[None, 1:])[0]
    V = np.zeros((H, m, n))
    for t in range(H):
        V[t, :, t * m:(t + 1) * m] = np.eye(m)
    dx = np.zeros((p, n))
    dxs = [dx]
    for t in range(H):
        dx = A[t] @ dx + B[t] @ V[t]
        dxs.append(dx)
    blocks = [None] * H
    dlam = C_term @ dxs[H]
    for t in range(H - 1, -1, -1):
        Mxx, Mxu = M[t][:p, :p], M[t][:p, p:]
        Mux, Muu = M[t][p:, :p], M[t][p:, p:]
        blocks[t] = R @ V[t] + B[t].T @ dlam + Mux @ dxs[t] + Muu @ V[t]
        dlam = (C_stage + Mxx) @ dxs[t] + A[t].T @ dlam + Mxu @ V[t]
    Hmat = np.vstack(blocks)
    if np.linalg.norm(Hmat - Hmat.T) > 1e-12:
        Hmat = 0.5 * (Hmat + Hmat.T)
    return Hmat


def assert_hessian_close(H, oracle):
    assert np.linalg.norm(H - oracle) <= HESSIAN_RTOL * np.linalg.norm(oracle)


def window_models(kind):
    if kind == "unicycle":
        return 3, 2, dyn.unicycle(0.05), dyn.unicycle_drift(0.05, v=0.8, omega=0.2)
    mode = kind.split(":")[1]
    return (2, 1, dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode),
            dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode))


def oracle_window(kind, H, terminal, leader, seed):
    """Agent 1's window with two out-neighbors; ``terminal`` adds D (and E
    with ``leader``), ``leader`` adds W and a leader trajectory."""
    rng = np.random.default_rng(seed)
    p, m, model, leader_model = window_models(kind)
    edges = [(1, 2), (1, 3)]
    Q = {e: random_psd(rng, p, scale=2.0) for e in edges}
    D = {e: random_psd(rng, p) for e in edges} if terminal else {}
    W = {1: random_psd(rng, p, scale=2.0)} if leader else {}
    E = {1: random_psd(rng, p)} if leader and terminal else {}
    spec = CostSpec(Q=Q, R={1: random_spd(rng, m, floor=0.2)}, D=D, W=W, E=E)
    x0 = rng.normal(size=p)
    u = rng.normal(size=(H, m)) * 0.5
    k0 = int(rng.integers(0, 40))
    lead = (dyn.rollout(leader_model, [rng.normal(size=p)], np.zeros((1, H, 0)), k0)[0]
            if leader else None)
    nb = NeighborBundle({j: rng.normal(size=(H + 1, p)) for _, j in edges},
                        leader=lead)
    traj = dyn.rollout(model, [x0], u[None], k0)[0]
    return model, spec, nb, traj, u, k0


@pytest.mark.parametrize("leader", [False, True])
@pytest.mark.parametrize("terminal", [False, True])
@pytest.mark.parametrize("H", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", ["unicycle", "linear_sine:first", "linear_sine:diag"])
def test_batched_derivatives_equal_stage_loop_oracles(kind, H, terminal, leader):
    model, spec, nb, traj, u, k0 = oracle_window(kind, H, terminal, leader,
                                                 seed=H + 10 * terminal + 100 * leader)
    jac = adjoint.linearize_window(model, traj[None], u[None], k0)
    terms = table(spec, traj.shape[1])
    lam = adjoint.costate_sweep(terms, traj[None], u[None], jac, [nb])
    one = (jac[0][0], jac[1][0])
    np.testing.assert_array_equal(lam[0], loop_costate(1, traj, u, one, nb, spec))
    np.testing.assert_array_equal(adjoint.gradient(terms, u[None], jac, lam)[0],
                                  loop_gradient(1, u, one, lam[0], spec))
    Hs = model_hessian(terms, model, traj[None], u[None], jac, lam, k0=k0)
    assert_hessian_close(Hs[0], dense_hessian(1, model, traj, u, one, lam[0], spec, k0=k0))
    np.testing.assert_array_equal(Hs, Hs.transpose(0, 2, 1))


def oracle_stack(kind, H, seed):
    """Three agents of one model on a 4-agent graph, with different weights,
    offsets and bundles: agent 1 has two neighbors, terminal weights and
    leader terms (3 terms), agent 2 one neighbor and no leader (1 term),
    agent 4 a terminal-only edge (D, no Q) and a stage-only leader link (2
    terms).  Returns the model, spec, agents, bundles, x0 (3, p), windows
    u (3, H, m) and k0."""
    rng = np.random.default_rng(seed)
    p, m, model, leader_model = window_models(kind)
    agents = [1, 2, 4]
    edges = [(1, 2), (1, 3), (2, 3)]
    spec = CostSpec(Q={e: random_psd(rng, p, scale=2.0) for e in edges},
                    R={i: random_spd(rng, m, floor=0.2) for i in agents},
                    D={(1, 2): random_psd(rng, p), (2, 3): random_psd(rng, p),
                       (4, 3): random_psd(rng, p)},
                    W={1: random_psd(rng, p, scale=2.0), 4: random_psd(rng, p)},
                    E={1: random_psd(rng, p)},
                    offsets={j: rng.normal(size=p) for j in range(5)})
    k0 = int(rng.integers(0, 40))
    lead = dyn.rollout(leader_model, [rng.normal(size=p)], np.zeros((1, H, 0)), k0)[0]
    others = {j: rng.normal(size=(H + 1, p)) for j in (2, 3)}
    bundles = [NeighborBundle({2: others[2], 3: others[3]}, leader=lead),
               NeighborBundle({3: others[3]}),
               NeighborBundle({3: others[3]}, leader=lead)]
    x0 = rng.normal(size=(3, p))
    u = rng.normal(size=(3, H, m)) * 0.5
    return model, spec, agents, bundles, x0, u, k0


@pytest.mark.parametrize("H", [1, 8, 64])
@pytest.mark.parametrize("kind", ["unicycle", "linear_sine:first", "linear_sine:diag"])
def test_stacked_derivatives_equal_per_agent_oracles(kind, H):
    model, spec, agents, bundles, x0, u, k0 = oracle_stack(kind, H, seed=H)
    traj = dyn.rollout(model, x0, u, k0)
    jac = adjoint.linearize_window(model, traj, u, k0)
    terms = table(spec, traj.shape[2], agents)
    assert [len(senders) for senders in terms.senders] == [3, 1, 2]
    lam = adjoint.costate_sweep(terms, traj, u, jac, bundles)
    g = adjoint.gradient(terms, u, jac, lam)
    Hs = model_hessian(terms, model, traj, u, jac, lam, k0=k0)
    for a, (i, nb) in enumerate(zip(agents, bundles)):
        np.testing.assert_array_equal(traj[a], dyn.rollout(model, x0[a:a + 1], u[a:a + 1],
                                                           k0)[0])
        one = (jac[0][a], jac[1][a])
        np.testing.assert_array_equal(lam[a], loop_costate(i, traj[a], u[a], one, nb, spec))
        np.testing.assert_array_equal(lam[a], terms_costate(i, traj[a], u[a], one, nb, spec))
        np.testing.assert_array_equal(g[a], loop_gradient(i, u[a], one, lam[a], spec))
        assert_hessian_close(Hs[a], dense_hessian(i, model, traj[a], u[a], one, lam[a],
                                                  spec, k0=k0))
        row = (jac[0][a:a + 1], jac[1][a:a + 1])
        alone = table(spec, traj.shape[2], [i])
        lam_a = adjoint.costate_sweep(alone, traj[a:a + 1], u[a:a + 1], row, [nb])
        np.testing.assert_array_equal(lam_a[0], lam[a])
        np.testing.assert_array_equal(adjoint.gradient(alone, u[a:a + 1], row, lam_a)[0], g[a])
        np.testing.assert_array_equal(
            Hs[a], model_hessian(alone, model, traj[a:a + 1], u[a:a + 1], row, lam_a,
                                 k0=k0)[0])
    np.testing.assert_array_equal(Hs, Hs.transpose(0, 2, 1))


@pytest.mark.parametrize("weights", ["WE", "W", "E"])
@pytest.mark.parametrize("kind", ["unicycle", "linear_sine:first"])
def test_leader_is_neighbour_zero(kind, weights):
    """An agent's leader terms equal an ordinary last neighbour's with
    Q = W, D = E and the leader's offset, bit for bit."""
    rng = np.random.default_rng(7)
    p, m, model, leader_model = window_models(kind)
    H, k0 = 8, 3
    edges = [(1, 2), (1, 3)]
    W = {1: random_psd(rng, p, scale=2.0)} if "W" in weights else {}
    E = {1: random_psd(rng, p)} if "E" in weights else {}
    offsets = {j: rng.normal(size=p) for j in range(4)}
    base = dict(Q={e: random_psd(rng, p, scale=2.0) for e in edges},
                R={1: random_spd(rng, m, floor=0.2)}, D={(1, 2): random_psd(rng, p)})
    lead = dyn.rollout(leader_model, [rng.normal(size=p)], np.zeros((1, H, 0)), k0)[0]
    others = {j: rng.normal(size=(H + 1, p)) for j in (2, 3)}
    with_leader = CostSpec(**base, W=W, E=E, offsets=offsets)
    twin_Q, twin_D = dict(base["Q"]), dict(base["D"])
    if W:
        twin_Q[(1, 4)] = W[1]
    if E:
        twin_D[(1, 4)] = E[1]
    twin = CostSpec(Q=twin_Q, R=base["R"], D=twin_D, offsets={**offsets, 4: offsets[0]})
    u = rng.normal(size=(1, H, m)) * 0.5
    traj = dyn.rollout(model, [rng.normal(size=p)], u, k0)
    jac = adjoint.linearize_window(model, traj, u, k0)

    def derivatives(spec, nb):
        terms = table(spec, p)
        lam = adjoint.costate_sweep(terms, traj, u, jac, [nb])
        return (local_cost(1, traj[0], u[0], nb, spec), lam,
                adjoint.gradient(terms, u, jac, lam),
                model_hessian(terms, model, traj, u, jac, lam, k0=k0))

    got = derivatives(with_leader, NeighborBundle(others, leader=lead))
    want = derivatives(twin, NeighborBundle({**others, 4: lead}))
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)


def test_costate_sweep_names_the_agent_of_a_bad_bundle():
    """Every window check of the stacked errors raises ValueError naming its
    agent, row by row in stack order."""
    model, spec, agents, bundles, x0, u, k0 = oracle_stack("unicycle", 4, seed=4)
    traj = dyn.rollout(model, x0, u, k0)
    jac = adjoint.linearize_window(model, traj, u, k0)
    terms = table(spec, traj.shape[2], agents)
    nb1, nb2, nb4 = bundles
    cases = [
        (traj[:, :-1], bundles, "agent 1: trajectory has 4 rows, expected H+1=5"),
        (traj, [nb1, NeighborBundle({3: nb2.trajectories[3][:-1]}), nb4],
         "agent 2: neighbor horizon 3 != control horizon 4"),
        (traj, [nb1, NeighborBundle({}), nb4], "agent 2: bundle is missing neighbor 3"),
        (traj, [nb1, nb2, NeighborBundle(nb4.trajectories)],
         "agent 4 has leader weights but no leader trajectory"),
    ]
    for trajs, bad, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            adjoint.costate_sweep(terms, trajs, u, jac, bad)


def test_hessian_asymmetry_names_the_agent():
    """A model whose second_order_fn breaks Mxu = Mux^T (by 1e-3 relative) on
    one row of a stack fails where M enters, before either direction path:
    on an 8-stage window, which takes the dense path, and on a 64-stage
    one, which ``banded_pays`` for, the group-round's error names that
    row's agent, the round and the row's first stage."""
    for H in (8, 64):
        model, spec, agents, bundles, x0, u, k0 = oracle_stack("unicycle", H, seed=8)

        def skewed(X, U, k0, Lam):
            M = model.second_order_fn(X, U, k0, Lam)
            M[1, :, :3, 3:] *= 1.0 + 1e-3
            return M

        broken = dataclasses.replace(model, second_order_fn=skewed)
        traj = dyn.rollout(broken, x0, u, k0)
        terms = table(spec, traj.shape[2], agents)
        swept = sweep(broken, k0, terms, bundles, u, traj)
        assert banded_pays(u[0].size, 4, SolverConfig().L_max) == (H == 64)
        message = (rf"^agent 2, round 4: {re.escape(model.name)}: second-order action "
                   rf"asymmetric by \d\.\d\de-04 at k={k0}$")
        with pytest.raises(NumericError, match=message):
            _round_update(broken, k0, terms, bundles, u, traj, swept, SolverConfig(), 4, {})


# The costate and the forward sensitivities are banded triangular solves
# (one dtbtrs per stack).  The references below are the stage loops they
# replace; for p <= 3 the band's dot products and axpys add the same
# products in the same order, so the two agree bit for bit.

def stage_loop_costate(terms, trajs, us, jac, bundles):
    A, _ = jac
    K, H, p = trajs.shape[0], us.shape[1], trajs.shape[2]
    E = local_errors(terms, trajs, us, bundles)
    stage_src, lam = np.zeros((K, H + 1, p)), np.zeros((K, H + 1, p))
    np.add.at(stage_src, terms.rows, E @ terms.Q)
    np.add.at(lam[:, H], terms.rows, (terms.D @ E[:, H, :, None])[..., 0])
    for t in range(H - 1, -1, -1):
        lam[:, t] = stage_src[:, t] + (lam[:, t + 1, None] @ A[:, t])[:, 0]
    return lam


def stage_loop_hessian(terms, model, trajs, us, jac, lam, k0):
    # The model's M as it returns it: the cross terms read Mux alone, its
    # transpose standing in for Mxu, whatever Mxu holds.
    K, H, m = us.shape
    p, n = trajs.shape[2], H * m
    A, B = jac
    M = model.second_order_fn(trajs[:, :H], us, k0, lam[:, 1:])
    Mxx, Mux, Muu = M[..., :p, :p], M[..., p:, :p], M[..., p:, p:]
    dxs = np.zeros((K, H + 1, p, n))
    for t in range(H):
        np.matmul(A[:, t], dxs[:, t], out=dxs[:, t + 1])
        dxs[:, t + 1, :, t * m:(t + 1) * m] += B[:, t]
    W = np.concatenate([terms.C_stage[:, None] + Mxx[:, 1:], terms.C_term[:, None]],
                       axis=1)
    S = dxs[:, 1:].reshape(K, H * p, n)
    Hs = S.transpose(0, 2, 1) @ (W @ dxs[:, 1:]).reshape(K, H * p, n)
    C = (Mux @ dxs[:, :H]).reshape(K, n, n)
    Hs += C
    Hs += C.transpose(0, 2, 1)
    diag = Hs.reshape(K, H, m, H, m)
    rows, idx = np.arange(K)[:, None], np.arange(H)
    diag[rows, idx, :, idx, :] += terms.R[:, None] + Muu
    return 0.5 * (Hs + Hs.transpose(0, 2, 1))


def banded_case(K, H, p, m, seed):
    """K agents of a linear model, each with two neighbours, and random
    windows with their own (A, B) on every row and stage."""
    rng = np.random.default_rng(seed)
    agents = list(range(1, K + 1))
    edges = [(i, j) for i in agents for j in (K + 1, K + 2)]
    spec = CostSpec(Q={e: random_psd(rng, p, scale=2.0) for e in edges},
                    R={i: random_spd(rng, m, floor=0.2) for i in agents},
                    D={e: random_psd(rng, p) for e in edges})
    model = dyn.linear(rng.normal(size=(p, p)), rng.normal(size=(p, m)))
    others = {j: rng.normal(size=(H + 1, p)) for j in (K + 1, K + 2)}
    trajs = rng.normal(size=(K, H + 1, p))
    us = rng.normal(size=(K, H, m))
    jac = (0.5 * rng.normal(size=(K, H, p, p)), rng.normal(size=(K, H, p, m)))
    return (spec.group_terms(agents, p), model, trajs, us, jac,
            [NeighborBundle(others)] * K)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("H", [1, 2, 8, 64])
@pytest.mark.parametrize("K", [1, 3])
def test_banded_kernels_equal_stage_loops(K, H, p, m):
    terms, model, trajs, us, jac, bundles = banded_case(K, H, p, m, seed=K + H + p + m)
    lam = adjoint.costate_sweep(terms, trajs, us, jac, bundles)
    np.testing.assert_array_equal(lam, stage_loop_costate(terms, trajs, us, jac, bundles))
    np.testing.assert_array_equal(
        model_hessian(terms, model, trajs, us, jac, lam, k0=3),
        stage_loop_hessian(terms, model, trajs, us, jac, lam, k0=3))


@pytest.mark.parametrize("K", [1, 3])
def test_stage_blocks_are_the_lagrangian_blocks(K):
    """Each stage block against its definition, bit for bit: [[C_stage +
    Mxx, Mxu], [Mux, R + Muu]] for t >= 1 and, x(0) being fixed, [[C_term,
    0], [0, R + Muu(0)]] at t = 0."""
    terms = banded_case(K, 8, 3, 2, seed=13)[0]
    M = np.random.default_rng(14).normal(size=(K, 8, 5, 5))
    blocks = adjoint.stage_blocks(terms, M)
    for a in range(K):
        for t in range(8):
            Mxx, Mxu, Mux, Muu = M[a, t, :3, :3], M[a, t, :3, 3:], M[a, t, 3:, :3], M[a, t, 3:, 3:]
            if t == 0:
                Mxu, Mux = np.zeros((3, 2)), np.zeros((2, 3))
            W = terms.C_term[a] if t == 0 else terms.C_stage[a] + Mxx
            np.testing.assert_array_equal(blocks[a, t],
                                          np.block([[W, Mxu], [Mux, terms.R[a] + Muu]]))


@pytest.mark.parametrize("K", [1, 3])
def test_curvature_blocks_land_where_the_stage_loop_puts_them(K):
    """Raw blocks of an M with no symmetry at all, which
    ``dyn.second_order_action`` would refuse: each R + Muu block and cross
    term sits where the stage loop puts it, bit for bit, transposes
    included, and the cross terms read Mux alone."""
    terms, model, trajs, us, jac, bundles = banded_case(K, 8, 3, 2, seed=11)
    M = np.random.default_rng(12).normal(size=(K, 8, 5, 5))
    curved = dataclasses.replace(model, second_order_fn=lambda X, U, k0, Lam: M.copy())
    lam = adjoint.costate_sweep(terms, trajs, us, jac, bundles)
    want = stage_loop_hessian(terms, curved, trajs, us, jac, lam, k0=3)
    np.testing.assert_array_equal(adjoint.hessian(adjoint.stage_blocks(terms, M.copy()), jac),
                                  want)
    M[..., :3, 3:] = 0.0
    np.testing.assert_array_equal(adjoint.hessian(adjoint.stage_blocks(terms, M), jac), want)


@pytest.mark.parametrize("t", [0, 7])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_nan_in_one_row_stays_in_that_row(row, t):
    """The rows of the stacked band meet only at its zero entries; a nan in
    one row's A does not cross them into the neighbouring rows."""
    terms, model, trajs, us, (A, B), bundles = banded_case(3, 8, 2, 1, seed=5)
    lam_ok = adjoint.costate_sweep(terms, trajs, us, (A, B), bundles)
    A = A.copy()
    A[row, t, 1, 0] = np.nan
    lam = adjoint.costate_sweep(terms, trajs, us, (A, B), bundles)
    Hs = model_hessian(terms, model, trajs, us, (A, B), lam_ok, k0=0)
    want = stage_loop_hessian(terms, model, trajs, us, (A, B), lam_ok, k0=0)
    others = [a for a in range(3) if a != row]
    np.testing.assert_array_equal(lam[others], lam_ok[others])
    np.testing.assert_array_equal(Hs[others], want[others])
    assert np.isnan(lam[row]).any() and np.isnan(Hs[row]).any()
