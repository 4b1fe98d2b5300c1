import dataclasses

import numpy as np
import pytest

from optcons import CostSpec, Topology, adjoint
from optcons.cost import NeighborBundle, local_cost
from optcons import dynamics as dyn
from optcons.errors import NumericError
from optcons.solver import sweep

from conftest import mutual_pair_topology, random_instance, random_psd, random_spd


def scalar_chain_pieces():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, d=1.0)
    model = dyn.linear([[1.0]], [[1.0]])
    nb = NeighborBundle({2: np.zeros((2, 1))})
    return model, spec, nb


def test_costate_hand_sweep():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    np.testing.assert_allclose(lam.ravel(), [2.0, 1.0])


def test_costate_zero_at_consensus():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=4.0, r=1.0, d=0.0, control_dims={1: 2, 2: 2})
    model = dyn.linear(np.eye(2), np.eye(2))
    traj = np.tile([0.3, -0.7], (1, 4, 1))
    nb = NeighborBundle({2: traj[0].copy()})
    u = np.zeros((1, 3, 2))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    np.testing.assert_array_equal(lam, np.zeros((1, 4, 2)))


def test_costate_leader_mode_on_leader_trajectory():
    top = Topology.from_edge_list(2, [[2, 1, 1.0]], leader_links=[1])
    spec = CostSpec(Q={}, R={1: np.eye(1)}, W={1: 5.0 * np.eye(2)}, E={})
    model = dyn.linear(np.eye(2), np.array([[1.0], [0.0]]))
    traj = np.tile([1.0, 2.0], (1, 3, 1))
    nb = NeighborBundle({}, leader=traj[0].copy())
    u = np.zeros((1, 2, 1))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    np.testing.assert_array_equal(lam, np.zeros((1, 3, 2)))


def test_gradient_hand_values():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    g = adjoint.gradient([1], u, jac, lam, spec)
    np.testing.assert_allclose(g, [[1.0]])

    u_star = np.array([[[-0.5]]])
    traj = dyn.rollout(model, [[1.0]], u_star)
    jac = adjoint.linearize_window(model, traj, u_star)
    lam = adjoint.costate_sweep([1], traj, u_star, jac, [nb], spec)
    g = adjoint.gradient([1], u_star, jac, lam, spec)
    np.testing.assert_allclose(g, [[0.0]], atol=1e-15)


def test_gradient_zero_when_stationary_sources_vanish():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 3, 1))
    traj = np.zeros((1, 4, 1))
    nb0 = NeighborBundle({2: np.zeros((4, 1))})
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb0], spec)
    g = adjoint.gradient([1], u, jac, lam, spec)
    np.testing.assert_array_equal(g, np.zeros((1, 3)))


def test_hessian_hand_value():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1, 1))
    traj = dyn.rollout(model, [[1.0]], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    H = adjoint.hessian([1], model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H, [[[2.0]]])


def test_hessian_constant_for_lq():
    rng = np.random.default_rng(8)
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=1.5, r=0.7, d=0.9, control_dims={1: 2, 2: 2})
    model = dyn.linear(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    nb = NeighborBundle({2: rng.normal(size=(5, 2))})
    x0 = rng.normal(size=2)
    H_at = {}
    for trial in range(2):
        u = rng.normal(size=(1, 4, 2))
        traj = dyn.rollout(model, [x0], u)
        jac = adjoint.linearize_window(model, traj, u)
        lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
        H_at[trial] = adjoint.hessian([1], model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H_at[0], H_at[1], atol=1e-12)


def test_hessian_identity_for_pure_control_penalty():
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 2): np.zeros((2, 2))}, R={1: np.eye(2)},
                    D={(1, 2): np.zeros((2, 2))})
    model = dyn.linear(np.eye(2), np.eye(2))
    u = np.zeros((1, 3, 2))
    traj = dyn.rollout(model, [[1.0, -1.0]], u)
    nb = NeighborBundle({2: np.zeros((4, 2))})
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
    H = adjoint.hessian([1], model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H[0], np.eye(6), atol=1e-14)


def stack_of_one(problem, u):
    """The stacked sweep and Hessian of one subproblem at u: (traj, jac, lam,
    g, Hessian), the agent axis dropped from all but jac."""
    traj = dyn.rollout(problem.model, [problem.x0], u[None], problem.k0)
    jac, lam, g = sweep([problem], u[None], traj)
    Hmat = adjoint.hessian([problem.i], problem.model, traj, u[None], jac, lam,
                           problem.spec, k0=problem.k0)
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
    u = np.array([[0.3]])
    traj = dyn.rollout(model, [[1.0]], u[None])
    jac = adjoint.linearize_window(model, traj, u[None])
    lam = adjoint.costate_sweep([1], traj, u[None], jac, [nb], spec)
    g_exact = adjoint.gradient([1], u[None], jac, lam, spec)[0]
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
    C_stage, C_term = adjoint._state_curvatures(i, spec, p)
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
    lam = adjoint.costate_sweep([1], traj[None], u[None], jac, [nb], spec)
    one = (jac[0][0], jac[1][0])
    np.testing.assert_array_equal(lam[0], loop_costate(1, traj, u, one, nb, spec))
    np.testing.assert_array_equal(adjoint.gradient([1], u[None], jac, lam, spec)[0],
                                  loop_gradient(1, u, one, lam[0], spec))
    Hs = adjoint.hessian([1], model, traj[None], u[None], jac, lam, spec, k0=k0)
    assert_hessian_close(Hs[0], dense_hessian(1, model, traj, u, one, lam[0], spec, k0=k0))
    np.testing.assert_array_equal(Hs, Hs.transpose(0, 2, 1))


def oracle_stack(kind, H, seed):
    """Three agents of one model on a 4-agent graph, with different weights,
    offsets and bundles: agent 1 has two neighbors, terminal weights and
    leader terms, agent 2 one neighbor and no leader, agent 4 only a leader
    link (no neighbors).  Returns the model, spec, agents, bundles, x0 (3, p),
    windows u (3, H, m) and k0."""
    rng = np.random.default_rng(seed)
    p, m, model, leader_model = window_models(kind)
    agents = [1, 2, 4]
    edges = [(1, 2), (1, 3), (2, 3)]
    spec = CostSpec(Q={e: random_psd(rng, p, scale=2.0) for e in edges},
                    R={i: random_spd(rng, m, floor=0.2) for i in agents},
                    D={(1, 2): random_psd(rng, p), (2, 3): random_psd(rng, p)},
                    W={1: random_psd(rng, p, scale=2.0), 4: random_psd(rng, p)},
                    E={1: random_psd(rng, p)},
                    offsets={j: rng.normal(size=p) for j in range(5)})
    k0 = int(rng.integers(0, 40))
    lead = dyn.rollout(leader_model, [rng.normal(size=p)], np.zeros((1, H, 0)), k0)[0]
    others = {j: rng.normal(size=(H + 1, p)) for j in (2, 3)}
    bundles = [NeighborBundle({2: others[2], 3: others[3]}, leader=lead),
               NeighborBundle({3: others[3]}),
               NeighborBundle({}, leader=lead)]
    x0 = rng.normal(size=(3, p))
    u = rng.normal(size=(3, H, m)) * 0.5
    return model, spec, agents, bundles, x0, u, k0


@pytest.mark.parametrize("H", [1, 8, 64])
@pytest.mark.parametrize("kind", ["unicycle", "linear_sine:first", "linear_sine:diag"])
def test_stacked_derivatives_equal_per_agent_oracles(kind, H):
    model, spec, agents, bundles, x0, u, k0 = oracle_stack(kind, H, seed=H)
    traj = dyn.rollout(model, x0, u, k0)
    jac = adjoint.linearize_window(model, traj, u, k0)
    lam = adjoint.costate_sweep(agents, traj, u, jac, bundles, spec)
    g = adjoint.gradient(agents, u, jac, lam, spec)
    Hs = adjoint.hessian(agents, model, traj, u, jac, lam, spec, k0=k0)
    for a, (i, nb) in enumerate(zip(agents, bundles)):
        np.testing.assert_array_equal(traj[a], dyn.rollout(model, x0[a:a + 1], u[a:a + 1],
                                                           k0)[0])
        one = (jac[0][a], jac[1][a])
        np.testing.assert_array_equal(lam[a], loop_costate(i, traj[a], u[a], one, nb, spec))
        np.testing.assert_array_equal(g[a], loop_gradient(i, u[a], one, lam[a], spec))
        assert_hessian_close(Hs[a], dense_hessian(i, model, traj[a], u[a], one, lam[a],
                                                  spec, k0=k0))
        row = (jac[0][a:a + 1], jac[1][a:a + 1])
        np.testing.assert_array_equal(
            Hs[a], adjoint.hessian([i], model, traj[a:a + 1], u[a:a + 1], row,
                                   lam[a:a + 1], spec, k0=k0)[0])
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
        lam = adjoint.costate_sweep([1], traj, u, jac, [nb], spec)
        return (local_cost(1, traj[0], u[0], nb, spec), lam,
                adjoint.gradient([1], u, jac, lam, spec),
                adjoint.hessian([1], model, traj, u, jac, lam, spec, k0=k0))

    got = derivatives(with_leader, NeighborBundle(others, leader=lead))
    want = derivatives(twin, NeighborBundle({**others, 4: lead}))
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b)


def test_hessian_asymmetry_names_the_agent():
    """A model whose second_order_fn breaks Mxu = Mux^T (by 1e-3 relative) on
    one row of a stack makes the assembled Hessian asymmetric there."""
    model, spec, agents, bundles, x0, u, k0 = oracle_stack("unicycle", 8, seed=8)

    def skewed(X, U, k0, Lam):
        M = model.second_order_fn(X, U, k0, Lam)
        M[1, :, :3, 3:] *= 1.0 + 1e-3
        return M

    broken = dataclasses.replace(model, second_order_fn=skewed)
    traj = dyn.rollout(broken, x0, u, k0)
    jac = adjoint.linearize_window(broken, traj, u, k0)
    lam = adjoint.costate_sweep(agents, traj, u, jac, bundles, spec)
    with pytest.raises(NumericError, match=r"^agent 2: Hessian asymmetry"):
        adjoint.hessian(agents, broken, traj, u, jac, lam, spec, k0=k0)
