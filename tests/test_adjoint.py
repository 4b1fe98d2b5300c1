import numpy as np
import pytest

from optcons import CostSpec, Topology, adjoint
from optcons.cost import NeighborBundle
from optcons import dynamics as dyn

from conftest import mutual_pair_topology, random_instance, random_psd, random_spd


def scalar_chain_pieces():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, d=1.0)
    model = dyn.linear([[1.0]], [[1.0]])
    nb = NeighborBundle({2: np.zeros((2, 1))})
    return model, spec, nb


def test_costate_hand_sweep():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1))
    traj = dyn.rollout(model, [1.0], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    np.testing.assert_allclose(lam.ravel(), [2.0, 1.0])


def test_costate_zero_at_consensus():
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=4.0, r=1.0, d=0.0, control_dims={1: 2, 2: 2})
    model = dyn.linear(np.eye(2), np.eye(2))
    traj = np.tile([0.3, -0.7], (4, 1))
    nb = NeighborBundle({2: traj.copy()})
    u = np.zeros((3, 2))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    np.testing.assert_array_equal(lam, np.zeros((4, 2)))


def test_costate_leader_mode_on_leader_trajectory():
    top = Topology.from_edge_list(2, [[2, 1, 1.0]], leader_links=[1])
    spec = CostSpec(Q={}, R={1: np.eye(1)}, W={1: 5.0 * np.eye(2)}, E={})
    model = dyn.linear(np.eye(2), np.array([[1.0], [0.0]]))
    traj = np.tile([1.0, 2.0], (3, 1))
    nb = NeighborBundle({}, leader=traj.copy())
    u = np.zeros((2, 1))
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    np.testing.assert_array_equal(lam, np.zeros((3, 2)))


def test_gradient_hand_values():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1))
    traj = dyn.rollout(model, [1.0], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    g = adjoint.gradient(1, u, jac, lam, spec)
    np.testing.assert_allclose(g, [1.0])

    u_star = np.array([[-0.5]])
    traj = dyn.rollout(model, [1.0], u_star)
    jac = adjoint.linearize_window(model, traj, u_star)
    lam = adjoint.costate_sweep(1, traj, u_star, jac, nb, spec)
    g = adjoint.gradient(1, u_star, jac, lam, spec)
    np.testing.assert_allclose(g, [0.0], atol=1e-15)


def test_gradient_zero_when_stationary_sources_vanish():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((3, 1))
    traj = np.zeros((4, 1))
    nb0 = NeighborBundle({2: np.zeros((4, 1))})
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb0, spec)
    g = adjoint.gradient(1, u, jac, lam, spec)
    np.testing.assert_array_equal(g, np.zeros(3))


def test_hessian_hand_value():
    model, spec, nb = scalar_chain_pieces()
    u = np.zeros((1, 1))
    traj = dyn.rollout(model, [1.0], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    H = adjoint.hessian(1, model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H, [[2.0]])


def test_hessian_constant_for_lq():
    rng = np.random.default_rng(8)
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=2, q=1.5, r=0.7, d=0.9, control_dims={1: 2, 2: 2})
    model = dyn.linear(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    nb = NeighborBundle({2: rng.normal(size=(5, 2))})
    x0 = rng.normal(size=2)
    H_at = {}
    for trial in range(2):
        u = rng.normal(size=(4, 2))
        traj = dyn.rollout(model, x0, u)
        jac = adjoint.linearize_window(model, traj, u)
        lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
        H_at[trial] = adjoint.hessian(1, model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H_at[0], H_at[1], atol=1e-12)


def test_hessian_identity_for_pure_control_penalty():
    top = mutual_pair_topology()
    spec = CostSpec(Q={(1, 2): np.zeros((2, 2))}, R={1: np.eye(2)},
                    D={(1, 2): np.zeros((2, 2))})
    model = dyn.linear(np.eye(2), np.eye(2))
    u = np.zeros((3, 2))
    traj = dyn.rollout(model, [1.0, -1.0], u)
    nb = NeighborBundle({2: np.zeros((4, 2))})
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    H = adjoint.hessian(1, model, traj, u, jac, lam, spec)
    np.testing.assert_allclose(H, np.eye(6), atol=1e-14)


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
    traj = dyn.rollout(model, [1.0], u)
    jac = adjoint.linearize_window(model, traj, u)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    g_exact = adjoint.gradient(1, u, jac, lam, spec)
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
        *_, g = problem.sweep(u)
        g_fd = adjoint.fd_gradient(problem.i, problem.model, problem.x0, u,
                                   problem.nb, problem.spec)
        assert np.linalg.norm(g - g_fd) / (1 + np.linalg.norm(g_fd)) < 1e-5


@pytest.mark.parametrize("kind", ["unicycle", "linear_sine"])
def test_hessian_matches_fd_on_random_instances(kind):
    rng = np.random.default_rng(99)
    for _ in range(10):
        problem, u = random_instance(rng, kind)
        traj, jac, lam, g = problem.sweep(u)
        H = problem.hessian(u, traj, jac, lam)
        H_fd = adjoint.fd_hessian(problem.i, problem.model, problem.x0, u,
                                  problem.nb, problem.spec)
        rel = np.linalg.norm(H - H_fd) / (1 + np.linalg.norm(H_fd))
        assert rel < 1e-3
        drift = np.linalg.norm(H - H.T)
        assert drift <= 1e-8 * max(np.linalg.norm(H), 1e-30)


# Oracles for the stage-batched assembly: the per-stage gradient loop and the
# dense identity-tensor (V) Hessian assembly it replaced.  The batched code
# must reproduce them bit for bit, so that runs stay byte-identical.

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
    M = dyn.second_order_action(model, traj[:H], u, k0, lam[1:])
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


def oracle_window(kind, H, terminal, leader, seed):
    """Agent 1's window with two out-neighbors; ``terminal`` adds D (and E
    with ``leader``), ``leader`` adds W and a leader trajectory."""
    rng = np.random.default_rng(seed)
    if kind == "unicycle":
        p, m = 3, 2
        model = dyn.unicycle(0.05)
        leader_model = dyn.unicycle_drift(0.05, v=0.8, omega=0.2)
    else:
        p, m = 2, 1
        mode = kind.split(":")[1]
        model = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode)
        leader_model = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode)
    edges = [(1, 2), (1, 3)]
    Q = {e: random_psd(rng, p, scale=2.0) for e in edges}
    D = {e: random_psd(rng, p) for e in edges} if terminal else {}
    W = {1: random_psd(rng, p, scale=2.0)} if leader else {}
    E = {1: random_psd(rng, p)} if leader and terminal else {}
    spec = CostSpec(Q=Q, R={1: random_spd(rng, m, floor=0.2)}, D=D, W=W, E=E)
    x0 = rng.normal(size=p)
    u = rng.normal(size=(H, m)) * 0.5
    k0 = int(rng.integers(0, 40))
    lead = (dyn.rollout(leader_model, rng.normal(size=p), np.zeros((H, 0)), k0)
            if leader else None)
    nb = NeighborBundle({j: rng.normal(size=(H + 1, p)) for _, j in edges},
                        leader=lead)
    traj = dyn.rollout(model, x0, u, k0)
    return model, spec, nb, traj, u, k0


@pytest.mark.parametrize("leader", [False, True])
@pytest.mark.parametrize("terminal", [False, True])
@pytest.mark.parametrize("H", [1, 2, 8, 64])
@pytest.mark.parametrize("kind", ["unicycle", "linear_sine:first", "linear_sine:diag"])
def test_batched_derivatives_equal_stage_loop_oracles(kind, H, terminal, leader):
    model, spec, nb, traj, u, k0 = oracle_window(kind, H, terminal, leader,
                                                 seed=H + 10 * terminal + 100 * leader)
    jac = adjoint.linearize_window(model, traj, u, k0)
    lam = adjoint.costate_sweep(1, traj, u, jac, nb, spec)
    np.testing.assert_array_equal(adjoint.gradient(1, u, jac, lam, spec),
                                  loop_gradient(1, u, jac, lam, spec))
    np.testing.assert_array_equal(adjoint.hessian(1, model, traj, u, jac, lam, spec, k0=k0),
                                  dense_hessian(1, model, traj, u, jac, lam, spec, k0=k0))
