"""Shared builders for the test suite: hand instances, random instances,
and the dense LQ oracle used to cross-check the solver."""

import numpy as np
import pytest

from optcons import CostSpec, Topology, adjoint
from optcons.cost import NeighborBundle
from optcons import dynamics as dyn
from optcons.solver import LocalProblem


def model_hessian(terms, model, trajs, us, jac, lam, k0=0):
    """``adjoint.hessian`` of windows us (K, H, m) with rollouts trajs and
    costates lam, its stage blocks from one ``dyn.second_order_action``
    call, as the round loop computes it."""
    us = np.asarray(us, dtype=float)
    M = dyn.second_order_action(model, np.asarray(trajs, dtype=float)[:, :us.shape[1]], us,
                                k0, lam[:, 1:])
    return adjoint.hessian(adjoint.stage_blocks(terms, M), jac[1], adjoint._lower_band(jac[0]))


def mutual_pair_topology():
    return Topology.from_edge_list(2, [[1, 2, 1.0], [2, 1, 1.0]])


@pytest.fixture
def scalar_chain():
    """The hand-solved instance: f = x + u, H=1, x0=1, neighbor frozen at 0,
    Q = R = D = 1.  Known values: J(0)=1, lambda=(2,1), g(0)=1, Hessian=2,
    minimizer u = -1/2."""
    top = mutual_pair_topology()
    spec = CostSpec.uniform(top, p=1, q=1.0, r=1.0, d=1.0)
    model = dyn.linear([[1.0]], [[1.0]])
    nb = NeighborBundle({2: np.zeros((2, 1))})
    return LocalProblem(1, model, np.array([1.0]), nb, spec)


def conditioned_quadratic():
    """Strongly convex quadratic with Hessian diag(2, 200), condition 100.

    Single linear agent (A = B = I), one-step horizon, neighbor frozen at
    zero; R = I and terminal weight diag(1, 199) produce an exactly
    quadratic cost in the flattened control.
    """
    spec = CostSpec(Q={}, R={1: np.eye(2)}, D={(1, 2): np.diag([1.0, 199.0])})
    model = dyn.linear(np.eye(2), np.eye(2))
    nb = NeighborBundle({2: np.zeros((2, 2))})
    problem = LocalProblem(1, model, np.array([3.0, -2.0]), nb, spec)
    hessian = np.diag([2.0, 200.0])
    x0 = problem.x0
    u_star = -np.linalg.solve(hessian, np.diag([1.0, 199.0]) @ x0)
    return problem, hessian, u_star


def random_psd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T) / n


def random_spd(rng, n, scale=1.0, floor=0.1):
    return random_psd(rng, n, scale) + floor * np.eye(n)


def random_instance(rng, kind="unicycle"):
    """One random frozen-neighbor problem on a small random graph.

    Used by the adjoint exactness properties: n <= 4 agents, H <= 10,
    random PSD/PD weights, sometimes a leader.
    """
    n = int(rng.integers(2, 5))
    H = int(rng.integers(2, 11))
    if kind == "unicycle":
        p, m = 3, 2
        model = dyn.unicycle(0.05)
        leader_model = dyn.unicycle_drift(0.05, v=0.8, omega=0.2)
    else:
        p, m = 2, 1
        mode = ["sum", "first", "diag"][int(rng.integers(0, 3))]
        model = dyn.linear_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode)
        leader_model = dyn.leader_sine(dyn.FOLLOWER_A, dyn.FOLLOWER_B, mode=mode)

    i = 1
    others = list(range(2, n + 1))
    edges = [(1, j) for j in others if rng.random() < 0.8] or [(1, 2)]
    with_leader = rng.random() < 0.5
    top = Topology(n=n, edges=frozenset(edges),
                   leader_links=frozenset({1} if with_leader else set()))

    Q = {e: random_psd(rng, p, scale=2.0) for e in edges}
    D = {e: random_psd(rng, p, scale=1.0) for e in edges if rng.random() < 0.7}
    R = {1: random_spd(rng, m, scale=1.0, floor=0.2)}
    W = {1: random_psd(rng, p, scale=2.0)} if with_leader else {}
    E = {1: random_psd(rng, p, scale=1.0)} if with_leader and rng.random() < 0.5 else {}
    offsets = {}
    if rng.random() < 0.4:
        offsets = {j: rng.normal(size=p) for j in range(1, n + 1)}
    spec = CostSpec(Q=Q, R=R, D=D, W=W, E=E, offsets=offsets)

    x0 = rng.normal(size=p)
    u = rng.normal(size=(H, m)) * 0.5
    nb_trajs = {j: rng.normal(size=(H + 1, p)) for j in {e[1] for e in edges}}
    leader_traj = None
    if with_leader:
        leader_traj = dyn.rollout(leader_model, [rng.normal(size=p)],
                                  np.zeros((1, H, 0)), 0)[0]
    nb = NeighborBundle(nb_trajs, leader=leader_traj)
    return LocalProblem(i, model, x0, nb, spec), u


def lq_batch_solution(A, B, Q, R, D, x0, H):
    """Dense normal-equations solution of the single-agent LQ problem.

    Cost: 1/2 sum_{t<H} (x_t' Q x_t + u_t' R u_t) + 1/2 x_H' D x_H with
    x_{t+1} = A x_t + B u_t; returns the flattened optimal controls.
    Independent of the sweep-based solver path.
    """
    p, m = B.shape
    # x_stack = S u + T x0 for x_1..x_H
    S = np.zeros((H * p, H * m))
    T = np.zeros((H * p, p))
    Apow = [np.eye(p)]
    for _ in range(H):
        Apow.append(A @ Apow[-1])
    for t in range(1, H + 1):
        T[(t - 1) * p:t * p] = Apow[t]
        for s in range(t):
            S[(t - 1) * p:t * p, s * m:(s + 1) * m] = Apow[t - 1 - s] @ B
    Qbar = np.zeros((H * p, H * p))
    for t in range(1, H):
        Qbar[(t - 1) * p:t * p, (t - 1) * p:t * p] = Q
    Qbar[(H - 1) * p:, (H - 1) * p:] = D
    Rbar = np.kron(np.eye(H), R)
    lhs = Rbar + S.T @ Qbar @ S
    rhs = -S.T @ Qbar @ T @ x0
    return np.linalg.solve(lhs, rhs)
