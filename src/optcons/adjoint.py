"""Costate sweeps, exact gradients and Hessians of the local cost.

The derivatives below take a stack of K agents of one model, windows
along a leading axis; every recursion runs once for the stack, and a row
equals that agent's stack of one bit for bit.  They read the windows'
stage Jacobians (A, B) from ``linearize_window``; callers linearize once
per update and pass the same pair to the costate sweep, the gradient and
the Hessian.

The gradient comes from one backward costate pass: the costate lambda(t)
accumulates the cost's sensitivity to the state, and the stationarity
residual R u(t) + lambda(t+1) df/du is exactly the derivative of the local
cost with respect to u(t) (neighbors frozen); the H residuals of a window
are two stacked matmuls.

The Hessian is the exact second derivative of the same local cost with
respect to the flattened control sequence, one column per control
coordinate.  Every column is carried at once through the two recursions
the window imposes: a forward state-sensitivity pass (zero initial
condition; a unit control perturbation enters as a slice add of B(t) at
its stage) and a backward second-order costate pass (seeded by the
terminal weights) that carries the lambda-weighted dynamics curvature.
Each recursion step is one matmul and one slice add; every other product
is a single stacked matmul over the window's stages, and the R and
control-curvature terms are added onto the diagonal blocks.  The stacked
products keep the per-stage operand layouts and order of additions of a
stage-by-stage assembly, so they give it bit for bit.

Finite-difference twins of both quantities serve as independent oracles in
the tests and as a debugging aid.
"""

from __future__ import annotations

import numpy as np

from . import dynamics as dyn
from .cost import CostSpec, NeighborBundle, local_cost, local_errors
from .errors import NumericError


def linearize_window(model: dyn.Model, trajs, us, k0: int = 0):
    """Stage Jacobians of a stack of windows: (A, B) stacked as
    (K, H, p, p) and (K, H, p, m), with A[a, t], B[a, t] the Jacobians at
    (x_a(t), u_a(t), k0 + t); one dyn.linearize call."""
    us = np.asarray(us, dtype=float)
    return dyn.linearize(model, np.asarray(trajs, dtype=float)[:, :us.shape[1]], us, k0)


def costate_sweep(agents, trajs, us, jac, bundles, spec: CostSpec) -> np.ndarray:
    """Backward costate recursion of a stack of agents; returns the
    (K, H+1, p) array of lambda(t), one row per agent.

    ``agents`` and ``bundles`` give each row's agent and neighbor bundle,
    ``jac`` the windows' (A, B) from ``linearize_window``.  lambda(H)
    collects the terminal weights; going backward, in one stacked step,
    lambda(t) = sum_j Q_ij e_ij(t) + lambda(t+1) A(t), the leader being
    neighbour 0.  lambda(0) is computed for completeness but unused by the
    gradient.
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    A, _ = jac
    K, H, p = trajs.shape[0], us.shape[1], trajs.shape[2]

    stage_src = np.zeros((K, H + 1, p))
    lambdas = np.zeros((K, H + 1, p))
    for a, (i, nb) in enumerate(zip(agents, bundles)):
        for e, Q, D in local_errors(i, trajs[a], us[a], nb, spec):
            stage_src[a] += e @ Q
            lambdas[a, H] += D @ e[H]

    for t in range(H - 1, -1, -1):
        lambdas[:, t] = stage_src[:, t] + (lambdas[:, t + 1, None] @ A[:, t])[:, 0]
    return lambdas


def gradient(agents, us, jac, lambdas, spec: CostSpec) -> np.ndarray:
    """Exact local-cost gradients of a stack of agents, (K, H*m), each row
    flattened time-major.

    Block t is the stationarity residual R u(t) + lambda(t+1) B(t), with
    ``jac`` the windows' (A, B); it vanishes at an optimal control sequence.
    """
    us = np.asarray(us, dtype=float)
    K, H, _ = us.shape
    _, B = jac
    if lambdas.shape[1] != H + 1:
        raise ValueError(f"costate has {lambdas.shape[1]} rows, expected {H + 1}")
    R = np.array([spec.R[i] for i in agents])
    g = (R[:, None] @ us[..., None])[..., 0] + (lambdas[:, 1:, None, :] @ B)[..., 0, :]
    return g.reshape(K, -1)


def _state_curvatures(i: int, spec: CostSpec, p: int):
    """Constant stage and terminal state curvature of the local cost."""
    C_stage = np.zeros((p, p))
    C_term = np.zeros((p, p))
    for _, Q, D in spec.terms(i, p):
        C_stage += Q
        C_term += D
    return C_stage, C_term


def hessian(agents, model: dyn.Model, trajs, us, jac, lambdas, spec: CostSpec,
            k0: int = 0) -> np.ndarray:
    """Exact (H*m, H*m) Hessians of a stack of agents' local costs,
    neighbors frozen, as a (K, H*m, H*m) array.

    Column s*m + a is the response to a unit perturbation of u(s)[a].  Two
    recursions over the windows' (A, B) ``jac`` carry all H*m columns of
    every agent at once: the forward state sensitivity dx(t+1) = A(t) dx(t)
    [+ B(t) at the perturbed stage] and the backward second-order costate
    dlam(t) = (C + Mxx(t)) dx(t) + A(t)^T dlam(t+1) [+ Mxu(t)], from
    dlam(H) = C_term dx(H).  Each recursion step is one matmul plus a slice
    add; the remaining products are one stacked matmul each.  Row block t
    is then B(t)^T dlam(t+1) + Mux(t) dx(t), plus R + Muu(t) on the
    diagonal block.  M(t) holds the model's lambda(t+1)-weighted second
    derivatives, all from one dyn.second_order_action call.  Each matrix
    is symmetrized once if assembly drift exceeds 1e-12 (an error beyond
    1e-8 relative would indicate a broken model derivative).
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    K, H, m = us.shape
    p = trajs.shape[2]
    n = H * m
    C_stage, C_term = map(np.array, zip(*(_state_curvatures(i, spec, p) for i in agents)))
    R = np.array([spec.R[i] for i in agents])
    A, B = jac

    M = dyn.second_order_action(model, trajs[:, :H], us, k0, lambdas[:, 1:])
    Mxx, Mxu = M[..., :p, :p], M[..., :p, p:]
    Mux, Muu = M[..., p:, :p], M[..., p:, p:]

    dxs = np.zeros((K, H + 1, p, n))
    for t in range(H):
        np.matmul(A[:, t], dxs[:, t], out=dxs[:, t + 1])
        dxs[:, t + 1, :, t * m:(t + 1) * m] += B[:, t]

    # dlam(0) does not enter the Hessian and is not computed.
    src = (C_stage[:, None] + Mxx[:, 1:]) @ dxs[:, 1:H]
    dlam = np.empty((K, H + 1, p, n))
    dlam[:, H] = C_term @ dxs[:, H]
    for t in range(H - 1, 0, -1):
        dlam[:, t] = src[:, t - 1] + A[:, t].transpose(0, 2, 1) @ dlam[:, t + 1]
        dlam[:, t, :, t * m:(t + 1) * m] += Mxu[:, t]

    blocks = B.transpose(0, 1, 3, 2) @ dlam[:, 1:]
    diag = blocks.reshape(K, H, m, H, m)
    rows, idx = np.arange(K)[:, None], np.arange(H)
    diag[rows, idx, :, idx, :] += R[:, None]
    blocks += Mux @ dxs[:, :H]
    diag[rows, idx, :, idx, :] += Muu

    Hs = blocks.reshape(K, n, n)
    for a, i in enumerate(agents):
        scale, drift = np.linalg.norm(Hs[a]), np.linalg.norm(Hs[a] - Hs[a].T)
        if scale > 0 and drift > 1e-8 * scale:
            raise NumericError(
                f"agent {i}: Hessian asymmetry {drift / scale:.2e} exceeds tolerance")
        if drift > 1e-12:
            Hs[a] = 0.5 * (Hs[a] + Hs[a].T)
    return Hs


def fd_gradient(i: int, model: dyn.Model, x0, u_i, nb: NeighborBundle,
                spec: CostSpec, k0: int = 0, h=None) -> np.ndarray:
    """Central differences of local_cost; the gradient's independent oracle."""
    u_i = np.asarray(u_i, dtype=float)
    H, m = u_i.shape
    flat = u_i.reshape(-1)
    if h is not None and not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")

    def value(vec):
        u = vec.reshape(H, m)
        traj = dyn.rollout(model, [x0], u[None], k0)[0]
        return local_cost(i, traj, u, nb, spec)

    g = np.empty(flat.size)
    for idx in range(flat.size):
        hk = h if h is not None else 1e-6 * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        g[idx] = (value(flat + e) - value(flat - e)) / (2.0 * hk)
    return g


def fd_hessian(i: int, model: dyn.Model, x0, u_i, nb: NeighborBundle,
               spec: CostSpec, k0: int = 0, h=None) -> np.ndarray:
    """Central differences of the sweep gradient; the Hessian's oracle."""
    u_i = np.asarray(u_i, dtype=float)
    H, m = u_i.shape
    flat = u_i.reshape(-1)
    if h is not None and not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")

    def grad(vec):
        u = vec.reshape(1, H, m)
        traj = dyn.rollout(model, [x0], u, k0)
        jac = linearize_window(model, traj, u, k0)
        lam = costate_sweep([i], traj, u, jac, [nb], spec)
        return gradient([i], u, jac, lam, spec)[0]

    Hmat = np.empty((flat.size, flat.size))
    for idx in range(flat.size):
        hk = h if h is not None else 1e-4 * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        Hmat[:, idx] = (grad(flat + e) - grad(flat - e)) / (2.0 * hk)
    return 0.5 * (Hmat + Hmat.T)
