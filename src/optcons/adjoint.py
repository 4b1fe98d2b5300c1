"""Costate sweeps, exact gradients and Hessians of the local cost.

The derivatives below read the window's stage Jacobians (A, B) from
``linearize_window``; callers linearize once per update and pass the same
pair to the costate sweep, the gradient and the Hessian.

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
from .cost import CostSpec, NeighborBundle, local_cost, _check_horizons
from .errors import NumericError


def _resolve_mode(i: int, spec: CostSpec, mode: str) -> bool:
    """Return True when leader terms participate for agent i."""
    has_leader_terms = i in spec.W or i in spec.E
    if mode == "auto":
        return has_leader_terms
    if mode == "leaderless":
        if has_leader_terms:
            raise ValueError(
                f"agent {i} has leader weights but the sweep runs in leaderless mode")
        return False
    if mode == "leader_follower":
        return has_leader_terms
    raise ValueError(f"unknown mode {mode!r}")


def linearize_window(model: dyn.Model, traj_i, u_i, k0: int = 0):
    """Stage Jacobians of a window: (A, B) stacked as (H, p, p) and (H, p, m),
    with A[t], B[t] the Jacobians at (x(t), u(t), k0 + t); one
    dyn.linearize call."""
    u_i = np.asarray(u_i, dtype=float)
    return dyn.linearize(model, np.asarray(traj_i, dtype=float)[:len(u_i)], u_i, k0)


def costate_sweep(i: int, traj_i, u_i, jac, nb: NeighborBundle,
                  spec: CostSpec, mode: str = "auto") -> np.ndarray:
    """Backward costate recursion; returns the (H+1, p) array of lambda(t).

    ``jac`` is the window's (A, B) from ``linearize_window``.  lambda(H)
    collects the terminal weights; going backward,
    lambda(t) = sum_j Q_ij e_ij(t) [+ W_il e_il(t)] + lambda(t+1) A(t).
    lambda(0) is computed for completeness but unused by the gradient.
    """
    traj_i = np.asarray(traj_i, dtype=float)
    u_i = np.asarray(u_i, dtype=float)
    H = _check_horizons(i, traj_i, u_i, nb)
    A, _ = jac
    p = traj_i.shape[1]
    use_leader = _resolve_mode(i, spec, mode)

    z_i = traj_i - spec.offset(i, p)
    stage_src = np.zeros((H + 1, p))
    term_src = np.zeros(p)
    for j, Q, D in spec.edge_terms(i, p):
        if j not in nb.trajectories:
            raise ValueError(f"agent {i}: bundle is missing neighbor {j}")
        e = z_i - (np.asarray(nb.trajectories[j], dtype=float) - spec.offset(j, p))
        stage_src += e @ Q
        term_src += D @ e[H]
    if use_leader:
        if nb.leader is None:
            raise ValueError(f"agent {i} has leader weights but no leader trajectory")
        el = z_i - (np.asarray(nb.leader, dtype=float) - spec.offset(0, p))
        W = spec.W.get(i)
        E = spec.E.get(i)
        if W is not None:
            stage_src += el @ W
        if E is not None:
            term_src += E @ el[H]

    lambdas = np.empty((H + 1, p))
    lambdas[H] = term_src
    for t in range(H - 1, -1, -1):
        lambdas[t] = stage_src[t] + lambdas[t + 1] @ A[t]
    return lambdas


def gradient(i: int, u_i, jac, lambdas, spec: CostSpec) -> np.ndarray:
    """Exact local-cost gradient, flattened time-major (H*m,).

    Block t is the stationarity residual R u(t) + lambda(t+1) B(t), with
    ``jac`` the window's (A, B); it vanishes at an optimal control sequence.
    """
    u_i = np.asarray(u_i, dtype=float)
    H = u_i.shape[0]
    _, B = jac
    if lambdas.shape[0] != H + 1:
        raise ValueError(f"costate has {lambdas.shape[0]} rows, expected {H + 1}")
    g = (spec.R[i] @ u_i[:, :, None])[..., 0] + (lambdas[1:, None, :] @ B)[:, 0, :]
    return g.reshape(-1)


def _state_curvatures(i: int, spec: CostSpec, p: int, use_leader: bool):
    """Constant stage and terminal state curvature of the local cost."""
    C_stage = np.zeros((p, p))
    C_term = np.zeros((p, p))
    for j, Q, D in spec.edge_terms(i, p):
        C_stage += Q
        C_term += D
    if use_leader:
        if i in spec.W:
            C_stage += spec.W[i]
        if i in spec.E:
            C_term += spec.E[i]
    return C_stage, C_term


def hessian(i: int, model: dyn.Model, traj_i, u_i, jac, lambdas, spec: CostSpec,
            mode: str = "auto", k0: int = 0) -> np.ndarray:
    """Exact (H*m, H*m) Hessian of the local cost, neighbors frozen.

    Column s*m + a is the response to a unit perturbation of u(s)[a].  Two
    recursions over the window's (A, B) ``jac`` carry all H*m columns at
    once: the forward state sensitivity dx(t+1) = A(t) dx(t) [+ B(t) at the
    perturbed stage] and the backward second-order costate
    dlam(t) = (C + Mxx(t)) dx(t) + A(t)^T dlam(t+1) [+ Mxu(t)], from
    dlam(H) = C_term dx(H).  Each recursion step is one matmul plus a slice
    add; the remaining products are one stacked matmul per window.  Row
    block t is then B(t)^T dlam(t+1) + Mux(t) dx(t), plus R + Muu(t) on the
    diagonal block.  M(t) holds the model's lambda(t+1)-weighted second
    derivatives, all H stages from one dyn.second_order_action call.  The
    result is symmetrized once if assembly drift exceeds 1e-12 (an error
    beyond 1e-8 relative would indicate a broken model derivative).
    """
    traj_i = np.asarray(traj_i, dtype=float)
    u_i = np.asarray(u_i, dtype=float)
    H, m = u_i.shape
    p = traj_i.shape[1]
    n = H * m
    use_leader = _resolve_mode(i, spec, mode)
    C_stage, C_term = _state_curvatures(i, spec, p, use_leader)
    R = spec.R[i]
    A, B = jac

    M = dyn.second_order_action(model, traj_i[:H], u_i, k0, lambdas[1:])
    Mxx, Mxu = M[:, :p, :p], M[:, :p, p:]
    Mux, Muu = M[:, p:, :p], M[:, p:, p:]

    dxs = np.zeros((H + 1, p, n))
    for t in range(H):
        np.matmul(A[t], dxs[t], out=dxs[t + 1])
        dxs[t + 1][:, t * m:(t + 1) * m] += B[t]

    # dlam(0) does not enter the Hessian and is not computed.
    src = (C_stage + Mxx[1:]) @ dxs[1:H]
    dlam = np.empty((H + 1, p, n))
    dlam[H] = C_term @ dxs[H]
    for t in range(H - 1, 0, -1):
        dlam[t] = src[t - 1] + A[t].T @ dlam[t + 1]
        dlam[t][:, t * m:(t + 1) * m] += Mxu[t]

    blocks = B.transpose(0, 2, 1) @ dlam[1:]
    diag = blocks.reshape(H, m, H, m)
    idx = np.arange(H)
    diag[idx, :, idx, :] += R
    blocks += Mux @ dxs[:H]
    diag[idx, :, idx, :] += Muu

    Hmat = blocks.reshape(n, n)
    scale = np.linalg.norm(Hmat)
    drift = np.linalg.norm(Hmat - Hmat.T)
    if scale > 0 and drift > 1e-8 * scale:
        raise NumericError(
            f"agent {i}: Hessian asymmetry {drift / scale:.2e} exceeds tolerance")
    if drift > 1e-12:
        Hmat = 0.5 * (Hmat + Hmat.T)
    return Hmat


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
        traj = dyn.rollout(model, x0, u, k0)
        return local_cost(i, traj, u, nb, spec)

    g = np.empty(flat.size)
    for idx in range(flat.size):
        hk = h if h is not None else 1e-6 * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        g[idx] = (value(flat + e) - value(flat - e)) / (2.0 * hk)
    return g


def fd_hessian(i: int, model: dyn.Model, x0, u_i, nb: NeighborBundle,
               spec: CostSpec, mode: str = "auto", k0: int = 0, h=None) -> np.ndarray:
    """Central differences of the sweep gradient; the Hessian's oracle."""
    u_i = np.asarray(u_i, dtype=float)
    H, m = u_i.shape
    flat = u_i.reshape(-1)
    if h is not None and not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")

    def grad(vec):
        u = vec.reshape(H, m)
        traj = dyn.rollout(model, x0, u, k0)
        jac = linearize_window(model, traj, u, k0)
        lam = costate_sweep(i, traj, u, jac, nb, spec, mode=mode)
        return gradient(i, u, jac, lam, spec)

    Hmat = np.empty((flat.size, flat.size))
    for idx in range(flat.size):
        hk = h if h is not None else 1e-4 * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        Hmat[:, idx] = (grad(flat + e) - grad(flat - e)) / (2.0 * hk)
    return 0.5 * (Hmat + Hmat.T)
