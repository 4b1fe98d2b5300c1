"""Costate sweeps, exact gradients and Hessians of the local cost.

The derivatives below take a stack of K agents of one model, windows
along a leading axis, and the stack's cost-term table (``GroupTerms``);
every recursion runs once for the stack, and a row equals that agent's
stack of one bit for bit.  They read the windows' stage Jacobians (A, B)
from ``linearize_window``; callers linearize once per update and pass the
same pair to the costate sweep, the gradient and the Hessian.

The gradient comes from one backward costate pass, whose sources are
summed per row from all of the stack's errors at once: the costate lambda(t)
accumulates the cost's sensitivity to the state, and the stationarity
residual R u(t) + lambda(t+1) df/du is exactly the derivative of the local
cost with respect to u(t) (neighbors frozen); the H residuals of a window
are two stacked matmuls.

The Hessian is the exact second derivative of the same local cost with
respect to the flattened control sequence, assembled by condensing (Bock
and Plitt, IFAC 1984): one forward state-sensitivity pass carries every
control coordinate's column at once (zero initial condition; a unit
control perturbation enters as a slice add of B(t) at its stage), and the
Hessian is S^T W S over the stacked sensitivities S, plus the
control-state curvature cross terms and the R and control-curvature
diagonal blocks, one stacked matmul per term.  It equals the stage-by-stage
assembly with a backward second-order costate pass to rounding.

Finite-difference twins of both quantities serve as independent oracles in
the tests and as a debugging aid.
"""

from __future__ import annotations

import numpy as np

from . import dynamics as dyn
from .cost import CostSpec, GroupTerms, NeighborBundle, local_cost, local_errors
from .errors import NumericError


def linearize_window(model: dyn.Model, trajs, us, k0: int = 0):
    """Stage Jacobians of a stack of windows: (A, B) stacked as
    (K, H, p, p) and (K, H, p, m), with A[a, t], B[a, t] the Jacobians at
    (x_a(t), u_a(t), k0 + t); one dyn.linearize call."""
    us = np.asarray(us, dtype=float)
    return dyn.linearize(model, np.asarray(trajs, dtype=float)[:, :us.shape[1]], us, k0)


def costate_sweep(terms: GroupTerms, trajs, us, jac, bundles) -> np.ndarray:
    """Backward costate recursion of a stack of agents; returns the
    (K, H+1, p) array of lambda(t), one row per agent.

    ``terms`` is the stack's table from ``CostSpec.group_terms``,
    ``bundles`` gives each row's neighbor bundle and ``jac`` the windows'
    (A, B) from ``linearize_window``.  lambda(H) collects the terminal
    weights; going backward, in one stacked step, lambda(t) = sum_j Q_ij
    e_ij(t) + lambda(t+1) A(t), the leader being neighbour 0.  Each row's
    sources are summed in term order from all of the stack's errors at once.
    lambda(0) is computed for completeness but unused by the gradient.
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    A, _ = jac
    K, H, p = trajs.shape[0], us.shape[1], trajs.shape[2]

    E = local_errors(terms, trajs, us, bundles)
    stage_src = np.zeros((K, H + 1, p))
    lambdas = np.zeros((K, H + 1, p))
    np.add.at(stage_src, terms.rows, E @ terms.Q)
    np.add.at(lambdas[:, H], terms.rows, (terms.D @ E[:, H, :, None])[..., 0])

    for t in range(H - 1, -1, -1):
        lambdas[:, t] = stage_src[:, t] + (lambdas[:, t + 1, None] @ A[:, t])[:, 0]
    return lambdas


def gradient(terms: GroupTerms, us, jac, lambdas) -> np.ndarray:
    """Exact local-cost gradients of a stack of agents, (K, H*m), each row
    flattened time-major.

    Block t is the stationarity residual R u(t) + lambda(t+1) B(t), with R
    from ``terms`` and ``jac`` the windows' (A, B); it vanishes at an
    optimal control sequence.
    """
    us = np.asarray(us, dtype=float)
    K, H, _ = us.shape
    _, B = jac
    if lambdas.shape[1] != H + 1:
        raise ValueError(f"costate has {lambdas.shape[1]} rows, expected {H + 1}")
    g = ((terms.R[:, None] @ us[..., None])[..., 0]
         + (lambdas[:, 1:, None, :] @ B)[..., 0, :])
    return g.reshape(K, -1)


def hessian(terms: GroupTerms, model: dyn.Model, trajs, us, jac, lambdas,
            k0: int = 0) -> np.ndarray:
    """Exact (H*m, H*m) Hessians of a stack of agents' local costs,
    neighbors frozen, as a (K, H*m, H*m) array.

    Column s*m + a is the response to a unit perturbation of u(s)[a].  One
    recursion over the windows' (A, B) ``jac`` carries all H*m columns of
    every agent at once: the forward state sensitivity dx(t+1) = A(t) dx(t)
    [+ B(t) at the perturbed stage], one matmul plus a slice add per step.
    With S = dx(1..H) stacked as (K, H*p, H*m) and the state curvatures
    W(t) = C_stage + Mxx(t) for t < H, W(H) = C_term (C_stage, C_term and R
    from ``terms``), the Hessian is
    S^T (W S) + Mux dx(0..H-1) + dx(0..H-1)^T Mxu, plus R + Muu(t) on the
    diagonal blocks; M(t) holds the model's lambda(t+1)-weighted second
    derivatives, all from one dyn.second_order_action call.  The cross term
    reads both Mux and Mxu, so a model whose M is not symmetric makes H
    asymmetric: beyond 1e-8 relative that is a broken model derivative and
    raises NumericError.  Every matrix is then symmetrized.
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    K, H, m = us.shape
    p = trajs.shape[2]
    n = H * m
    A, B = jac

    M = dyn.second_order_action(model, trajs[:, :H], us, k0, lambdas[:, 1:])
    Mxx, Mxu = M[..., :p, :p], M[..., :p, p:]
    Mux, Muu = M[..., p:, :p], M[..., p:, p:]

    dxs = np.zeros((K, H + 1, p, n))
    for t in range(H):
        np.matmul(A[:, t], dxs[:, t], out=dxs[:, t + 1])
        dxs[:, t + 1, :, t * m:(t + 1) * m] += B[:, t]

    W = np.concatenate([terms.C_stage[:, None] + Mxx[:, 1:], terms.C_term[:, None]],
                       axis=1)
    S = dxs[:, 1:].reshape(K, H * p, n)
    Hs = S.transpose(0, 2, 1) @ (W @ dxs[:, 1:]).reshape(K, H * p, n)
    Hs += (Mux @ dxs[:, :H]).reshape(K, n, n)
    Hs += (Mxu.transpose(0, 1, 3, 2) @ dxs[:, :H]).reshape(K, n, n).transpose(0, 2, 1)
    diag = Hs.reshape(K, H, m, H, m)
    rows, idx = np.arange(K)[:, None], np.arange(H)
    diag[rows, idx, :, idx, :] += terms.R[:, None] + Muu

    scale = np.linalg.norm(Hs, axis=(1, 2))
    drift = np.linalg.norm(Hs - Hs.transpose(0, 2, 1), axis=(1, 2))
    bad = np.flatnonzero((scale > 0) & (drift > 1e-8 * scale))
    if bad.size:
        a = bad[0]
        raise NumericError(f"agent {terms.agents[a]}: Hessian asymmetry "
                           f"{drift[a] / scale[a]:.2e} exceeds tolerance")
    return 0.5 * (Hs + Hs.transpose(0, 2, 1))


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

    terms = spec.group_terms([i], model.state_dim)

    def grad(vec):
        u = vec.reshape(1, H, m)
        traj = dyn.rollout(model, [x0], u, k0)
        jac = linearize_window(model, traj, u, k0)
        lam = costate_sweep(terms, traj, u, jac, [nb])
        return gradient(terms, u, jac, lam)[0]

    Hmat = np.empty((flat.size, flat.size))
    for idx in range(flat.size):
        hk = h if h is not None else 1e-4 * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        Hmat[:, idx] = (grad(flat + e) - grad(flat - e)) / (2.0 * hk)
    return 0.5 * (Hmat + Hmat.T)
