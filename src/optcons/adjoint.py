"""Costate sweeps, exact gradients and Hessians of the local cost.

The derivatives below take a stack of K agents of one model, windows
along a leading axis, and the stack's cost-term table (``GroupTerms``);
each recursion over the stages is one banded solve for the stack, and a
row equals that agent's stack of one bit for bit.  They read the windows'
(A, B) from one ``linearize_window`` per update, and the Hessian also the
update's ``stage_blocks``, so none calls the model.  L below is unit lower
block-bidiagonal, -A(t) at (t+1, t).

The gradient comes from the costate lambda = L^-T src, whose sources are
summed per row from all of the stack's errors at once: the costate lambda(t)
accumulates the cost's sensitivity to the state, and the stationarity
residual R u(t) + lambda(t+1) df/du is exactly the derivative of the local
cost with respect to u(t) (neighbors frozen); the H residuals of a window
are two stacked matmuls.

The Hessian is the exact second derivative of the same local cost with
respect to the flattened control sequence, condensed from the forward
state sensitivities, one solve with L (Bock and Plitt, IFAC 1984; see
``hessian``).  It equals the stage-by-stage assembly with a backward
second-order costate pass to rounding.

The Newton step needs only (c I + H)^-1, and that has a form without H:
(c I + H) d = b is the KKT system of the quadratic model over (u, x) with
the linearized dynamics as constraints.  In stage order it is banded, its
bandwidth independent of H (Wright, JOTA 1993; Rao, Wright and Rawlings,
JOTA 1998); its Lagrangian curvature blocks are the same ``stage_blocks``
and ``kkt_band`` writes a stack's system as one LAPACK band.

The same L rolls a window out as a whole, by Newton on its stage defects
(``newton_rollout``; Lim et al., ICLR 2024, and Gonzalez et al., NeurIPS
2024, on Newton over a sequence's length).

Finite-difference twins of both quantities serve as independent oracles in
the tests and as a debugging aid.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dtbtrs

from . import dynamics as dyn
from .cost import CostSpec, GroupTerms, NeighborBundle, local_cost, local_errors
from .errors import NumericError


def linearize_window(model: dyn.Model, trajs, us, k0: int = 0):
    """Stage Jacobians of a stack of windows: (A, B) stacked as
    (K, H, p, p) and (K, H, p, m), with A[a, t], B[a, t] the Jacobians at
    (x_a(t), u_a(t), k0 + t); one dyn.linearize call."""
    us = np.asarray(us, dtype=float)
    return dyn.linearize(model, np.asarray(trajs, dtype=float)[:, :us.shape[1]], us, k0)


def _band_solve(A, rhs, trans: str) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs with trans "T", for the stack's rows
    of H+1 states set block-diagonally: one dtbtrs (kd = 2p-1).  ``rhs`` and
    the result are F-ordered (K (H+1) p, r) arrays."""
    K, H, p, _ = A.shape
    # ab.reshape(-1, 2p).T is the band, band[d, c] = L[c + d, c]: in state
    # t's (p, 2p) block, -A[a, t, i, j] sits at 2p j + p + i - j.
    ab = np.zeros((K, H + 1, p, 2 * p))
    band = ab.reshape(K, H + 1, -1)[:, :H, p:].reshape(K, H, p, 2 * p - 1)[..., :p]
    np.negative(A.transpose(0, 1, 3, 2), out=band)
    # A unit triangle is never singular: dtbtrs's info stays 0.
    x, _ = dtbtrs(ab.reshape(-1, 2 * p).T, rhs, uplo="L", trans=trans, diag="U")
    if K > 1 and not np.isfinite(x).all():
        # Rows meet only at zeros of the band, and 0 * nan is nan: solve
        # each row alone so that a non-finite row stays in that row.
        rows = np.split(rhs, K)
        x = np.concatenate([_band_solve(A[a:a + 1], rows[a], trans) for a in range(K)])
    return x


# The shortest window that ``newton_rollout`` pays for (``newton_pays``)
# and its iteration cap.  Measured per rollout of a 4-agent stack (p = 2,
# m = 1) on the inputs of the rounds r >= 1 of leader_follower windows
# (mpc.T=10, N_p = H), with the preset's linear_sine follower (3 iterations
# in most rollouts, 4-5 in the rest): median microseconds, stage loop /
# Newton, and the ratio of the mean times (2-core VM, numpy 2.4):
#
#       H   loop / Newton  ratio
#       8    129 / 331     2.67
#      16    253 / 344     1.45
#      24    367 / 391     1.11
#      28    475 / 399     0.90
#      32    479 / 368     0.80
#      48    746 / 429     0.62
#      64    997 / 555     0.59
NEWTON_MIN_H = 28
NEWTON_MAX_ITER = 5


def newton_pays(model: dyn.Model, H: int) -> bool:
    """Whether a warm round's windows of length H roll out by
    ``newton_rollout``: the model has the all-stages hook ``step_fn.stages``
    and no window function (which steps as fast), and H >= NEWTON_MIN_H."""
    f = model.step_fn
    return H >= NEWTON_MIN_H and hasattr(f, "stages") and not hasattr(f, "window")


def newton_rollout(model: dyn.Model, us, k0: int, guess, A) -> np.ndarray:
    """The rollouts (K, H+1, p) of windows us (K, H, m), stage t at time k0
    + t, from the stage-0 states of ``guess`` (K, H+1, p), by Newton on the
    stage defects started from ``guess``: F = ``step_fn.stages`` minus the
    next states, delta = L^-1 [0; F] by one ``_band_solve`` per iteration,
    with A (K, H, p, p) the Jacobians at the guess for the first iteration
    and one ``dyn.linearize`` of the moving rows for each later one.

    A row stops once max |delta| <= 1e-15 max(1, max |X|) over its states,
    after taking that delta, and is not updated again.  A row whose states
    turn non-finite, or that still moves after NEWTON_MAX_ITER iterations,
    is rolled out by ``dyn.rollout`` instead, with the other such rows (and
    every moving row if a Jacobian is not finite); the loop's errors and
    warnings are then its own, as the stopped rows are finite.  So, but for
    a non-finite Jacobian, a row equals its stack of one bit for bit; it
    agrees with the loop to rounding.
    """
    us = np.asarray(us, dtype=float)
    X = np.array(guess, dtype=float)
    K, H, _ = us.shape
    stopped = np.zeros(K, dtype=bool)
    rows, Xr, Ur = np.arange(K), X, us  # the moving rows of X, their states, controls
    with np.errstate(all="ignore"):
        for it in range(NEWTON_MAX_ITER):
            if it:
                try:
                    A = dyn.linearize(model, Xr[:, :H], Ur, k0)[0]
                except NumericError:
                    break
            F = model.step_fn.stages(Xr[:, :H], Ur, k0)
            if F.shape != Ur.shape[:2] + X.shape[2:]:
                raise ValueError(f"{model.name}: stages returned shape {F.shape}")
            rhs = np.zeros(Xr.shape)
            np.subtract(F, Xr[:, 1:], out=rhs[:, 1:])
            delta = _band_solve(A, rhs.reshape(-1, 1), "N").reshape(len(rows), -1)
            scale = np.maximum(1.0, np.abs(Xr).reshape(len(rows), -1).max(axis=1))
            done = np.abs(delta).max(axis=1) <= 1e-15 * scale  # False where nan
            Xr[:, 1:] += delta.reshape(Xr.shape)[:, 1:]
            X[rows[done]] = Xr[done]
            stopped[rows[done]] = True
            # A non-finite F or delta leaves its row's states non-finite.
            moving = ~done & np.isfinite(Xr).reshape(len(rows), -1).all(axis=1)
            if not moving.any():
                break
            rows, Xr, Ur = rows[moving], Xr[moving], Ur[moving]
    rest = ~stopped
    if rest.any():
        X[rest] = dyn.rollout(model, X[rest, 0], us[rest], k0)
    return X


def costate_sweep(terms: GroupTerms, trajs, us, jac, bundles) -> np.ndarray:
    """Backward costate recursion of a stack of agents; returns the
    (K, H+1, p) array of lambda(t), one row per agent.

    ``terms`` is the stack's table from ``CostSpec.group_terms``,
    ``bundles`` gives each row's neighbor bundle and ``jac`` the windows'
    (A, B) from ``linearize_window``.  lambda(H) collects the terminal
    weights and lambda(t) = sum_j Q_ij e_ij(t) + lambda(t+1) A(t) for t < H,
    the leader being neighbour 0: one banded solve with L^T for the stack.
    Each row's sources are summed in term order from all of the stack's
    errors at once; lambda(0) is computed but unused by the gradient.
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    A, _ = jac
    K, H, p = trajs.shape[0], us.shape[1], trajs.shape[2]

    E = local_errors(terms, trajs, us, bundles)
    sources = E @ terms.Q
    sources[:, H] = (terms.D @ E[:, H, :, None])[..., 0]  # the terminal D e(H)
    src = np.zeros((K, H + 1, p))
    np.add.at(src, terms.rows, sources)
    return _band_solve(A, src.reshape(-1, 1), "T").reshape(K, H + 1, p)


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


def stage_blocks(terms: GroupTerms, M) -> np.ndarray:
    """The curvature blocks of the local cost's Lagrangian in (x, u), one
    per stage, (K, H, p+m, p+m), from M of ``dyn.second_order_action``:
    M(t) plus the table's ``curvature``, [[W(t), Mxu(t)], [Mux(t), R +
    Muu(t)]] with W(t) = C_stage + Mxx(t), for t >= 1, and at t = 0, whose
    state x(0) is fixed, [[C_term, 0], [0, R + Muu(0)]]: the terminal
    curvature W(H) takes the free slot, so that each window's Lagrangian
    Hessian is the blocks' direct sum."""
    p = terms.C_term.shape[-1]
    blocks = M + terms.curvature[:, None]
    blocks[:, 0, :p, :p] = terms.C_term
    blocks[:, 0, :p, p:] = blocks[:, 0, p:, :p] = 0.0
    return blocks


@functools.lru_cache(maxsize=8)
def _kkt_layout(K: int, H: int, p: int, m: int):
    """Where ``kkt_band`` puts things: the constant band (the -I between
    each nu(t+1) and x(t+1)), the flat band positions of the per-round
    entries in ``kkt_band``'s order, those of the u rows' diagonals, and
    the u unknowns' indices in g's (K, H*m) order."""
    s = m + 2 * p
    kl = s - 1
    ld = 3 * kl + 1
    u = (np.arange(K)[:, None] * H + np.arange(H)) * s    # first unknown of stage t
    nu, x = u + m, u + m + p                               # nu(t+1), x(t+1)
    ur = u[..., None] + np.arange(m)
    nur = nu[..., None] + np.arange(p)
    xr = x[..., None] + np.arange(p)
    xu = np.concatenate([xr[:, :-1], ur[:, 1:]], axis=-1)  # [x(t), u(t)], t >= 1

    def at(rows, cols):
        # A[i, j] sits at band[j, 2 kl + i - j] of the (N, ld) C-ordered
        # band, the transpose of LAPACK's (ld, N) general band storage.
        rows, cols = rows[..., :, None], cols[..., None, :]
        return (cols * ld + 2 * kl + rows - cols).ravel()

    template = np.zeros((K * H * s, ld))
    template.flat[at(nur[..., None], xr[..., None])] = -1.0
    template.flat[at(xr[..., None], nur[..., None])] = -1.0
    index = np.concatenate([at(xu, xu), at(xr[:, -1:], xr[:, -1:]), at(ur[:, :1], ur[:, :1]),
                            at(ur, nur), at(nur, ur),
                            at(nur[:, 1:], xr[:, :-1]), at(xr[:, :-1], nur[:, 1:])])
    layout = template, index, (ur * ld + 2 * kl).ravel(), ur.ravel()
    for a in layout:
        a.setflags(write=False)
    return layout


def kkt_band(blocks, jac, c: float):
    """The Newton systems (c I + H) d = b of a stack's windows as one banded
    KKT system, without forming H.

    Row a's unknowns run stage by stage as [u(t) (m), nu(t+1) (p), x(t+1)
    (p)], with x the state sensitivities (x(0) = 0) and nu their
    multipliers; the stack's rows follow one another, so the system is
    block diagonal with half-bandwidth kl = m + 2p - 1.  Its entries are
    the ``stage_blocks`` (the u(t) diagonal plus c), B(t)^T and B(t)
    between u(t) and nu(t+1), A(t) and A(t)^T between nu(t+1) and x(t), and
    -I between nu(t+1) and x(t+1).  Eliminating x and nu leaves c I + H,
    H the Hessian of ``hessian`` in exact arithmetic, on the u unknowns.

    Returns (band, kl, rows): ``band`` in LAPACK's general band storage for
    dgbtrf, (3 kl + 1, N) and F-ordered, and ``rows`` the u unknowns'
    indices in g's (K, H*m) order.  The layout is built once per (K, H, p,
    m); each call copies its constant part and assigns the rest at once.
    """
    A, B = jac
    K, H, p, m = B.shape
    template, index, diag, rows = _kkt_layout(K, H, p, m)
    band = template.copy()
    flat = band.reshape(-1)
    flat[index] = np.concatenate([
        blocks[:, 1:].ravel(), blocks[:, :1, :p, :p].ravel(), blocks[:, :1, p:, p:].ravel(),
        B.transpose(0, 1, 3, 2).ravel(), B.ravel(),
        A[:, 1:].ravel(), A[:, 1:].transpose(0, 1, 3, 2).ravel()])
    flat[diag] += c
    return band.T, m + 2 * p - 1, rows


@functools.lru_cache(maxsize=8)
def _hessian_layout(K: int, H: int, p: int, m: int):
    """Where ``hessian`` puts things, as flat indices: B's entries, in its
    (K, H, p, m) order, in the sensitivity right-hand side (H, m, K, H+1,
    p), B(t) at stage t's columns and state t+1's rows; and the entries of
    the (K, H, m, m) diagonal blocks in the (K, H*m, H*m) Hessians."""
    a, t, i, j = np.ix_(np.arange(K), np.arange(H), np.arange(p), np.arange(m))
    rhs = (((t * m + j) * K + a) * (H + 1) + t + 1) * p + i
    a, t, i, j = np.ix_(np.arange(K), np.arange(H), np.arange(m), np.arange(m))
    diag = (a * H * m + t * m + i) * H * m + t * m + j
    layout = rhs.ravel(), diag.ravel()
    for idx in layout:
        idx.setflags(write=False)
    return layout


def hessian(blocks, jac) -> np.ndarray:
    """Exact (H*m, H*m) Hessians of a stack of agents' local costs,
    neighbors frozen, as a (K, H*m, H*m) array, from their ``stage_blocks``
    and the windows' (A, B) ``jac``.

    Column s*m + a is the response to a unit perturbation of u(s)[a].  The
    forward state sensitivities dx(t+1) = A(t) dx(t) [+ B(t) at the
    perturbed stage], all H*m columns of every agent, are one banded solve
    with L whose right-hand side holds B(t) in state t+1's rows and stage
    t's columns.  With S = dx(1..H) stacked as (K, H*p, H*m), the Hessian is
    S^T (W S) + C + C^T with C = Mux dx(0..H-1), plus R + Muu(t) on the
    diagonal blocks, all read from the blocks, symmetric as
    ``dyn.second_order_action`` returns M: W(t) = C_stage + Mxx(t) from
    stage t's for 1 <= t < H, W(H) = C_term from stage 0's, whose zero cross
    terms only meet dx(0) = 0.  Every matrix is then symmetrized, since
    S^T (W S) is symmetric only to rounding.
    """
    A, B = jac
    K, H, p, m = B.shape
    n = H * m

    at_rhs, at_diag = _hessian_layout(K, H, p, m)
    rhs = np.zeros(n * K * (H + 1) * p)
    rhs[at_rhs] = B.reshape(-1)
    dxs = _band_solve(A, rhs.reshape(n, -1).T, "N").T.reshape(n, K, H + 1, p)
    dxs = np.ascontiguousarray(dxs.transpose(1, 2, 3, 0))

    W = np.concatenate([blocks[:, 1:, :p, :p], blocks[:, :1, :p, :p]], axis=1)
    S = dxs[:, 1:].reshape(K, H * p, n)
    Hs = S.transpose(0, 2, 1) @ (W @ dxs[:, 1:]).reshape(K, H * p, n)
    C = (blocks[..., p:, :p] @ dxs[:, :H]).reshape(K, n, n)
    Hs += C
    Hs += C.transpose(0, 2, 1)
    Hs.reshape(-1)[at_diag] += blocks[..., p:, p:].reshape(-1)
    return 0.5 * (Hs + Hs.transpose(0, 2, 1))


def _central_differences(fn, u, h, rel: float) -> np.ndarray:
    """Central differences of fn at the flattened window u, one row per
    coordinate k, with step h, or rel (1 + |u_k|) when h is None."""
    flat = np.asarray(u, dtype=float).reshape(-1)
    if h is not None and not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    rows = []
    for idx in range(flat.size):
        hk = h if h is not None else rel * (1.0 + abs(flat[idx]))
        e = np.zeros(flat.size)
        e[idx] = hk
        rows.append((fn(flat + e) - fn(flat - e)) / (2.0 * hk))
    return np.array(rows)


def fd_gradient(i: int, model: dyn.Model, x0, u_i, nb: NeighborBundle,
                spec: CostSpec, k0: int = 0, h=None) -> np.ndarray:
    """Central differences of local_cost; the gradient's independent oracle."""
    H, m = np.shape(u_i)

    def value(vec):
        u = vec.reshape(H, m)
        return local_cost(i, dyn.rollout(model, [x0], u[None], k0)[0], u, nb, spec)

    return _central_differences(value, u_i, h, 1e-6)


def fd_hessian(i: int, model: dyn.Model, x0, u_i, nb: NeighborBundle,
               spec: CostSpec, k0: int = 0, h=None) -> np.ndarray:
    """Central differences of the sweep gradient; the Hessian's oracle."""
    H, m = np.shape(u_i)
    terms = spec.group_terms([i], model.state_dim)

    def grad(vec):
        u = vec.reshape(1, H, m)
        traj = dyn.rollout(model, [x0], u, k0)
        jac = linearize_window(model, traj, u, k0)
        return gradient(terms, u, jac, costate_sweep(terms, traj, u, jac, [nb]))[0]

    Hmat = _central_differences(grad, u_i, h, 1e-4).T
    return 0.5 * (Hmat + Hmat.T)
