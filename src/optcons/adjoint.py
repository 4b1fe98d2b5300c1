"""Costate sweeps, exact gradients and Hessians of the local cost.

The derivatives below take a stack of K agents of one model, windows
along a leading axis, and the stack's cost-term table (``GroupTerms``);
each recursion over the stages is one banded solve for the stack, and a
row equals that agent's stack of one bit for bit.  They read the windows'
(A, B) from one ``linearize_window`` per update, and the Hessian also the
update's ``stage_blocks``, so none calls the model.  L below is unit lower
block-bidiagonal, -A(t) at (t+1, t); its band (``_lower_band``) is built
once per round, from that linearization, and the costate sweep, the dense
rows' Hessians and the next round's Newton rollouts all read it.

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
2024, on Newton over a sequence's length), started from the states that
the banded direction predicts (a tangential predictor; Diehl, Bock and
Schlöder, SIAM J. Control Optim. 2005) and relinearized only in rows whose
steps contract slowly.

Finite-difference twins of both quantities serve as independent oracles in
the tests and as a debugging aid.
"""

from __future__ import annotations

import functools

import numpy as np

from . import dynamics as dyn
from ._lapack import dtbtrs
from .cost import GroupTerms, local_errors
from .errors import NumericError


def linearize_window(model: dyn.Model, trajs, us, k0: int = 0):
    """Stage Jacobians of a stack of windows: (A, B) stacked as
    (K, H, p, p) and (K, H, p, m), with A[a, t], B[a, t] the Jacobians at
    (x_a(t), u_a(t), k0 + t); one dyn.linearize call."""
    us = np.asarray(us, dtype=float)
    return dyn.linearize(model, np.asarray(trajs, dtype=float)[:, :us.shape[1]], us, k0)


def _lower_band(A) -> np.ndarray:
    """The band of L for ``_band_solve`` from a stack's Jacobians A (K, H,
    p, p), as (K, H+1, p, 2p): row a's band is its [a]."""
    K, H, p, _ = A.shape
    # ab.reshape(-1, 2p).T is LAPACK's band, band[d, c] = L[c + d, c]: in
    # state t's (p, 2p) block, -A[a, t, i, j] sits at 2p j + p + i - j.
    ab = np.zeros((K, H + 1, p, 2 * p))
    band = ab.reshape(K, H + 1, -1)[:, :H, p:].reshape(K, H, p, 2 * p - 1)[..., :p]
    np.negative(A.transpose(0, 1, 3, 2), out=band)
    return ab


def _band_solve(ab, rhs, trans: str) -> np.ndarray:
    """Solve L x = rhs, or L^T x = rhs with trans "T", for the stack's rows
    of H+1 states set block-diagonally, L's band ``ab`` from
    ``_lower_band``: one dtbtrs (kd = 2p-1).  ``rhs`` and the result are
    F-ordered (K (H+1) p, r) arrays."""
    K, p = ab.shape[0], ab.shape[2]
    # A unit triangle is never singular: dtbtrs's info stays 0.
    x, _ = dtbtrs(ab.reshape(-1, 2 * p).T, rhs, uplo="L", trans=trans, diag="U")
    if K > 1 and not np.isfinite(x).all():
        # Rows meet only at zeros of the band, and 0 * nan is nan: solve
        # each row alone so that a non-finite row stays in that row.
        rows = np.split(rhs, K)
        x = np.concatenate([_band_solve(ab[a:a + 1], rows[a], trans) for a in range(K)])
    return x


# The shortest window that ``newton_rollout`` pays for (``newton_pays``),
# its iteration cap and its relinearization threshold.  NEWTON_MIN_H was
# measured per rollout of a 4-agent stack (p = 2, m = 1) on the inputs of
# the rounds r >= 1 of leader_follower windows (mpc.T=10, N_p = H), with
# the preset's linear_sine follower, started from the guess (3 iterations
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
#
# NEWTON_THETA is the contraction a row's delta must reach, against the one
# before it, for the row to keep its Jacobians (theta = 0 is exact Newton,
# inf the chord method).  Measured from the predicted states on 6 seed-0
# tracking_long episodes (1,098 group-rounds, 4,392 Newton rows; the stage
# loop's fallbacks are all in their cold window 0) and on the 24 rows of the
# amp = 0.1 stage-loop cases in tests/test_newton_rollout.py, started from
# their first Newton iterate:
#
#               tracking_long                        amp = 0.1
#     theta   iterations  linearize   fallback    fallback  iterations
#             / rollout   / group-round  rows       rows      / row
#     0         2.28        2.28          0          0        3.62
#     1e-4      2.28        1.27          0          0        3.62
#     1e-3      2.29        1.07          0          0        3.79
#     1e-2      2.29        1.06         19          9        4.88
#     1e-1      2.29        1.01         90         12        5.00
#     inf       2.29        1.00         95         12        5.00
#
# Started from the guess with theta = 0, as before the predicted start,
# tracking_long made 2.90 iterations per rollout and 2.90 linearize calls
# per group-round.
NEWTON_MIN_H = 28
NEWTON_MAX_ITER = 5
NEWTON_THETA = 1e-3


def newton_pays(model: dyn.Model, H: int) -> bool:
    """Whether a warm round's windows of length H roll out by
    ``newton_rollout``: the model has the all-stages hook ``step_fn.stages``
    and no window function (which steps as fast), and H >= NEWTON_MIN_H."""
    f = model.step_fn
    return H >= NEWTON_MIN_H and hasattr(f, "stages") and not hasattr(f, "window")


def newton_rollout(model: dyn.Model, us, k0: int, guess, band, step=None) -> np.ndarray:
    """The rollouts (K, H+1, p) of windows us (K, H, m), stage t at time k0
    + t, from the stage-0 states of ``guess`` (K, H+1, p), by Newton on the
    stage defects: F = ``step_fn.stages`` minus the next states, delta =
    L^-1 [0; F] by one ``_band_solve`` per iteration, ``band`` L's band
    (``_lower_band``) from the Jacobians A at the guess, kept from one
    iteration to the next but in the rows relinearized, whose bands are
    rebuilt in a copy (the given band is not written).

    A row starts from guess + [0; step], ``step`` (K, H, p) the predicted
    state change of ``solver.banded_direction``; a zero row, or no
    ``step``, starts from the guess.  For a control-affine f with Jacobians
    at the guess, the predicted start is the first Newton iterate from the
    guess in exact arithmetic, so it saves that iteration.  A row keeps its
    A (at first, the guess's) while each delta shrinks to at most
    NEWTON_THETA times the one before it, the step counting as the one
    before the first (chord iterations; Kelley, "Iterative Methods for
    Linear and Nonlinear Equations", SIAM 1995, ch. 5); a row whose delta
    did not, or with no step before it, is relinearized by one
    ``dyn.linearize`` of those rows before the next iteration.

    A row stops once max |delta| <= 1e-15 max(1, max |X|) over its states,
    after taking that delta, and is not updated again.  A row whose states
    turn non-finite, or that still moves after NEWTON_MAX_ITER iterations,
    is rolled out by ``dyn.rollout`` instead, with the other such rows (and
    every moving row if a Jacobian is not finite); the loop's errors (their
    ``row`` in this stack) and warnings are then its own, as the stopped
    rows are finite.  So, but for a non-finite Jacobian, a row equals its
    stack of one bit for bit; it agrees with the loop to rounding.
    """
    us = np.asarray(us, dtype=float)
    X = np.array(guess, dtype=float)
    K, H, _ = us.shape
    last = np.zeros(K)  # each row's step before its next delta
    if step is not None:
        X[:, 1:] += step
        last = np.abs(step).reshape(K, -1).max(axis=1)
    stopped, stale = np.zeros(K, dtype=bool), np.zeros(K, dtype=bool)
    # The moving rows of X, their states, controls and L's band.
    rows, Xr, Ur = np.arange(K), X, us
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            if stale.any():
                try:
                    A = dyn.linearize(model, Xr[stale, :H], Ur[stale], k0)[0]
                    band = band.copy()
                    band[stale] = _lower_band(A)
                except NumericError:
                    break
            F = model.step_fn.stages(Xr[:, :H], Ur, k0)
            if F.shape != Ur.shape[:2] + X.shape[2:]:
                raise ValueError(f"{model.name}: stages returned shape {F.shape}")
            rhs = np.zeros(Xr.shape)
            np.subtract(F, Xr[:, 1:], out=rhs[:, 1:])
            delta = _band_solve(band, rhs.reshape(-1, 1), "N").reshape(len(rows), -1)
            size = np.abs(delta).max(axis=1)
            scale = np.maximum(1.0, np.abs(Xr).reshape(len(rows), -1).max(axis=1))
            done = size <= 1e-15 * scale  # False where nan
            Xr[:, 1:] += delta.reshape(Xr.shape)[:, 1:]
            if done.any():
                X[rows[done]] = Xr[done]
                stopped[rows[done]] = True
            # A non-finite F or delta leaves its row's states non-finite.
            moving = ~done & np.isfinite(Xr).reshape(len(rows), -1).all(axis=1)
            if not moving.any():
                break
            stale = ~(size <= NEWTON_THETA * last)
            if not moving.all():
                rows, Xr, Ur, band = rows[moving], Xr[moving], Ur[moving], band[moving]
                stale, size = stale[moving], size[moving]
            last = size
    rest = np.flatnonzero(~stopped)
    if rest.size:
        try:
            X[rest] = dyn.rollout(model, X[rest, 0], us[rest], k0)
        except NumericError as exc:
            raise NumericError(str(exc), row=int(rest[exc.row])) from exc
    return X


def costate_sweep(terms: GroupTerms, trajs, us, band, bundles) -> np.ndarray:
    """Backward costate recursion of a stack of agents; returns the
    (K, H+1, p) array of lambda(t), one row per agent.

    ``terms`` is the stack's table from ``CostSpec.group_terms``,
    ``bundles`` gives each row's neighbor bundle and ``band`` is L's band
    (``_lower_band``) from the windows' A.  lambda(H) collects the terminal
    weights and lambda(t) = sum_j Q_ij e_ij(t) + lambda(t+1) A(t) for t < H,
    the leader being neighbour 0: one banded solve with L^T for the stack.
    Each row's sources are summed in term order from all of the stack's
    errors at once; lambda(0) is computed but unused by the gradient.
    """
    trajs = np.asarray(trajs, dtype=float)
    us = np.asarray(us, dtype=float)
    K, H, p = trajs.shape[0], us.shape[1], trajs.shape[2]

    E = local_errors(terms, trajs, us, bundles)
    sources = E @ terms.Q
    sources[:, H] = (terms.D @ E[:, H, :, None])[..., 0]  # the terminal D e(H)
    src = np.zeros((K, H + 1, p))
    np.add.at(src, terms.rows, sources)
    return _band_solve(band, src.reshape(-1, 1), "T").reshape(K, H + 1, p)


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
    entries in ``kkt_band``'s order, those of the u rows' diagonals, the
    u unknowns' indices in g's (K, H*m) order and the x unknowns' in
    (K, H, p) order."""
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
    layout = template, index, (ur * ld + 2 * kl).ravel(), ur.ravel(), xr.ravel()
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

    Returns (band, kl, rows, states): ``band`` in LAPACK's general band
    storage for dgbtrf, (3 kl + 1, N) and F-ordered, ``rows`` the u
    unknowns' indices in g's (K, H*m) order and ``states`` the x unknowns'
    in (K, H, p) order.  The layout is built once per (K, H, p, m); each
    call copies its constant part and assigns the rest at once.
    """
    A, B = jac
    K, H, p, m = B.shape
    template, index, diag, rows, states = _kkt_layout(K, H, p, m)
    band = template.copy()
    flat = band.reshape(-1)
    flat[index] = np.concatenate([
        blocks[:, 1:].ravel(), blocks[:, :1, :p, :p].ravel(), blocks[:, :1, p:, p:].ravel(),
        B.transpose(0, 1, 3, 2).ravel(), B.ravel(),
        A[:, 1:].ravel(), A[:, 1:].transpose(0, 1, 3, 2).ravel()])
    flat[diag] += c
    return band.T, m + 2 * p - 1, rows, states


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


def hessian(blocks, B, band) -> np.ndarray:
    """Exact (H*m, H*m) Hessians of a stack of agents' local costs,
    neighbors frozen, as a (K, H*m, H*m) array, from their ``stage_blocks``,
    the windows' B and L's band (``_lower_band``) from their A.

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
    K, H, p, m = B.shape
    n = H * m

    at_rhs, at_diag = _hessian_layout(K, H, p, m)
    rhs = np.zeros(n * K * (H + 1) * p)
    rhs[at_rhs] = B.reshape(-1)
    dxs = _band_solve(band, rhs.reshape(n, -1).T, "N").T.reshape(n, K, H + 1, p)
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
    """Central differences of fn at the window u, one row per coordinate k of
    u flattened, with step h, or rel (1 + |u_k|) when h is None."""
    u = np.asarray(u, dtype=float)
    if h is not None and not h > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    rows = []
    for idx in range(u.size):
        hk = h if h is not None else rel * (1.0 + abs(u.flat[idx]))
        e = np.zeros(u.shape)
        e.flat[idx] = hk
        rows.append((fn(u + e) - fn(u - e)) / (2.0 * hk))
    return np.array(rows)


def fd_gradient(problem, u, h=None) -> np.ndarray:
    """Central differences of a ``solver.LocalProblem``'s cost; the gradient's oracle."""
    return _central_differences(problem.cost, u, h, 1e-6)


def fd_hessian(problem, u, h=None) -> np.ndarray:
    """Central differences of its sweep gradient; the Hessian's oracle."""
    Hmat = _central_differences(problem.gradient, u, h, 1e-4)
    return 0.5 * (Hmat + Hmat.T)
