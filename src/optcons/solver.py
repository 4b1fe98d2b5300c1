"""The pieces of the update, which ``coordinator`` assembles: the
frozen-neighbor window problem, the stacked sweep over a model group's
windows, their Newton-type directions, the slow first-order baseline's
backtracking step (its trials costed on whole tables), and the contraction
diagnostic.  A direction comes from the dense Hessians (``regularize`` and
``ocp_direction``: triangular solves or an inverse) or, for long windows
(``banded_pays``) whose Hessians a certificate proves need no shift
(``banded_certificate``), from one banded KKT factorization per group that
never forms them (``banded_direction``); both read the group-round's one
set of ``adjoint.stage_blocks``.  The certificate factors only windows
whose stage blocks have cross terms: for diagonal blocks the Cholesky's
pivots are the diagonal entries themselves, so their signs decide it
exactly.

The accelerated update refines a regularized Newton step through an inner
geometric recursion whose depth grows with the outer iteration counter:

    d^0 = (G + H)^-1 g,      d^l = (G + H)^-1 (g + G d^{l-1}),

after which u <- u - d.  On a quadratic the error contracts by
rho((G+H)^-1 G)^{r+1} per outer step r, which is what makes the scheme
superlinear; ``contraction_factor`` computes that spectral radius.  The
last iterate, after N = min(r, L_max) + 1 terms, is d = sum_{l<N} P^l d^0
with P = (G+H)^-1 G, which the dense path's inverse form evaluates by
repeated squaring (binary powering; Knuth, TAOCP vol. 2, 4.6.3): about
2 log2 N stacked products instead of N - 1 matvecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import adjoint, dynamics as dyn
from ._lapack import dgbtrf, dgbtrs, dposv, dpotrf, dpotrs
from .cost import CostSpec, GroupTerms, NeighborBundle, local_costs
from .errors import NumericError, PreconditionError


# Smallest Hessian eigenvalue ``regularize`` lets through, the msa baseline's
# first step size, ``ocp_direction``'s measured inverse threshold, and the
# measured switch to ``banded_direction`` (see ``banded_pays``).
REG_FLOOR = 1e-8
MSA_ETA0 = 0.7
INVERSE_N_PER_DEPTH = 4
BANDED_MIN_N = 32
BANDED_N_PER_DEPTH = 4


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-agent update; ``method`` picks the accelerated
    update ("ocp") or the backtracking gradient baseline ("msa").  ``eps``
    bounds the step norms that end an MPC step and the gradient norms that
    end a one-shot run or ``solve_local``."""

    c: float = 1.0
    max_outer: int = 100
    L_max: int = 10
    eps: float = 1e-6
    method: str = "ocp"

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"G scale c must be positive, got {self.c}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not self.eps > 0:
            raise ValueError(f"tolerance eps must be positive, got {self.eps}")
        if self.L_max < 0:
            raise ValueError(f"L_max must be >= 0, got {self.L_max}")
        if self.method not in ("ocp", "msa"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class LocalProblem:
    """Agent i's frozen-neighbor subproblem over one horizon window."""

    i: int
    model: dyn.Model
    x0: np.ndarray
    nb: NeighborBundle
    spec: CostSpec
    k0: int = 0

    @cached_property
    def terms(self) -> GroupTerms:
        """The problem's cost-term table, a stack of one, tabulated on first use."""
        return self.spec.group_terms([self.i], self.model.state_dim)

    def cost(self, u) -> float:
        """The local cost at the window u (H, m)."""
        us = np.asarray(u, dtype=float)[None]
        trajs = dyn.rollout(self.model, [self.x0], us, self.k0)
        return local_costs(self.terms, trajs, us, [self.nb])[0]

    def sweep(self, u):
        """The window u (H, m) as a stack of one, rolled out and swept:
        (us, trajs, (jac, band, lam, g)), as the round loop sweeps it."""
        us = np.asarray(u, dtype=float)[None]
        trajs = dyn.rollout(self.model, [self.x0], us, self.k0)
        return us, trajs, sweep(self.model, self.k0, self.terms, [self.nb], us, trajs)

    def gradient(self, u) -> np.ndarray:
        """The exact gradient (H*m,) of the local cost at u."""
        return self.sweep(u)[2][3][0]

    def hessian(self, u) -> np.ndarray:
        """The exact Hessian (H*m, H*m) of the local cost at u, by the round
        update's ``second_order_action``, ``stage_blocks`` and ``hessian``."""
        us, trajs, ((_, B), band, lam, _) = self.sweep(u)
        M = dyn.second_order_action(self.model, trajs[:, :-1], us, self.k0, lam[:, 1:])
        return adjoint.hessian(adjoint.stage_blocks(self.terms, M), B, band)[0]


def sweep(model, k0, terms, bundles, us, trajs):
    """Linearization, costates and gradients (one row each) of a model
    group's windows us (K, H, m), stage t at time k0 + t, with rollouts
    trajs (K, H+1, p), cost-term table ``terms`` and each row's neighbour
    bundle; returns (jac, band, lam, g), jac the windows' (A, B) and band
    the group-round's one band of L (``adjoint._lower_band``), which the
    costate sweep, the dense rows' Hessians and the next round's Newton
    rollouts read."""
    jac = adjoint.linearize_window(model, trajs, us, k0)
    band = adjoint._lower_band(jac[0])
    lam = adjoint.costate_sweep(terms, trajs, us, band, bundles)
    return jac, band, lam, adjoint.gradient(terms, us, jac, lam)


def _cholesky_rows(blocks: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Which rows (K,) of a stack of blocks (K, ..., s, s) complete a Cholesky
    factorization of every block (its lower triangle) once the row's
    ``shift`` (K,) is added to its diagonals, for ``banded_certificate``:
    one batched call, then rows one at a time only if it fails.  A shift
    that is not finite fails."""
    ok = np.isfinite(shift)
    B, shift = (blocks.copy(), shift) if ok.all() else (blocks[ok], shift[ok])
    s = B.shape[-1]
    diag = B.reshape(B.shape[:-2] + (s * s,))[..., ::s + 1].T  # every block's diagonal, rows last
    diag += shift
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        for a, row in zip(np.flatnonzero(ok), B):
            try:
                np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                ok[a] = False
    return ok


def regularize(Hs: np.ndarray, floor: float) -> np.ndarray:
    """Shift each Hessian of a stack Hs (K, n, n) so its smallest eigenvalue
    is at least ``floor``; returns Hs itself (the same object) when no row
    moves, else a new stack, every entry of which is finite: a row with an
    entry that is not finite, before or after its shift, raises
    NumericError("non-finite Hessian") with that ``row``.

    The eigenvalue path shifts a row H by floor - lo, lo the smallest
    eigenvalue ``eigvalsh`` computes from H's lower triangle, and leaves it
    when lo >= floor.  A Cholesky certificate of the lower triangle of
    H - (floor + delta) I, delta = 2 n^2 eps max|H_ij|, runs first and skips
    that path for the rows where it completes: it then proves lambda_min(H)
    >= floor + n^2 eps max|H_ij|, since the rounding error of a completed
    Cholesky, gamma_{n+1} tr H (Rump, "Verification of positive
    definiteness", BIT 2006), is below n^2 eps max|H_ij|; and eigvalsh,
    backward stable to n eps ||H||_2 <= n^2 eps max|H_ij|, would find lo >=
    floor.  The certificate is one dpotrf per row on one scratch copy of the
    shifted stack, each row passed transposed (Fortran order, so factored in
    place) as the upper triangle, which is the C-lower one eigvalsh reads.
    Every other row takes the eigenvalue path, so each row of the output is
    that path's in every case, and equals its stack of one's.
    """
    K, n = Hs.shape[:2]
    delta = 2 * n * n * np.finfo(float).eps * abs(Hs).max(axis=(1, 2))
    finite = np.isfinite(delta)
    if not finite.all():
        raise NumericError("non-finite Hessian", row=int(np.argmin(finite)))
    B = Hs.copy()
    B.reshape(K, n * n)[:, ::n + 1] -= (floor + delta)[:, None]
    out = Hs
    for a in range(K):
        if dpotrf(B[a].T, lower=0, clean=0, overwrite_a=1)[1]:
            lo = float(np.linalg.eigvalsh(Hs[a]).min())
            if lo < floor:
                out = Hs.copy() if out is Hs else out
                out[a] = Hs[a] + (floor - lo) * np.eye(n)
                if not np.isfinite(out[a]).all():
                    raise NumericError("non-finite Hessian", row=a)
    return out


@lru_cache(maxsize=32)
def _inverse_template(K: int, n: int, c: float) -> np.ndarray:
    """T's constant part for ``ocp_direction``, [[c I, 0], [0, 1]] (K, n+1,
    n+1), read-only so that every call with these sizes can share it."""
    T = np.zeros((K, n + 1, n + 1))
    T[:, :n, :n] = c * np.eye(n)
    T[:, n, n] = 1.0
    T.flags.writeable = False
    return T


def ocp_direction(g: np.ndarray, Hs, c: float, r: int, L_max: int = 10) -> np.ndarray:
    """Inner recursion producing a model group's directions d (K, n) from
    gradients g (K, n) and Hessians Hs (K, n, n) at outer iteration r, G = c I.

    d is the sum of the N = min(r, L_max) + 1 terms P^l b, P = (G+H)^-1 G
    and b = (G+H)^-1 g, after one dposv (dpotrf, then dpotrs) per row.
    Below n / INVERSE_N_PER_DEPTH terms, dposv solves for b and cho_solve's
    triangular solves (dpotrs) run the recursion, which d equals bit for bit
    up to signed zeros.  Else dposv turns [[c I, g], [0, 1]] into T = [[P,
    b], [0, 1]], whose powers T^k = [[P^k, S_k], [0, 1]] hold the sum's
    first k terms S_k, and the squares T^(2^j) for N's binary digits give
    d = S_N in about 2 log2 N stacked products (S_{a+k} = S_k + P^k S_a,
    P^2k = P^k P^k), equal to rounding.  Its right-hand sides [c I, g] sit
    transposed in one C-ordered stack, so each row's is Fortran-ordered and
    dposv solves it in place; T's constant part comes from a shared
    read-only template (``_inverse_template``), which c I is also read from.
    A row whose c I + H is not positive definite raises NumericError with
    that ``row``.  The gradients and Hessians are finite, as the caller
    ``_round_update`` ensures (its gradient gate and ``regularize``).
    """
    g = np.asarray(g, dtype=float)[..., None]
    K, n, _ = g.shape
    N = min(r, L_max) + 1
    inverse = INVERSE_N_PER_DEPTH * N >= n
    template = _inverse_template(K, n, c)
    GH = np.add(Hs, template[0, :n, :n])
    if inverse:  # row a's [c I, g] is X[a].T
        X = np.concatenate((template[:, :n, :n], g.transpose(0, 2, 1)), axis=1)
    else:
        d = np.empty_like(g)
    for a in range(K):
        cho, x, info = dposv(GH[a], X[a].T if inverse else g[a], overwrite_b=inverse)
        if info > 0:
            raise NumericError(f"G + H is not positive definite: {info}-th leading "
                               f"minor of the array is not positive definite", row=a)
        if inverse:
            continue
        d[a] = x
        for _ in range(N - 1):
            d[a], _ = dpotrs(cho, g[a] + c * d[a])
    if inverse:
        T = template.copy()
        T[:, :n] = X.transpose(0, 2, 1)
        x, d = T, None  # x = T^(2^j) for N's binary digit j, lowest first
        for j, bit in enumerate(bin(N)[:1:-1]):
            x = x @ x if j else x
            if bit == "1":
                d = x[..., n:] if d is None else x @ d
        d = d[:, :n]
    return d[..., 0]


def banded_pays(n: int, r: int, L_max: int) -> bool:
    """The switch between the dense and the banded direction, measured per
    group-round on stacks of 1 and 4 windows with n = H*m = 16..128: the
    banded path pays for n >= BANDED_MIN_N while n >= BANDED_N_PER_DEPTH
    (min(r, L_max) + 1), since each of its min(r, L_max) + 1 applications
    of (G+H)^-1 is one dgbtrs, and the Hessian it avoids grows faster than
    n.  It reads n and the depth only."""
    return n >= max(BANDED_MIN_N, BANDED_N_PER_DEPTH * (min(r, L_max) + 1))


def banded_certificate(blocks: np.ndarray, m: int, floor: float) -> np.ndarray:
    """Which windows of a stack (K,) the ``adjoint.stage_blocks`` (K, H,
    p+m, p+m), u their last m coordinates, prove to have a Hessian H with
    lambda_min(H) >= 2 floor, so that ``regularize`` need not shift it.

    The blocks' direct sum is the window's Lagrangian Hessian L in (x, u),
    and H = Z^T L Z with Z the sensitivities stacked over the identity, so
    L - 2 floor P_u >= 0 (P_u on the u coordinates) gives u^T H u >=
    2 floor |u|^2.  One batched Cholesky tests every block B of L - 2 floor
    P_u shifted by delta = 2 s^2 eps max|B_ij| over its window (s = p+m);
    it completes only if lambda_min(B) >= -2 delta, since the rounding error
    of a completed Cholesky is below s^2 eps max|B_ij| (see ``regularize``).
    So a merely semidefinite block, a zero terminal weight among them,
    passes, and H is held to within its own rounding of the 2 floor bound,
    a floor above what ``regularize`` needs: a shift that the dense path
    could still apply is smaller than the rounding of its H, and the two
    directions agree to rounding.  Non-finite windows fail.

    A window whose blocks have no nonzero off-diagonal entry is decided
    from its diagonals alone, without the factorization: it passes iff its
    delta is finite and every diagonal entry of B plus delta is > 0, that
    is, its smallest diagonal entry is > -delta (a rounded sum has the sign
    of the exact one).  That is the Cholesky's decision exactly, since its
    pivots are then the shifted diagonal entries themselves: the
    factorization subtracts only products with exact zeros (0 or -0.0),
    which leave an entry as it is.  Every other window is factored.
    """
    K, H, s = blocks.shape[:2] + blocks.shape[-1:]
    B = blocks.reshape(K, H, s * s).copy()
    B[..., (s + 1) * (s - m)::s + 1] -= 2 * floor
    size = abs(B)
    delta = 2 * s * s * np.finfo(float).eps * size.reshape(K, H * s * s).max(axis=1)
    ok = np.isfinite(delta) & (B[..., ::s + 1].min(axis=(1, 2)) > -delta)
    size[..., ::s + 1] = 0.0  # the off-diagonal entries' sizes
    crossed = np.flatnonzero(size.reshape(K, H * s * s).any(axis=1))
    if crossed.size:
        ok[crossed] = _cholesky_rows(B[crossed].reshape(-1, H, s, s), delta[crossed])
    return ok


def banded_direction(g: np.ndarray, blocks: np.ndarray, jac, c: float, r: int,
                     L_max: int = 10):
    """``ocp_direction``'s inner recursion on a model group's windows
    without their Hessians, at outer iteration r, G = c I: returns (d, ok,
    x), the directions (K, n) of the rows that ``ok`` (K,) marks and their
    state responses x (K, H, p), from gradients g (K, n), the windows'
    ``adjoint.stage_blocks`` and their (A, B) ``jac``.

    One dgbtrf factors the solved rows' ``adjoint.kkt_band``, and each of
    the min(r, L_max) + 1 applications of (G+H)^-1 is one dgbtrs with
    g + c d in the u rows.  d equals ``ocp_direction(g, [regularize(H,
    REG_FLOOR) ...])`` to rounding (within 1e-12 relative on the built-in
    models).  x is the last dgbtrs's x unknowns, which its constraint rows
    tie to its u unknowns, d: x(t+1) = A(t) x(t) + B(t) d(t) from x(0) = 0,
    the linearized dynamics' response to d at no extra cost, so the states
    of the windows u - d are predicted to first order as the rollouts
    minus [0; x] (``adjoint.newton_rollout`` starts there).  A row is left
    to the dense path, its d and x zero, when its ``banded_certificate``
    fails or dgbtrf finds a zero pivot in it; so a row's outcome, like its d
    and x, equals its stack of one's bit for bit.  The gradients, as the
    caller ``_round_update`` ensures, and the windows' (A, B) are finite and
    their blocks symmetric, as ``dyn.linearize`` and ``dyn.second_order_action`` do.
    """
    A, B = jac
    K, H, p, m = B.shape
    ok = banded_certificate(blocks, m, REG_FLOOR)
    while ok.any():
        rows = slice(None) if ok.all() else np.flatnonzero(ok)  # no copies if all are in
        band, kl, u, xs = adjoint.kkt_band(blocks[rows], (A[rows], B[rows]), c)
        lu, piv, info = dgbtrf(band, kl, kl, overwrite_ab=1)
        if not info:
            break
        ok[np.flatnonzero(ok)[(info - 1) // (H * (m + 2 * p))]] = False
    d, x = np.zeros((K, H * m)), np.zeros((K, H, p))
    if not ok.any():
        return d, ok, x
    g = g[rows].reshape(-1)
    b = np.zeros(band.shape[1])
    b[u] = g
    sol = dgbtrs(lu, kl, kl, b, piv)[0]
    for _ in range(min(r, L_max)):
        b[u] = g + c * sol[u]
        sol = dgbtrs(lu, kl, kl, b, piv)[0]
    d[rows] = sol[u].reshape(-1, H * m)
    x[rows] = sol[xs].reshape(-1, H, p)
    return d, ok, x


def contraction_factor(Hmat: np.ndarray, G: np.ndarray) -> float:
    """Spectral radius of (G+H)^-1 G; lies in (0, 1) for SPD G and H."""
    Hmat = np.asarray(Hmat, dtype=float)
    G = np.asarray(G, dtype=float)
    if np.linalg.eigvalsh(0.5 * (Hmat + Hmat.T)).min() <= 0:
        raise PreconditionError("Hessian must be positive definite")
    if np.linalg.eigvalsh(0.5 * (G + G.T)).min() <= 0:
        raise PreconditionError("G must be positive definite")
    # Generalized symmetric-definite problem G v = w (G+H) v, reduced by
    # G + H = C C^T to the symmetric C^-1 G C^-T (Golub & Van Loan, 8.7.2).
    Ci = np.linalg.inv(np.linalg.cholesky(G + Hmat))
    S = Ci @ G @ Ci.T
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (S + S.T)))))


def backtrack_step(cost_fn, u, g, J, eta):
    """One gradient step with Armijo backtracking.

    Halves eta until J(u - eta g) <= J - 1e-4 eta ||g||^2.  Once the
    predicted decrease drops below the floating-point resolution of J the
    test is unverifiable, so the step is accepted on mere non-increase (to
    within the same resolution) instead of halving eta into the ground.
    Returns (u_new, J_new, eta, step_norm); eta below 1e-15 raises NumericError.
    """
    gnorm2 = float(g.reshape(-1) @ g.reshape(-1))
    while True:
        u_try = u - eta * g.reshape(u.shape)
        J_try = cost_fn(u_try)
        resolution = 4.0 * np.finfo(float).eps * (1.0 + abs(J))
        predicted = 1e-4 * eta * gnorm2
        if predicted < resolution:
            if J_try <= J + resolution:
                break
        elif J_try <= J - predicted:
            break
        eta *= 0.5
        if eta < 1e-15:
            raise NumericError(f"backtracking step size fell below 1e-15 at cost {J:.3e}")
    return u_try, J_try, eta, float(np.linalg.norm(eta * g))

