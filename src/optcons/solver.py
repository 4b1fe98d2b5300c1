"""The pieces of the per-agent update, which ``coordinator`` assembles:
the frozen-neighbor window problem, the Newton-type direction, the slow
first-order baseline's backtracking step, and the contraction diagnostic.

The accelerated update refines a regularized Newton step through an inner
geometric recursion whose depth grows with the outer iteration counter:

    d^0 = (G + H)^-1 g,      d^l = (G + H)^-1 (g + G d^{l-1}),

after which u <- u - d.  On a quadratic the error contracts by
rho((G+H)^-1 G)^{r+1} per outer step r, which is what makes the scheme
superlinear; ``contraction_factor`` computes that spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

from . import adjoint, dynamics as dyn
from .cost import CostSpec, NeighborBundle, local_cost
from .errors import NumericError, PreconditionError


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the per-agent update; ``method`` picks the accelerated
    update ("ocp") or the backtracking gradient baseline ("msa")."""

    c: float = 1.0
    max_outer: int = 100
    L_max: int = 10
    eps_grad: float = 1e-6
    eps_step: float = 1e-6
    reg_floor: float = 1e-8
    method: str = "ocp"
    msa_eta0: float = 0.7

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"G scale c must be positive, got {self.c}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not (self.eps_grad > 0 and self.eps_step > 0):
            raise ValueError("tolerances must be positive")
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

    def rollout(self, u):
        return dyn.rollout(self.model, self.x0, u, self.k0)

    def cost(self, u, traj=None) -> float:
        """Local cost at u, rolling u out unless its rollout ``traj`` is given."""
        if traj is None:
            traj = self.rollout(u)
        return local_cost(self.i, traj, u, self.nb, self.spec)

    def sweep(self, u, traj=None):
        """Linearization, costate and gradient at u, rolling u out unless
        its rollout ``traj`` is given; returns (traj, jac, lam, g) with jac
        the window's (A, B)."""
        if traj is None:
            traj = self.rollout(u)
        jac = adjoint.linearize_window(self.model, traj, u, self.k0)
        lam = adjoint.costate_sweep(self.i, traj, u, jac, self.nb, self.spec)
        g = adjoint.gradient(self.i, u, jac, lam, self.spec)
        return traj, jac, lam, g

    def hessian(self, u, traj, jac, lam):
        return adjoint.hessian(self.i, self.model, traj, u, jac, lam, self.spec,
                               k0=self.k0)


def regularize(Hmat: np.ndarray, floor: float) -> np.ndarray:
    """Shift H so its smallest eigenvalue is at least ``floor``."""
    lo = float(np.linalg.eigvalsh(Hmat).min())
    if lo < floor:
        Hmat = Hmat + (floor - lo) * np.eye(Hmat.shape[0])
    return Hmat


def ocp_direction(g: np.ndarray, Hmat: np.ndarray, c: float, r: int,
                  L_max: int = 10) -> np.ndarray:
    """Inner recursion producing the update direction at outer iteration r,
    with G = c I.

    One LAPACK Cholesky factorization (dpotrf) of c I + H is reused by the
    min(r, L_max) + 1 triangular solves (dpotrs) of d^0 = (G+H)^-1 g and
    d^l = (G+H)^-1 (g + c d^{l-1}).  These are the routines scipy's
    cho_factor and cho_solve call, minus their per-call wrapper overhead, so
    d equals that recursion on the dense G exactly (an exactly zero entry
    may differ in sign).  Non-finite input raises ValueError; c I + H not
    positive definite raises NumericError.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    GH = np.array(Hmat, dtype=float)
    GH.flat[::n + 1] += c
    if not (np.isfinite(GH).all() and np.isfinite(g).all()):
        raise ValueError("array must not contain infs or NaNs")
    cho, info = dpotrf(GH, clean=0)
    if info > 0:
        raise NumericError(f"G + H is not positive definite: {info}-th leading "
                           f"minor of the array is not positive definite")
    d, _ = dpotrs(cho, g)
    for _ in range(min(r, L_max)):
        d, _ = dpotrs(cho, g + c * d)
    return d


def contraction_factor(Hmat: np.ndarray, G: np.ndarray) -> float:
    """Spectral radius of (G+H)^-1 G; lies in (0, 1) for SPD G and H."""
    Hmat = np.asarray(Hmat, dtype=float)
    G = np.asarray(G, dtype=float)
    if np.linalg.eigvalsh(0.5 * (Hmat + Hmat.T)).min() <= 0:
        raise PreconditionError("Hessian must be positive definite")
    if np.linalg.eigvalsh(0.5 * (G + G.T)).min() <= 0:
        raise PreconditionError("G must be positive definite")
    # Generalized symmetric-definite problem G v = w (G+H) v.
    w = scipy.linalg.eigh(G, G + Hmat, eigvals_only=True)
    return float(np.max(np.abs(w)))


def backtrack_step(cost_fn, u, g, J, eta):
    """One gradient step with Armijo backtracking.

    Halves eta until J(u - eta g) <= J - 1e-4 eta ||g||^2.  Once the
    predicted decrease drops below the floating-point resolution of J the
    test is unverifiable, so the step is accepted on mere non-increase (to
    within the same resolution) instead of halving eta into the ground.
    Returns (u_new, J_new, eta, step_norm) or None when eta collapses.
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
            return None
    return u_try, J_try, eta, float(np.linalg.norm(eta * g))

